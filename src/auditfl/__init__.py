"""Publicly auditable, privacy-preserving, robust federated learning.

The protocol trains a shared model from masked gradients, filters gradients
whose direction opposes a trusted server gradient, and publishes a training
record to a hash-chained ledger that any third party can verify bit for bit
without any secret; the ledger does not yet hide the gradients from that
party (README, "What the ledger reveals").
"""

from .auditor import AuditReport, full_audit
from .config import ConfigError, DatasetConfig, RunConfig
from .fixedpoint import (
    DEFAULT_SCALE,
    DimensionMismatchError,
    FixedPointOverflowError,
    FpVector,
    active_backend,
    dot,
    floor_div,
    hadamard,
    sign_indicator,
)
from .ledger import Ledger, LedgerError
from .protocol import preprocess, robust_aggregate, run_training
from .records import GenesisPayload, RoundRecord, TrainingRecord
from .training import AdversarySpec, Architecture, Dataset, load_idx, partition

__version__ = "0.1.0"

__all__ = [
    "AdversarySpec",
    "Architecture",
    "AuditReport",
    "ConfigError",
    "Dataset",
    "DatasetConfig",
    "DEFAULT_SCALE",
    "DimensionMismatchError",
    "FixedPointOverflowError",
    "FpVector",
    "GenesisPayload",
    "Ledger",
    "LedgerError",
    "RoundRecord",
    "RunConfig",
    "TrainingRecord",
    "active_backend",
    "dot",
    "floor_div",
    "full_audit",
    "hadamard",
    "load_idx",
    "partition",
    "preprocess",
    "robust_aggregate",
    "run_training",
    "sign_indicator",
    "__version__",
]
