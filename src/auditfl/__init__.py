"""Publicly auditable, privacy-preserving, robust federated learning.

The protocol trains a shared model from masked gradients, filters gradients
whose direction opposes a trusted server gradient, and publishes a training
record to a hash-chained ledger that any third party can verify bit for bit
without any secret; the ledger does not yet hide the gradients from that
party (README, "What the ledger reveals").

The public names below are imported from their modules on first use
(PEP 562), so importing the package, or one module of it, loads only what
that use needs: an audit loads the auditor, records, ledger, crypto and
fixedpoint modules, never the ones that train.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "AuditReport": "auditor",
    "full_audit": "auditor",
    "ConfigError": "config",
    "DatasetConfig": "config",
    "RunConfig": "config",
    "DEFAULT_SCALE": "fixedpoint",
    "DimensionMismatchError": "fixedpoint",
    "FixedPointOverflowError": "fixedpoint",
    "FpVector": "fixedpoint",
    "active_backend": "fixedpoint",
    "dot": "fixedpoint",
    "floor_div": "fixedpoint",
    "hadamard": "fixedpoint",
    "sign_indicator": "fixedpoint",
    "Ledger": "ledger",
    "LedgerError": "ledger",
    "preprocess": "protocol",
    "robust_aggregate": "protocol",
    "run_training": "protocol",
    "GenesisPayload": "records",
    "RoundRecord": "records",
    "TrainingRecord": "records",
    "AdversarySpec": "training",
    "Architecture": "training",
    "Dataset": "training",
    "load_idx": "training",
    "partition": "training",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # also how `from auditfl import ledger` learns to import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # the next lookup does not come here
    return value
