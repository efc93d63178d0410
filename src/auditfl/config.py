"""Run configuration: parameters, validation, and the overflow budget.

A `RunConfig` is valid by construction: every way of building one runs
`validate`. A run that could overflow 64-bit raws anywhere on the protocol
path is rejected there, from (mask bounds, scale, learning rate,
participant count, round count) alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import randomness
from .fixedpoint import DEFAULT_SCALE
from .training import AdversarySpec

INT64_BITS = 63

# Budgeted magnitude for quantized gradient entries: |g| <= 2^GRAD_VALUE_BITS
# in value terms. Cross-entropy gradients on [0,1] features are O(1); the
# budget leaves two orders of magnitude of slack plus room for amplifiers.
GRAD_VALUE_BITS = 8


class ConfigError(ValueError):
    """Invalid or overflow-prone run configuration."""


@dataclass(frozen=True)
class DatasetConfig:
    """Where training data comes from.

    kind "idx": read the four IDX files from `data_dir` (MNIST layout).
    kind "synthetic": generate a deterministic IDX corpus into `data_dir`
    (written on first use, then loaded through the same IDX reader).
    """

    kind: str = "synthetic"
    data_dir: str = "data"
    n_train: int = 22000
    n_test: int = 4000
    side: int = 28
    n_classes: int = 10

    def __post_init__(self):
        if self.kind not in ("idx", "synthetic"):
            raise ConfigError(f"dataset kind must be 'idx' or 'synthetic', got {self.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a training run, bit for bit."""

    participants: int = 20
    rounds: int = 500
    eta: str = "0.5"  # dyadic rational, e.g. "0.5", "0.25", "3/8"
    batch_size: int = 64
    scale: int = DEFAULT_SCALE
    master_seed: int = 1
    malicious: dict[int, AdversarySpec] = field(default_factory=dict)
    clipping: bool = False
    clip_factor: int = 3
    pretrain_steps: int = 10
    hidden: int = 0  # 0 = logistic regression
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    metrics_every: int = 1  # 0 = only final evaluation

    def __post_init__(self):
        validate(self)

    def eta_parts(self) -> tuple[int, int]:
        """(numerator, power-of-two exponent) of the dyadic rate, in lowest terms."""
        try:
            fr = Fraction(self.eta)
        except (ValueError, TypeError, ZeroDivisionError):
            raise ConfigError(f"learning rate {self.eta!r} is not a number") from None
        den = fr.denominator
        if den & (den - 1) != 0:
            raise ConfigError(
                f"learning rate {self.eta} is not dyadic; audit exactness "
                f"requires a power-of-two denominator"
            )
        return fr.numerator, den.bit_length() - 1


def validate(config: RunConfig) -> None:
    """Reject an invalid or overflow-prone configuration with a diagnosis.

    Run by `RunConfig.__post_init__`. The one rule that needs the data, a
    batch no larger than the smallest shard, is `run_training`'s.
    """
    c = config
    if c.participants < 1:
        raise ConfigError(f"need at least 1 participant, got {c.participants}")
    if c.rounds < 1:
        raise ConfigError(f"need at least 1 round, got {c.rounds}")
    if c.batch_size < 1:
        raise ConfigError(f"batch size must be positive, got {c.batch_size}")
    for name in ("hidden", "pretrain_steps", "metrics_every"):
        if getattr(c, name) < 0:
            raise ConfigError(f"{name} must be >= 0, got {getattr(c, name)}")
    if not (0 <= c.master_seed < 1 << 128):
        raise ConfigError(f"master seed must be in 0..2**128 - 1, got {c.master_seed}")
    if not (1 <= c.scale <= 40):
        raise ConfigError(f"fixed-point scale must be in 1..40, got {c.scale}")
    eta_num, eta_exp = c.eta_parts()
    if eta_num <= 0:
        raise ConfigError(f"learning rate must be positive, got {c.eta}")
    if eta_exp > c.scale:
        raise ConfigError(
            f"dyadic exponent {eta_exp} exceeds fixed-point scale {c.scale}; "
            f"the masked-update algebra would not cancel exactly"
        )
    bad_ids = [i for i in c.malicious if not (1 <= i <= c.participants)]
    if bad_ids:
        raise ConfigError(
            f"malicious ids {bad_ids} outside participant ids 1..{c.participants}"
        )
    if eta_exp >= randomness.MASK_BITS:
        raise ConfigError(
            f"dyadic exponent {eta_exp} >= mask bits {randomness.MASK_BITS}; "
            f"no lattice room for exact model-mask shares"
        )
    if c.clipping and c.clip_factor < 1:
        raise ConfigError(f"clip factor must be >= 1, got {c.clip_factor}")
    check_overflow_budget(c)


def check_overflow_budget(config: RunConfig) -> None:
    """Static worst-case bound analysis over the whole protocol path.

    Every bound is per entry: inner products are exact for any length
    (fixedpoint.dot), so the model dimension plays no part.
    """
    c = config
    eta_num, _ = c.eta_parts()
    amp = max(
        (s.factor for s in c.malicious.values() if s.kind == "scale_amplify"),
        default=1,
    )
    grad_raw = (1 << (c.scale + GRAD_VALUE_BITS)) * amp  # max |g| raw
    n = c.participants
    mask = 1 << randomness.MASK_BITS

    def need(name: str, value: int):
        if value >= (1 << INT64_BITS):
            raise ConfigError(
                f"overflow budget exceeded for {name}: needs {value.bit_length()} "
                f"bits, limit {INT64_BITS} (scale={c.scale}, participants={n})"
            )

    need("masked gradient mg1 raw", grad_raw * randomness.RN_HI)
    need("additively masked gradient mg2 raw", grad_raw + mask)
    need("aggregation numerator raw", (n + 1) * grad_raw)
    need("masked server aggregate raw", (n + 1) * mask + n * mask + grad_raw)
    need(
        "audit aggregation numerator raw",
        (n + 1) * mask + n * mask + grad_raw + n * (grad_raw + mask),
    )
    rv_w = c.rounds * eta_num * mask
    need("model mask total raw", rv_w)
    w_raw = (1 << (c.scale + GRAD_VALUE_BITS)) + c.rounds * eta_num * grad_raw
    need("model raw after R rounds", w_raw)
    need("masked model raw", w_raw + rv_w)
    need(
        "recovered-model accumulator raw",
        w_raw + rv_w + c.rounds * eta_num * (mask + grad_raw),
    )


# ---------------------------------------------------------------------------
# JSON config files.
# ---------------------------------------------------------------------------


def parse_malicious(entries) -> dict[int, AdversarySpec]:
    """Parse ["5:label_flip", "7:scale_amplify:10", ...] declarations."""
    out: dict[int, AdversarySpec] = {}
    for entry in entries:
        parts = str(entry).split(":")
        if len(parts) < 2:
            raise ConfigError(
                f"malicious spec {entry!r} must look like 'id:kind[:factor]'"
            )
        try:
            pid = int(parts[0])
        except ValueError:
            raise ConfigError(f"malicious id {parts[0]!r} is not an integer") from None
        if pid in out:
            raise ConfigError(f"malicious id {pid} is declared twice")
        kind = parts[1]
        try:
            if len(parts) > 2:
                out[pid] = AdversarySpec(kind=kind, factor=int(parts[2]))
            else:
                out[pid] = AdversarySpec(kind=kind)
        except ValueError as e:
            raise ConfigError(str(e)) from None
    return out


def from_file(path) -> RunConfig:
    """Load a RunConfig from a JSON file."""
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON: {e}") from None
    return from_dict(data)


def from_dict(data: dict) -> RunConfig:
    data = dict(data)
    if "malicious" in data:
        data["malicious"] = parse_malicious(data["malicious"])
    try:
        if "dataset" in data:
            data["dataset"] = DatasetConfig(**data["dataset"])
        return RunConfig(**data)
    except TypeError as e:  # an unknown field, or one of the wrong type
        raise ConfigError(f"bad config field: {e}") from None


def with_overrides(config: RunConfig, **overrides) -> RunConfig:
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})
