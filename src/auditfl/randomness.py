"""Seeded pseudo-randomness for the protocol.

All streams are counter-mode Philox keyed by 128-bit seeds derived from one
master seed through SHA-256 domain separation, so every value is a pure
function of (master seed, purpose tag, party, round, index). Two runs with
the same configuration therefore produce identical protocol transcripts.

Mask values are plain integers, never fixed-point: multiplying raws by
integers leaves the scale unchanged and keeps every audit identity exact.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .fixedpoint import FpVector

# Sign-magnitude bounds for the correlated random-number pairs; the product
# l = rn_i * rn_s then stays below 2^30. The upper bound keeps the masked
# gradients g * rn inside int64 at the budgeted gradient magnitude, which
# config.check_overflow_budget checks before a run.
RN_LO = 1 << 8
RN_HI = 1 << 15

# Zero shares and model-mask shares draw raws bounded by 2^MASK_BITS.
MASK_BITS = 40

_U64 = np.uint64


def derive_seed(master: int, *tags) -> int:
    """128-bit sub-seed from the master seed and a domain-separation path.

    Each tag (int, str, or bytes) is length-prefixed before hashing so that
    distinct tag paths can never collide.
    """
    h = hashlib.sha256()
    h.update(b"auditfl.seed.v1")
    h.update(int(master).to_bytes(16, "little", signed=False))
    for tag in tags:
        if isinstance(tag, int):
            data = b"i" + tag.to_bytes(8, "little", signed=True)
        elif isinstance(tag, str):
            data = b"s" + tag.encode("utf-8")
        elif isinstance(tag, bytes):
            data = b"b" + tag
        else:
            raise TypeError(f"unsupported seed tag type: {type(tag)!r}")
        h.update(len(data).to_bytes(2, "little"))
        h.update(data)
    return int.from_bytes(h.digest()[:16], "little")


def _philox(seed: int) -> np.random.Philox:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (seed >> 64) & 0xFFFFFFFFFFFFFFFF],
                   dtype=_U64)
    return np.random.Philox(key=key)


def prg(seed: int, count: int) -> np.ndarray:
    """Deterministic stream of `count` uniform 64-bit words."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=_U64)
    return _philox(seed).random_raw(count)


def sign_vector(seed: int, count: int) -> np.ndarray:
    """int64 vector of +-1 signs, each uniform and indexed by position.

    Scaled by a nonzero rn it is the paper's PRVG vector, entries +-rn.
    """
    words = prg(seed, count)
    return (1 - 2 * (words & _U64(1)).astype(np.int64)).astype(np.int64)


@dataclass(frozen=True)
class CorrelatedPair:
    """Same-sign random pair whose exact product l is a positive mask scalar."""

    rn_i: int
    rn_s: int
    l: int

    def __post_init__(self):
        if self.rn_i * self.rn_s != self.l or self.l <= 0:
            raise ValueError("correlated pair must satisfy l == rn_i*rn_s > 0")


def gen_correlated_pair(seed: int, lo: int = RN_LO, hi: int = RN_HI) -> CorrelatedPair:
    """Draw (rn_i, rn_s) with one shared sign and magnitudes in [lo, hi]."""
    if not (0 < lo <= hi):
        raise ValueError(f"invalid magnitude bounds [{lo}, {hi}]")
    words = prg(seed, 3)
    span = hi - lo + 1
    sign = -1 if int(words[0]) & 1 else 1
    m_i = lo + int(words[1]) % span
    m_s = lo + int(words[2]) % span
    return CorrelatedPair(rn_i=sign * m_i, rn_s=sign * m_s, l=m_i * m_s)


def bounded_int_vector(seed: int, dim: int, bits: int = MASK_BITS) -> np.ndarray:
    """Uniform int64 vector over [-2^bits, 2^bits); exact power-of-two range."""
    if not (0 < bits < 63):
        raise ValueError(f"bits must be in (0, 63), got {bits}")
    words = prg(seed, dim)
    span = _U64(1) << _U64(bits + 1)
    return (words % span).astype(np.int64) - np.int64(1 << bits)


@dataclass(frozen=True)
class ModelMaskShares:
    """R-way split of the model mask.

    per_round[r] holds m_r, the quotient of the r-th mask share by the
    learning rate, sampled on the lattice of multiples of 2^eta_exp so that
    eta * m_r has exactly integer raws. total is rv_w = sum_r eta * m_r.
    """

    per_round: tuple[FpVector, ...]
    total: FpVector
    eta_num: int
    eta_exp: int


def gen_model_mask_shares(
    seed: int, rounds: int, dim: int, scale: int, eta_num: int, eta_exp: int
) -> ModelMaskShares:
    """Sample the per-round model-mask quotients and their exact eta-sum."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if eta_exp < 0 or eta_exp >= MASK_BITS:
        raise ValueError(
            f"dyadic exponent {eta_exp} outside [0, {MASK_BITS})"
        )
    if eta_num <= 0 or eta_num % 2 == 0:
        # normalized dyadic rate: positive odd numerator over 2^eta_exp
        raise ValueError(f"dyadic numerator must be positive odd, got {eta_num}")
    per_round = []
    total = np.zeros(dim, dtype=np.int64)
    lattice_bits = MASK_BITS - eta_exp
    for r in range(rounds):
        q = bounded_int_vector(derive_seed(seed, "model-mask", r), dim, lattice_bits)
        m_raw = q << np.int64(eta_exp)  # multiples of 2^eta_exp by construction
        total += q * np.int64(eta_num)  # raw of eta * m_r, exactly
        per_round.append(FpVector(m_raw, scale))
    return ModelMaskShares(
        per_round=tuple(per_round),
        total=FpVector(total, scale),
        eta_num=eta_num,
        eta_exp=eta_exp,
    )
