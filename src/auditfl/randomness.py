"""Seeded pseudo-randomness for the protocol.

All streams are counter-mode Philox keyed by 128-bit seeds derived from one
master seed through SHA-256 domain separation, so every value is a pure
function of (master seed, purpose tag, party, round, index). Two runs with
the same configuration therefore produce identical protocol transcripts.

Mask values are plain integers, never fixed-point: multiplying raws by
integers leaves the scale unchanged and keeps every audit identity exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crypto import sha256
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
    # joined and hashed in one call: each hash update is a call into
    # `cryptography`, and the whole path is a few dozen bytes
    parts = [b"auditfl.seed.v1", int(master).to_bytes(16, "little", signed=False)]
    for tag in tags:
        if isinstance(tag, int):
            data = b"i" + tag.to_bytes(8, "little", signed=True)
        elif isinstance(tag, str):
            data = b"s" + tag.encode("utf-8")
        elif isinstance(tag, bytes):
            data = b"b" + tag
        else:
            raise TypeError(f"unsupported seed tag type: {type(tag)!r}")
        parts += (len(data).to_bytes(2, "little"), data)
    return int.from_bytes(sha256(b"".join(parts))[:16], "little")


_ZERO4 = np.zeros(4, dtype=_U64)


# The one generator `prg` reuses. `prg` overwrites its whole state on every
# call with the state of a fresh `Philox(key=...)` (counter 0, empty
# buffer), so each stream depends on its seed alone; building a generator
# per call costs several times more and draws OS entropy that is never
# used. Not thread-safe; the package runs single-threaded in each process.
_PHILOX = np.random.Philox(0)


def prg(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Deterministic stream of uniform 64-bit words: words start .. start +
    count - 1 of seed's stream, so a stream can be drawn a slice at a time.

    Philox makes 4 words per counter value, counting from counter 1; a slice
    starts at counter start // 4 and drops the first start % 4 words.
    """
    if count < 0 or start < 0:
        raise ValueError(f"count and start must be >= 0, got {count} and {start}")
    if count == 0:
        return np.empty(0, dtype=_U64)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (seed >> 64) & 0xFFFFFFFFFFFFFFFF],
                   dtype=_U64)
    _PHILOX.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([start // 4, 0, 0, 0], dtype=_U64), "key": key},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if start % 4:
        _PHILOX.random_raw(start % 4)
    return _PHILOX.random_raw(count)


def _prg_rows(seeds: list[int], count: int) -> np.ndarray:
    """(k, count) uint64 words whose row j is prg(seeds[j], count); one
    seed's row is its stream itself, not a copy."""
    if len(seeds) == 1:
        return prg(seeds[0], count)[None]
    out = np.empty((len(seeds), count), dtype=_U64)
    for row, seed in zip(out, seeds):
        row[...] = prg(seed, count)
    return out


def sign_bits(seeds: list[int], count: int) -> np.ndarray:
    """(k, count) uint8 array of 0s and 1s: row j holds the bits b of
    `sign_vector(seeds[j], count)`, whose signs are 1 - 2 * b."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    words = _prg_rows(seeds, -(-count // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), axis=1, count=count, bitorder="little")


def sign_vector(seed: int, count: int) -> np.ndarray:
    """int64 vector of +-1 signs, each uniform and indexed by position.

    Scaled by a nonzero rn it is the paper's PRVG vector, entries +-rn.
    The sign of entry k is 1 - 2 * b, where b is bit k % 64 of stream word
    k // 64, so `count` signs take ceil(count / 64) words.
    """
    signs = sign_bits([seed], count)[0].astype(np.int64)
    signs *= -2
    signs += 1
    return signs


@dataclass(frozen=True)
class CorrelatedPair:
    """Same-sign random pair whose exact product l is a positive mask scalar."""

    rn_i: int
    rn_s: int
    l: int

    def __post_init__(self):
        if self.rn_i * self.rn_s != self.l or self.l <= 0:
            raise ValueError("correlated pair must satisfy l == rn_i*rn_s > 0")


def gen_correlated_pair(seed: int) -> CorrelatedPair:
    """Draw (rn_i, rn_s) with one shared sign and magnitudes in [RN_LO, RN_HI]."""
    words = prg(seed, 3)
    span = RN_HI - RN_LO + 1
    sign = -1 if int(words[0]) & 1 else 1
    m_i = RN_LO + int(words[1]) % span
    m_s = RN_LO + int(words[2]) % span
    return CorrelatedPair(rn_i=sign * m_i, rn_s=sign * m_s, l=m_i * m_s)


def bounded_int_vector(seed: int, dim: int, bits: int = MASK_BITS) -> np.ndarray:
    """Uniform int64 vector over [-2^bits, 2^bits); exact power-of-two range."""
    return bounded_int_rows([seed], dim, bits)[0]


def bounded_int_rows(seeds: list[int], dim: int, bits: int = MASK_BITS) -> np.ndarray:
    """(k, dim) int64 array whose row j is bounded_int_vector(seeds[j], dim,
    bits)."""
    if not (0 < bits < 63):
        raise ValueError(f"bits must be in (0, 63), got {bits}")
    words = _prg_rows(seeds, dim)
    # the span 2^(bits+1) is a power of two, so the mask is `% span`
    words &= _U64((1 << (bits + 1)) - 1)
    rows = words.view(np.int64)
    rows -= np.int64(1 << bits)
    return rows


def model_mask_share(seed: int, r: int, dim: int, scale: int, eta_exp: int) -> FpVector:
    """m_r, round r's share of the model mask divided by the learning rate.

    Its raws are multiples of 2^eta_exp, so eta * m_r has exact integer raws
    for any dyadic eta = num / 2^eta_exp; the model mask is the sum over the
    rounds of eta * m_r.
    """
    seed_r = derive_seed(seed, "model-mask", r - 1)
    q = bounded_int_vector(seed_r, dim, MASK_BITS - eta_exp)
    return FpVector(q << np.int64(eta_exp), scale)
