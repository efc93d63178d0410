"""Exact scaled-integer vector arithmetic.

Every gradient, mask, and model in the protocol is an `FpVector`: a vector of
signed 64-bit integer raws sharing one power-of-two scale, value = raw * 2^-t.
All protocol-path arithmetic is integer-only and deterministic, so the audit
identities hold as bit-for-bit equalities rather than float tolerances. The
server and the auditor run these same kernels.

Every kernel is exact: it returns the true integer result or raises
FixedPointOverflowError before an int64 raw would wrap. Each checked kernel
bounds its result from the largest input magnitudes, taken as Python ints;
only when that bound leaves int64 are the entries recomputed in Python
integers to find the first one that overflows. Inner products never
overflow: `dot` splits each raw into three 22-bit limbs, sums the nine limb
products in int64 over chunks short enough to stay exact, and combines the
partial sums in Python integers.
"""
from __future__ import annotations

import struct

import numpy as np

DEFAULT_SCALE = 20

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)

_HALF_EXACT = float(1 << 52)  # below this, y + 0.5 is exact in float64

# dot's limbs: a raw is l0 + l1 * 2^22 + l2 * 2^44 with l0, l1 in [0, 2^22)
# and l2 in [-2^19, 2^19), so every limb product is below 2^44 in magnitude
# and any 2^18 of them sum exactly in int64. The chunk is far below that
# bound: at d=50890 on a 2-vCPU VM, 2^13-entry chunks ran about 3x faster
# than 2^18-entry ones, whose limb temporaries are large fresh allocations.
_LIMB_BITS = 22
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_DOT_CHUNK = 1 << 13


class FixedPointOverflowError(OverflowError):
    """A value cannot be represented in the signed 64-bit raw range."""


class DimensionMismatchError(ValueError):
    """Two vectors that must share a dimension do not."""


def active_backend() -> str:
    """Name of the kernel implementation in use; always 'numpy'."""
    return "numpy"


def _max_abs(a: np.ndarray) -> int:
    """Largest |entry| of an int64 array, as a Python int (0 for empty)."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def _first_out_of_range(exact: np.ndarray, lo: int) -> int | None:
    """Index of the first Python-int entry outside [lo, INT64_MAX], if any."""
    bad = (exact > INT64_MAX) | (exact < lo)
    return int(np.argmax(bad)) if bad.any() else None


def _scale_i64(a: np.ndarray, c: int) -> np.ndarray:
    """a * c for a plain integer c, with |a[k] * c| <= INT64_MAX."""
    if _max_abs(a) * abs(c) > INT64_MAX:
        k = _first_out_of_range(a.astype(object) * c, -INT64_MAX)
        if k is not None:
            raise FixedPointOverflowError(
                f"scalar multiply overflows int64 at index {k}: {a[k]} * {c}"
            )
    return a * np.int64(c)


class FpVector:
    """Immutable fixed-point vector: int64 raws plus one shared scale."""

    __slots__ = ("raw", "scale")

    def __init__(self, raw: np.ndarray, scale: int):
        raw = np.ascontiguousarray(raw, dtype=np.int64)
        raw.setflags(write=False)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "scale", int(scale))

    def __setattr__(self, name, value):
        raise AttributeError("FpVector is immutable")

    @property
    def dim(self) -> int:
        return int(self.raw.shape[0])

    @classmethod
    def zeros(cls, dim: int, scale: int = DEFAULT_SCALE) -> "FpVector":
        return cls(np.zeros(dim, dtype=np.int64), scale)

    @classmethod
    def from_floats(cls, xs, scale: int = DEFAULT_SCALE) -> "FpVector":
        """Round reals onto the 2^-scale lattice, half away from zero."""
        x = np.asarray(xs, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            k = int(np.argmin(np.isfinite(x)))
            raise FixedPointOverflowError(
                f"non-finite value {x[k]!r} at index {k} cannot be quantized"
            )
        y = np.abs(x) * float(1 << scale)  # exact: multiplying by a power of two
        if np.any(y >= float(1 << 63)):
            k = int(np.argmax(y >= float(1 << 63)))
            raise FixedPointOverflowError(
                f"|{x[k]!r}| * 2^{scale} exceeds the signed 64-bit raw range"
            )
        # For y < 2^52 the +0.5 trick is exact half-away-from-zero rounding; at
        # or above 2^52 every float64 is already an integer, so none happens.
        rounded = np.where(y < _HALF_EXACT, np.floor(y + 0.5), y)
        raw = rounded.astype(np.int64)
        return cls(np.where(np.signbit(x), -raw, raw), scale)

    def to_floats(self) -> np.ndarray:
        return self.raw.astype(np.float64) / float(1 << self.scale)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpVector)
            and self.scale == other.scale
            and self.raw.shape == other.raw.shape
            and bool(np.array_equal(self.raw, other.raw))
        )

    def __hash__(self):
        return hash((self.scale, self.raw.tobytes()))

    def __repr__(self) -> str:
        return f"FpVector(dim={self.dim}, scale={self.scale})"

    def _check_compatible(self, other: "FpVector") -> None:
        if self.scale != other.scale:
            raise ValueError(
                f"mixed scales: {self.scale} vs {other.scale}"
            )
        if self.raw.shape != other.raw.shape:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "FpVector") -> "FpVector":
        self._check_compatible(other)
        a, b = self.raw, other.raw
        if _max_abs(a) + _max_abs(b) > INT64_MAX:
            exact = a.astype(object) + b.astype(object)
            k = _first_out_of_range(exact, INT64_MIN)
            if k is not None:
                raise FixedPointOverflowError(
                    f"add overflows int64 at index {k}: {a[k]} + {b[k]}"
                )
        return FpVector(a + b, self.scale)

    def __sub__(self, other: "FpVector") -> "FpVector":
        return self + (-other)

    def __neg__(self) -> "FpVector":
        # raws never reach INT64_MIN (from_floats and masks bound them), so
        # negation cannot overflow; assert rather than silently wrap.
        if self.raw.size and int(self.raw.min()) == INT64_MIN:
            raise FixedPointOverflowError("cannot negate INT64_MIN raw")
        return FpVector(-self.raw, self.scale)

    def scalar_mul(self, c: int) -> "FpVector":
        """Multiply every raw by a plain integer c (scale unchanged)."""
        return FpVector(_scale_i64(self.raw, int(c)), self.scale)

    # -- canonical byte encoding (the signing preimage format) --------------

    def encode(self) -> list:
        """dim (u64 LE) + scale (u8) + raws as little-endian two's-complement.

        Returned as two buffers, the 9-byte header and a byte view of the
        raws, which on a little-endian host is the raws' own memory.
        """
        raw = self.raw.astype("<i8", copy=False)
        return [struct.pack("<QB", self.dim, self.scale), memoryview(raw).cast("B")]

    @classmethod
    def decode(cls, data: bytes) -> "FpVector":
        """Inverse of `encode`; the raws are a read-only view of `data`, not a copy."""
        if len(data) < 9:
            raise ValueError(f"FpVector encoding too short: {len(data)} bytes")
        dim, scale = struct.unpack_from("<QB", data, 0)
        expect = 9 + 8 * dim
        if len(data) != expect:
            raise ValueError(
                f"FpVector encoding length {len(data)} != expected {expect}"
            )
        return cls(np.frombuffer(data, dtype="<i8", count=dim, offset=9), scale)


def _limbs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split int64 raws into 22-bit limbs; the top limb carries the sign."""
    return (a & _LIMB_MASK, (a >> _LIMB_BITS) & _LIMB_MASK, a >> 2 * _LIMB_BITS)


def dot(a: FpVector, b: FpVector) -> int:
    """Exact raw-level inner product: sum of raw_a[k]*raw_b[k] as a big int.

    Products of two int64 raws need up to 126 bits. Each raw is split into
    three 22-bit limbs, so the nine limb-pair dot products over a chunk are
    exact int64 sums; they are shifted into place and added as Python ints.
    Exact for every int64 input, INT64_MIN included.
    """
    a._check_compatible(b)
    total = 0
    for start in range(0, a.dim, _DOT_CHUNK):
        xs = _limbs(a.raw[start : start + _DOT_CHUNK])
        ys = _limbs(b.raw[start : start + _DOT_CHUNK])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                total += int(np.dot(x, y)) << (_LIMB_BITS * (i + j))
    return total


def hadamard(a: FpVector, mask) -> FpVector:
    """Entrywise product with a plain-integer mask vector; scale unchanged.

    Products are bounded symmetrically, |a[k] * mask[k]| <= INT64_MAX.
    """
    m = np.ascontiguousarray(mask, dtype=np.int64)
    if m.shape != a.raw.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.dim} vs {m.shape[0]}"
        )
    if _max_abs(a.raw) * _max_abs(m) > INT64_MAX:
        exact = a.raw.astype(object) * m.astype(object)
        k = _first_out_of_range(exact, -INT64_MAX)
        if k is not None:
            raise FixedPointOverflowError(
                f"mask product overflows int64 at index {k}: {a.raw[k]} * "
                f"{m[k]} (mask range too large for the gradient scale)"
            )
    return FpVector(a.raw * m, a.scale)


def floor_div(v: FpVector, c: int) -> FpVector:
    """Entrywise floor division of raws toward -infinity by a positive count.

    Floor rounding gives the separation identity
    floor((c*A + B) / c) == A + floor(B / c), which is what makes the
    aggregation audit an exact integer equality.
    """
    c = int(c)
    if c < 1:
        raise ValueError(f"divisor must be a positive count, got {c}")
    return FpVector(v.raw // np.int64(c), v.scale)


def floor_average(first: FpVector, others: list[FpVector]) -> FpVector:
    """floor((first + sum of others) / (count + 1)): a round's aggregate.

    The server averages its gradient with the benign gradients; the auditor
    replays the same rule on the masked aggregation vectors.
    """
    total = first
    for v in others:
        total = total + v
    return floor_div(total, len(others) + 1)


def sign_indicator(x: int) -> int:
    """0 if x <= 0 else 1."""
    return 1 if x > 0 else 0


def scale_by_dyadic(v: FpVector, num: int, exp: int) -> FpVector:
    """floor(eta * v) entrywise for a dyadic rate eta = num / 2^exp.

    Arithmetic right shift floors toward -infinity, matching floor_div, so
    the model-update step and the audit replay round identically.
    """
    num = int(num)
    exp = int(exp)
    if exp < 0:
        raise ValueError(f"dyadic exponent must be >= 0, got {exp}")
    return FpVector(_scale_i64(v.raw, num) >> np.int64(exp), v.scale)
