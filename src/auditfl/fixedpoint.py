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
overflow: `dot` splits each raw into at most three 22-bit limbs, sums the
limb products in int64 over chunks short enough to stay exact, and combines
the partial sums in Python integers.

A vector's canonical bytes are an `Encoded`: a 10-byte header, then each raw
in the least byte width that holds every raw of the vector. It is the one
form that is signed, hashed and published; `FpVector.decode` sign-extends
it back to int64 raws only when arithmetic needs them.
"""
from __future__ import annotations

import struct

import numpy as np

DEFAULT_SCALE = 20

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)

_HALF_EXACT = float(1 << 52)  # below this, y + 0.5 is exact in float64

# An encoding's header: dim u64 | scale u8 | width u8.
_HEADER = struct.Struct("<QBB")

# The bytes `Encoded.__eq__` copies and compares at a time.
_EQ_CHUNK = 1 << 15

# dot's limbs: a raw is l0 + l1 * 2^22 + ... + top * 2^(22 (L-1)) with the
# low limbs in [0, 2^22) and the top limb in [-2^21, 2^21), using the fewest
# L (1 to 3) that holds every raw of the vector; so every limb product is
# below 2^44 in magnitude and any 2^18 of them sum exactly in int64. The
# chunk is far below that bound: at d=50890 on a 2-vCPU VM, 2^13-entry
# chunks ran about 3x faster than 2^18-entry ones, whose limb temporaries
# are large fresh allocations.
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


def max_abs(a: np.ndarray) -> int:
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
    if max_abs(a) * abs(c) > INT64_MAX:
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
        return cls.from_float_rows(np.asarray(xs, dtype=np.float64)[None], scale)[0]

    @classmethod
    def from_float_rows(cls, rows, scale: int = DEFAULT_SCALE) -> list["FpVector"]:
        """`from_floats` of each row of a 2-d array, in one pass when every
        entry takes the fast path; otherwise row by row on the checked path,
        so the first row that cannot be quantized raises."""
        x = np.asarray(rows, dtype=np.float64)
        y = x * float(1 << scale)  # exact: multiplying by a power of two
        # NaN fails both compares, so NaN, infinities and |y| >= 2^52 all
        # take the checked path; below 2^52, y +- 0.5 is the same float64 sum
        # as that path's, and the cast truncates it toward zero. The sum is
        # taken in y's place, so the step holds one temporary of the
        # array's size, not two
        if y.size and -_HALF_EXACT < y.min() and y.max() < _HALF_EXACT:
            y += np.copysign(0.5, y)
            return [cls(raw, scale) for raw in y.astype(np.int64)]
        del y
        return [cls._from_floats_checked(row, scale) for row in x]

    @classmethod
    def _from_floats_checked(cls, x: np.ndarray, scale: int) -> "FpVector":
        """from_floats for any input: raises on values outside the raw range."""
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

    def to_floats(self, dtype=np.float64) -> np.ndarray:
        """The values as a new array of `dtype`: each raw rounded to it
        once, then scaled by 2^-scale, which is exact."""
        x = self.raw.astype(dtype)
        x /= x.dtype.type(1 << self.scale)
        return x

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
        if max_abs(a) + max_abs(b) > INT64_MAX:
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

    def encode(self) -> "Encoded":
        """The canonical bytes: `dim u64 | scale u8 | width u8`, then each
        raw in `width` bytes of little-endian two's complement, `width`
        being the least value in 1..8 that holds every raw (`encode_rows`
        of the one row)."""
        return encode_rows(self.raw[None], self.scale)[0]

    @classmethod
    def decode(cls, data) -> "FpVector":
        """Inverse of `encode`: `data` is an `Encoded`, or bytes that are
        parsed first. ValueError if the width is not the least that holds
        every raw.

        Raw k is the 8-byte word that ends where its `width` bytes end,
        shifted right arithmetically by 64 - 8 * width; the header supplies
        the bytes before the first raw. At width 8 the raws are a read-only
        view of the bytes, not a copy.
        """
        enc = data if isinstance(data, Encoded) else Encoded.parse(data)
        dim, width = enc.dim, enc.width
        if width == 8:
            raw = np.frombuffer(enc.data, "<i8", dim, _HEADER.size)
        else:
            words = np.ndarray((dim,), "<i8", enc.data, _HEADER.size + width - 8, (width,))
            raw = words >> np.int64(64 - 8 * width)
        least = _width(raw)
        if least != width:
            raise ValueError(
                f"FpVector encoding width {width} is not minimal: every raw "
                f"fits in {least} bytes"
            )
        return cls(raw, enc.scale)


def encode_rows(rows: np.ndarray, scale: int) -> list["Encoded"]:
    """`FpVector.encode` of each row of a 2-d int64 array at `scale`, the
    rows' widths taken from one pair of reductions over the whole array.

    Each raw is stored as a full 8-byte little-endian word at stride
    `width`; numpy assigns a 1-D array in ascending index order, so the
    next store overwrites all but the `width` low bytes of the one before
    (the round trip at every width in the tests relies on it). Each buffer
    has room for the last store's spill, which the encoding does not
    include.
    """
    count, dim = rows.shape
    if dim:
        # as `_magnitude_bits`: row j needs the bit length of
        # max(max_j, ~min_j) below its sign bit
        extremes = zip(rows.max(axis=1).tolist(), rows.min(axis=1).tolist())
    else:
        extremes = [(0, 0)] * count
    out = []
    for row, (top, bottom) in zip(rows, extremes):
        width = max(top, ~bottom).bit_length() // 8 + 1
        size = _HEADER.size + dim * width
        buf = np.empty(size + 8 - width, dtype=np.uint8)
        _HEADER.pack_into(buf, 0, dim, scale, width)
        if dim:
            np.ndarray((dim,), "<i8", buf, _HEADER.size, (width,))[...] = row
        buf.setflags(write=False)
        out.append(Encoded(memoryview(buf)[:size], dim, scale, width))
    return out


def _magnitude_bits(raw: np.ndarray) -> int:
    """Bits below the sign bit that every raw needs in two's complement: the
    bit length of the largest of x over the raws x >= 0 and of ~x = -x - 1
    over x < 0 (0 for an empty vector)."""
    if raw.size == 0:
        return 0
    return max(int(raw.max()), ~int(raw.min())).bit_length()


def _width(raw: np.ndarray) -> int:
    """The least byte count in 1..8 whose two's complement holds every raw."""
    return _magnitude_bits(raw) // 8 + 1


class Encoded:
    """A vector's canonical bytes (`FpVector.encode`) with their header.

    `data` holds the whole encoding, header included: it is what a
    signature or a digest covers and what a record publishes. An `Encoded`
    made by `parse` is a view of the parsed buffer, never a copy.
    """

    __slots__ = ("data", "dim", "scale", "width")

    def __init__(self, data, dim: int, scale: int, width: int):
        self.data = data
        self.dim = dim
        self.scale = scale
        self.width = width

    @classmethod
    def parse(cls, data) -> "Encoded":
        """Check the header and the length of untrusted bytes; ValueError
        unless the width is in 1..8 and the length is 10 + dim * width.
        Whether the width is the least one is checked by `FpVector.decode`,
        which reads the raws."""
        data = memoryview(data).cast("B")
        if len(data) < _HEADER.size:
            raise ValueError(f"FpVector encoding too short: {len(data)} bytes")
        dim, scale, width = _HEADER.unpack_from(data, 0)
        if not 1 <= width <= 8:
            raise ValueError(f"FpVector encoding width {width} is outside 1..8")
        expect = _HEADER.size + width * dim
        if len(data) != expect:
            raise ValueError(
                f"FpVector encoding length {len(data)} != expected {expect}"
            )
        return cls(data, dim, scale, width)

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        # two memoryviews compare in Python's generic per-element loop (99 us
        # at 39 KB), so the bytes are compared as bytes copies, one memcmp
        # per _EQ_CHUNK; copies of a whole 300 KB vector are large enough
        # for malloc to map fresh pages each time (550 us against 36 us)
        if not isinstance(other, Encoded) or (self.dim, self.scale, self.width) != (
            other.dim, other.scale, other.width
        ):
            return False
        a, b = self.data, other.data
        return len(a) == len(b) and all(
            bytes(a[i : i + _EQ_CHUNK]) == bytes(b[i : i + _EQ_CHUNK])
            for i in range(0, len(a), _EQ_CHUNK)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Encoded(dim={self.dim}, scale={self.scale}, width={self.width})"


def _limbs(a: np.ndarray, count: int) -> list[np.ndarray]:
    """Split int64 raws into `count` 22-bit limbs; the top limb carries the sign."""
    out = [a & _LIMB_MASK] if count > 1 else []
    out += [(a >> _LIMB_BITS * k) & _LIMB_MASK for k in range(1, count - 1)]
    out.append(a >> _LIMB_BITS * (count - 1))
    return out


def dot(a: FpVector, b: FpVector) -> int:
    """Exact raw-level inner product: sum of raw_a[k]*raw_b[k] as a big int.

    Products of two int64 raws need up to 126 bits. Each raw is split into
    22-bit limbs, at most three and as few as hold every raw of its vector,
    so the limb-pair dot products over a chunk are exact int64 sums; they
    are shifted into place and added as Python ints. Exact for every int64
    input, INT64_MIN included.
    """
    a._check_compatible(b)
    count_a = _magnitude_bits(a.raw) // _LIMB_BITS + 1
    count_b = _magnitude_bits(b.raw) // _LIMB_BITS + 1
    total = 0
    for start in range(0, a.dim, _DOT_CHUNK):
        xs = _limbs(a.raw[start : start + _DOT_CHUNK], count_a)
        ys = _limbs(b.raw[start : start + _DOT_CHUNK], count_b)
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
    if max_abs(a.raw) * max_abs(m) > INT64_MAX:
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
    replays the same rule on the masked aggregation vectors. The vectors
    are summed in place into one int64 buffer when the sum of their
    largest magnitudes bounds every partial sum inside int64; otherwise
    they are added one checked `+` at a time, which raises at the first
    partial sum that leaves it.
    """
    for v in others:
        first._check_compatible(v)
    count = len(others) + 1
    if max_abs(first.raw) + sum(max_abs(v.raw) for v in others) > INT64_MAX:
        total = first
        for v in others:
            total = total + v
        return floor_div(total, count)
    total = first.raw.copy()
    for v in others:
        total += v.raw
    total //= np.int64(count)
    return FpVector(total, first.scale)


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
