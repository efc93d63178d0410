"""Fixed-point arithmetic: exactness, rounding rules, audit identities.

The kernels must match exact Python-integer arithmetic bit for bit, and
overflow must be reported, never wrapped.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditfl import (
    DimensionMismatchError,
    FixedPointOverflowError,
    FpVector,
    active_backend,
    dot,
    floor_div,
    hadamard,
    sign_indicator,
)
from auditfl.fixedpoint import (
    _DOT_CHUNK,
    _EQ_CHUNK,
    Encoded,
    encode_rows,
    floor_average,
    scale_by_dyadic,
)
from auditfl.randomness import prg

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
# a length that makes dot sum more than one chunk
PAST_CHUNK = pytest.param(_DOT_CHUNK + 3, id="past-chunk")


def _random_raws(seed: int, n: int, bits: int) -> np.ndarray:
    """n raws drawn from [-2^bits, 2^bits] by the PRG."""
    words = prg(seed, n)
    return (words % np.uint64(1 << (bits + 1))).astype(np.int64) - (1 << bits)


def _exact_products(a: np.ndarray, b: np.ndarray) -> list[int]:
    return [int(x) * int(y) for x, y in zip(a.tolist(), b.tolist())]


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Oracle for dot: the inner product summed over object (Python int) arrays."""
    return int(np.dot(a.astype(object), b.astype(object)))


def quantize(x: float, scale: int) -> int:
    """The raw of one real, rounded onto the 2^-scale lattice by from_floats."""
    return int(FpVector.from_floats([x], scale).raw[0])


def round_half_away(num: int, den: int) -> int:
    """Independent integer oracle for round-half-away-from-zero of num/den."""
    assert den > 0
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((2 * (-num) + den) // (2 * den))


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0, 20) == 0

    def test_half(self):
        assert quantize(0.5, 20) == 524288

    def test_one_third(self):
        # 2^20 / 3 = 349525.33..., rounds down
        expected = round_half_away(1 << 20, 3)
        assert expected == 349525
        assert quantize(1 / 3, 20) == expected

    def test_negative_half_tie_rounds_away(self):
        # |x| * 2^t landing exactly on .5 rounds away from zero
        assert quantize(1.5 / (1 << 20), 20) == 2
        assert quantize(-1.5 / (1 << 20), 20) == -2

    def test_matches_rational_oracle_on_dyadic_inputs(self):
        # dyadic inputs are exact in float64, so the oracle applies exactly
        words = prg(123, 500)
        nums = (words % np.uint64(1 << 30)).astype(np.int64) - (1 << 29)
        for num in nums[:200]:
            x = int(num) / (1 << 25)
            expected = round_half_away(int(num) * (1 << 20), 1 << 25)
            assert quantize(x, 20) == expected

    def test_overflow_rejected_with_magnitude(self):
        with pytest.raises(FixedPointOverflowError) as ei:
            quantize(2.0**50, 20)
        assert "2^20" in str(ei.value)

    def test_nan_rejected(self):
        with pytest.raises(FixedPointOverflowError):
            quantize(float("nan"), 20)

    def test_quantization_error_bound(self):
        words = prg(9, 1000)
        xs = (words % np.uint64(2_000_001)).astype(np.float64) / 1e6 - 1.0
        v = FpVector.from_floats(xs, 20)
        assert np.all(np.abs(v.to_floats() - xs) <= 2.0**-21 + 1e-18)


class TestDot:
    def test_orthogonal(self):
        a = FpVector(np.array([1, 0]), 20)
        b = FpVector(np.array([0, 1]), 20)
        assert dot(a, b) == 0

    def test_hand_arithmetic(self):
        a = FpVector(np.array([1, 2]), 20)
        b = FpVector(np.array([3, 4]), 20)
        assert dot(a, b) == 11

    def test_dimension_mismatch(self):
        a = FpVector(np.array([1, 2]), 20)
        b = FpVector(np.array([1, 2, 3]), 20)
        with pytest.raises(DimensionMismatchError):
            dot(a, b)

    @pytest.mark.parametrize("dim", [1, 7, 1000, 10_000])
    def test_matches_bigint_oracle(self, dim):
        words = prg(dim, 2 * dim)
        raws = (words % np.uint64(1 << 45)).astype(np.int64) - (1 << 44)
        a, b = raws[:dim], raws[dim:]
        assert dot(FpVector(a, 20), FpVector(b, 20)) == _exact_dot(a, b)

    def test_large_raws_need_every_limb_pair(self):
        # products near 2^122, far past int64
        a = np.array([(1 << 62) - 3, -(1 << 61), 12345], dtype=np.int64)
        b = np.array([(1 << 60) + 1, (1 << 62) - 9, -7], dtype=np.int64)
        assert dot(FpVector(a, 20), FpVector(b, 20)) == _exact_dot(a, b)

    def test_int64_min_in_both_operands(self):
        a = np.array([INT64_MIN, 5, INT64_MIN, INT64_MAX], dtype=np.int64)
        b = np.array([INT64_MIN, INT64_MIN, -3, INT64_MIN], dtype=np.int64)
        assert dot(FpVector(a, 20), FpVector(b, 20)) == _exact_dot(a, b)

    @pytest.mark.parametrize("dim", [1, 2, 3, 100, PAST_CHUNK])
    @pytest.mark.parametrize(
        "x, y",
        [(INT64_MIN, INT64_MIN), (INT64_MAX, INT64_MIN), (INT64_MAX, INT64_MAX)],
        ids=["min-min", "max-min", "max-max"],
    )
    def test_constant_extreme_vectors(self, x, y, dim):
        a = FpVector(np.full(dim, x, dtype=np.int64), 20)
        b = FpVector(np.full(dim, y, dtype=np.int64), 20)
        assert dot(a, b) == dim * x * y

    @pytest.mark.parametrize("dim", [1, 2, 3, 513, PAST_CHUNK])
    def test_full_range_raws_match_bigint_oracle(self, dim):
        # uniform over all of int64, with both endpoints planted in each operand
        rng = np.random.default_rng(dim)
        a = rng.integers(INT64_MIN, INT64_MAX, dim, dtype=np.int64, endpoint=True)
        b = rng.integers(INT64_MIN, INT64_MAX, dim, dtype=np.int64, endpoint=True)
        a[0], b[-1] = INT64_MIN, INT64_MIN
        a[-1], b[0] = INT64_MAX, INT64_MAX
        assert dot(FpVector(a, 20), FpVector(b, 20)) == _exact_dot(a, b)

    @pytest.mark.parametrize("bits", [1, 2, 21, 22, 23, 43, 44, 45, 63, 64])
    @pytest.mark.parametrize("dim", [1, 513, PAST_CHUNK])
    def test_each_limb_count_matches_bigint_oracle(self, bits, dim):
        # dot splits each vector into as few limbs as hold its raws; both
        # ends of a `bits`-bit range sit at the edges of a limb count
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        rng = np.random.default_rng(bits * 100 + dim)
        a = rng.integers(lo, hi, dim, dtype=np.int64, endpoint=True)
        a[0], a[-1] = lo, hi
        for b in (a[::-1].copy(), rng.integers(INT64_MIN, INT64_MAX, dim, dtype=np.int64),
                  np.full(dim, lo, dtype=np.int64)):
            assert dot(FpVector(a, 20), FpVector(b, 20)) == _exact_dot(a, b)
            assert dot(FpVector(b, 20), FpVector(a, 20)) == _exact_dot(a, b)

    def test_mixed_scales_rejected(self):
        a = FpVector(np.array([1, 2]), 20)
        b = FpVector(np.array([1, 2]), 21)
        with pytest.raises(ValueError, match="mixed scales"):
            dot(a, b)

    @pytest.mark.parametrize("bits", [10, 30, 44])
    def test_random_raws_match_bigint_oracle(self, bits):
        a = _random_raws(1, 513, bits)
        b = _random_raws(2, 513, bits)
        assert dot(FpVector(a, 20), FpVector(b, 20)) == _exact_dot(a, b)

    def test_inputs_at_protocol_bound_summed_exactly(self):
        a = _random_raws(3, 10000, 44)
        b = _random_raws(4, 10000, 44)
        assert dot(FpVector(a, 20), FpVector(b, 20)) == _exact_dot(a, b)

    def test_sum_past_2_127_exact(self):
        a = FpVector(np.full(100, (1 << 62) - 1, dtype=np.int64), 20)
        assert dot(a, a) == 100 * ((1 << 62) - 1) ** 2

    def test_empty(self):
        e = FpVector.zeros(0)
        assert dot(e, e) == 0

    def test_sign_invariant_under_positive_scaling(self):
        words = prg(77, 400)
        raws = (words % np.uint64(2001)).astype(np.int64) - 1000
        for k in range(0, 400, 40):
            a = FpVector(raws[k : k + 20], 20)
            b = FpVector(raws[k + 20 : k + 40] if k + 40 <= 400 else raws[:20], 20)
            base = sign_indicator(dot(a, b))
            for c in (1, 2, 97, 10**6):
                assert sign_indicator(dot(a.scalar_mul(c), b)) == base


class TestHadamard:
    def test_identity_mask(self):
        g = FpVector(np.array([5, -9, 0]), 20)
        assert hadamard(g, np.ones(3, dtype=np.int64)) == g

    def test_hand_arithmetic(self):
        g = FpVector.from_floats([1.0, -2.0], 20)
        out = hadamard(g, np.array([3, -3]))
        assert out == FpVector.from_floats([3.0, 6.0], 20)

    def test_overflow_aborts_with_diagnostic(self):
        g = FpVector(np.array([1 << 60]), 20)
        with pytest.raises(FixedPointOverflowError) as ei:
            hadamard(g, np.array([16]))
        assert "mask range" in str(ei.value)

    def test_matches_bigint_oracle(self):
        a = _random_raws(5, 777, 40)
        m = _random_raws(6, 777, 15)
        assert hadamard(FpVector(a, 20), m).raw.tolist() == _exact_products(a, m)

    @pytest.mark.parametrize(
        "raws, mask",
        [
            ([1, 1 << 60, 2], [1, 16, 3]),
            ([0, 1 << 60, INT64_MIN], [1, 16, 0]),
            ([0, 1 << 60, INT64_MIN], [1, 16, 1]),
        ],
        ids=["plain", "int64-min-zero-mask", "int64-min-also-bad"],
    )
    def test_overflow_reports_first_bad_index(self, raws, mask):
        g = FpVector(np.array(raws, dtype=np.int64), 20)
        with pytest.raises(FixedPointOverflowError, match=r"at index 1: "):
            hadamard(g, np.array(mask))

    def test_int64_min_input_handled(self):
        # products are bounded symmetrically (|p| <= INT64_MAX), so the one
        # unrepresentable-abs input only survives under a zero mask
        g = FpVector(np.array([INT64_MIN, 5], dtype=np.int64), 20)
        assert hadamard(g, np.array([0, 2])).raw.tolist() == [0, 10]
        with pytest.raises(FixedPointOverflowError, match=r"at index 0: "):
            hadamard(g, np.array([1, 2]))

    def test_product_of_int64_min_rejected(self):
        g = FpVector(np.array([-(1 << 62)]), 20)
        with pytest.raises(FixedPointOverflowError):
            hadamard(g, np.array([2]))

    def test_zero_mask_never_overflows(self):
        g = FpVector(np.array([(1 << 62), -(1 << 62)]), 20)
        assert hadamard(g, np.zeros(2, dtype=np.int64)).raw.tolist() == [0, 0]

    def test_mixed_magnitudes_past_scalar_bound_exact(self):
        # max|g| * max|m| leaves int64, but no single product does
        raws = np.array([1 << 40, 3, -(1 << 40)], dtype=np.int64)
        mask = np.array([1 << 20, 1 << 40, -(1 << 21)], dtype=np.int64)
        out = hadamard(FpVector(raws, 20), mask)
        assert out.raw.tolist() == [1 << 60, 3 << 40, 1 << 61]
        assert out.raw.tolist() == _exact_products(raws, mask)

    def test_paired_masks_recover_l_scaling(self):
        from auditfl.randomness import gen_correlated_pair, sign_vector

        for seed in range(30):
            pair = gen_correlated_pair(seed)
            g = FpVector((prg(seed, 16) % np.uint64(4001)).astype(np.int64) - 2000, 20)
            signs = sign_vector(seed, 16)
            once = hadamard(g, signs * pair.rn_i)
            twice = hadamard(once, signs * pair.rn_s)
            assert twice == g.scalar_mul(pair.l)


class TestSignIndicator:
    def test_zero_is_bad(self):
        assert sign_indicator(0) == 0

    def test_negative(self):
        assert sign_indicator(-7) == 0

    def test_positive(self):
        assert sign_indicator(1) == 1


class TestFloorDiv:
    def test_rounds_toward_negative_infinity(self):
        v = FpVector(np.array([-3]), 20)
        assert floor_div(v, 2).raw[0] == -2

    def test_identity_divisor(self):
        v = FpVector(np.array([7, -8, 0]), 20)
        assert floor_div(v, 1) == v

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            floor_div(FpVector(np.array([1]), 20), 0)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(min_value=-(1 << 40), max_value=1 << 40),
        b=st.integers(min_value=-(1 << 40), max_value=1 << 40),
        c=st.integers(min_value=1, max_value=1 << 20),
    )
    def test_separation_identity_hypothesis(self, a, b, c):
        lhs = floor_div(FpVector(np.array([c * a + b]), 20), c).raw[0]
        assert int(lhs) == a + (b // c)  # python // floors: independent oracle

    def test_separation_identity_bulk(self):
        # >= 10^4 random triples in one vectorized sweep
        words = prg(31337, 30000)
        A = (words[:10000] % np.uint64(1 << 41)).astype(np.int64) - (1 << 40)
        B = (words[10000:20000] % np.uint64(1 << 41)).astype(np.int64) - (1 << 40)
        C = (words[20000:] % np.uint64(1 << 16)).astype(np.int64) + 1
        lhs = (C * A + B) // C
        rhs = A + B // C
        assert np.array_equal(lhs, rhs)


def _chained_average(first, others):
    """floor_average as first written: one checked `+` per vector."""
    total = first
    for v in others:
        total = total + v
    return floor_div(total, len(others) + 1)


class TestFloorAverage:
    @pytest.mark.parametrize("n, dim", [(0, 5), (1, 7), (48, 1010), (20, 7850), (8, 50890)])
    def test_equals_the_chained_sum(self, n, dim):
        vectors = [FpVector(_random_raws(n * 100 + j, dim, 50), 20) for j in range(n + 1)]
        out = floor_average(vectors[0], vectors[1:])
        assert out == _chained_average(vectors[0], vectors[1:])
        # the inputs are left as they were
        assert vectors[0] == FpVector(_random_raws(n * 100, dim, 50), 20)

    def test_large_raws_whose_partial_sums_fit(self):
        # the bound (3 * 2^62) leaves int64, but no partial sum does
        first = FpVector(np.array([1 << 62, -5]), 20)
        others = [FpVector(np.array([-(1 << 62), 3]), 20), FpVector(np.array([1 << 62, 1]), 20)]
        out = floor_average(first, others)
        assert out == _chained_average(first, others)
        assert out.raw.tolist() == [(1 << 62) // 3, -1]

    def test_overflow_raises_the_chained_message(self):
        first = FpVector(np.array([0, INT64_MAX - 5]), 20)
        others = [FpVector(np.array([1, 3]), 20), FpVector(np.array([1, 3]), 20)]
        with pytest.raises(FixedPointOverflowError) as chained:
            _chained_average(first, others)
        with pytest.raises(FixedPointOverflowError) as ours:
            floor_average(first, others)
        assert str(ours.value) == str(chained.value)
        assert f"at index 1: {INT64_MAX - 2} + 3" in str(ours.value)

    def test_mixed_vectors_rejected(self):
        a = FpVector(np.array([1, 2]), 20)
        with pytest.raises(ValueError, match="mixed scales"):
            floor_average(a, [FpVector(np.array([1, 2]), 16)])
        with pytest.raises(DimensionMismatchError):
            floor_average(a, [FpVector(np.array([1]), 20)])


class TestScaleByDyadic:
    def test_matches_floor_oracle(self):
        words = prg(5150, 2000)
        raws = (words % np.uint64(1 << 41)).astype(np.int64) - (1 << 40)
        v = FpVector(raws, 20)
        for num, exp in [(1, 1), (3, 3), (1, 0), (5, 4)]:
            out = scale_by_dyadic(v, num, exp)
            expected = [(num * int(x)) >> exp for x in raws]
            # python's >> on ints floors toward -inf: independent oracle
            assert out.raw.tolist() == expected

    def test_overflow_raises_fixed_point_error(self):
        v = FpVector(np.array([1, 1 << 60]), 20)
        with pytest.raises(FixedPointOverflowError, match=r"at index 1: "):
            scale_by_dyadic(v, 16, 4)


class TestVectorOps:
    def test_add_sub_roundtrip(self):
        a = FpVector(np.array([1, -2, 3]), 20)
        b = FpVector(np.array([10, 20, -30]), 20)
        assert (a + b) - b == a

    def test_add_overflow_detected(self):
        big = FpVector(np.array([(1 << 62) + (1 << 61)]), 20)
        with pytest.raises(FixedPointOverflowError):
            big + big

    def test_add_overflow_reports_index_and_operands(self):
        a = FpVector(np.array([1, -(1 << 62)]), 20)
        b = FpVector(np.array([2, -(1 << 62) - 1]), 20)
        with pytest.raises(FixedPointOverflowError) as ei:
            a + b
        assert f"at index 1: {-(1 << 62)} + {-(1 << 62) - 1}" in str(ei.value)

    def test_add_landing_on_int64_min_accepted(self):
        a = FpVector(np.array([-(1 << 62), 5]), 20)
        assert (a + a).raw.tolist() == [INT64_MIN, 10]

    def test_add_matches_numpy_in_range(self):
        a = _random_raws(7, 100, 40)
        b = _random_raws(8, 100, 40)
        assert np.array_equal((FpVector(a, 20) + FpVector(b, 20)).raw, a + b)

    def test_scalar_mul_matches_numpy(self):
        a = _random_raws(9, 100, 40)
        for c in (7, -7, 0):
            assert np.array_equal(FpVector(a, 20).scalar_mul(c).raw, a * c)

    def test_scalar_mul_overflow_detected(self):
        big = FpVector(np.array([1 << 60]), 20)
        with pytest.raises(FixedPointOverflowError):
            big.scalar_mul(16)

    def test_mixed_scale_rejected(self):
        a = FpVector(np.array([1]), 20)
        b = FpVector(np.array([1]), 16)
        with pytest.raises(ValueError):
            a + b

    def test_immutable(self):
        a = FpVector(np.array([1]), 20)
        with pytest.raises(AttributeError):
            a.scale = 5
        with pytest.raises(ValueError):
            a.raw[0] = 9


def _minimal_width(raws) -> int:
    """Oracle: the least byte count whose two's complement holds every raw."""
    w = 1
    while any(not -(1 << (8 * w - 1)) <= int(x) < (1 << (8 * w - 1)) for x in raws):
        w += 1
    return w


def _encode_oracle(raws, scale: int, width: int) -> bytes:
    """README's vector layout, written out with int.to_bytes."""
    body = b"".join(int(x).to_bytes(width, "little", signed=True) for x in raws)
    return len(raws).to_bytes(8, "little") + bytes([scale, width]) + body


class TestEncoding:
    def test_roundtrip(self):
        # every width, with both ends of its range among the raws
        for width in range(1, 9):
            lo, hi = -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1
            for dim in (1, 2, 3, 17, _DOT_CHUNK + 3):
                raws = _random_raws(width * 1000 + dim, dim, 8 * width - 2)
                raws[0] = lo
                raws[-1] = hi if dim > 1 else lo
                v = FpVector(raws, 20)
                enc = v.encode()
                assert enc.width == width == _minimal_width(raws)
                assert bytes(enc.data) == _encode_oracle(raws, 20, width)
                assert FpVector.decode(enc) == v
                assert FpVector.decode(bytes(enc.data)) == v

    def test_int64_extremes_and_empty(self):
        for raws, width in [([INT64_MIN, INT64_MAX], 8), ([INT64_MIN], 8),
                            ([INT64_MAX, 0, -1], 8), ([], 1), ([0], 1), ([-1], 1),
                            ([127, -128], 1), ([128], 2), ([-129], 2)]:
            v = FpVector(np.array(raws, dtype=np.int64), 5)
            enc = v.encode()
            assert (enc.dim, enc.scale, enc.width) == (len(raws), 5, width)
            assert bytes(enc.data) == _encode_oracle(raws, 5, width)
            assert FpVector.decode(bytes(enc.data)) == v

    def test_layout(self):
        v = FpVector(np.array([1, -300], dtype=np.int64), 7)
        enc = bytes(v.encode().data)
        assert enc[:8] == (2).to_bytes(8, "little")
        assert enc[8] == 7 and enc[9] == 2
        assert enc[10:] == (1).to_bytes(2, "little") + (-300).to_bytes(2, "little", signed=True)

    def test_truncated_rejected(self):
        v = FpVector(np.array([1, 2, 3]), 20)
        with pytest.raises(ValueError, match="length"):
            FpVector.decode(bytes(v.encode().data)[:-1])
        with pytest.raises(ValueError, match="too short"):
            FpVector.decode(bytes(v.encode().data)[:9])

    @pytest.mark.parametrize("width", [0, 9, 255])
    def test_width_outside_range_rejected(self, width):
        data = _encode_oracle([1, 2], 20, 1)
        data = data[:9] + bytes([width]) + data[10:]
        with pytest.raises(ValueError, match=f"width {width} is outside 1..8"):
            FpVector.decode(data)

    @pytest.mark.parametrize("raws, width", [([1, -2], 2), ([0], 8), ([], 2), ([], 8),
                                             ([1 << 40], 7), ([127, -128], 2)])
    def test_width_not_minimal_rejected(self, raws, width):
        data = _encode_oracle(raws, 20, width)
        with pytest.raises(ValueError, match=f"width {width} is not minimal"):
            FpVector.decode(data)

    @pytest.mark.parametrize("dim", [0, 1, 17, 1010])
    def test_encode_rows_equals_encode_of_each_row(self, dim):
        # one row per width, each holding its width's least raw, so the
        # stack's rows differ in width
        rows = np.stack([_random_raws(w * 10 + dim, dim, 8 * w - 2) for w in range(1, 9)])
        if dim:
            rows[:, 0] = [-(1 << (8 * w - 1)) for w in range(1, 9)]
        out = encode_rows(rows, 13)
        assert [bytes(e.data) for e in out] == [bytes(FpVector(r, 13).encode().data)
                                               for r in rows]
        assert [(e.dim, e.scale) for e in out] == [(dim, 13)] * 8
        assert [e.width for e in out] == ([1] * 8 if dim == 0 else list(range(1, 9)))

    def test_determinism_across_construction_paths(self):
        a = FpVector.from_floats([0.25, -0.75], 20)
        b = FpVector(np.array([262144, -786432]), 20)
        assert a.encode() == b.encode()


class TestEncodedEquality:
    @pytest.mark.parametrize("dim", [5, _EQ_CHUNK // 4 + 3, 50890])
    def test_equal_bytes_are_equal(self, dim):
        v = FpVector(_random_raws(dim, dim, 30), 20)
        a, b = v.encode(), Encoded.parse(bytes(v.encode().data))
        assert a.data is not b.data and a == b and b == a

    @pytest.mark.parametrize("dim", [5, _EQ_CHUNK // 4 + 3, 50890])
    def test_buffers_that_differ_in_the_last_byte(self, dim):
        v = FpVector(_random_raws(dim + 1, dim, 30), 20)
        data = bytearray(v.encode().data)
        data[-1] ^= 1
        assert v.encode() != Encoded.parse(bytes(data))
        assert Encoded.parse(bytes(data)) != v.encode()

    def test_two_widths_of_one_vector(self):
        raws = [1, -300, 7]
        minimal = FpVector(np.array(raws), 20).encode()
        wide = Encoded.parse(_encode_oracle(raws, 20, 3))
        assert minimal.width == 2 and wide.width == 3
        assert minimal != wide and wide != minimal

    def test_header_fields_and_other_types(self):
        v = FpVector(np.array([1, 2]), 20)
        assert v.encode() != FpVector(np.array([1, 2]), 19).encode()
        assert v.encode() != FpVector(np.array([1, 2, 0]), 20).encode()
        assert v.encode() != bytes(v.encode().data)


def _from_floats_reference(xs, scale: int) -> np.ndarray:
    """The quantizer as first written, one pass per step; raises like it."""
    x = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        k = int(np.argmin(np.isfinite(x)))
        raise FixedPointOverflowError(
            f"non-finite value {x[k]!r} at index {k} cannot be quantized"
        )
    y = np.abs(x) * float(1 << scale)
    if np.any(y >= float(1 << 63)):
        k = int(np.argmax(y >= float(1 << 63)))
        raise FixedPointOverflowError(
            f"|{x[k]!r}| * 2^{scale} exceeds the signed 64-bit raw range"
        )
    rounded = np.where(y < float(1 << 52), np.floor(y + 0.5), y)
    raw = rounded.astype(np.int64)
    return np.where(np.signbit(x), -raw, raw)


class TestFromFloatsMatchesReference:
    """from_floats takes one fused pass below 2^52; it must equal the
    reference formula bit for bit, errors and their messages included."""

    def _check(self, xs, scale=20):
        try:
            expected = _from_floats_reference(xs, scale)
        except FixedPointOverflowError as e:
            with pytest.raises(FixedPointOverflowError) as ei:
                FpVector.from_floats(xs, scale)
            assert str(ei.value) == str(e)
            return
        out = FpVector.from_floats(xs, scale)
        assert out.raw.dtype == np.int64
        assert np.array_equal(out.raw, expected)

    def test_random_values(self):
        for k, spread in enumerate((1e-6, 1e-3, 1.0, 1e3, 1e9)):
            words = prg(400 + k, 5000)
            xs = (words.astype(np.float64) * 2.0**-64 - 0.5) * spread
            for scale in (0, 16, 20, 30):
                self._check(xs, scale)

    def test_ties_zeros_and_subnormals(self):
        t = 2.0**-20
        xs = [0.5 * t, -0.5 * t, 1.5 * t, -1.5 * t, 2.5 * t, -2.5 * t, 0.0, -0.0,
              5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308,
              t + 2.0**-40, -t - 2.0**-40, 0.5 * t - 2.0**-60, -0.5 * t + 2.0**-60]
        self._check(xs)
        self._check(np.array(xs)[::-1].copy())
        assert FpVector.from_floats([-0.0, -0.4 * t], 20).raw.tolist() == [0, 0]

    def test_near_and_past_the_exact_limit(self):
        big = 2.0**52 / 2**20
        for xs in ([big, -big], [big - 2.0**-20, -(big - 2.0**-20)], [big * 3.5, -1.0],
                   [2.0**42.9, -(2.0**42.9)], [2.0**43 - 2.0**-9]):
            self._check(xs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     2.0**43, -(2.0**43), 1e300])
    def test_errors_and_messages(self, bad):
        self._check([0.25, bad, -0.5])
        self._check([bad])

    def test_empty(self):
        assert FpVector.from_floats([], 20).dim == 0

    @pytest.mark.parametrize("past", [None, 2.0**41.9, 2.0**42.9, 2.0**43, float("nan")])
    def test_rows_are_quantized_as_vectors(self, past):
        # one pass for the rows when all of them take the fast path; a row
        # past it sends every row to the checked path, whose first row that
        # cannot be quantized raises its own from_floats error
        rows = (prg(77, 4 * 300).astype(np.float64) * 2.0**-64 - 0.5).reshape(4, 300)
        if past is not None:
            rows[1, 7] = past
            rows[2, 3] = -2 * past
        expected, error = [], None
        for row in rows:
            try:
                expected.append(FpVector.from_floats(row, 20))
            except FixedPointOverflowError as e:
                error = str(e)
                break
        if error is None:
            assert FpVector.from_float_rows(rows, 20) == expected
        else:
            with pytest.raises(FixedPointOverflowError) as ei:
                FpVector.from_float_rows(rows, 20)
            assert str(ei.value) == error
        assert FpVector.from_float_rows(np.empty((0, 300)), 20) == []


def test_active_backend_reports_selection():
    assert active_backend() == "numpy"
