"""Integer kernels must match exact Python-integer arithmetic bit for bit."""
import numpy as np
import pytest

from auditfl import backend


def _random_raws(seed: int, n: int, bits: int) -> np.ndarray:
    from auditfl.randomness import prg

    words = prg(seed, n)
    return (words % np.uint64(1 << (bits + 1))).astype(np.int64) - (1 << bits)


def _dot_reference(a: np.ndarray, b: np.ndarray) -> int:
    return sum(int(x) * int(y) for x, y in zip(a.tolist(), b.tolist()))


def _hadamard_reference(a: np.ndarray, b: np.ndarray) -> list[int]:
    return [int(x) * int(y) for x, y in zip(a.tolist(), b.tolist())]


class TestDotPaths:
    @pytest.mark.parametrize("bits", [10, 30, 44])
    def test_fast_and_object_paths_agree(self, bits):
        a = _random_raws(1, 513, bits)
        b = _random_raws(2, 513, bits)
        assert backend.dot_i64(a, b) == _dot_reference(a, b)

    def test_fast_path_condition_is_conservative(self):
        # inputs at the documented protocol bound are summed exactly
        a = _random_raws(3, 10000, 44)
        b = _random_raws(4, 10000, 44)
        assert backend.dot_i64(a, b) == _dot_reference(a, b)

    def test_oversized_inputs_fall_back(self):
        # a sum far beyond 2^127 stays exact
        a = np.full(100, (1 << 62) - 1, dtype=np.int64)
        b = np.full(100, (1 << 62) - 1, dtype=np.int64)
        assert backend.dot_i64(a, b) == 100 * ((1 << 62) - 1) ** 2

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        assert backend.dot_i64(e, e) == 0


class TestHadamardPaths:
    def test_paths_agree(self):
        a = _random_raws(5, 777, 40)
        b = _random_raws(6, 777, 15)
        assert backend.hadamard_i64(a, b).tolist() == _hadamard_reference(a, b)

    def test_overflow_same_index_both_paths(self):
        # the first overflowing index is reported by the numpy check and by
        # the big-int check that INT64_MIN inputs take
        a = np.array([1, 1 << 60, 2], dtype=np.int64)
        b = np.array([1, 16, 3], dtype=np.int64)
        with pytest.raises(backend.KernelOverflow) as e1:
            backend.hadamard_i64(a, b)
        a_min = np.array([0, 1 << 60, backend.INT64_MIN], dtype=np.int64)
        b_min = np.array([1, 16, 0], dtype=np.int64)
        with pytest.raises(backend.KernelOverflow) as e2:
            backend.hadamard_i64(a_min, b_min)
        assert e1.value.index == e2.value.index == 1

    def test_int64_min_input_handled(self):
        # products are bounded symmetrically (|p| <= INT64_MAX), so the one
        # unrepresentable-abs input only survives under a zero mask
        a = np.array([backend.INT64_MIN, 5], dtype=np.int64)
        assert backend.hadamard_i64(a, np.array([0, 2], dtype=np.int64)).tolist() == [0, 10]
        with pytest.raises(backend.KernelOverflow):
            backend.hadamard_i64(a, np.array([1, 2], dtype=np.int64))

    def test_zero_mask_never_overflows(self):
        a = np.array([(1 << 62), -(1 << 62)], dtype=np.int64)
        b = np.zeros(2, dtype=np.int64)
        assert backend.hadamard_i64(a, b).tolist() == [0, 0]


class TestCheckedOps:
    def test_add_checked_detects_wrap(self):
        a = np.array([(1 << 62) + (1 << 61)], dtype=np.int64)
        with pytest.raises(backend.KernelOverflow):
            backend.add_checked_i64(a, a)

    def test_add_checked_passes_normal(self):
        a = _random_raws(7, 100, 40)
        b = _random_raws(8, 100, 40)
        assert np.array_equal(backend.add_checked_i64(a, b), a + b)

    def test_scale_checked(self):
        a = _random_raws(9, 100, 40)
        assert np.array_equal(backend.scale_checked_i64(a, 7), a * 7)
        with pytest.raises(backend.KernelOverflow):
            backend.scale_checked_i64(np.array([1 << 60], dtype=np.int64), 16)


def test_active_backend_reports_selection():
    assert backend.active_backend() == "numpy"
