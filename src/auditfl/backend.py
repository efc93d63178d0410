"""Exact int64 vector kernels in numpy.

Every kernel here is *exact*: it returns the true integer result or raises
KernelOverflow before an int64 value would wrap. Wide inner products are
summed in Python integers, so they never overflow.
"""
from __future__ import annotations

import numpy as np

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


def active_backend() -> str:
    """Name of the kernel implementation in use; always 'numpy'."""
    return "numpy"


def _max_abs(a: np.ndarray) -> int:
    """Largest |entry| of an int64 array, as a Python int (0 for empty)."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def dot_i64(a: np.ndarray, b: np.ndarray) -> int:
    """Exact dot product of two int64 arrays as an arbitrary-precision int.

    Products of two int64 values need up to 126 bits, so the products are
    taken and summed over object (Python int) arrays.
    """
    if a.size == 0:
        return 0
    return int(np.dot(a.astype(object), b.astype(object)))


# ---------------------------------------------------------------------------
# Overflow-checked entrywise product.
# ---------------------------------------------------------------------------


class KernelOverflow(Exception):
    """Raised when an entrywise product would leave the int64 range."""

    def __init__(self, index: int, x: int, y: int):
        self.index = index
        self.x = x
        self.y = y
        super().__init__(
            f"entrywise product overflows int64 at index {index}: {x} * {y}"
        )


def hadamard_i64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact entrywise int64 product; raises KernelOverflow before wrapping."""
    if a.size and min(int(a.min()), int(b.min())) == INT64_MIN:
        # abs(INT64_MIN) wraps in numpy; resolve these inputs in big-int
        # arithmetic with the same symmetric |p| <= INT64_MAX bound.
        out = np.empty_like(a)
        for k in range(a.shape[0]):
            p = int(a[k]) * int(b[k])
            if abs(p) > INT64_MAX:
                raise KernelOverflow(k, int(a[k]), int(b[k]))
            out[k] = p
        return out
    ab = np.abs(a)
    bb = np.abs(b)
    lim = np.full_like(b, INT64_MAX)
    nz = b != 0
    np.floor_divide(INT64_MAX, bb, out=lim, where=nz)
    bad = ab > lim
    if bad.any():
        k = int(np.argmax(bad))
        raise KernelOverflow(k, int(a[k]), int(b[k]))
    return a * b


# ---------------------------------------------------------------------------
# Overflow-checked elementwise add/sub (sign-pattern test, exact).
# ---------------------------------------------------------------------------


def add_checked_i64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b with wraparound detected and reported instead of returned."""
    with np.errstate(over="ignore"):
        c = a + b
    ov = ((a >= 0) & (b >= 0) & (c < 0)) | ((a < 0) & (b < 0) & (c >= 0))
    if ov.any():
        k = int(np.argmax(ov))
        raise KernelOverflow(k, int(a[k]), int(b[k]))
    return c


def scale_checked_i64(a: np.ndarray, c: int) -> np.ndarray:
    """a * c (int scalar) with an exact pre-check against int64 overflow."""
    if c == 0:
        return np.zeros_like(a)
    lim = INT64_MAX // abs(c)
    m = _max_abs(a)
    if m > lim:
        bad = np.abs(a) > lim
        k = int(np.argmax(bad))
        raise KernelOverflow(k, int(a[k]), c)
    return a * np.int64(c)
