"""Error-compensated accumulation helpers, and distinct values by a sort.

Deterministic reductions: every routine sums in a fixed order, so
repeated runs are bit-identical.
"""

import math

import numpy as np


def comp_sum(values) -> float:
    """Correctly rounded sum of a 1-d float array (``math.fsum``).

    Shewchuk's exact summation, so the result does not depend on the
    order; used for the fixed-order panel reductions.
    """
    arr = np.asarray(values, dtype=float).ravel()
    return math.fsum(arr.tolist())


def comp_sum_complex(values) -> complex:
    arr = np.asarray(values, dtype=complex).ravel()
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))


def sorted_unique(x) -> np.ndarray:
    """The distinct values of x ascending, as ``np.unique(x)`` gives them
    for x without NaN.  The plain ``np.unique`` of NumPy 2.4 (and so
    ``np.union1d`` and ``np.setdiff1d``) imports ``numpy.ma`` on its first
    call: about 1 MB of module objects and 7 ms inside the first run of a
    command."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]
