"""Error-compensated accumulation helpers.

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


def longdouble_dot(a, b) -> float:
    """Dot product accumulated in longdouble (80-bit extended on x86)."""
    return float(np.dot(np.asarray(a, dtype=np.longdouble),
                        np.asarray(b, dtype=np.longdouble)))
