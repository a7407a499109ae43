"""Machine-speed calibration for the benchmark's time metrics.

On a shared virtual machine the speed of a core drifts by 20-40 % within
seconds to minutes, so raw times from two runs a minute apart differ by
more than any useful regression bound.  The benchmark therefore times
this fixed kernel twice before and twice after every timed operation
and set-up, and rescales the operation's wall time by
``REFERENCE_S / median(kernel times)``: the result reads as seconds on
the reference machine.

The kernel does no bsylab work, so a change to the program moves the
rescaled times exactly as it moves the raw ones.  It is shaped like
bsylab's own work: a longdouble phase matrix reduced mod 2 pi with cos
and sin sums (the Dirichlet-polynomial kernels), and a pure-Python dict
loop (the c(p^k) loops and the adaptive drivers' bookkeeping).
"""

import statistics
import time

import numpy as np

#: Median kernel time on the reference machine (2-vCPU x86-64 VM,
#: Python 3.11.7, numpy 2.4.6), so that rescaled times are in seconds.
REFERENCE_S = 0.014

_T = np.linspace(500.0, 520.0, 500).astype(np.longdouble)[:, None]
_LOG_N = np.log(np.arange(1, 400, dtype=np.longdouble))[None, :]
_TWO_PI = np.longdouble(2.0 * np.pi)
_TABLE = {i: float(i) for i in range(2000)}


def _kernel():
    ph = ((_T * _LOG_N) % _TWO_PI).astype(float)
    acc = float(np.cos(ph).sum() + np.sin(ph).sum())
    for _ in range(7):
        for k, v in _TABLE.items():
            if 3 * k < 5000:
                acc += v
    return acc


def kernel_seconds(repeats=2):
    """Wall times of ``repeats`` runs of the kernel, after one untimed run
    that brings its arrays back into cache."""
    _kernel()
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - start)
    return out


def scale(before, after):
    """Factor taking a time measured between two kernel samples to
    reference seconds."""
    return REFERENCE_S / statistics.median(before + after)
