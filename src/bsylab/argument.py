"""The argument of zeta on the critical line and its integral statistics.

S(t) is (1/pi) times the imaginary part of the branch-tracked log zeta
at 1/2 + it (continuous variation from sigma = 2).  S jumps by +1 at
each simple zero ordinate; at an ordinate the half-sum of the one-sided
limits is returned.  S1(t) is the antiderivative of S, computed two
ways: directly (gap-wise, since between consecutive ordinates S differs
from -theta/pi by a constant) and through the horizontal-segment
integral of log|zeta| from 1/2 to 2, which matches up to a bounded
additive term.  Scan statistics probe the growth of the running
integral of log|zeta(1/2+iu)| and the signed size of short windowed
integrals around the critical line.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import errors, zeta
from .accum import comp_sum
from .config import DEFAULT, PrecisionConfig
from .integral import ScanReport, _segment_profile
from .quadrature import adaptive_quad
from .zeros import ORDINATE_ACCURACY, ZeroList

__all__ = [
    "ArgSample", "S_of_t", "S1_littlewood", "S1_direct",
    "lemma2_scan", "lemma2_normalized", "omega_scan", "omega_normalized",
]


@dataclass
class ArgSample:
    """One height with its argument statistics (NaN until populated)."""

    t: float
    S: float = math.nan
    S1_direct: float = math.nan
    S1_littlewood: float = math.nan


_GL20 = np.polynomial.legendre.leggauss(20)

#: offset used to take one-sided limits at an ordinate
_SIDE_EPS = 1e-6


def S_of_t(t: float, cfg: PrecisionConfig = DEFAULT,
           zeros: ZeroList | None = None) -> float:
    """(1/pi) * Im of the branch-tracked log zeta at 1/2 + it.

    When ``zeros`` is supplied and t sits on an ordinate (within the
    ordinate accuracy), the half-sum of the one-sided limits is
    returned: the left limit plus 1/2, since S jumps by +1 there.
    """
    t = float(t)
    if t < 0:
        raise ValueError("S_of_t requires t >= 0")
    if zeros is not None and zeros.ordinates.size:
        g = zeros.ordinates
        i = int(np.argmin(np.abs(g - t)))
        if abs(g[i] - t) < ORDINATE_ACCURACY:
            left = S_of_t(g[i] - _SIDE_EPS, cfg)
            return left + 0.5
    return zeta.log_zeta_branch(0.5, t, cfg).imag / math.pi


def S1_littlewood(t: float, cfg: PrecisionConfig = DEFAULT) -> float:
    """(1/pi) * integral of log|zeta(sigma+it)| for sigma in [1/2, 2]."""
    t = float(t)
    if t < 10.0:
        raise ValueError("S1_littlewood requires t >= 10")
    zhalf, _ = zeta.hardy_z_batch(np.array([t]), cfg.target_abs_error, cfg)
    if abs(float(zhalf[0])) < 1e-6:
        raise errors.OnOrdinate(
            f"|zeta(1/2+i{t})| = {abs(float(zhalf[0])):.2e}; the "
            "horizontal segment starts at a zero")

    def f(sigmas):
        vals, _ = zeta._em_sigma_grid(sigmas, t, cfg)
        return np.log(np.abs(vals))

    r = adaptive_quad(f, 0.5, 2.0, tol=cfg.quad_tol,
                      max_subdivisions=cfg.max_subdivisions)
    return r.value / math.pi


def S1_direct(t: float, zeros: ZeroList,
              cfg: PrecisionConfig = DEFAULT) -> float:
    """Integral of S(u) for u in [0, t], gap-wise between ordinates.

    Within a gap S(u) + theta(u)/pi is constant, so each gap costs one
    branch-tracked anchor evaluation plus a smooth quadrature of theta.
    """
    t = float(t)
    zeros.require_height(t)
    g = zeros.ordinates[zeros.ordinates < t]
    edges = np.concatenate([[0.0], g, [t]])
    lo, hi = edges[:-1], edges[1:]
    keep = hi - lo > 1e-12
    lo, hi = lo[keep], hi[keep]
    mids = 0.5 * (lo + hi)
    anchors = np.array([S_of_t(float(m), cfg) for m in mids])
    c = anchors + zeta._theta_any(mids) / math.pi

    # integral of theta over each gap by fixed high-order quadrature
    nodes, wts = _GL20
    half = 0.5 * (hi - lo)
    ts = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes[None, :]
    th = zeta._theta_any(ts.ravel()).reshape(ts.shape)
    th_int = half * (th * wts[None, :]).sum(axis=1)
    pieces = c * (hi - lo) - th_int / math.pi
    return comp_sum(pieces)


# ----------------------------------------------------------------------
# Scan statistics
# ----------------------------------------------------------------------

def lemma2_normalized(ts, vals):
    """vals * (log log t)^2 / log t, elementwise."""
    ts = np.asarray(ts, dtype=float)
    return np.asarray(vals) * np.log(np.log(ts)) ** 2 / np.log(ts)


def lemma2_scan(T: float, t_grid, zeros: ZeroList,
                cfg: PrecisionConfig = DEFAULT) -> ScanReport:
    """Running integral of log|zeta(1/2+iu)| from T to each grid point.

    samples hold (t, running integral); fitted_params holds the single
    value sup over the grid of |integral| * (log log t)^2 / log t.
    """
    T = float(T)
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("t_grid must be strictly ascending")
    if T < 3.0 or grid[0] < T:
        raise ValueError("need 3 <= T <= min(t_grid)")
    zeros.require_height(grid[-1])
    cuts = grid.copy() if grid[0] == T else np.concatenate([[T], grid])
    v, e, _, _ = _segment_profile(cuts, zeros.ordinates, cfg,
                                  weight_f=lambda t: np.ones_like(t))
    run = np.cumsum(v)
    if grid[0] == T:
        run = np.concatenate([[0.0], run])
    norm = lemma2_normalized(grid, run)
    sup = float(np.max(np.abs(norm)))
    return ScanReport(np.column_stack([grid, run]), "none",
                      np.array([sup]), 0.0)


def omega_normalized(ts, vals, h: float):
    """vals / (h * sqrt(log t / log log t)), elementwise."""
    ts = np.asarray(ts, dtype=float)
    return np.asarray(vals) / (h * np.sqrt(np.log(ts) / np.log(np.log(ts))))


def omega_scan(T: float, h: float, zeros: ZeroList,
               cfg: PrecisionConfig = DEFAULT) -> ScanReport:
    """Windowed integrals of log|zeta(1/2+iu)| over [t-h, t+h].

    Scans t on the lattice of spacing h/4 across [T, 2T]; samples hold
    (t, window integral); fitted_params holds (max, argmax, min, argmin)
    of the normalized statistic.
    """
    T, h = float(T), float(h)
    if not 0.0 < h <= 1.0:
        raise ValueError("need 0 < h <= 1")
    if T < 10.0:
        raise ValueError("need T >= 10")
    zeros.require_height(2 * T + h)
    delta = h / 4.0
    n = int(math.ceil(T / delta))
    centers = T + delta * np.arange(n + 1)
    cuts = np.concatenate([[T - h], T - h + delta * np.arange(1, n + 10)])
    v, e, _, _ = _segment_profile(cuts, zeros.ordinates, cfg,
                                  weight_f=lambda t: np.ones_like(t))
    C = np.concatenate([[0.0], np.cumsum(v)])
    # window [t_i - h, t_i + h] spans 8 lattice steps starting at index i
    W = C[8:8 + centers.size] - C[:centers.size]
    norm = omega_normalized(centers, W, h)
    imax, imin = int(np.argmax(norm)), int(np.argmin(norm))
    return ScanReport(
        np.column_stack([centers, W]), "none",
        np.array([norm[imax], centers[imax], norm[imin], centers[imin]]),
        0.0)
