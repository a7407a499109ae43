"""The argument of zeta on the critical line and its integral statistics.

S(t) is (1/pi) times the imaginary part of the branch-tracked log zeta
at 1/2 + it (continuous variation from sigma = 2).  S jumps by +1 at
each simple zero ordinate; at an ordinate the half-sum of the one-sided
limits is returned.  S1(t) is the antiderivative of S, computed two
ways: in closed form from the certified zero list (by Riemann-von
Mangoldt, N(u) = theta(u)/pi + 1 + S(u), and the integral of N over
[0, t] is the sum of t - gamma over the ordinates below t) and through
the horizontal-segment integral of log|zeta| from 1/2 to 2, off the
line, which matches up to a bounded additive term.  Scan statistics
probe the growth of the running integral of log|zeta(1/2+iu)| and the
signed size of short windowed integrals around the critical line.
"""

import math

import numpy as np

from . import errors, phases, zeta
from .config import DEFAULT, PrecisionConfig
from .integral import ScanReport, _segment_profile
from .quadrature import adaptive_quad
from .zeros import ORDINATE_ACCURACY, ZeroList

__all__ = [
    "S_of_t", "S1_littlewood", "S1_direct",
    "lemma2_scan", "lemma2_normalized", "omega_scan", "omega_normalized",
]

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
    """Integral of S(u) for u in [0, t], t >= 10, from the zero list.

    By Riemann-von Mangoldt, S(u) = N(u) - 1 - theta(u)/pi, and the
    integral of N over [0, t] is the sum of t - gamma over the listed
    ordinates gamma < t, so S1(t) = sum (t - gamma) - t - Theta(t)/pi,
    Theta the integral of theta (``zeta._theta_integral``, longdouble,
    divided by the longdouble pi).  The result is one ``math.fsum``,
    with Theta(t)/pi split into two floats.  One witness guards a list
    that is marked verified but wrong: S(t) by branch-tracked log zeta
    must lie within 1/4 of the list's count at t, with 1/2 for a listed
    ordinate at t (else Inconsistent).  It sees a missing or extra
    ordinate anywhere below t.
    """
    t = float(t)
    zeros.require_height(_s1_height(t))
    g = zeros.ordinates[zeros.ordinates < t]
    on = np.abs(zeros.ordinates - t) < ORDINATE_ACCURACY
    count = np.count_nonzero((zeros.ordinates < t) & ~on) \
        + 0.5 * np.count_nonzero(on)
    s = S_of_t(t, cfg, zeros)
    expect = count - 1.0 - zeta.rs_theta(t) / math.pi
    if abs(s - expect) > 0.25:
        raise errors.Inconsistent(
            f"S({t}) = {s:.6f} by branch tracking, but {expect:.6f} "
            f"from the zero list's count N = {count} there")

    q = 2 * zeta._theta_integral(t) / phases.TWO_PI_LD
    q_hi = float(q)
    q_lo = float(q - np.longdouble(q_hi))
    return math.fsum([t] * g.size + (-g).tolist() + [-t, -q_hi, -q_lo])


def _s1_height(t: float) -> float:
    """The height a zero list must cover for ``S1_direct`` at t: t, once
    t is at least ``zeta.THETA_T_MIN`` (else ValueError)."""
    if not t >= zeta.THETA_T_MIN:
        raise ValueError(f"S1_direct requires t >= {zeta.THETA_T_MIN}")
    return t


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

    samples hold (t, running integral) and budgets the running sum of
    the segment integrals' error estimates; fitted_params holds the
    single value sup over the grid of |integral| * (log log t)^2 / log t.
    """
    T = float(T)
    grid = np.asarray(t_grid, dtype=float)
    zeros.require_height(_lemma2_height(T, grid))
    cuts = grid.copy() if grid[0] == T else np.concatenate([[T], grid])
    v, e, _, _ = _segment_profile(cuts, zeros.ordinates, cfg, None)
    run, budget = np.cumsum(v), np.cumsum(e)
    if grid[0] == T:
        run = np.concatenate([[0.0], run])
        budget = np.concatenate([[0.0], budget])
    norm = lemma2_normalized(grid, run)
    sup = float(np.max(np.abs(norm)))
    return ScanReport(np.column_stack([grid, run]), "none",
                      np.array([sup]), 0.0, budgets=budget)


def _lemma2_height(T: float, grid: np.ndarray) -> float:
    """The height a zero list must cover for ``lemma2_scan`` from T over
    the grid: its last point, once the grid is strictly ascending and
    3 <= T <= its first point (else ValueError)."""
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.diff(grid) > 0):
        raise ValueError("t_grid must be strictly ascending")
    if not 3.0 <= T <= grid[0]:
        raise ValueError("need 3 <= T <= min(t_grid)")
    return float(grid[-1])


def omega_normalized(ts, vals, h: float):
    """vals / (h * sqrt(log t / log log t)), elementwise."""
    ts = np.asarray(ts, dtype=float)
    return np.asarray(vals) / (h * np.sqrt(np.log(ts) / np.log(np.log(ts))))


def omega_scan(T: float, h: float, zeros: ZeroList,
               cfg: PrecisionConfig = DEFAULT) -> ScanReport:
    """Windowed integrals of log|zeta(1/2+iu)| over [t-h, t+h].

    Scans t on the lattice T + k h/4 within [T, 2T]; samples hold
    (t, window integral) and budgets the sum of the window's 8 segment
    error estimates; fitted_params holds (max, argmax, min, argmin) of
    the normalized statistic.  The windows end by 2T + h, the height
    the zero list must cover; no ordinate above it is read, so a longer
    list gives the same bits.  The lattice steps are cuts of one segment
    profile, read out of panels laid by the ordinates, so the scan pays
    per panel, not per step: about 0.96 Z points per step at T = 600,
    h = 0.3, Z errors of 1e-6 and quad_tol 1e-4.
    """
    T, h = float(T), float(h)
    zeros.require_height(_omega_height(T, h))
    delta = h / 4.0
    n = int(math.floor(T / delta))
    centers = T + delta * np.arange(n + 1)
    cuts = np.concatenate([[T - h], T - h + delta * np.arange(1, n + 9)])
    g = zeros.ordinates
    v, e, _, _ = _segment_profile(cuts, g[g <= 2 * T + h], cfg, None)
    C = np.concatenate([[0.0], np.cumsum(v)])
    # window [t_i - h, t_i + h] spans 8 lattice steps starting at index i
    W = C[8:8 + centers.size] - C[:centers.size]
    budget = np.lib.stride_tricks.sliding_window_view(e, 8).sum(axis=1)
    norm = omega_normalized(centers, W, h)
    imax, imin = int(np.argmax(norm)), int(np.argmin(norm))
    return ScanReport(
        np.column_stack([centers, W]), "none",
        np.array([norm[imax], centers[imax], norm[imin], centers[imin]]),
        0.0, budgets=budget)


def _omega_height(T: float, h: float) -> float:
    """The height a zero list must cover for ``omega_scan`` at (T, h):
    2T + h, the end of the last window, once 0 < h <= 1 and T >= 10 (else
    ValueError)."""
    if not 0.0 < h <= 1.0:
        raise ValueError("need 0 < h <= 1")
    if not T >= 10.0:
        raise ValueError("need T >= 10")
    return 2 * T + h
