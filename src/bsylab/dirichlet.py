"""Dirichlet polynomials: exact mean squares and log-zeta moments.

R(t) = sum of r(n) n^(-it) over a coefficient table.  The mean square
over [T, 2T] has an exact closed form (diagonal T * sum r^2 plus
oscillatory off-diagonal terms), no quadrature.  The moment integral of
log zeta(alpha + i(t+h)) |R(t)|^2 over [T, 2T] is compared against its
exact main term T * sum over mn <= N of Lambda(n) r(m) r(mn) /
(n^(alpha+ih) log n), normalized by N (log TN)^(3/2) sum r^2.  The
windowed-argument resonance statistics are the corresponding exact
ratios with sin^2((h/2) log n) and sin(h log n) weights.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import errors, resonator, zeta
from .accum import comp_sum, comp_sum_complex
from .config import DEFAULT, PrecisionConfig
from .resonator import ResonatorTable

__all__ = [
    "Lemma3Request", "eval_R", "eval_R_batch", "mean_square_exact",
    "lemma3_lhs", "lemma3_rhs", "lemma3_compare",
    "s1_resonance_statistic",
]


def _table_arrays(table) -> tuple[np.ndarray, np.ndarray]:
    """Accept a ResonatorTable or a plain (ns, rs) pair."""
    if isinstance(table, ResonatorTable):
        return table.ns, table.rs
    ns, rs = table
    ns = np.asarray(ns, dtype=np.int64)
    rs = np.asarray(rs, dtype=float)
    if ns.size != rs.size or ns.size == 0 or np.any(np.diff(ns) <= 0):
        raise ValueError("table must be nonempty with ascending n")
    return ns, rs


def _table_capacity(table) -> int:
    if isinstance(table, ResonatorTable):
        return int(table.params.N)
    ns, _ = _table_arrays(table)
    return int(ns[-1])


@dataclass(frozen=True)
class Lemma3Request:
    """Inputs of the moment comparison."""

    alpha: float
    h: float
    T: float
    table: object
    eps_margin: float = 0.05

    def __post_init__(self):
        if not 0.5 <= self.alpha <= 2.0:
            raise ValueError("alpha must lie in [1/2, 2]")
        if self.T < 3.0:
            raise ValueError("T must be >= 3")
        if self.eps_margin <= 0:
            raise ValueError("eps_margin must be positive")
        _table_arrays(self.table)


def eval_R_batch(table, ts) -> np.ndarray:
    """R(t) = sum of r(n) n^(-it) on an array of heights.

    One ``zeta._phase_sum``: a blocked matrix product when ts is a
    uniform grid (linspace or T + dx*arange), an expansion about each
    cluster of nearby heights otherwise, and the direct longdouble-phase
    sum when no two heights are near.
    """
    ns, rs = _table_arrays(table)
    ts = np.asarray(ts, dtype=float)
    return zeta._phase_sum(np.log(ns.astype(np.longdouble)), rs, ts)[0]


def eval_R(table, t: float) -> complex:
    """R(t) at a single height."""
    return complex(eval_R_batch(table, [t])[0])


def mean_square_exact(table, T: float) -> float:
    """Integral of |R(t)|^2 over [T, 2T], in closed form.

    Equals T * sum r^2 + sum over pairs m < n of
    2 r(m) r(n) (sin(2T l) - sin(T l)) / l with l = log(n/m); the pair
    sum is Im S(T) - Im S(2T) of a ``zeta._phase_sum`` S with those
    amplitudes and frequencies.  Pairs are taken in row blocks of at
    most ``zeta._EM_CHUNK`` (one row at least), so memory stays bounded
    as the table grows; the block sums are added by ``comp_sum``.
    """
    T = float(T)
    if T <= 0:
        raise ValueError("T must be positive")
    ns, rs = _table_arrays(table)
    diag = T * comp_sum(rs ** 2)
    lnn = np.log(ns.astype(np.longdouble))
    per_row = np.arange(ns.size - 1, 0, -1)
    first = np.concatenate([[0], np.cumsum(per_row)])  # first pair of row
    off = []
    i0 = 0
    while i0 < ns.size - 1:
        i1 = max(i0 + 1, int(np.searchsorted(
            first, first[i0] + zeta._EM_CHUNK, side="right")) - 1)
        i = np.repeat(np.arange(i0, i1), per_row[i0:i1])
        j = np.arange(first[i0], first[i1]) - first[i] + i + 1
        ell = lnn[j] - lnn[i]
        S, _ = zeta._phase_sum(ell, 2.0 * rs[i] * rs[j] / ell.astype(float),
                               np.array([T, 2.0 * T]))
        off.append(float(S[0].imag - S[1].imag))
        i0 = i1
    return diag + comp_sum(off)


# ----------------------------------------------------------------------
# Moment integral (numerical side)
# ----------------------------------------------------------------------

#: Above this height the zeta evaluations inside the moment integral
#: switch from Euler-Maclaurin to the symmetric truncated functional
#: equation (accuracy ~ t^(-alpha/2 - 1/4), O(sqrt t) terms instead of
#: O(t)).  Both engines sum the uniform moment grid as one blocked
#: matrix product (``zeta._phase_sum``), which costs O(sqrt(K) * M)
#: phase reductions for K points and M terms; the cut-over is not
#: re-tuned to that cost.
_AFE_CUTOVER = 30_000.0


def _phase_increment(eval_one, t0: float, t1: float,
                     v0: complex, v1: complex, depth: int = 24) -> float:
    """Continuous change of arg zeta between two nearby heights.

    The principal angle of v1/v0 is trusted once it falls below pi/2;
    otherwise the interval is bisected with a fresh evaluation at the
    midpoint and the two halves are summed.
    """
    d = cmath.phase(v1 / v0)
    if abs(d) <= 0.5 * math.pi:
        return d
    if depth <= 0:
        raise errors.BranchAmbiguous(
            f"phase increment stays above pi/2 near t={t0:.6f} "
            "after repeated bisection")
    tm = 0.5 * (t0 + t1)
    vm = eval_one(tm)
    return (_phase_increment(eval_one, t0, tm, v0, vm, depth - 1)
            + _phase_increment(eval_one, tm, t1, vm, v1, depth - 1))


def _log_zeta_vertical(alpha: float, ts: np.ndarray,
                       cfg: PrecisionConfig) -> tuple[np.ndarray, float]:
    """Continuous log zeta(alpha + i t) along an ascending fine grid.

    The branch is anchored to the horizontal-tracking value at the first
    grid point, continued by phase unwrapping, and cross-checked against
    an independent anchor at the last point.  Grid steps whose naive
    phase increment exceeds pi/2 (a close zero just off the path) are
    resolved by local bisection with extra evaluations.  Returns
    (values, pointwise_error_bound).
    """
    if np.any(np.diff(ts) <= 0):
        raise ValueError("grid must be ascending")
    if float(ts[-1]) > _AFE_CUTOVER:
        vals, bnd = zeta.zeta_afe_batch(alpha, ts)
        point_err = float(np.max(bnd))

        def eval_one(t: float) -> complex:
            return complex(zeta.zeta_afe_batch(alpha, np.array([t]))[0][0])
    else:
        vals, bnds = zeta._em_batch(alpha, ts, cfg)
        point_err = float(np.max(bnds))

        def eval_one(t: float) -> complex:
            return complex(zeta._em_batch(alpha, np.array([t]), cfg)[0][0])
    mod = np.abs(vals)
    if np.any(mod < 1e-9):
        raise errors.ZeroOnPath(
            f"|zeta({alpha}+it)| below 1e-9 on the grid")
    la = np.log(mod)
    ph = np.unwrap(np.angle(vals))
    steps = np.diff(ph)
    bad = np.flatnonzero(np.abs(steps) > 0.5 * math.pi)
    if bad.size > 200:
        raise errors.BranchAmbiguous(
            f"{bad.size} grid steps exceed pi/2; grid far too coarse")
    for i in bad.tolist():
        inc = _phase_increment(eval_one, float(ts[i]), float(ts[i + 1]),
                               complex(vals[i]), complex(vals[i + 1]))
        ph[i + 1:] += (ph[i] + inc) - ph[i + 1]
    a0 = zeta.log_zeta_branch(alpha, float(ts[0]), cfg)
    ph += a0.imag - ph[0]
    a1 = zeta.log_zeta_branch(alpha, float(ts[-1]), cfg)
    drift = abs(ph[-1] - a1.imag)
    if drift > 0.5 * math.pi:
        raise errors.BranchAmbiguous(
            f"unwrapped phase misses the endpoint anchor by {drift:.3f}")
    return la + 1j * ph, point_err + drift / max(ts.size, 1)


def lemma3_lhs(req: Lemma3Request, cfg: PrecisionConfig = DEFAULT,
               spacing: float = 0.05) -> complex:
    """Integral of log zeta(alpha + i(t+h)) |R(t)|^2 over [T, 2T].

    Composite-Simpson on a uniform grid (halved once for an error
    check); the vertical branch of log zeta is unwrapped along the grid
    and anchored to the horizontal-tracking branch at both ends.
    """
    alpha, h, T = req.alpha, req.h, req.T
    if alpha < 0.5 + req.eps_margin:
        raise ValueError(
            f"numerical moment requires alpha >= 1/2 + {req.eps_margin}")
    n_half = 2 * max(8, int(math.ceil(T / spacing / 2)))  # fine steps
    ts = T + (T / n_half) * np.arange(n_half + 1)
    lz, point_err = _log_zeta_vertical(alpha, ts + h, cfg)
    R = eval_R_batch(req.table, ts)
    f = lz * np.abs(R) ** 2

    def simpson(y, dx):
        w = np.ones(y.size)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return (dx / 3.0) * complex(comp_sum(w * y.real),
                                    comp_sum(w * y.imag))

    dx = T / n_half
    fine = simpson(f, dx)
    coarse = simpson(f[::2], 2.0 * dx)
    # only the discretization part responds to refinement; the pointwise
    # evaluation-error term is a property of the zeta engine, not the grid
    est_quad = abs(fine - coarse) / 15.0
    if est_quad > max(cfg.quad_tol * T, 1e-6 * abs(fine) + 1e-12):
        return lemma3_lhs(req, cfg, spacing=spacing / 4.0) \
            if spacing > 1e-3 else fine
    return fine


def lemma3_rhs(req: Lemma3Request) -> complex:
    """T * sum over mn <= N of Lambda(n) r(m) r(mn) / (n^(alpha+ih) log n).

    Exact finite sum over the prime powers n, each weighted by its
    correlation c(n) = sum over m of r(m) r(mn).
    """
    ns, rs = _table_arrays(req.table)
    q, p, c = resonator._prime_power_correlations(ns, rs)
    lq = np.log(q)
    terms = c * np.log(p) * np.exp(-complex(req.alpha, req.h) * lq) / lq
    return req.T * comp_sum_complex(terms)


def lemma3_compare(req: Lemma3Request,
                   cfg: PrecisionConfig = DEFAULT,
                   spacing: float = 0.05) -> float:
    """|LHS - RHS| / (N (log TN)^(3/2) sum r^2)."""
    ns, rs = _table_arrays(req.table)
    N = _table_capacity(req.table)
    gap = abs(lemma3_lhs(req, cfg, spacing=spacing) - lemma3_rhs(req))
    scale = N * math.log(req.T * N) ** 1.5 * comp_sum(rs ** 2)
    return gap / scale


# ----------------------------------------------------------------------
# Windowed-argument resonance statistics
# ----------------------------------------------------------------------

def s1_resonance_statistic(table, h: float) -> tuple[float, float]:
    """Exact main-term ratios of the windowed argument statistics.

    Returns (sin_sq, sin_lin):
      sin_sq  = (2/pi) * sum Lambda(n) r(m) r(mn) sin^2((h/2) log n)
                       / (sqrt(n) (log n)^2)  /  sum r^2,
      sin_lin = 2 * the same sum with sin(h log n) weight / sum r^2.
    Both are exact finite sums over mn <= N.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError("need 0 <= h <= 1")
    ns, rs = _table_arrays(table)
    q, p, c = resonator._prime_power_correlations(ns, rs)
    lq = np.log(q)
    base = c * np.log(p) / (np.sqrt(q) * lq * lq)
    den = comp_sum(rs ** 2)
    return ((2.0 / math.pi) * comp_sum(base * np.sin(0.5 * h * lq) ** 2)
            / den, 2.0 * comp_sum(base * np.sin(h * lq)) / den)
