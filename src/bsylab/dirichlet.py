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

from . import errors, phases, resonator, zeta
from .accum import comp_sum, comp_sum_complex
from .config import DEFAULT, PrecisionConfig
from .resonator import ResonatorTable

__all__ = [
    "Lemma3Request", "eval_R", "eval_R_batch", "mean_square_exact",
    "lemma3_lhs", "lemma3_rhs", "lemma3_normalization", "lemma3_compare",
    "s1_resonance_statistic",
]


def _table_arrays(table) -> tuple[np.ndarray, np.ndarray]:
    """Accept a ResonatorTable or a plain (ns, rs) pair of finite r(n)."""
    if isinstance(table, ResonatorTable):
        return table.ns, table.rs
    ns, rs = table
    ns = np.asarray(ns, dtype=np.int64)
    rs = np.asarray(rs, dtype=float)
    if ns.size != rs.size or ns.size == 0 or np.any(np.diff(ns) <= 0):
        raise ValueError("table must be nonempty with ascending n")
    if ns[0] < 1:
        raise ValueError("table entries n must be >= 1")
    if not np.all(np.isfinite(rs)):
        raise ValueError("table coefficients r(n) must be finite")
    return ns, rs


@dataclass(frozen=True)
class Lemma3Request:
    """Inputs of the moment comparison."""

    alpha: float
    h: float
    T: float
    table: object

    def __post_init__(self):
        if not 0.5 <= self.alpha <= 2.0:
            raise ValueError("alpha must lie in [1/2, 2]")
        if not (math.isfinite(self.T) and self.T >= 3.0):
            raise ValueError("T must be finite and >= 3")
        if not math.isfinite(self.h):
            raise ValueError("h must be finite")
        _table_arrays(self.table)


def eval_R_batch(table, ts) -> np.ndarray:
    """R(t) = sum of r(n) n^(-it) on an array of heights.

    One ``phases.phase_sum`` on the integers of the table: a blocked
    matrix product when ts is a uniform grid (linspace or T + dx*arange),
    an expansion about each cluster of nearby heights otherwise (a lone
    height is a cluster of one).  Heights must be a 1-d array of finite
    numbers.
    """
    ns, rs = _table_arrays(table)
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)):
        raise ValueError("eval_R_batch requires a 1-d array of finite t")
    return phases.phase_sum(ns, rs, ts)[0]


def eval_R(table, t: float) -> complex:
    """R(t) at a single height."""
    return complex(eval_R_batch(table, [t])[0])


#: Max float64 elements of one row block of the kernel W in
#: ``mean_square_exact`` (512 KB, so that a block and its low words stay
#: in cache); a block holds one row at least.
_PAIR_BLOCK = 1 << 16


def mean_square_exact(table, T: float) -> float:
    """Integral of |R(t)|^2 over [T, 2T], in closed form.

    Equals T * sum r^2 plus, over pairs i < j with l = log n_j - log n_i,
    2 r_i r_j (sin(2T l) - sin(T l)) / l.  With v(t) = r e^(-i t log n)
    from ``phases.unit_phases`` (phases reduced at T and 2T for the bases
    of the table only, its primes when it is divisor-closed; the others
    are products), r_i r_j sin(t l) = Im v_i conj(v_j), so the pair sum is
    a bilinear form with Montgomery and Vaughan's Hilbert kernel
    W = 2/l.  Each longdouble log is split into float64 words hi + lo and
    l = (hi_j - hi_i) + (lo_j - lo_i) in float64; per row block of at
    most ``_PAIR_BLOCK`` elements of W (one row at least), one real
    product W @ [Re v(T), Re v(2T), Im v(T), Im v(2T)] and a row-wise
    dot product; ``comp_sum`` adds the blocks.  So each pair costs one
    float64 entry of W and the memory does not grow with the pairs.

    This l is within a few float64 ulps of the longdouble difference,
    which carries the error of the two longdouble logs (a few longdouble
    ulps of log n, so a relative error that grows as l shrinks).  Each
    pair term is off by a few ulps of 2|r_i r_j|/l, plus that log error
    relative to l times 2|r_i r_j|/l, plus its phase error: the pair sum
    is within
    ``phases.phase_roundoff(2T, max log n, sum 2|r_i r_j|/l)`` plus
    ``phases.PRODUCT_ROUNDOFF`` * sum 2|r_i r_j|/l * (P_i + P_j), P_i the
    products behind the phase of n_i (``phases.factor_plan``).

    Adjacent entries whose longdouble logs coincide (above about 1e17,
    where log(n + 1) - log n is under a longdouble ulp of log n) have no
    l to divide by, and their pair term would be lost: such a table
    raises TableTooLarge.
    """
    T = float(T)
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be positive and finite")
    ns, rs = _table_arrays(table)
    n = ns.size
    lnn = np.log(ns.astype(np.longdouble))
    tied = np.flatnonzero(lnn[1:] == lnn[:-1])
    if tied.size:
        raise errors.TableTooLarge(
            f"entries {ns[tied[0]]} and {ns[tied[0] + 1]} have the same "
            f"longdouble log; their pair term cannot be formed")
    hi = lnn.astype(float)
    lo = (lnn - hi).astype(float)
    v = rs * phases.unit_phases(np.array([T, 2.0 * T], np.longdouble), ns)
    X = np.concatenate([v.real, v.imag]).T
    Y = X[:, [2, 3, 0, 1]] * [-1.0, 1.0, 1.0, -1.0]  # Im(v_i conj v_j)
    # x_j - x_i as the product [1, -x_i] . [x_j, 1]: its terms are exact,
    # so BLAS rounds it once, bit for bit the subtraction, and it skips
    # numpy's slower broadcast loop
    one = np.ones(n)
    left = np.stack([one, -hi, one, -lo], axis=1)
    right = np.stack([hi, one, lo, one])
    buf = np.empty((2, max(_PAIR_BLOCK, n)))
    off = []
    i0 = 0
    while i0 < n:
        m = n - i0
        rows = min(m, max(1, _PAIR_BLOCK // m))
        ell, low = (b[:rows * m].reshape(rows, m) for b in buf)
        np.matmul(left[i0:i0 + rows, :2], right[:2, i0:], out=ell)
        ell += np.matmul(left[i0:i0 + rows, 2:], right[2:, i0:], out=low)
        with np.errstate(divide="ignore"):
            W = np.divide(2.0, ell, out=ell)
        W[:, :rows][np.tri(rows, dtype=bool)] = 0.0   # j <= i
        off.append(float(np.sum(Y[i0:i0 + rows] * (W @ X[i0:]))))
        i0 += rows
    return T * comp_sum(rs ** 2) + comp_sum(off)


# ----------------------------------------------------------------------
# Moment integral (numerical side)
# ----------------------------------------------------------------------

#: Above this height the zeta evaluations inside the moment integral
#: switch from Euler-Maclaurin to the symmetric truncated functional
#: equation (accuracy ~ t^(-alpha/2 - 1/4), O(sqrt t) terms instead of
#: O(t)).  Euler-Maclaurin sums the uniform moment grid as one blocked
#: matrix product (``phases.phase_sum``): O(sqrt(K) * pi(M)) phase
#: reductions and O(sqrt(K) * M) complex products for K points and M
#: terms.  The functional equation sums it in one cluster pass
#: (``phases.truncated_sums``): one phase reduction per term and cluster
#: of nearby heights, and a Horner sum per height.  The cut-over is not
#: re-tuned to these costs.
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
        def batch(u):
            return zeta.zeta_afe_batch(alpha, u)
    else:
        def batch(u):
            return zeta._em_batch(alpha, u, cfg)

    def eval_one(t: float) -> complex:
        return complex(batch(np.array([t]))[0][0])

    vals, bnds = batch(ts)
    point_err = float(np.max(bnds))
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


#: The numerical moment needs alpha >= 1/2 + _EPS_MARGIN, which keeps
#: its path off the critical line and the log singularities of its zeros.
_EPS_MARGIN = 0.05


def lemma3_lhs(req: Lemma3Request,
               cfg: PrecisionConfig = DEFAULT) -> complex:
    """Integral of log zeta(alpha + i(t+h)) |R(t)|^2 over [T, 2T].

    Composite-Simpson on a uniform grid (halved once for an error
    check); the vertical branch of log zeta is unwrapped along the grid
    and anchored to the horizontal-tracking branch at both ends.  The
    grid spacing starts at 0.05 and is quartered while the check fails,
    three times at most; then ToleranceNotMet is raised.
    """
    alpha, h, T = req.alpha, req.h, req.T
    if alpha < 0.5 + _EPS_MARGIN:
        raise ValueError(
            f"numerical moment requires alpha >= 1/2 + {_EPS_MARGIN}")

    def simpson(y, dx):
        w = np.ones(y.size)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return (dx / 3.0) * complex(comp_sum(w * y.real),
                                    comp_sum(w * y.imag))

    for spacing in (0.05, 0.0125, 0.003125, 0.00078125):
        n_half = 2 * max(8, int(math.ceil(T / spacing / 2)))  # fine steps
        ts = T + (T / n_half) * np.arange(n_half + 1)
        lz, point_err = _log_zeta_vertical(alpha, ts + h, cfg)
        R = eval_R_batch(req.table, ts)
        f = lz * np.abs(R) ** 2
        dx = T / n_half
        fine = simpson(f, dx)
        coarse = simpson(f[::2], 2.0 * dx)
        # only the discretization part responds to refinement; the pointwise
        # evaluation-error term is a property of the zeta engine, not the grid
        est_quad = abs(fine - coarse) / 15.0
        tol = max(cfg.quad_tol * T, 1e-6 * abs(fine) + 1e-12)
        if est_quad <= tol:
            return fine
    raise errors.ToleranceNotMet(
        f"lemma3_lhs: estimate {est_quad:.3e} exceeds the tolerance {tol:.3e}")


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


def lemma3_normalization(req: Lemma3Request) -> float:
    """N (log TN)^(3/2) sum r^2, the scale of the moment gap; N is a
    ResonatorTable's own, else the largest entry."""
    ns, rs = _table_arrays(req.table)
    N = req.table.params.N if isinstance(req.table, ResonatorTable) \
        else int(ns[-1])
    return N * math.log(req.T * N) ** 1.5 * comp_sum(rs ** 2)


def lemma3_compare(req: Lemma3Request,
                   cfg: PrecisionConfig = DEFAULT) -> float:
    """|LHS - RHS| / ``lemma3_normalization``; the RHS comes first, so a
    table it refuses never reaches the costly LHS integral."""
    rhs = lemma3_rhs(req)
    gap = abs(lemma3_lhs(req, cfg) - rhs)
    return gap / lemma3_normalization(req)


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
