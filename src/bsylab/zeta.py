"""Zeta-function engines on the critical strip.

Two independent evaluation routes are provided and cross-checked by the
test suite:

* Euler-Maclaurin summation (``zeta_em``), valid on sigma >= -1 with a
  computable remainder bound; the accuracy workhorse.  No setting
  fixes its truncation M or correction order K: each call takes the
  pair of least M + K, its work per height, whose remainder bound
  meets the call's target (``_em_truncation``).
* The Riemann-Siegel main sum with up to four correction terms (all
  four by default), O(sqrt(t)) per point and vectorized;
  ``hardy_z_batch`` keeps it wherever the bound it returns meets the
  requested tolerance.  theta is reduced mod 2 pi in longdouble once per
  anchor (the heights rounded to a multiple of 1/8) and each height adds
  its offset in float64.  The correction functions C0..C3 are their
  closed forms in Psi's derivatives (Edwards, ch. 7), frozen as
  economized polynomials of one parity in 2p - 1 and evaluated by Horner
  in (2p - 1)^2; what that drops and rounds is in the bound.

Dirichlet-polynomial sums go through one kernel, ``_phase_sum``: the
Euler-Maclaurin main sum and R(t) in :mod:`bsylab.dirichlet` (batched
and at one height).  It takes one of two paths, each with its remainder
in the returned bound:

* a uniform grid of heights is one blocked matrix product;
* any other input is cut into clusters of nearby heights (quadrature
  nodes, Newton triplets, derivative stencils), and each cluster is a
  Taylor expansion in the height offset about its midpoint, after
  Odlyzko and Schoenhage: one phase reduction per term and cluster, the
  moments of all clusters as one real matrix product, and an expansion
  order set by the truncation tail.  A lone height is a cluster of one.
  Its three steps, the greedy cut (``_clusters``), the moments
  (``_cluster_moments``) and Horner in the offset (``_cluster_horner``,
  on contiguous columns of the moments), also serve ``hardy_z_near``: Z
  by Euler-Maclaurin about fixed centres, the moments built once, so
  that each further height within a centre's disk costs the Horner sum,
  the Euler-Maclaurin tail and theta (the Newton rounds of the zero
  solve).

The Riemann-Siegel main sum and the two sums of the approximate
functional equation run to N = floor(sqrt(t/2pi)), which varies with t.
``_truncated_sums`` makes them one cluster pass per batch, over every
truncation and exponent: clusters never cross a change of N, the phases
of 1..max N are reduced once per cluster, each cluster's moments drop
the terms past its own N, and each height gets the bound of its own N.
The Euler-Maclaurin sum over a sigma grid at one height takes its unit
phases from the same ``_unit_phases`` and shares the correction tail
``_em_tail`` with the height batch.  The exact mean square of
:mod:`bsylab.dirichlet` takes its phases from ``_unit_phases`` too: its
pair sum is a bilinear form in the phases at T and 2T.

The kernel takes the integers n, not their logs.  n^(-it) is completely
multiplicative, so ``_unit_phases`` reduces t*log(b) mod 2*pi in
longdouble only for the bases b of the set (its primes, and any large
cofactor left unfactored; ``_factor_plan``) and builds every other
phase as the product E[n] = E[p] E[n/p], p the least prime factor of n.
Each product adds ``_PRODUCT_ROUNDOFF`` to the bound.  Everything else
is compensated float64.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import errors, sieve
from .config import DEFAULT, POLE_THRESHOLD, PrecisionConfig

TWO_PI = 2.0 * math.pi

#: 2*pi to longdouble precision.
_TWO_PI_LD = 2 * np.arccos(np.longdouble(-1.0))

#: Validity threshold of the theta asymptotic expansion.
THETA_T_MIN = 10.0

#: Below this height the Riemann-Siegel path is not used.
RS_T_MIN = 30.0

#: Empirical absolute-error coefficients for the RS path with k
#: correction terms: |error| <= RS_BOUND_COEF[k] * t**(-(2k+1)/4)
#: plus a small floating-point floor.  Calibrated on 460 points in
#: t in [30, 2e5] against a 25-digit reference with a ~3x margin
#: (see tests/test_zeta.py::test_rs_error_bound_conservative).
RS_BOUND_COEF = (4.5, 0.4, 0.16, 0.03, 0.6)


@dataclass(frozen=True)
class ZetaValue:
    """An evaluation together with a conservative absolute error bound."""

    value: complex
    abs_error: float

    def __complex__(self) -> complex:
        return complex(self.value)

    def __float__(self) -> float:
        return float(self.value.real)


# ----------------------------------------------------------------------
# Bernoulli-derived constants
# ----------------------------------------------------------------------

def _b2k_over_fact(kmax: int) -> list[Fraction]:
    """B_{2k}/(2k)! for k = 0..kmax as exact rationals.  a_k =
    B_{2k}/(2k)! are the coefficients of (x/2) coth(x/2); equating
    powers of x in (x/2) cosh(x/2) = sinh(x/2) sum_k a_k x^(2k) gives,
    for b_k = 4^k a_k, b_n = 1/(2n)! - sum over k < n of
    b_k/(2n - 2k + 1)!.
    """
    b: list[Fraction] = []
    for n in range(kmax + 1):
        b.append(Fraction(1, math.factorial(2 * n))
                 - sum((bk / math.factorial(2 * (n - k) + 1)
                        for k, bk in enumerate(b)), Fraction(0)))
    return [bk / 4 ** k for k, bk in enumerate(b)]


_B2K_EXACT = _b2k_over_fact(32)

#: B_{2k}/(2k)!, k = 0..32, each the correctly rounded float.
_B2K_OVER_FACT = np.array([float(a) for a in _B2K_EXACT])

#: theta series coefficients c_n = (1 - 2^(1-2n)) |B_2n| / (4n (2n-1)),
#: n = 1.._THETA_N + 1 (the last one only enters the bound), each the
#: correctly rounded float of the exact rational.
_THETA_N = 8
_THETA_C = np.array([
    float((1 - Fraction(1, 2 ** (2 * n - 1))) * abs(_B2K_EXACT[n])
          * math.factorial(2 * n) / (4 * n * (2 * n - 1)))
    for n in range(1, _THETA_N + 2)])


# ----------------------------------------------------------------------
# log Gamma
# ----------------------------------------------------------------------

#: ``_loggamma`` shifts z until |z| >= _LG_R, then sums _LG_K terms of
#: Stirling's series.
_LG_R = 10.0
_LG_K = 10

#: Stirling's coefficients B_2k/(2k (2k - 1)) = B_2k (2k - 2)!/(2k)!,
#: k = 1.._LG_K + 1 (the last one only enters the bound).
_LG_C = _B2K_OVER_FACT[1:_LG_K + 2] * np.array(
    [math.factorial(2 * k - 2) for k in range(1, _LG_K + 2)], dtype=float)

#: Truncation bound of ``_loggamma``: |c_(K+1)| |z|^(-2K-1)
#: sec^(2K+2)(arg(z)/2) at |z| >= _LG_R, Re z >= 0, where sec^2 <= 2.
_LOGGAMMA_BOUND = abs(_LG_C[_LG_K]) * 2.0 ** (_LG_K + 1) \
    / _LG_R ** (2 * _LG_K + 1)


def _loggamma(z: np.ndarray) -> np.ndarray:
    """Principal log Gamma(z) for complex z off the poles.

    Every point is shifted by the same m >= 0, the least that takes each
    z + m to |z + m| >= _LG_R with Re(z + m) >= 0, and
    log Gamma(z) = log Gamma(z + m) - sum over j < m of log(z + j).
    Each log(z + j) is principal, so the imaginary part of the shift is
    a sum of per-factor args: the branch of the principal log Gamma.
    log Gamma(z + m) is Stirling's series
    (z - 1/2) log z - z + log(2 pi)/2 + sum over k <= _LG_K of
    B_2k/(2k (2k - 1) z^(2k - 1)), whose remainder is at most the first
    omitted term times sec^(2K+2)(arg(z)/2) (DLMF 5.11(ii)): below
    ``_LOGGAMMA_BOUND`` = 2.7e-17 in absolute value.
    """
    x, y = z.real, z.imag
    reach = np.sqrt(np.maximum(_LG_R * _LG_R - y * y, 0.0))
    m = int(np.ceil(np.max(np.maximum(reach - x, -x), initial=0.0)))
    shift = 0.0
    if m > 0:
        shift = np.log(z[..., None] + np.arange(m)).sum(axis=-1)
        z = z + m
    w = 1.0 / (z * z)
    series = np.full(z.shape, _LG_C[_LG_K - 1], dtype=z.dtype)
    for c in _LG_C[_LG_K - 2::-1]:
        series = series * w + c
    return ((z - 0.5) * np.log(z) - z + 0.5 * math.log(TWO_PI)
            + series / z - shift)


# ----------------------------------------------------------------------
# Riemann-Siegel theta
# ----------------------------------------------------------------------

def _theta_lead(a: np.ndarray) -> np.ndarray:
    """(a/2) log(a/2pi) - a/2 - pi/8, the leading terms of theta at
    a > 0, in a's dtype (float64 or longdouble)."""
    two_pi = a.dtype.type(_TWO_PI_LD)
    return 0.5 * a * np.log(a / two_pi) - 0.5 * a - two_pi / 16


def _theta_series(a: np.ndarray) -> np.ndarray:
    """sum_n c_n a^(1-2n), n = 1.._THETA_N, the series part of theta at
    a > 0: (1/a) times a polynomial in 1/a^2 by Horner, in a's dtype."""
    u = 1 / (a * a)
    series = np.full(a.shape, a.dtype.type(_THETA_C[_THETA_N - 1]))
    for c in _THETA_C[_THETA_N - 2::-1]:
        series *= u
        series += a.dtype.type(c)
    return series / a


def _rs_theta_ld(ts: np.ndarray) -> np.ndarray:
    """theta(t) in 80-bit floats for |t| >= THETA_T_MIN (phase use)."""
    a = np.abs(ts).astype(np.longdouble)
    return np.sign(ts).astype(np.longdouble) \
        * (_theta_lead(a) + _theta_series(a))


def rs_theta_error_bound(t):
    """Bound on the truncation of the theta expansion, vectorized in t:
    its first omitted term plus e^(-pi |t|), twice the exponentially
    small part the power series misses (e^(-pi |t|)/2, about 25 ulps of
    theta at t = 10)."""
    a = np.abs(t)
    return _THETA_C[_THETA_N] * a ** (-1.0 - 2 * _THETA_N) \
        + np.exp(-math.pi * a)


def _theta_smallt(ts: np.ndarray) -> np.ndarray:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi for any t, odd
    in t.  Below t = 10 the shift and Stirling's sum cancel down to
    |theta| < 3.6, which costs up to ~5 ulps of theta on top of
    ``_LOGGAMMA_BOUND``."""
    ts = np.asarray(ts, dtype=float)
    y = np.abs(ts) / 2
    lg = _loggamma(0.25 + 1j * y)
    return np.sign(ts) * (lg.imag - y * math.log(math.pi))


def _theta_any(ts: np.ndarray) -> np.ndarray:
    """theta(t) in float64 for any real t (0-d or any shape), odd in t:
    the asymptotic expansion at |t| >= THETA_T_MIN (its truncation is
    ``rs_theta_error_bound``), ``_theta_smallt`` below."""
    ts = np.asarray(ts, dtype=float)
    flat = ts.ravel()
    a = np.abs(flat)
    small = a < THETA_T_MIN
    a = np.maximum(a, THETA_T_MIN)
    out = np.sign(flat) * (_theta_lead(a) + _theta_series(a))
    if np.any(small):
        out[small] = _theta_smallt(flat[small])
    return out.reshape(ts.shape)


def rs_theta(t: float) -> float:
    """Riemann-Siegel theta(t) in float64 at any real t."""
    return float(_theta_any(t))


#: Theta(10), the integral of theta over [0, 10] (mpmath.quad of
#: siegeltheta at 40 digits, rounded to 20).
_THETA_INT_MIN = np.longdouble("-29.567797210636095484")


def _theta_antiderivative(a: np.longdouble) -> np.longdouble:
    """F(a) = (a^2/4) log(a/2pi) - 3a^2/8 - pi a/8 + c_1 log a
    + sum over 2 <= n <= _THETA_N of c_n a^(2-2n)/(2-2n), the termwise
    antiderivative of theta's expansion, in longdouble."""
    tail = np.longdouble(0.0)
    for n in range(_THETA_N, 1, -1):
        tail = (tail + _THETA_C[n - 1] / (2 - 2 * n)) / (a * a)
    return a * a * (np.log(a / _TWO_PI_LD) / 4 - 0.375) \
        - _TWO_PI_LD / 16 * a + _THETA_C[0] * np.log(a) + tail


def _theta_integral(t: float) -> np.longdouble:
    """Theta(t), the integral of theta over [0, t], in longdouble for
    t >= THETA_T_MIN: ``_THETA_INT_MIN`` + F(t) - F(10), F the
    ``_theta_antiderivative``.  The truncation of the expansion costs at
    most the integral of ``rs_theta_error_bound`` over [10, t], below
    e^(-10 pi)/pi < 1e-14."""
    if not t >= THETA_T_MIN:
        raise ValueError(f"_theta_integral requires t >= {THETA_T_MIN}")
    return _THETA_INT_MIN + _theta_antiderivative(np.longdouble(t)) \
        - _theta_antiderivative(np.longdouble(THETA_T_MIN))


def _lambert_w(x: np.ndarray) -> np.ndarray:
    """Principal W(x), w e^w = x, for x > -1/e: four Halley steps from
    log1p(x) below e and from log x - log log x above.  Serves
    ``gram_points`` and ``resonator.solve_L``; both pass x > 0."""
    big = x >= math.e
    lx = np.log(np.where(big, x, math.e))
    w = np.where(big, lx - np.log(lx), np.log1p(np.where(big, 0.0, x)))
    for _ in range(4):
        ew = np.exp(w)
        f = w * ew - x
        w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def gram_points(ns: np.ndarray) -> np.ndarray:
    """Gram points g_n, theta(g_n) = n pi (n >= -1): Newton steps on
    ``_theta_any`` from the root 2 pi exp(1 + W((8n + 1)/(8e))) of
    theta's leading terms (t/2) log(t/(2 pi e)) - pi/8."""
    ns = np.asarray(ns, dtype=float)
    g = TWO_PI * np.exp(1.0 + _lambert_w((8.0 * ns + 1.0) / (8.0 * math.e)))
    for _ in range(6):
        g -= (_theta_any(g) - math.pi * ns) / (0.5 * np.log(g / TWO_PI))
    return g


# ----------------------------------------------------------------------
# Dirichlet-polynomial phase sums
# ----------------------------------------------------------------------

_EM_CHUNK = 4_000_000  # max elements of any (points x terms) intermediate

#: A height may sit this many float64 ulps of max|t| off the arithmetic
#: progression and still count as on it (linspace and T + dx*arange
#: round each point by one or two).
_GRID_ULPS = 8.0

#: Off a grid, heights within 2*rho of each other, rho = _CLUSTER_R /
#: max log n, share one phase reduction.  A larger value means fewer
#: clusters but a longer expansion (about 27 terms at 3 for a 1e-15
#: floor) and a rounding bound that grows like e^_CLUSTER_R.  On the
#: 10*2^k integral ladder to 5120, 2, 3 and 4 took about 1.5, 1.2 and
#: 1.0 s (2-vCPU x86), and raised the error estimate of I(5120) by
#: 0.1%, 0.3% and 0.6%.
_CLUSTER_R = 3.0


def _phase_roundoff(tmax: float, lmax: float, amp_sum: float) -> float:
    """Floating-point floor of a phase sum with |t| <= tmax, log n <= lmax.

    t*log(b) is reduced mod 2*pi in 80-bit floats (unit roundoff
    ~1.1e-19) for each base b of ``_factor_plan``.  The log b of the
    bases of n add up to log n, so each term carries an absolute phase
    error of order t*log(n)*1e-19, as if reduced directly; the
    amplitude-weighted total plus double-precision rounding of one unit
    phase and the accumulation gives the floor.  Each product that
    builds a phase from two adds ``_PRODUCT_ROUNDOFF`` on top.
    ``_phase_sum`` adds the eps remainder to the floor on the grid path,
    and the truncation tail and the rounding of the expansion (this
    floor at tmax = 0, times e^r - 1) on the cluster path; a lone height
    gets the floor alone.
    """
    return (1.5e-18 * (1.0 + tmax) * lmax + 1.5e-15) * amp_sum


#: Bound on the extra rounding of one phase built as a product, per unit
#: amplitude: the product itself, sqrt(5) u with u = 2^-53 (Brent,
#: Percival and Zimmermann, Math. Comp. 76 (2007) 1469-1481), and the
#: rounding of the one more base phase it brings in: 2u for the reduced
#: phase in [-pi, pi] rounded to float64, sqrt(2) u for its cosine and
#: sine.
_PRODUCT_ROUNDOFF = (math.sqrt(5.0) + 2.0 + math.sqrt(2.0)) * 2.0 ** -53

#: Integers up to this bound take their least prime factor from the
#: sieve table (int32, so at most 8 MiB as it grows by doubling); larger
#: ones are tried against the primes up to _TRIAL_MAX, and one with no
#: factor there is a base, prime or not.  Neither bound moves with the
#: largest n.
_SPF_MAX = 1 << 20
_TRIAL_MAX = 1 << 10


@dataclass(frozen=True)
class _FactorPlan:
    """How ``_unit_phases`` builds exp(-i t log n) for a set of integers.

    ``closure`` is the ascending set of the input, 1, and each element's
    least prime factor p and cofactor n/p.  The phases of ``bases``
    (indices into it: the primes, and any cofactor left unfactored) are
    reduced directly from ``base_logs``; ``levels`` lists, level by
    level, the (elements, least-factor, cofactor) indices of the rest,
    each the product of two phases of lower levels.  ``take`` maps the
    input to the closure (None when they coincide) and ``products``
    counts, per input integer, the complex products behind its phase.
    """

    closure: np.ndarray
    bases: np.ndarray
    base_logs: np.ndarray
    levels: tuple
    take: np.ndarray | None
    products: np.ndarray


def _least_factors(u: np.ndarray) -> np.ndarray:
    """The least prime factor of each element of the ascending u >= 1 (1 for
    1), or the element itself when it exceeds _SPF_MAX and has no prime
    factor up to _TRIAL_MAX."""
    p = u.copy()
    k = int(np.searchsorted(u, _SPF_MAX, side="right"))
    if k:
        p[:k] = sieve.smallest_prime_factors(int(u[k - 1]))[u[:k]]
    if k < u.size:
        big = u[k:]
        top = min(math.isqrt(int(big[-1])), _TRIAL_MAX)
        for q in sieve.primes_up_to(top)[::-1].tolist():
            p[k:][big % q == 0] = q
    return p


def _build_plan(ns: np.ndarray) -> _FactorPlan:
    """The ``_FactorPlan`` of the integers ns, in vectorized passes over
    the closure: one per round of new factors, one per level."""
    u = np.sort(np.append(ns, 1))
    u = u[np.append(True, u[1:] != u[:-1])]
    if u[0] < 1:
        raise ValueError("the phase kernel takes integers n >= 1")
    while True:
        p = _least_factors(u)
        if u[-1] == u.size:                     # 1..M: closed already
            break
        new = np.setdiff1d(np.concatenate([p, u // p]), u)
        if new.size == 0:
            break
        u = np.union1d(u, new)
    bases = np.flatnonzero((p == u) & (u > 1))
    comp = np.flatnonzero(p < u)                # built from two factors
    pf = np.searchsorted(u, p[comp])
    cf = np.searchsorted(u, u[comp] // p[comp])
    level = (p == u).astype(np.int64)           # bases 1, and 1 itself 0
    level[0] = 0
    while True:
        up = level[cf] + 1
        if np.array_equal(up, level[comp]):
            break
        level[comp] = up
    by_level = np.argsort(level[comp], kind="stable")
    cuts = np.searchsorted(level[comp][by_level],
                           np.arange(3, int(level.max(initial=1)) + 1))
    levels = tuple((comp[i], pf[i], cf[i])
                   for i in np.split(by_level, cuts) if i.size)
    same = u.size == ns.size and bool(np.all(u == ns))
    take = None if same else np.searchsorted(u, ns)
    products = np.maximum(level - 1, 0)
    return _FactorPlan(u, bases, np.log(u[bases].astype(np.longdouble)),
                       levels, take, products if same else products[take])


@functools.lru_cache(maxsize=16)
def _plan_of(key: bytes) -> _FactorPlan:
    """``_build_plan`` memoized on the int64 bytes of ns."""
    return _build_plan(np.frombuffer(key, dtype=np.int64))


#: The plan of 1..L for the largest L asked for so far (None before the
#: first), from which every prefix plan is sliced.
_PREFIX_PLAN = None


@functools.lru_cache(maxsize=16)
def _prefix_plan(M: int) -> _FactorPlan:
    """The plan of 1..M, cut from ``_PREFIX_PLAN`` (grown to at least
    twice its size when too short): the same plan as built for 1..M."""
    global _PREFIX_PLAN
    if _PREFIX_PLAN is None or _PREFIX_PLAN.closure.size < M:
        size = 0 if _PREFIX_PLAN is None else _PREFIX_PLAN.closure.size
        _PREFIX_PLAN = _build_plan(np.arange(1, max(M, 2 * size) + 1))
    G = _PREFIX_PLAN
    levels = []
    for idx, pf, cf in G.levels:
        k = int(np.searchsorted(idx, M))
        if k:
            levels.append((idx[:k], pf[:k], cf[:k]))
    k = int(np.searchsorted(G.bases, M))
    return _FactorPlan(G.closure[:M], G.bases[:k], G.base_logs[:k],
                       tuple(levels), None, G.products[:M])


def _factor_plan(ns: np.ndarray) -> _FactorPlan:
    """The ``_FactorPlan`` of the integers ns (any order), memoized on their
    values; the plan of 1..M depends only on M."""
    ns = np.ascontiguousarray(ns, dtype=np.int64)
    M = ns.size
    if M and ns[0] == 1 and ns[-1] == M and np.all(np.diff(ns) == 1):
        return _prefix_plan(M)
    return _plan_of(ns.tobytes())


def _base_phases(ts_ld: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """exp(-i t log b) as a (len(logs) x len(ts)) complex matrix: the one
    place where t*log(b) is reduced mod 2*pi.

    x = t*log(b) is reduced in longdouble to x - 2*pi*rint(x/(2*pi)) in
    [-pi, pi], off by a few longdouble ulps of x (the phase part of
    ``_phase_roundoff``), so that its float64 rounding is at most 2u.
    """
    x = logs[:, None] * ts_ld[None, :]
    ph = x - _TWO_PI_LD * np.rint(x / _TWO_PI_LD)
    return np.exp(-1j * ph.astype(float))


def _unit_phases(ts_ld: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """exp(-i t log n) as a (len(ts) x len(ns)) complex matrix.

    Only the bases of ``_factor_plan(ns)`` are reduced
    (``_base_phases``); every other phase is built level by level as
    E[n] = E[p] E[n/p], p the least prime factor of n, each product
    adding ``_PRODUCT_ROUNDOFF`` to its error.
    """
    plan = _factor_plan(ns)
    E = np.empty((plan.closure.size, ts_ld.size), dtype=complex)
    E[0] = 1.0
    E[plan.bases] = _base_phases(ts_ld, plan.base_logs)
    for idx, pf, cf in plan.levels:
        E[idx] = E[pf] * E[cf]
    return (E if plan.take is None else E[plan.take]).T


def _as_progression(ts: np.ndarray):
    """(t_0, dt, eps) with eps_k = t_k - (t_0 + k*dt) in float64, where
    dt = (t_last - t_0)/(K - 1) in longdouble, when every |eps_k| is
    within _GRID_ULPS ulps of max|t|; None otherwise."""
    K = ts.size
    t0 = np.longdouble(ts[0])
    dt = (np.longdouble(ts[-1]) - t0) / (K - 1)
    eps = (ts - (t0 + dt * np.arange(K, dtype=np.longdouble))).astype(float)
    tol = _GRID_ULPS * np.spacing(float(np.max(np.abs(ts))))
    return (t0, dt, eps) if float(np.max(np.abs(eps))) <= tol else None


def _taylor_order(r: float, amp_sum: float,
                  floor: float) -> tuple[int, float]:
    """The smallest J >= 1 whose truncation tail of sum_n A_n e^(-i y_n),
    |y_n| <= r < J + 1, is at most ``floor``, and that tail:
    sum|A_n| * sum_{j>=J} r^j/j! <= sum|A_n| * r^J/J! * (J+1)/(J+1-r)."""
    J, term = 1, amp_sum * r                    # term = sum|A_n| r^J / J!
    while term * (J + 1) > floor * (J + 1 - r):
        J += 1
        term *= r / J
    return J, term * (J + 1) / (J + 1 - r)


def _phase_sum(ns: np.ndarray, amps: np.ndarray,
               ts: np.ndarray) -> tuple[np.ndarray, float]:
    """S(t_k) = sum_n a_n exp(-i t_k l_n), l_n = log n, for every height,
    and a bound.

    ``ns`` are integers n >= 1 (int64, any order), ``amps`` the real a_n
    and ``ts`` a 1-d float array, in any order.  Every unit phase comes
    from ``_unit_phases``, which reduces only the bases of
    ``_factor_plan(ns)`` and builds the rest as products.  The bound is
    the floating-point floor of ``_phase_roundoff``, plus
    ``_PRODUCT_ROUNDOFF`` * sum |a_n| (products of n) for each built
    phase in a term, plus the remainder of whichever of two paths runs:

    * Uniform grid.  When ts is an arithmetic progression
      t_k = t_0 + k*dt (to within _GRID_ULPS ulps) and B + J < K, the sum
      is one blocked product: with k = b*J + j, J = ceil(sqrt(K)) (capped
      so P*J <= _EM_CHUNK, P the size of the plan) and B = ceil(K/J),

          S(t_k) = sum_n [a_n exp(-i (t_0 + b*J*dt) l_n)] [exp(-i j*dt l_n)],

      a (B x M) @ (M x J) complex matrix product, so the phase work is
      (B + J) * P instead of K * M.  Each term holds two built phases.
      The residual eps_k of each given t_k off the progression is taken
      to first order, with a second product over the amplitudes
      a_n l_n; the remainder max eps^2 * sum |a_n| l_n^2 / 2 is added to
      the bound.
    * Clusters, for any other input (Odlyzko and Schoenhage, Trans. AMS
      309 (1988) 797-809).  The sorted heights are cut greedily into
      clusters of span <= 2*rho, rho = _CLUSTER_R / max l_n.  With c the
      cluster midpoint (longdouble) and x = (t - c)/rho in [-1, 1],

          S(t) = sum_{j<J} m_j (-i x)^j,
          m_j = sum_n a_n exp(-i c l_n) (rho l_n)^j / j!,

      so the phases are built once per cluster, not once per height,
      and the moments of all clusters are one real product V^T @ A, A
      the (M x 2C) real view of the complex a_n exp(-i c l_n), in chunks
      of at most _EM_CHUNK phases.  With r = rho * max l_n * max|x| over
      the call, J is the smallest order whose tail
      sum|a_n| * r^J/J! * (J+1)/(J+1-r) is below the floor.  The tail
      is added to the bound, and so is the floor's arithmetic part
      (``_phase_roundoff`` at t = 0) times e^r - 1: the products and sums
      round relative to sum_j |m_j| |x|^j, which can reach e^r sum|a_n|.
      The floor's phase part and the product term are not scaled,
      because the expansion passes an error in a_n exp(-i c l_n) on
      unamplified.  A lone height is a cluster of one: x = 0, r = 0,
      J = 1, no tail, so its bound is the floor and the product term.
    """
    K = ts.size
    plan = _factor_plan(ns)
    P = plan.closure.size
    logs = np.log(ns.astype(float))
    amps_abs = np.abs(amps)
    amp_sum = float(amps_abs.sum())
    lmax = float(np.max(logs, initial=0.0))
    tmax = float(np.max(np.abs(ts), initial=0.0))
    bound = _phase_roundoff(tmax, lmax, amp_sum)
    built = _PRODUCT_ROUNDOFF * float(amps_abs @ plan.products)
    vals = np.empty(K, dtype=complex)
    if K == 0:
        return vals, bound + built
    J = min(math.isqrt(K - 1) + 1, max(1, _EM_CHUNK // P))
    B = -(-K // J)
    grid = _as_progression(ts) if B + J < K else None
    if grid is not None:
        t0, dt, eps = grid
        inner = _unit_phases(dt * np.arange(J, dtype=np.longdouble), ns).T
        slope_amps = amps * logs
        slope = np.empty(K, dtype=complex)
        rows = max(1, _EM_CHUNK // (2 * max(P, J)))
        for b0 in range(0, B, rows):
            b1 = min(B, b0 + rows)
            outer = _unit_phases(
                t0 + (J * dt) * np.arange(b0, b1, dtype=np.longdouble), ns)
            prod = np.concatenate([outer * amps, outer * slope_amps]) @ inner
            k0, k1 = b0 * J, min(K, b1 * J)
            vals[k0:k1] = prod[:b1 - b0].ravel()[:k1 - k0]
            slope[k0:k1] = prod[b1 - b0:].ravel()[:k1 - k0]
        vals -= 1j * eps * slope
        bound += 2.0 * built + 0.5 * float(np.max(eps * eps)) \
            * float((amps_abs * logs ** 2).sum())
        return vals, bound

    order = np.argsort(ts, kind="stable")
    srt = ts[order]
    rho = _CLUSTER_R / lmax if lmax > 0.0 else math.inf
    _, _, cl, mid, x = _clusters(srt, rho)
    r = _CLUSTER_R * float(np.max(np.abs(x)))   # rho * max l_n * max|x|
    J, tail = _taylor_order(r, amp_sum, bound)
    mom = _cluster_moments(ns, amps, logs, mid, rho, J,
                           max(1, _EM_CHUNK // (2 * P)))
    vals[order] = _cluster_horner(mom, cl, x)
    arith = _phase_roundoff(0.0, 0.0, amp_sum)   # the part not from phases
    return vals, bound + built + arith * math.expm1(r) + tail


def _clusters(srt: np.ndarray, rho: float, stop: np.ndarray | None = None):
    """The greedy cut of the ascending heights srt (at least one) into
    clusters: each takes every height within 2*rho of its first, i, and,
    when ``stop`` is given, none from stop[i] on (the end of i's
    truncation group in ``_truncated_sums``).

    Returns (starts, ends, cl, mid, x): the index range of each cluster,
    the cluster of each height, the midpoints c (longdouble) and each
    height's offset x = (t - c)/rho, in [-1, 1].
    """
    K = srt.size
    nxt = np.searchsorted(srt, srt + 2.0 * rho, side="right")
    if stop is not None:
        nxt = np.minimum(nxt, stop)
    nxt = nxt.tolist()
    starts, i = [], 0
    while i < K:
        starts.append(i)
        i = nxt[i]
    del nxt                                     # K Python ints
    starts = np.array(starts)
    ends = np.append(starts[1:], K)
    srt_ld = srt.astype(np.longdouble)
    mid = 0.5 * (srt_ld[starts] + srt_ld[ends - 1])
    cl = np.repeat(np.arange(starts.size), ends - starts)
    srt_ld -= mid[cl]
    srt_ld /= rho
    return starts, ends, cl, mid, srt_ld.astype(float)


def _cluster_moments(ns: np.ndarray, amps: np.ndarray, logs: np.ndarray,
                     mid: np.ndarray, rho: float, J: int, rows: int,
                     terms: np.ndarray | None = None) -> np.ndarray:
    """The moments m_j = sum_n a_n exp(-i c l_n) (rho l_n)^j / j!,
    j < J, of each centre c of ``mid`` (longdouble), as a (len(mid) x J)
    complex array: the cluster path's phase step (``_phase_sum``).

    ``logs`` are the float64 l_n.  The phases are reduced once per centre
    by ``_unit_phases``, ``rows`` centres at a time, and the moments of
    each block are one real product V^T @ A, V the (M x J) powers
    (rho l_n)^j / j! and A the real view of a_n exp(-i c l_n), one column
    per centre.  ``amps`` may also be a stack of R rows of amplitudes on
    the same n: they share the phases, A holds R columns per centre, and
    the moments are (R x len(mid) x J).  ``terms``, when given, holds for
    each centre the count of leading entries of ns its sum takes; the
    amplitudes of the rest are 0 there.  The moments are stored order by
    order, so that ``mom.T`` is the contiguous columns ``_cluster_horner``
    reads.
    """
    V = np.ones((ns.size, J))                    # (rho l_n)^j / j!
    for j in range(1, J):
        V[:, j] = V[:, j - 1] * (rho / j) * logs
    stack = np.atleast_2d(amps)
    R = stack.shape[0]
    by_order = np.empty((R, J, mid.size), dtype=complex)
    for c0 in range(0, mid.size, rows):
        c1 = min(mid.size, c0 + rows)
        W = stack.T[:, :, None]                  # (M x R x 1) or (M x R x b)
        if terms is not None:
            W = W * (np.arange(ns.size)[:, None] < terms[c0:c1])[:, None, :]
        A = np.multiply(_unit_phases(mid[c0:c1], ns).T[:, None, :], W,
                        order="C")
        by_order[:, :, c0:c1] = (V.T @ A.reshape(ns.size, -1).view(float)) \
            .view(complex).reshape(J, R, c1 - c0).transpose(1, 0, 2)
    mom = by_order.transpose(0, 2, 1)
    return mom if amps.ndim > 1 else mom[0]


def _cluster_horner(mom: np.ndarray, cl: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """sum_{j<J} m_j (-i x)^j by Horner in z = -i x, each height x on the
    moments ``mom[cl]`` of its centre: the cluster path's evaluation step.
    The moments are read as contiguous columns, one per order j gathered
    at cl (``mom.T``, copied only when not contiguous), and z is formed
    once; the steps acc * z + m_j are those of forming -i x afresh at each
    order, so the sum is the same to the bit."""
    cols = np.ascontiguousarray(mom.T)
    z = -1j * x
    acc = cols[-1][cl]
    for col in cols[-2::-1]:
        acc *= z
        acc += col[cl]
    return acc


# ----------------------------------------------------------------------
# Euler-Maclaurin
# ----------------------------------------------------------------------

#: Highest correction order K; from t ~ 1e3 the least M + K pair takes
#: it at any target <= 1e-6.
_EM_K_MAX = 30

#: Least truncation M.
_EM_M_MIN = 24

_EM_KS = np.arange(1, _EM_K_MAX + 1)
_EM_2K1 = 2.0 * _EM_KS + 1.0
_EM_JS = np.arange(2.0 * _EM_K_MAX + 1.0)
_EM_LOG_B = np.log(np.abs(_B2K_OVER_FACT[2:_EM_K_MAX + 2]))


def _em_log_remainder(sigma: float, tmax: float) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """(log A_K, a_K) for K = 1.._EM_K_MAX, the remainder after the order-K
    tail at truncation M being at most A_K M^(-a_K): a_K = sigma + 2K + 1,
    A_K = |B_2K+2/(2K+2)!| |s (s+1) ... (s+2K)| (|s| + 2K + 1) / a_K
    with s = sigma + i tmax.  Kept in logs because the product alone
    reaches 1e312 at K = 30, tmax = 2e5.  A vanishing factor (s = 0, -1)
    gives log A_K = -inf: the remainder is then exactly zero.
    """
    with np.errstate(divide="ignore"):
        logpoch = np.cumsum(np.log(np.hypot(sigma + _EM_JS, tmax)))[2::2]
    a = sigma + _EM_2K1
    return (_EM_LOG_B + logpoch
            + np.log((math.hypot(sigma, tmax) + _EM_2K1) / a)), a


def _em_remainder_bound(sigma: float, tmax: float, M: int, K: int) -> float:
    """Standard remainder bound: |(s+2K+1)/(sigma+2K+1)| * |next term|."""
    log_a, a = _em_log_remainder(sigma, tmax)
    return float(np.exp(log_a[K - 1] - a[K - 1] * math.log(M)))


def _em_truncation(sigma: float, tmax: float,
                   target: float) -> tuple[int, int]:
    """The truncation M >= _EM_M_MIN and correction order K <= _EM_K_MAX
    of least M + K, the work per height (M - 1 phase terms and K tail
    terms), whose remainder bound at sigma + i tmax meets ``target``.

    Each K gives its least M directly from A_K M^(-a_K) <= target, aimed
    1e-9 (relative) under the target so that rounding in the logs cannot
    put the bound above it.  Raises PrecisionUnreachable when every K
    needs M past 16 (tmax + 256), over 40 times the M a 1e-14 target
    takes at any tmax up to 1e6.
    """
    log_a, a = _em_log_remainder(sigma, tmax)
    log_m = (log_a - (math.log(target) - 1e-9)) / a
    m_max = 16.0 * (tmax + 256.0)
    ok = log_m <= math.log(m_max)
    if not ok.any():
        raise errors.PrecisionUnreachable(
            f"Euler-Maclaurin cannot reach {target} at sigma={sigma}, "
            f"t={tmax} with M <= {m_max:.0f} and K <= {_EM_K_MAX}")
    M = np.maximum(_EM_M_MIN, np.ceil(np.exp(np.where(ok, log_m, 0.0))))
    k = int(np.argmin(np.where(ok, M + _EM_KS, np.inf)))
    return int(M[k]), k + 1


def _em_choose_M(sigma: float, tmax: float, cfg: PrecisionConfig,
                 target: float) -> int:
    """The truncation M of ``_em_truncation`` (``cfg`` is not read)."""
    return _em_truncation(sigma, tmax, target)[0]


def _em_tail(s: np.ndarray, M: int, K: int) -> np.ndarray:
    """The Euler-Maclaurin terms added to the sum over n < M:
    M^(-s) (M/(s-1) + 1/2 + sum over k <= K of B_2k/(2k)! c_k), where
    c_k = s(s+1)...(s+2k-2) M^(1-2k) is one running product, each
    Pochhammer factor taken with its power of M so that none overflows.
    """
    Mf = float(M)
    c = s / Mf
    acc = _B2K_OVER_FACT[1] * c
    for k in range(2, K + 1):
        c = c * ((s + (2 * k - 3)) * (s + (2 * k - 2)) / (Mf * Mf))
        acc += _B2K_OVER_FACT[k] * c
    return Mf ** (-s) * (Mf / (s - 1.0) + 0.5 + acc)


def _em_batch(sigma: float, ts: np.ndarray, cfg: PrecisionConfig = DEFAULT,
              target: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma + i t) for an array of t, with error bounds.

    All points share one truncation M chosen from max|t|; callers should
    chunk wildly different heights separately.  The main sum over n < M
    is one ``_phase_sum``: a blocked matrix product when ts is a uniform
    grid, a Taylor expansion about each cluster of nearby heights
    otherwise (a single point is a cluster of one).  The bound is the
    remainder bound plus that sum's bound.
    """
    ts = np.asarray(ts, dtype=float)
    if target is None:
        target = cfg.target_abs_error
    tmax = float(np.max(np.abs(ts))) if ts.size else 0.0
    M, K = _em_truncation(sigma, tmax, target)

    n = np.arange(1, M)
    vals, roundoff = _phase_sum(n, n ** -float(sigma), ts)
    vals += _em_tail(sigma + 1j * ts, M, K)
    bound = _em_remainder_bound(sigma, tmax, M, K) + roundoff
    return vals, np.full(ts.shape, bound)


def _em_sigma_grid(sigmas: np.ndarray, t: float,
                   cfg: PrecisionConfig = DEFAULT,
                   target: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma_j + i t) over a sigma grid at one height t."""
    sigmas = np.asarray(sigmas, dtype=float)
    if target is None:
        target = cfg.target_abs_error
    smin = float(np.min(sigmas))
    M, K = _em_truncation(smin, abs(t), target)
    n = np.arange(1, M)
    phase = _unit_phases(np.array([t], dtype=np.longdouble), n)[0]
    lnn = np.log(n.astype(float))
    ampm = np.exp(-np.outer(sigmas, lnn))
    vals = ampm @ phase + _em_tail(sigmas + 1j * t, M, K)
    bound = _em_remainder_bound(smin, abs(t), M, K)
    bound += _phase_roundoff(abs(t), float(lnn[-1]),
                             float(ampm.sum(axis=1).max()))
    bound += _PRODUCT_ROUNDOFF * float(
        (ampm @ _factor_plan(n).products).max())
    return vals, np.full(sigmas.shape, bound)


def zeta_em(s: complex, cfg: PrecisionConfig = DEFAULT) -> ZetaValue:
    """Euler-Maclaurin evaluation of zeta(s) with an attached error bound.

    Requires sigma >= -1 and |s - 1| >= the pole threshold.
    """
    s = complex(s)
    if s.real < -1.0:
        raise ValueError("zeta_em requires sigma >= -1")
    if abs(s - 1.0) < POLE_THRESHOLD:
        raise errors.PoleAt1(f"|s-1| = {abs(s - 1.0):.2e} below threshold")
    conj = s.imag < 0
    t = abs(s.imag)
    vals, bounds = _em_batch(s.real, np.array([t]), cfg)
    v = complex(vals[0])
    if conj:
        v = v.conjugate()
    return ZetaValue(v, float(bounds[0]))


# ----------------------------------------------------------------------
# Riemann-Siegel Z
# ----------------------------------------------------------------------

_U = 2.0 ** -53     # float64 unit roundoff

#: C0..C3 in powers of y = x^2, x = 2p - 1, lowest first; C1 and C3 are
#: odd in x and carry a factor x, C0 and C2 are even.  Each C_k is the
#: sum of Psi^(n)(p) / (d pi^e) of Edwards (Riemann's Zeta Function,
#: ch. 7), Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p, taken as a
#: Taylor series in x at 50 digits and economized: cast to Chebyshev form
#: on [-1, 1], cut past the least degree whose dropped |coefficients| sum
#: to at most u times all of them, and cast back.  The literals are
#: rebuilt from Psi by tests/test_zeta.py::
#: test_rs_coefficients_derive_from_psi.  (The name is the benchmark's:
#: perfbench/tracing.py reads the tuple's length.)
_RS_CHEBS = (
    np.array([0.3826834323650898, 0.4372404680775219, 0.1323765754802617,
              -0.013605026045884948, -0.013567621990400012,
              -0.0016237251863957904, 0.00029705294754484956,
              7.943470664840234e-05, 4.6223553723132004e-07,
              -1.428295572314764e-06, -1.0746301150783678e-07,
              1.4507673158935907e-08, 1.1722743145420238e-09]),
    np.array([-0.026825102628375393, 0.013784773426357495,
              0.03849125048203454, 0.009871066302372902,
              -0.0033107597915541503, -0.0014647806810898572,
              -1.3208609291695445e-05, 5.922920164141936e-05,
              5.977234038502043e-06, -9.605634757496952e-07,
              -1.8608090087963153e-07, 5.654967814771435e-09,
              2.5529813203617477e-09]),
    np.array([0.005188542830293168, 0.000309465838806352,
              -0.011335941078229914, 0.0022330457419793195,
              0.00519663740846433, 0.00034399144504604085,
              -0.0005910648718690847, -0.00010229959287246272,
              2.088797312054082e-05, 5.92860265555474e-06,
              -1.6572938536736193e-07, -1.4993886848812113e-07,
              -7.1959073592380695e-09, 2.7313564755082012e-09]),
    np.array([-0.0013397160907194575, 0.0037442151363794927,
              -0.001330317891936842, -0.002265466076442966,
              0.0009548499985369465, 0.0006010038563461892,
              -0.00010128863874555585, -6.865712556956197e-05,
              5.979775590858746e-07, 3.3327426239481577e-06,
              2.1767666943539472e-07, -7.739539427596092e-08,
              -1.0455142507480913e-08, 1.414839024976785e-09,
              8.040234636192913e-11]),
)

#: The sum of the |Chebyshev coefficients| each economization dropped,
#: rounded up.
_RS_TAILS = (4.7e-18, 2.0e-18, 1.2e-19, 2.1e-20)

#: C0..C3 as (coefficients in x^2, err, odd).  err bounds, over |x| <= 1,
#: how far the float64 evaluation by ``_rs_correction`` strays from C_k:
#: the dropped tail, plus the rounding of the literals and of the
#: evaluation.  Horner in y = x^2 with n coefficients is within
#: gamma_2n sum|a_i| (Higham, Accuracy and Stability of Numerical
#: Algorithms, 5.1), the rounding of y adds n u sum|a_i|, and the
#: literals, the factor x and the step of the sum over k in
#: ``_rs_corrections`` a few u more.
_RS_POLYS = tuple(
    (a, tail + (3 * a.size + 8) * _U * float(np.abs(a).sum()), k % 2 == 1)
    for k, (a, tail) in enumerate(zip(_RS_CHEBS, _RS_TAILS)))


def _rs_correction(k: int, x: np.ndarray) -> np.ndarray:
    """C_k at x = 2p - 1 in [-1, 1], by Horner in x^2 on ``_RS_POLYS``."""
    a, _, odd = _RS_POLYS[k]
    x = np.asarray(x, dtype=float)
    y = x * x
    c = np.full(x.shape, a[-1])
    for ai in a[-2::-1]:
        c *= y
        c += ai
    if odd:
        c *= x
    return c


def _rs_corrections(tau: np.ndarray, n_corr: int):
    """sum over k < n_corr of C_k(p) tau^(-k), p = tau - floor(tau), and
    its bound sum_k err_k tau^(-k) (``_RS_POLYS``), both by Horner in
    1/tau."""
    w = 1.0 / tau
    x = 2.0 * (tau - np.floor(tau)) - 1.0
    corr, err = np.zeros(tau.shape), np.zeros(tau.shape)
    for k in range(n_corr - 1, -1, -1):
        corr *= w
        corr += _rs_correction(k, x)
        err *= w
        err += _RS_POLYS[k][1]
    return corr, err


#: theta is reduced in longdouble only at anchors, the heights rounded
#: to a multiple of 1/_THETA_ANCHORS.
_THETA_ANCHORS = 8.0

#: Bound on the float64 rounding in the phase of ``_rs_rotation``: the
#: anchor's reduced theta rounded to [0, 2 pi], the offset (below 1 at
#: |d| <= 1/16 and t <= 1e12) and the two sums, each within u * 8, and
#: the rounding of cos and sin.
_THETA_ROUNDOFF = 40 * _U


def _rs_rotation(ts: np.ndarray):
    """(cos theta(t), sin theta(t), bound on the phase error) for
    t >= RS_T_MIN.

    theta is reduced mod 2 pi in longdouble (``_rs_theta_ld``) only at
    the anchors c, each height rounded to a multiple of 1/8, one
    reduction per distinct c.  Each height adds its offset d = t - c
    (exact, |d| <= 1/16) in float64:

        theta(t) - theta(c) = (d (log(c/2pi) - 1) + t log1p(d/c))/2
                              + s(t) - s(c),

    s the series part of theta (``_theta_series``).  The bound is
    ``rs_theta_error_bound`` at the anchor, plus 4 eps c log(c/2pi) for
    the longdouble rounding of theta(c) and of its reduction (eps of
    longdouble; the roundings of the steps sum to about half of it), plus
    ``_THETA_ROUNDOFF``.
    """
    c = np.rint(ts * _THETA_ANCHORS) / _THETA_ANCHORS
    anchors, at = np.unique(c, return_inverse=True)
    logc = np.log(anchors / TWO_PI)
    base = (_rs_theta_ld(anchors) % _TWO_PI_LD).astype(float) \
        - _theta_series(anchors)
    err = rs_theta_error_bound(anchors) + _THETA_ROUNDOFF \
        + 4.0 * float(np.finfo(np.longdouble).eps) * anchors * logc
    d = ts - c
    phase = base[at] + 0.5 * (d * (logc - 1.0)[at] + ts * np.log1p(d / c)) \
        + _theta_series(ts)
    return np.cos(phase), np.sin(phase), err[at]


def rs_error_bound(t, n_corr: int):
    """Empirical absolute error bound of the RS path, vectorized in t."""
    t = np.maximum(np.asarray(t, dtype=float), 1e-6)
    return RS_BOUND_COEF[n_corr] * t ** (-(2 * n_corr + 1) / 4.0) + 5e-18 * t


def _rs_tau(ts: np.ndarray) -> np.ndarray:
    """tau = sqrt(t/2pi): floor(tau) is the truncation N of the
    Riemann-Siegel sum (``_truncated_sums``) and tau - N the p of its
    corrections (``_rs_corrections``), one expression for both so that
    they cannot disagree at t = 2 pi N^2."""
    return np.sqrt(ts / TWO_PI)


def _truncation_bounds(srt, N, ends, cl, x, rho, amps, plan):
    """(J, bounds) of the cluster pass of ``_truncated_sums``: the Taylor
    order, and the bound of each height (ascending heights srt, their
    truncations N, their clusters cl and offsets x) per row of ``amps``.

    Each height gets the cluster path's bound at its own truncation N_k,
    with A_k = sum over n <= N_k of |a_n| and r_k = rho log(N_k) |x_k|:
    ``_phase_roundoff`` at the top of its cluster, the built phases
    (prefix sums of |a_n| times ``plan.products``), the arithmetic floor
    times e^(r_k) - 1, and the Taylor tail A_k r_k^J/J! (J+1)/(J+1-r_k),
    J sized at the largest r_k against the smallest floor per unit
    amplitude.
    """
    r = rho * np.log(N) * np.abs(x)
    unit = _phase_roundoff(srt[ends - 1][cl], np.log(N), 1.0)
    J, _ = _taylor_order(float(r.max()), 1.0, float(unit.min()))
    unit += _phase_roundoff(0.0, 0.0, 1.0) * np.expm1(r)
    unit += r ** J / float(math.factorial(J)) * (J + 1) / (J + 1 - r)
    amps_abs = np.abs(amps)
    return J, np.cumsum(amps_abs, axis=1)[:, N - 1] * unit \
        + _PRODUCT_ROUNDOFF \
        * np.cumsum(amps_abs * plan.products, axis=1)[:, N - 1]


def _truncated_sums(ts: np.ndarray,
                    exponents) -> tuple[np.ndarray, np.ndarray]:
    """sum over n <= N = floor(``_rs_tau``(t)) of n^(-e) n^(-it), per
    exponent e, for heights t >= RS_T_MIN (so N >= 2).

    One cluster pass serves every truncation and exponent.  The sorted
    heights are cut into clusters as on the cluster path of
    ``_phase_sum`` (``_clusters``), rho = _CLUSTER_R / log N_max, but
    never across a change of N.  The phases of n = 1..N_max are reduced
    once per cluster midpoint, and a cluster of truncation N_c takes
    a_n = 0 for n > N_c (``_cluster_moments``).  Each exponent is a row
    of amplitudes on the same phases, summed by one Horner pass.  Each
    height gets the bound of its own truncation
    (``_truncation_bounds``).  Returns the sums and their bounds, each
    of shape (len(exponents), len(ts)).
    """
    R, K = len(exponents), ts.size
    sums = np.empty((R, K), dtype=complex)
    bounds = np.empty((R, K))
    if K == 0:
        return sums, bounds
    order = np.argsort(ts, kind="stable")
    srt = ts[order]
    N = np.floor(_rs_tau(srt)).astype(np.intp)
    n = np.arange(1, int(N[-1]) + 1)
    logs = np.log(n.astype(float))
    amps = n ** -np.array(exponents, dtype=float)[:, None]
    rho = _CLUSTER_R / float(logs[-1])
    starts, ends, cl, mid, x = _clusters(srt, rho,
                                         np.searchsorted(N, N, side="right"))
    plan = _factor_plan(n)
    J, bounds[:, order] = _truncation_bounds(srt, N, ends, cl, x, rho, amps,
                                             plan)
    mom = _cluster_moments(n, amps, logs, mid, rho, J,
                           max(1, _EM_CHUNK // (2 * R * plan.closure.size)),
                           N[starts])
    for row in range(R):
        sums[row, order] = _cluster_horner(mom[row], cl, x)
    return sums, bounds


def _rs_z_rounded(ts: np.ndarray,
                  n_corr: int) -> tuple[np.ndarray, np.ndarray]:
    """Riemann-Siegel Z at t >= RS_T_MIN and the bound of all but its
    truncation (``rs_error_bound``); see ``_rs_z_batch``."""
    tau = _rs_tau(ts)
    cos_t, sin_t, theta_err = _rs_rotation(ts)
    (S,), (S_bound,) = _truncated_sums(ts, (0.5,))
    re, im = S.real, S.imag
    corr, corr_err = _rs_corrections(tau, n_corr)
    rt = 1.0 / np.sqrt(tau)
    sign = np.where(np.floor(tau) % 2 == 1, 1.0, -1.0)     # (-1)^(N-1)
    vals = 2.0 * (cos_t * re - sin_t * im) + sign * rt * corr
    bound = 2.0 * (S_bound + (np.abs(re) + np.abs(im)) * theta_err) \
        + rt * corr_err
    return vals, bound


def _rs_z_batch(ts: np.ndarray, n_corr: int) -> tuple[np.ndarray, np.ndarray]:
    """Hardy Z via the Riemann-Siegel formula, vectorized, t >= RS_T_MIN.

    The main sum is 2 Re(exp(i theta) S(t)), S(t) the sum over
    n <= N = floor(sqrt(t/2pi)) of n^(-1/2) n^(-it) from
    ``_truncated_sums``, with exp(i theta) from ``_rs_rotation`` (theta
    reduced in longdouble once per anchor, the offset in float64).  The
    correction sum_k C_k(p) tau^(-k), tau = sqrt(t/2pi), p = tau - N, is
    ``_rs_corrections``: each C_k a polynomial of one parity in 2p - 1.
    The bound is ``rs_error_bound``, plus twice the bound of S, plus
    2 |S| times the phase bound of ``_rs_rotation``, plus tau^(-1/2)
    times the bound of the correction sum.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size and float(np.min(ts)) < RS_T_MIN:
        raise ValueError("RS path requires t >= RS_T_MIN")
    vals, bound = _rs_z_rounded(ts, n_corr)
    return vals, bound + rs_error_bound(ts, n_corr)


def _rs_tried(ts: np.ndarray, abs_tol: float, cfg: PrecisionConfig):
    """(n_corr, rs_error_bound(ts, n_corr), mask): the correction terms
    of ``cfg``, the Riemann-Siegel truncation bound at each height, and
    where ``hardy_z_batch`` tries RS at ``abs_tol``: t >= RS_T_MIN and
    that bound alone within it."""
    n_corr = min(cfg.rs_correction_terms, len(_RS_POLYS))
    trunc = rs_error_bound(ts, n_corr)
    return n_corr, trunc, (ts >= RS_T_MIN) & (trunc <= abs_tol)


def _octave_groups(ts: np.ndarray):
    """Boolean masks of the nonempty groups of ts >= 0 cut at 64, 128,
    256, ... below max(ts), the top group open above: the heights that
    share one Euler-Maclaurin truncation."""
    top = float(np.max(ts, initial=0.0))
    edges = [0.0, 64.0]
    while edges[-1] < top:
        edges.append(edges[-1] * 2)
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (ts >= lo) & (ts < hi) if hi < top else (ts >= lo)
        if np.any(m):
            yield m


def hardy_z_batch(ts: np.ndarray, abs_tol: float,
                  cfg: PrecisionConfig = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Z(t) on an array, choosing RS or Euler-Maclaurin per point.

    RS is evaluated at t >= RS_T_MIN wherever ``rs_error_bound`` alone
    meets ``abs_tol``, and kept wherever the full bound it returns (see
    ``_rs_z_batch``) does; everything else falls back to Euler-Maclaurin
    at the same target.  Heights must be finite and non-negative.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise ValueError("hardy_z_batch requires finite t >= 0")
    vals = np.empty(ts.shape)
    errs = np.empty(ts.shape)
    n_corr, trunc, use_rs = _rs_tried(ts, abs_tol, cfg)
    if np.any(use_rs):
        v, e = _rs_z_rounded(ts[use_rs], n_corr)
        e += trunc[use_rs]
        ok = e <= abs_tol
        idx = np.flatnonzero(use_rs)
        vals[idx[ok]], errs[idx[ok]] = v[ok], e[ok]
        use_rs[idx[~ok]] = False
    rest = ~use_rs
    if np.any(rest):
        tr = ts[rest]
        theta = _theta_any(tr)
        sub_v = np.empty(tr.shape)
        sub_e = np.empty(tr.shape)
        for m in _octave_groups(tr):
            zv, zb = _em_batch(0.5, tr[m], cfg, target=abs_tol)
            w = np.exp(1j * theta[m]) * zv
            sub_v[m] = w.real
            sub_e[m] = zb + np.abs(w.imag)
        vals[rest] = sub_v
        errs[rest] = sub_e
    return vals, errs


#: At most this many phases are built at once for the moments of
#: ``hardy_z_near`` (1 MiB of complex), so that its memory does not grow
#: with the number of centres.
_NEAR_BLOCK = 1 << 16


class NearZ:
    """Z(t) about fixed centres by one Taylor expansion each
    (``hardy_z_near``).

    ``centres`` holds the centres, ``radius`` the radius of the disk each
    expansion covers (-1 where none was built) and ``bound`` its bound
    over the disk, to which each height adds |Im e^(i theta) zeta|.
    Called with heights ts and the index of each height's centre, it
    returns Z and its bound, and raises ValueError unless every height
    lies in its centre's disk.
    """

    def __init__(self, centres, radius, bound, group, row, parts, tol, cfg):
        self.centres, self.radius, self.bound = centres, radius, bound
        self._group, self._row, self._parts = group, row, parts
        self._tol, self._cfg = tol, cfg

    def _inside(self, ts: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.abs(ts - self.centres[idx]) <= self.radius[idx]

    def serves(self, ts: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Where a height lies in its centre's disk and ``hardy_z_batch``
        at the same tolerance would not try Riemann-Siegel."""
        return self._inside(ts, idx) & ~_rs_tried(ts, self._tol, self._cfg)[2]

    def __call__(self, ts: np.ndarray,
                 idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float)
        idx = np.asarray(idx, dtype=np.intp)
        if not np.all(self._inside(ts, idx)):
            raise ValueError("hardy_z_near: a height lies outside the disk "
                             "of its centre")
        vals = np.empty(ts.shape)
        errs = np.empty(ts.shape)
        theta = _theta_any(ts)
        grp = self._group[idx]
        for g in np.unique(grp).tolist():
            m = grp == g
            M, K, rho, mom = self._parts[g]
            t, at = ts[m], idx[m]
            zv = _cluster_horner(mom, self._row[at],
                                 (t - self.centres[at]) / rho)
            w = np.exp(1j * theta[m]) * (zv + _em_tail(0.5 + 1j * t, M, K))
            vals[m] = w.real
            errs[m] = self.bound[at] + np.abs(w.imag)
        return vals, errs


def hardy_z_near(centres: np.ndarray, radius, tol: float,
                 cfg: PrecisionConfig = DEFAULT) -> NearZ:
    """Z by Euler-Maclaurin within ``radius`` (a scalar or one per centre)
    of each centre, its main sum one Taylor expansion per centre.

    The centres are grouped by octave as in ``hardy_z_batch`` and each
    group takes the truncation (M, K) of ``_em_truncation`` at the top t
    of its disks.  The main sum over n < M is the cluster path of
    ``_phase_sum`` with one cluster per centre c, its phases reduced once
    (``_cluster_moments``, in blocks of at most ``_NEAR_BLOCK`` phases);
    a height t costs the Horner sum in x = (t - c)/rho
    (``_cluster_horner``), the Euler-Maclaurin tail and theta.  rho is the
    group's largest radius, capped at the cluster radius
    _CLUSTER_R / log(M - 1), and so is each centre's disk: r =
    rho log(M - 1) is at most _CLUSTER_R, the most a ``hardy_z_batch``
    call reaches.  The expansion runs to the least order whose truncation
    tail is within the arithmetic floor (``_phase_roundoff`` at t = 0),
    not the whole floor: a few more Horner steps per height keep the tail
    below rounding.  The bound of a group is its Euler-Maclaurin
    remainder plus the cluster path's bound at |x| <= 1 (floor, built
    phases, arithmetic floor times e^r - 1, and the tail); each height
    adds |Im e^(i theta) zeta|.  No expansion is built for a centre whose
    disk ``hardy_z_batch`` would try by Riemann-Siegel at both ends, and
    so throughout (rs_error_bound is convex in t).
    """
    c = np.asarray(centres, dtype=float)
    R = np.broadcast_to(np.asarray(radius, dtype=float), c.shape)
    if c.ndim != 1 or not np.all(np.isfinite(c) & np.isfinite(R) & (R > 0)
                                 & (c - R >= 0)):
        raise ValueError("hardy_z_near requires finite centres and radii "
                         "> 0 whose disks lie in t >= 0")
    cover = np.full(c.shape, -1.0)
    bound = np.full(c.shape, np.inf)
    group = np.full(c.shape, -1, dtype=np.intp)
    row = np.zeros(c.shape, dtype=np.intp)
    parts = []
    served = np.flatnonzero(~(_rs_tried(c - R, tol, cfg)[2]
                              & _rs_tried(c + R, tol, cfg)[2]))
    for m in _octave_groups(c[served]):
        k = served[m]
        tmax = float(np.max(c[k] + R[k]))
        M, K = _em_truncation(0.5, tmax, tol)
        n = np.arange(1, M)
        amps = n ** -0.5
        logs = np.log(n.astype(float))
        lmax = float(logs[-1])
        rho = min(float(np.max(R[k])), _CLUSTER_R / lmax)
        r = rho * lmax
        plan = _factor_plan(n)
        amp_sum = float(amps.sum())
        arith = _phase_roundoff(0.0, 0.0, amp_sum)
        J, tail = _taylor_order(r, amp_sum, arith)
        mom = _cluster_moments(n, amps, logs, c[k].astype(np.longdouble),
                               rho, J,
                               max(1, _NEAR_BLOCK // plan.closure.size))
        floor = _phase_roundoff(tmax, lmax, amp_sum)
        built = _PRODUCT_ROUNDOFF * float(amps @ plan.products)
        bound[k] = _em_remainder_bound(0.5, tmax, M, K) \
            + (floor + built + arith * math.expm1(r) + tail)
        cover[k] = np.minimum(R[k], rho)
        group[k] = len(parts)
        row[k] = np.arange(k.size)
        parts.append((M, K, rho, mom))
    return NearZ(c, cover, bound, group, row, parts, tol, cfg)


def hardy_z(t: float, cfg: PrecisionConfig = DEFAULT) -> ZetaValue:
    """Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + i t), real-valued."""
    if t < 0:
        raise ValueError("hardy_z requires t >= 0")
    vals, errs = hardy_z_batch(np.array([float(t)]),
                               cfg.target_abs_error, cfg)
    return ZetaValue(complex(vals[0]), float(errs[0]))


def log_abs_zeta_half(t: float, cfg: PrecisionConfig = DEFAULT) -> float:
    """log|zeta(1/2+it)| away from zero ordinates.

    Raises NearZeroOrdinate when |Z(t)| < 10 * target_abs_error; callers
    are required to subtract the singularity instead.
    """
    z = hardy_z(t, cfg)
    az = abs(z.value.real)
    if az < 10.0 * cfg.target_abs_error:
        raise errors.NearZeroOrdinate(
            f"|Z({t})| = {az:.2e} too close to a zero ordinate")
    return math.log(az)


# ----------------------------------------------------------------------
# Branch-tracked log zeta
# ----------------------------------------------------------------------

_BRANCH_MAX_ROUNDS = 36
_ZERO_ON_PATH_ABS = 1e-12


def log_zeta_branch(sigma: float, t: float,
                    cfg: PrecisionConfig = DEFAULT) -> complex:
    """log zeta(sigma + i t), branch by continuous variation.

    The branch is anchored at s = 2 + i t, the first node of the sigma
    grid: |log zeta(2+it)| <= sum Lambda(n) / (n^2 log n) = log zeta(2)
    < pi/2, so the principal logarithm there *is* the continuously
    varied branch.  It is tracked along the horizontal segment toward
    sigma + i t with step halving until every step moves log zeta by
    less than pi/2.
    """
    if sigma < 0.5:
        raise ValueError("log_zeta_branch requires sigma >= 1/2")
    if t < 0:
        raise ValueError("log_zeta_branch requires t >= 0")
    if abs(t) < POLE_THRESHOLD and sigma <= 1.0 + POLE_THRESHOLD:
        raise errors.PoleAt1("horizontal segment passes the pole at s = 1")
    grid = np.linspace(2.0, sigma, 24) if abs(sigma - 2.0) >= 1e-12 \
        else np.array([2.0])
    vals, _ = _em_sigma_grid(grid, t, cfg)
    anchor = complex(np.log(vals[0]))
    for _round in range(_BRANCH_MAX_ROUNDS):
        small = np.abs(vals) < _ZERO_ON_PATH_ABS
        if np.any(small):
            raise errors.ZeroOnPath(
                f"|zeta| below {_ZERO_ON_PATH_ABS} at sigma="
                f"{grid[small][0]:.6g}, t={t}")
        dlog = np.log(vals[1:] / vals[:-1])
        bad = np.abs(dlog) >= 0.5 * math.pi
        if not np.any(bad):
            total = complex(math.fsum(dlog.real.tolist()),
                            math.fsum(dlog.imag.tolist()))
            return anchor + total
        mids = 0.5 * (grid[:-1][bad] + grid[1:][bad])
        grid = np.sort(np.concatenate([grid, mids]))
        if sigma < 2.0:
            grid = grid[::-1]
        vals, _ = _em_sigma_grid(grid, t, cfg)
    raise errors.BranchAmbiguous(
        f"branch tracking failed at sigma={sigma}, t={t}")


# ----------------------------------------------------------------------
# Approximate functional equation (bulk scans off the half-line)
# ----------------------------------------------------------------------

#: Empirical coefficient of the AFE error ~ AFE_BOUND_COEF * t^(-sigma/2-1/4)
AFE_BOUND_COEF = 3.0


def _log_chi(s: np.ndarray) -> np.ndarray:
    """log of the functional-equation factor chi(s) =
    pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), with principal log Gammas;
    the truncation error is at most 2 ``_LOGGAMMA_BOUND``."""
    return ((s - 0.5) * math.log(math.pi)
            + _loggamma((1.0 - s) / 2.0) - _loggamma(s / 2.0))


def zeta_afe_batch(sigma: float, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma+it) by the symmetric approximate functional equation.

    Accuracy ~ t^(-sigma/2 - 1/4); intended for long scans at heights
    where Euler-Maclaurin is too expensive and ~1e-3 relative suffices.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size and float(np.min(ts)) < RS_T_MIN:
        raise ValueError("AFE path requires t >= RS_T_MIN")
    s = sigma + 1j * ts
    chi = np.exp(_log_chi(s))
    # mirror sum of n^(sigma-1) n^(+it): the conjugate of a phase sum
    (direct, mirror), _ = _truncated_sums(ts, (sigma, 1.0 - sigma))
    vals = direct + chi * np.conj(mirror)
    bound = AFE_BOUND_COEF * ts ** (-sigma / 2.0 - 0.25)
    return vals, bound
