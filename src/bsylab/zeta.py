"""Zeta-function engines on the critical strip.

Two independent evaluation routes are provided and cross-checked by the
test suite:

* Euler-Maclaurin summation (``zeta_em``), valid on sigma >= -1 with a
  computable remainder bound; the accuracy workhorse.
* The Riemann-Siegel main sum with up to four correction terms (all
  four by default), O(sqrt(t)) per point and vectorized;
  ``hardy_z_batch`` takes it wherever ``rs_error_bound`` meets the
  requested tolerance.  Correction functions C0..C3 are evaluated from
  Chebyshev tables frozen in :mod:`bsylab._rs_coeffs`.

Dirichlet-polynomial sums go through one kernel, ``_phase_sum``: the
Euler-Maclaurin main sum, the two sums of the approximate functional
equation, and in :mod:`bsylab.dirichlet` R(t) (batched and at one
height) and the off-diagonal part of the exact mean square.  It takes
one of three paths, each with its remainder in the returned bound:

* a uniform grid of heights is one blocked matrix product;
* any other input is cut into clusters of nearby heights (quadrature
  nodes, Newton triplets, derivative stencils), and each cluster is a
  Taylor expansion in the height offset about its midpoint, after
  Odlyzko and Schoenhage: one phase reduction per term and cluster, the
  moments of all clusters as one real matrix product, and an expansion
  order set by the truncation tail;
* when no two heights of a call share a cluster (one height, or far
  apart), the (points x terms) phase matrix is summed directly, so
  single points such as ``zeta_em`` keep their arithmetic.

The Euler-Maclaurin sum over a sigma grid at one height takes its unit
phases from the same ``_unit_phases`` and shares the correction tail
``_em_tail`` with the height batch.  The Riemann-Siegel main sum keeps
its own cos-only loop: Z needs only the real part, and ``_phase_sum``
pays for both cos and sin.  Phases are reduced mod 2*pi in longdouble
everywhere; everything else is compensated float64.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from . import errors
from ._rs_coeffs import C0_CHEB, C1_CHEB, C2_CHEB, C3_CHEB
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

def _b2k_over_fact(kmax: int) -> np.ndarray:
    """B_{2k}/(2k)! for k = 0..kmax via 2(-1)^(k+1) zeta(2k)/(2pi)^(2k)."""
    from scipy.special import zeta as _rzeta
    out = np.empty(kmax + 1)
    out[0] = 1.0
    for k in range(1, kmax + 1):
        out[k] = (-1.0) ** (k + 1) * 2.0 * float(_rzeta(2 * k)) \
            / TWO_PI ** (2 * k)
    return out


_B2K_OVER_FACT = _b2k_over_fact(32)

# theta series coefficients: (1 - 2^(1-2n)) |B_2n| / (4n (2n-1)), n>=1
_THETA_N = 8


def _theta_coeffs() -> np.ndarray:
    fact = 1.0
    coeffs = []
    for n in range(1, _THETA_N + 2):
        fact *= (2 * n) * (2 * n - 1)
        b2n = abs(_B2K_OVER_FACT[n]) * fact
        coeffs.append((1.0 - 2.0 ** (1 - 2 * n)) * b2n / (4 * n * (2 * n - 1)))
    return np.array(coeffs)


_THETA_C = _theta_coeffs()


# ----------------------------------------------------------------------
# Riemann-Siegel theta
# ----------------------------------------------------------------------

def rs_theta_array(ts: np.ndarray) -> np.ndarray:
    """theta(t) for |t| >= THETA_T_MIN, odd in t, vectorized."""
    ts = np.asarray(ts, dtype=float)
    a = np.abs(ts)
    if np.any(a < THETA_T_MIN):
        raise errors.DomainTooSmall(
            f"rs_theta requires |t| >= {THETA_T_MIN}")
    val = 0.5 * a * np.log(a / TWO_PI) - 0.5 * a - math.pi / 8
    for n in range(1, _THETA_N + 1):
        val += _THETA_C[n - 1] * a ** (1 - 2 * n)
    return np.sign(ts) * val


def _rs_theta_ld(ts: np.ndarray) -> np.ndarray:
    """theta(t) in 80-bit floats for t >= THETA_T_MIN (phase use)."""
    a = np.abs(ts).astype(np.longdouble)
    val = 0.5 * a * np.log(a / _TWO_PI_LD) - 0.5 * a - _TWO_PI_LD / 16
    # sum_n c_n a^(1-2n) = (1/a) * polynomial in 1/a^2, by Horner
    u = 1 / (a * a)
    series = np.full(a.shape, np.longdouble(_THETA_C[_THETA_N - 1]))
    for c in _THETA_C[_THETA_N - 2::-1]:
        series = series * u + np.longdouble(c)
    return np.sign(ts).astype(np.longdouble) * (val + series / a)


def rs_theta(t: float) -> float:
    """Riemann-Siegel theta via its asymptotic expansion (|t| >= 10)."""
    return float(rs_theta_array(np.array([t]))[0])


def rs_theta_error_bound(t: float) -> float:
    """First omitted term of the theta expansion."""
    return float(_THETA_C[_THETA_N] * abs(t) ** (-1 - 2 * _THETA_N))


def _theta_smallt(ts: np.ndarray) -> np.ndarray:
    """theta(t) from log-gamma directly; any t, slower."""
    ts = np.asarray(ts, dtype=float)
    z = loggamma(0.25 + 0.5j * ts)
    return z.imag - 0.5 * ts * math.log(math.pi)


def _theta_any(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    out = np.empty_like(ts)
    big = np.abs(ts) >= THETA_T_MIN
    if np.any(big):
        out[big] = rs_theta_array(ts[big])
    if np.any(~big):
        out[~big] = _theta_smallt(ts[~big])
    return out


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

    t*log(n) is reduced mod 2*pi in 80-bit floats (unit roundoff
    ~1.1e-19), so each term carries an absolute phase error of order
    t*log(n)*1e-19; the amplitude-weighted total plus double-precision
    rounding of the unit phases and the accumulation gives the floor.
    ``_phase_sum`` returns it as the bound of the direct path and adds
    the eps remainder on the grid path, and the truncation tail and the
    rounding of the expansion (this floor at tmax = 0, times e^r - 1) on
    the cluster path.
    """
    return (1.5e-18 * (1.0 + tmax) * lmax + 1.5e-15) * amp_sum


def _unit_phases(ts_ld: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """exp(-i t log n) as a (len(ts) x len(logs)) complex matrix."""
    ph = (ts_ld[:, None] * logs[None, :]) % _TWO_PI_LD
    return np.exp(-1j * ph.astype(float))


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


def _phase_sum(logs: np.ndarray, amps: np.ndarray,
               ts: np.ndarray) -> tuple[np.ndarray, float]:
    """S(t_k) = sum_n a_n exp(-i t_k l_n) for every height, and a bound.

    ``logs`` are the l_n >= 0 in longdouble, ``amps`` the real a_n and
    ``ts`` a 1-d float array, in any order.  The bound is the
    floating-point floor of ``_phase_roundoff`` plus the remainder of
    whichever of three paths runs:

    * Uniform grid.  When ts is an arithmetic progression
      t_k = t_0 + k*dt (to within _GRID_ULPS ulps) and B + J < K, the sum
      is one blocked product: with k = b*J + j, J = ceil(sqrt(K)) (capped
      so M*J <= _EM_CHUNK) and B = ceil(K/J),

          S(t_k) = sum_n [a_n exp(-i (t_0 + b*J*dt) l_n)] [exp(-i j*dt l_n)],

      a (B x M) @ (M x J) complex matrix product, so the transcendental
      work is (B + J) * M instead of K * M.  The residual eps_k of each
      given t_k off the progression is taken to first order, with a
      second product over the amplitudes a_n l_n; the remainder
      max eps^2 * sum |a_n| l_n^2 / 2 is added to the bound.
    * Clusters, for any other input (Odlyzko and Schoenhage, Trans. AMS
      309 (1988) 797-809).  The sorted heights are cut greedily into
      clusters of span <= 2*rho, rho = _CLUSTER_R / max l_n.  With c the
      cluster midpoint (longdouble) and x = (t - c)/rho in [-1, 1],

          S(t) = sum_{j<J} m_j (-i x)^j,
          m_j = sum_n a_n exp(-i c l_n) (rho l_n)^j / j!,

      so c*l_n is reduced mod 2*pi once per cluster, not once per
      height, and the moments of all clusters are one real product
      [Re A; Im A] @ V, in chunks of at most _EM_CHUNK elements.  With
      r = rho * max l_n * max|x| over the call, J is the smallest order
      whose tail sum|a_n| * r^J/J! * (J+1)/(J+1-r) is below the floor.
      The tail is added to the bound, and so is the floor's arithmetic
      part (``_phase_roundoff`` at t = 0) times e^r - 1: the products
      and sums round relative to sum_j |m_j| |x|^j, which can reach
      e^r sum|a_n|.  The floor's phase part is not scaled, because the
      expansion passes an error in a_n exp(-i c l_n) on unamplified.
    * Isolated heights.  When no two heights share a cluster (one
      height, or all more than 2*rho apart), the phase matrix is summed
      directly, in chunks of _EM_CHUNK, with the floor as the bound; so
      single points keep the arithmetic they had before clusters.
    """
    K, M = ts.size, logs.size
    amps_abs = np.abs(amps)
    amp_sum = float(amps_abs.sum())
    lmax = float(np.max(logs, initial=0.0))
    tmax = float(np.max(np.abs(ts))) if K else 0.0
    bound = _phase_roundoff(tmax, lmax, amp_sum)
    vals = np.empty(K, dtype=complex)
    J = min(math.isqrt(max(K - 1, 0)) + 1, max(1, _EM_CHUNK // max(M, 1)))
    B = -(-K // J)
    grid = _as_progression(ts) if B + J < K else None
    if grid is not None:
        t0, dt, eps = grid
        inner = _unit_phases(dt * np.arange(J, dtype=np.longdouble), logs).T
        slope_amps = amps * logs.astype(float)
        slope = np.empty(K, dtype=complex)
        rows = max(1, _EM_CHUNK // (2 * max(M, J)))
        for b0 in range(0, B, rows):
            b1 = min(B, b0 + rows)
            outer = _unit_phases(
                t0 + (J * dt) * np.arange(b0, b1, dtype=np.longdouble), logs)
            prod = np.concatenate([outer * amps, outer * slope_amps]) @ inner
            k0, k1 = b0 * J, min(K, b1 * J)
            vals[k0:k1] = prod[:b1 - b0].ravel()[:k1 - k0]
            slope[k0:k1] = prod[b1 - b0:].ravel()[:k1 - k0]
        vals -= 1j * eps * slope
        bound += 0.5 * float(np.max(eps * eps)) \
            * float((amps_abs * logs.astype(float) ** 2).sum())
        return vals, bound

    order = np.argsort(ts, kind="stable")
    srt = ts[order]
    rho = _CLUSTER_R / lmax if lmax > 0.0 else math.inf
    # greedy cut: each cluster takes every height within 2*rho of its first
    nxt = np.searchsorted(srt, srt + 2.0 * rho, side="right").tolist()
    starts, i = [], 0
    while i < K:
        starts.append(i)
        i = nxt[i]
    if len(starts) == K:
        step = max(1, _EM_CHUNK // max(M, 1))
        for i in range(0, K, step):
            sl = slice(i, min(i + step, K))
            ph = ((ts[sl].astype(np.longdouble)[:, None] * logs[None, :])
                  % _TWO_PI_LD).astype(float)
            # real/imag accumulated separately: ~3x faster than complex exp
            vals[sl] = (amps[None, :] * np.cos(ph)).sum(axis=1)
            vals[sl] -= 1j * (amps[None, :] * np.sin(ph)).sum(axis=1)
        return vals, bound

    C = len(starts)
    starts = np.array(starts)
    ends = np.append(starts[1:], K)
    srt_ld = srt.astype(np.longdouble)
    mid = 0.5 * (srt_ld[starts] + srt_ld[ends - 1])
    cl = np.repeat(np.arange(C), ends - starts)
    x = ((srt_ld - mid[cl]) / rho).astype(float)
    r = _CLUSTER_R * float(np.max(np.abs(x)))   # rho * max l_n * max|x|
    J, tail = _taylor_order(r, amp_sum, bound)
    V = np.ones((M, J))                          # (rho l_n)^j / j!
    for j in range(1, J):
        V[:, j] = V[:, j - 1] * (rho / j) * logs.astype(float)
    mom = np.empty((C, J), dtype=complex)
    rows = max(1, _EM_CHUNK // (2 * M))
    for c0 in range(0, C, rows):
        c1 = min(C, c0 + rows)
        ph = ((mid[c0:c1, None] * logs[None, :]) % _TWO_PI_LD).astype(float)
        prod = np.concatenate([amps * np.cos(ph), amps * np.sin(ph)]) @ V
        mom[c0:c1] = prod[:c1 - c0] - 1j * prod[c1 - c0:]
    # Horner in -i x on the moments of each height's cluster
    acc = mom[cl, J - 1]
    for j in range(J - 2, -1, -1):
        acc = acc * (-1j * x) + mom[cl, j]
    vals[order] = acc
    arith = _phase_roundoff(0.0, 0.0, amp_sum)   # the part not from phases
    return vals, bound + arith * math.expm1(r) + tail


# ----------------------------------------------------------------------
# Euler-Maclaurin
# ----------------------------------------------------------------------

def _em_remainder_bound(sigma: float, tmax: float, M: int, K: int) -> float:
    """Standard remainder bound: |(s+2K+1)/(sigma+2K+1)| * |next term|."""
    s_abs = math.hypot(sigma, tmax)
    poch = 1.0
    for j in range(2 * K + 1):
        poch *= math.hypot(sigma + j, tmax)
    nxt = abs(_B2K_OVER_FACT[K + 1]) * poch * M ** (-(sigma + 2 * K + 1))
    return nxt * (s_abs + 2 * K + 1) / (sigma + 2 * K + 1)


def _em_choose_M(sigma: float, tmax: float, cfg: PrecisionConfig,
                 target: float) -> int:
    K = cfg.euler_maclaurin_terms
    M = max(24, int(0.35 * tmax) + 2 * K)
    for _ in range(12):
        if _em_remainder_bound(sigma, tmax, M, K) <= target:
            return M
        M = int(M * 1.4) + 8
    raise errors.PrecisionUnreachable(
        f"Euler-Maclaurin cannot reach {target} at sigma={sigma}, "
        f"t={tmax} with {K} correction terms")


def _em_tail(s: np.ndarray, M: int, K: int) -> np.ndarray:
    """The Euler-Maclaurin terms added to the sum over n < M:
    M^(1-s)/(s-1) + M^(-s)/2 + sum over k <= K of
    B_2k/(2k)! * s(s+1)...(s+2k-2) * M^(-s-2k+1)."""
    Mf = float(M)
    tail = Mf ** (1.0 - s) / (s - 1.0) + 0.5 * Mf ** (-s)
    poch = s.astype(complex)
    mpow = Mf ** (-s - 1.0)
    for k in range(1, K + 1):
        tail += _B2K_OVER_FACT[k] * poch * mpow
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        mpow = mpow / (Mf * Mf)
    return tail


def _em_batch(sigma: float, ts: np.ndarray, cfg: PrecisionConfig = DEFAULT,
              target: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma + i t) for an array of non-negative t, with error bounds.

    All points share one truncation M chosen from max(ts); callers should
    chunk wildly different heights separately.  The main sum over n < M
    is one ``_phase_sum``: a blocked matrix product when ts is a uniform
    grid, a Taylor expansion about each cluster of nearby heights
    otherwise, and the direct longdouble-phase sum when no two heights
    are near (so a single point sums directly).  The bound is the
    remainder bound plus that sum's bound.
    """
    ts = np.asarray(ts, dtype=float)
    if target is None:
        target = cfg.target_abs_error
    tmax = float(np.max(ts)) if ts.size else 0.0
    K = cfg.euler_maclaurin_terms
    M = _em_choose_M(sigma, tmax, cfg, target)

    n = np.arange(1, M, dtype=float)
    vals, roundoff = _phase_sum(np.log(n.astype(np.longdouble)),
                                n ** (-sigma), ts)
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
    K = cfg.euler_maclaurin_terms
    M = _em_choose_M(smin, abs(t), cfg, target)
    n = np.arange(1, M, dtype=float)
    lnn = np.log(n.astype(np.longdouble))
    phase = _unit_phases(np.array([t], dtype=np.longdouble), lnn)[0]
    ampm = np.exp(-np.outer(sigmas, lnn.astype(float)))
    vals = ampm @ phase + _em_tail(sigmas + 1j * t, M, K)
    bound = _em_remainder_bound(smin, abs(t), M, K)
    bound += _phase_roundoff(abs(t), float(lnn[-1]),
                             float(ampm.sum(axis=1).max()))
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

_RS_CHEBS = (C0_CHEB, C1_CHEB, C2_CHEB, C3_CHEB)


def rs_error_bound(t, n_corr: int):
    """Empirical absolute error bound of the RS path, vectorized in t."""
    t = np.maximum(np.asarray(t, dtype=float), 1e-6)
    return RS_BOUND_COEF[n_corr] * t ** (-(2 * n_corr + 1) / 4.0) + 5e-18 * t


def _rs_z_batch(ts: np.ndarray, n_corr: int) -> tuple[np.ndarray, np.ndarray]:
    """Hardy Z via the Riemann-Siegel formula, vectorized, t >= RS_T_MIN."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and float(np.min(ts)) < RS_T_MIN:
        raise ValueError("RS path requires t >= RS_T_MIN")
    tau = np.sqrt(ts / TWO_PI)
    N = np.floor(tau).astype(int)
    p = tau - N
    theta_ld = _rs_theta_ld(ts)

    vals = np.zeros(ts.shape)
    # main sum, grouped by common truncation N.  Not a _phase_sum: Z
    # needs only the cosines, and summing cos and sin through the shared
    # kernel made the arg_scan benchmark ~7% slower (3 of 3 paired runs,
    # 2-vCPU x86 machine).
    order = np.argsort(N, kind="stable")
    Nuniq, starts = np.unique(N[order], return_index=True)
    bounds_idx = np.append(starts, N.size)
    for Nv, a, b in zip(Nuniq, bounds_idx[:-1], bounds_idx[1:]):
        idx = order[a:b]
        n = np.arange(1, Nv + 1, dtype=float)
        lnn = np.log(n.astype(np.longdouble))
        arg = (theta_ld[idx][:, None]
               - ts[idx].astype(np.longdouble)[:, None] * lnn[None, :]
               ) % _TWO_PI_LD
        vals[idx] = 2.0 * (np.cos(arg.astype(float))
                           / np.sqrt(n)[None, :]).sum(axis=1)

    # correction terms
    corr = np.zeros(ts.shape)
    taupow = np.ones(ts.shape)
    x = 2.0 * p - 1.0  # chebyshev domain [0,1] -> [-1,1]
    for k in range(n_corr):
        ck = np.polynomial.chebyshev.chebval(x, _RS_CHEBS[k])
        corr += ck * taupow
        taupow = taupow / tau
    sign = np.where(N % 2 == 1, 1.0, -1.0)
    vals += sign * tau ** (-0.5) * corr
    return vals, rs_error_bound(ts, n_corr)


def hardy_z_batch(ts: np.ndarray, abs_tol: float,
                  cfg: PrecisionConfig = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Z(t) on an array, choosing RS or Euler-Maclaurin per point.

    The RS path is used wherever its error bound meets ``abs_tol``;
    everything else falls back to Euler-Maclaurin at the same target.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.empty(ts.shape)
    errs = np.empty(ts.shape)
    n_corr = min(cfg.rs_correction_terms, len(_RS_CHEBS))
    use_rs = (ts >= RS_T_MIN) & (rs_error_bound(ts, n_corr) <= abs_tol)
    if np.any(use_rs):
        vals[use_rs], errs[use_rs] = _rs_z_batch(ts[use_rs], n_corr)
    rest = ~use_rs
    if np.any(rest):
        tr = ts[rest]
        theta = _theta_any(tr)
        # chunk by octave so each chunk shares a sensible truncation
        sub_v = np.empty(tr.shape)
        sub_e = np.empty(tr.shape)
        edges = [0.0, 64.0]
        while edges[-1] < float(np.max(tr)):
            edges.append(edges[-1] * 2)
        for lo, hi in zip(edges[:-1], edges[1:]):
            m = (tr >= lo) & (tr < hi) if hi < float(np.max(tr)) \
                else (tr >= lo)
            if not np.any(m):
                continue
            zv, zb = _em_batch(0.5, tr[m], cfg, target=abs_tol)
            w = np.exp(1j * theta[m]) * zv
            sub_v[m] = w.real
            sub_e[m] = zb + np.abs(w.imag)
        vals[rest] = sub_v
        errs[rest] = sub_e
    return vals, errs


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


def _log_zeta_anchor(t: float, cfg: PrecisionConfig) -> complex:
    """log zeta(2 + i t) on the standard branch.

    |log zeta(2+it)| <= sum Lambda(n) / (n^2 log n) = log zeta(2) < pi/2,
    so the principal logarithm *is* the continuously-varied branch.
    """
    z = complex(zeta_em(complex(2.0, t), cfg))
    return complex(np.log(z))


def log_zeta_branch(sigma: float, t: float,
                    cfg: PrecisionConfig = DEFAULT) -> complex:
    """log zeta(sigma + i t), branch by continuous variation.

    The branch is anchored at s = 2 + i t (principal value there) and
    tracked along the horizontal segment toward sigma + i t with step
    halving until every step moves log zeta by less than pi/2.
    """
    if sigma < 0.5:
        raise ValueError("log_zeta_branch requires sigma >= 1/2")
    if t < 0:
        raise ValueError("log_zeta_branch requires t >= 0")
    if abs(t) < POLE_THRESHOLD and sigma <= 1.0 + POLE_THRESHOLD:
        raise errors.PoleAt1("horizontal segment passes the pole at s = 1")
    anchor = _log_zeta_anchor(t, cfg)
    if abs(sigma - 2.0) < 1e-12:
        return anchor

    grid = np.linspace(2.0, sigma, 24)
    vals, _ = _em_sigma_grid(grid, t, cfg)
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
    pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2)."""
    return ((s - 0.5) * math.log(math.pi)
            + loggamma((1.0 - s) / 2.0) - loggamma(s / 2.0))


def zeta_afe_batch(sigma: float, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma+it) by the symmetric approximate functional equation.

    Accuracy ~ t^(-sigma/2 - 1/4); intended for long scans at heights
    where Euler-Maclaurin is too expensive and ~1e-3 relative suffices.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size and float(np.min(ts)) < RS_T_MIN:
        raise ValueError("AFE path requires t >= RS_T_MIN")
    tau = np.sqrt(ts / TWO_PI)
    N = np.floor(tau).astype(int)
    s = sigma + 1j * ts
    chi = np.exp(_log_chi(s))
    vals = np.zeros(ts.shape, dtype=complex)
    order = np.argsort(N, kind="stable")
    Nuniq, starts = np.unique(N[order], return_index=True)
    bidx = np.append(starts, N.size)
    for Nv, a, b in zip(Nuniq, bidx[:-1], bidx[1:]):
        idx = order[a:b]
        n = np.arange(1, Nv + 1, dtype=float)
        lnn = np.log(n.astype(np.longdouble))
        # mirror sum of n^(sigma-1) n^(+it): the conjugate of a phase sum
        direct, _ = _phase_sum(lnn, n ** (-sigma), ts[idx])
        mirror, _ = _phase_sum(lnn, n ** (sigma - 1.0), ts[idx])
        vals[idx] = direct + chi[idx] * np.conj(mirror)
    bound = AFE_BOUND_COEF * ts ** (-sigma / 2.0 - 0.25)
    return vals, bound
