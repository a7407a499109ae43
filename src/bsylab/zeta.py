"""Zeta-function engines on the critical strip.

Two independent evaluation routes are provided and cross-checked by the
test suite:

* Euler-Maclaurin summation (``zeta_em``), valid on sigma >= -1 with a
  computable remainder bound; the accuracy workhorse.  No setting
  fixes its truncation M or correction order K: each call takes the
  pair of least M + K, its work per height, whose remainder bound
  meets the call's target (``_em_plan``).  The correction tail is one
  Horner pass from the top in q_k/M^2 = (s + 2k - 3)(s + 2k - 2)/M^2,
  with M and K scalars or one per height, and the phase t log M of
  M^(-s) reduced in longdouble; the bound carries the rounding of that
  pass and of the steps after it and the error of that phase
  (``_em_tail_roundoff``).  A ``NearZ`` call takes one tail pass and one
  Horner pass over all its heights, whatever their octave groups.
* The Riemann-Siegel main sum with up to four correction terms (all
  four by default), O(sqrt(t)) per point and vectorized;
  ``hardy_z_batch`` keeps it wherever the bound it returns meets the
  requested tolerance.  theta is reduced mod 2 pi in longdouble once per
  anchor (the heights rounded to a multiple of 1/8) and each height adds
  its offset in float64.  The correction functions C0..C3 are their
  closed forms in Psi's derivatives (Edwards, ch. 7), frozen as
  economized polynomials of one parity in 2p - 1 and evaluated by Horner
  in (2p - 1)^2; what that drops and rounds is in the bound.

The main sums of both engines and of the approximate functional
equation (``zeta_afe_batch``) are Dirichlet polynomials, summed with
their bounds by :mod:`bsylab.phases`.  The Riemann-Siegel sum and the
two sums of the approximate functional equation run to
N = floor(sqrt(t/2pi)), which varies with t; every such N is taken here
(``_rs_tau``).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import errors, phases
from .config import DEFAULT, POLE_THRESHOLD, PrecisionConfig

TWO_PI = 2.0 * math.pi

_U = 2.0 ** -53     # float64 unit roundoff

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
    two_pi = a.dtype.type(phases.TWO_PI_LD)
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
    return a * a * (np.log(a / phases.TWO_PI_LD) / 4 - 0.375) \
        - phases.TWO_PI_LD / 16 * a + _THETA_C[0] * np.log(a) + tail


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


def _em_plan(sigma: float, tmax: float,
             target: float) -> tuple[int, int, float]:
    """(M, K, bound): the truncation M >= _EM_M_MIN and correction order
    K <= _EM_K_MAX of least M + K, the work per height (M - 1 phase terms
    and K tail terms), whose remainder bound at sigma + i tmax meets
    ``target``, and that bound A_K M^(-a_K), all from one
    ``_em_log_remainder``.

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
    Ms = np.maximum(_EM_M_MIN, np.ceil(np.exp(np.where(ok, log_m, 0.0))))
    k = int(np.argmin(np.where(ok, Ms + _EM_KS, np.inf)))
    M = int(Ms[k])
    return M, k + 1, float(np.exp(log_a[k] - a[k] * math.log(M)))


def _em_choose_M(sigma: float, tmax: float, cfg: PrecisionConfig,
                 target: float) -> int:
    """The truncation M of ``_em_plan`` (``cfg`` is not read)."""
    return _em_plan(sigma, tmax, target)[0]


def _em_tail(s: np.ndarray, M, K) -> np.ndarray:
    """The Euler-Maclaurin terms added to the sum over n < M, at each
    point of the 1-d array s:

        M^(-s) (M/(s-1) + 1/2 + (s/M) h),
        h = b_1 + q_2 (b_2 + q_3 (b_3 + ... + q_K b_K)),

    b_k = B_2k/(2k)! and q_k = (s + 2k - 3)(s + 2k - 2)/M^2, so that
    (s/M) q_2 ... q_k = s(s+1)...(s+2k-2) M^(1-2k): one Horner pass from
    the top, in place, no factor overflowing.  M and K are scalars or one
    per point; a point of order K below the largest takes b_k = 0 above
    its own K, and those leading steps are exact, so that it gets the
    same value to the bit as a call at its own (M, K).  M^(-s) takes the
    phase t log M reduced mod 2 pi in longdouble
    (``phases.reduced_phases``).  ``_em_tail_roundoff`` bounds the
    rounding.
    """
    out = np.empty(s.shape, dtype=complex)
    if s.size == 0:
        return out
    # one M per point either way, so that every complex operation and
    # power runs the same loop on the same operands
    Mf = np.empty(s.shape)
    Mf[...] = M
    K = np.asarray(K)
    low, top = int(K.min()), int(K.max())
    b = _B2K_OVER_FACT
    out[...] = np.where(K == top, b[top], 0.0)
    inv_m2 = (1.0 / (Mf * Mf)).astype(complex)
    q, f = np.empty_like(s), np.empty_like(s)
    for k in range(top, 1, -1):
        np.add(s, 2 * k - 3, out=q)              # q_k, in place
        np.add(s, 2 * k - 2, out=f)
        q *= f
        q *= inv_m2
        out *= q
        # b_(k-1) only where k - 1 <= K: the rest stay exactly 0
        np.add(out, b[k - 1], out=out, where=True if k - 1 <= low
               else K >= k - 1)
    out *= s / Mf
    out += Mf / (s - 1.0)
    out += 0.5
    # log M in longdouble, once per distinct M; t is cast too, so that
    # t log M is a longdouble product under any numpy promotion rules
    Ms, at = np.unique(M, return_inverse=True) if np.ndim(M) else ([M], 0)
    log_m = np.log(np.array(Ms, dtype=np.longdouble))[at]
    out *= Mf ** -s.real * phases.reduced_phases(
        s.imag.astype(np.longdouble) * log_m)
    return out


def _em_tail_roundoff(sigmas: tuple[float, float], ts: tuple[float, float],
                      M: int, K: int) -> float:
    """Bound on the error ``_em_tail`` at (M, K) adds over the points
    sigma + i t with sigma in the range ``sigmas`` = (sigma_lo, sigma_hi)
    and |t| in ``ts`` = (t_lo, t_hi): the phase of M^(-s), the Horner sum
    and the roundings after it,

        M^(-sigma_lo) (LD_PHASE_ROUNDOFF t_hi log M A
                       + 10 u sum over k <= K of k |b_k| |c_k|
                       + u (c_q M/|s - 1| + c_A A)),

    c_k = s(s+1)...(s+2k-2) M^(1-2k) and A = M/|s - 1| + 1/2 +
    sum |b_k| |c_k| the tail's largest size.  t log M is reduced in
    longdouble (``phases.LD_PHASE_ROUNDOFF``).  In the Horner sum each
    q_k is within (4 + sqrt 5) u of its value, a step adds sqrt 5 u (the
    product; Brent, Percival and Zimmermann, Math. Comp. 76 (2007)
    1469-1481) and u (the sum), and the factor s/M with its product
    about 5 u, so term k strays by less than 10 k u.  After the sum,
    M/(s - 1) takes u for s - 1 and 7 u for numpy's complex (Smith)
    division (c_q = 8); the two sums take u of A each, M^(-sigma) 2 u
    (one ulp), its product with the phase u and the last product
    sqrt 5 u, and the phase rounded to float64 2 u and its cosine and
    sine sqrt 2 u (``phases.PRODUCT_ROUNDOFF``'s count), so c_A =
    7 + sqrt 5 + sqrt 2.  On the real axis (t_hi = 0) every imaginary
    part is 0 and the phase is exactly 1: the division rounds twice, the
    product with the phase is exact and the last product rounds once, so
    c_q = 3 and c_A = 5.  Each |s + j| is taken
    at its largest over the ranges, |s - 1| at its least.
    """
    (s_lo, s_hi), (t_lo, t_hi) = sigmas, ts
    js = _EM_JS[:2 * K - 1]
    # |c_k| is the product over j <= 2k - 2 of |s + j|/M; at the (M, K)
    # of _em_plan its partial products stay far from overflow (below 1e48
    # for sigma in [-1, 2.5], t <= 1e6 and targets 1e-3 to 1e-14)
    ratios = np.hypot(np.maximum(np.abs(s_lo + js), s_hi + js), t_hi) / M
    terms = np.abs(_B2K_OVER_FACT[1:K + 1]) * ratios.cumprod()[::2]
    gap = math.hypot(max(s_lo - 1.0, 1.0 - s_hi, 0.0), t_lo)   # least |s-1|
    pole = M / gap if gap else math.inf
    size = pole + 0.5 + float(terms.sum())
    c_q, c_a = (8.0, 7.0 + math.sqrt(5.0) + math.sqrt(2.0)) if t_hi \
        else (3.0, 5.0)
    return M ** -s_lo * (phases.LD_PHASE_ROUNDOFF * t_hi * math.log(M) * size
                         + 10.0 * _U * float(_EM_KS[:K] @ terms)
                         + _U * (c_q * pole + c_a * size))


def _em_batch(sigma: float, ts: np.ndarray, cfg: PrecisionConfig = DEFAULT,
              target: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma + i t) for an array of t, with error bounds.

    All points share one truncation M chosen from max|t|; callers should
    chunk wildly different heights separately.  The main sum over n < M
    is one ``phases.phase_sum``: a blocked matrix product when ts is a uniform
    grid, a Taylor expansion about each cluster of nearby heights
    otherwise (a single point is a cluster of one).  The bound is the
    remainder bound plus that sum's bound plus the tail's
    (``_em_tail_roundoff``).
    """
    ts = np.asarray(ts, dtype=float)
    if target is None:
        target = cfg.target_abs_error
    tmax = float(np.max(np.abs(ts))) if ts.size else 0.0
    M, K, bound = _em_plan(sigma, tmax, target)

    n = np.arange(1, M)
    vals, roundoff = phases.phase_sum(n, n ** -float(sigma), ts)
    if ts.size:
        vals += _em_tail(sigma + 1j * ts, M, K)
        tmin = float(np.min(np.abs(ts)))
        bound += roundoff + _em_tail_roundoff((sigma, sigma), (tmin, tmax),
                                              M, K)
    return vals, np.full(ts.shape, bound)


def _em_sigma_grid(sigmas: np.ndarray, t: float,
                   cfg: PrecisionConfig = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma_j + i t) over a sigma grid at one height t, to
    ``cfg.target_abs_error``: the main sums by ``phases.sums_at_height``,
    the bound the remainder bound at the least sigma plus their floor
    plus the tail's over the grid (``_em_tail_roundoff``)."""
    sigmas = np.asarray(sigmas, dtype=float)
    smin = float(np.min(sigmas))
    M, K, bound = _em_plan(smin, abs(t), cfg.target_abs_error)
    sums, floor, built = phases.sums_at_height(np.arange(1, M), sigmas, t)
    vals = sums + _em_tail(sigmas + 1j * t, M, K)
    bound += floor + built + _em_tail_roundoff(
        (smin, float(np.max(sigmas))), (abs(t), abs(t)), M, K)
    return vals, np.full(sigmas.shape, bound)


def zeta_em(s: complex, cfg: PrecisionConfig = DEFAULT) -> ZetaValue:
    """Euler-Maclaurin evaluation of zeta(s) with an attached error bound.

    Requires sigma >= -1 and |s - 1| >= the pole threshold; raises
    PrecisionUnreachable where the bound is not finite.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("zeta_em requires finite s")
    if s.real < -1.0:
        raise ValueError("zeta_em requires sigma >= -1")
    if abs(s - 1.0) < POLE_THRESHOLD:
        raise errors.PoleAt1(f"|s-1| = {abs(s - 1.0):.2e} below threshold")
    conj = s.imag < 0
    t = abs(s.imag)
    vals, bounds = _em_batch(s.real, np.array([t]), cfg)
    if not np.isfinite(bounds[0]):
        raise errors.PrecisionUnreachable(f"no finite error bound at s={s}")
    v = complex(vals[0])
    if conj:
        v = v.conjugate()
    return ZetaValue(v, float(bounds[0]))


# ----------------------------------------------------------------------
# Riemann-Siegel Z
# ----------------------------------------------------------------------

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
    base = (_rs_theta_ld(anchors) % phases.TWO_PI_LD).astype(float) \
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
    Riemann-Siegel sum (``phases.truncated_sums``) and tau - N the p of its
    corrections (``_rs_corrections``), one expression for both so that
    they cannot disagree at t = 2 pi N^2."""
    return np.sqrt(ts / TWO_PI)


def _rs_z_rounded(ts: np.ndarray,
                  n_corr: int) -> tuple[np.ndarray, np.ndarray]:
    """Riemann-Siegel Z at t >= RS_T_MIN, vectorized, and the bound of
    all but its truncation (``rs_error_bound``).

    The main sum is 2 Re(exp(i theta) S(t)), S(t) the sum over
    n <= N = floor(sqrt(t/2pi)) of n^(-1/2) n^(-it) from
    ``phases.truncated_sums``, with exp(i theta) from ``_rs_rotation``
    (theta reduced in longdouble once per anchor, the offset in float64).
    The correction sum_k C_k(p) tau^(-k), tau = sqrt(t/2pi), p = tau - N,
    is ``_rs_corrections``: each C_k a polynomial of one parity in 2p - 1.
    The bound is twice the bound of S, plus 2 |S| times the phase bound
    of ``_rs_rotation``, plus tau^(-1/2) times the bound of the
    correction sum.
    """
    tau = _rs_tau(ts)
    N = np.floor(tau)
    cos_t, sin_t, theta_err = _rs_rotation(ts)
    (S,), (S_bound,) = phases.truncated_sums(ts, N, (0.5,))
    re, im = S.real, S.imag
    corr, corr_err = _rs_corrections(tau, n_corr)
    rt = 1.0 / np.sqrt(tau)
    sign = np.where(N % 2 == 1, 1.0, -1.0)                 # (-1)^(N-1)
    vals = 2.0 * (cos_t * re - sin_t * im) + sign * rt * corr
    bound = 2.0 * (S_bound + (np.abs(re) + np.abs(im)) * theta_err) \
        + rt * corr_err
    return vals, bound


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
    meets ``abs_tol`` (``_rs_tried``), and kept wherever its full bound,
    ``rs_error_bound`` plus that of ``_rs_z_rounded``, does; everything
    else falls back to Euler-Maclaurin at the same target.  Heights must
    be finite and non-negative.
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


class NearZ:
    """Z(t) about fixed centres by one Taylor expansion each
    (``hardy_z_near``).

    ``centres`` holds the centres, ``radius`` the radius of the disk each
    expansion covers (-1 where none was built) and ``bound`` its bound
    over the disk, to which each height adds |Im e^(i theta) zeta|.
    ``M``, ``K`` and ``rho`` hold each centre's truncation, order and
    expansion radius, and ``mom`` its moments, one row per centre, padded
    with zero moments above its own order.  Called with heights ts and
    the index of each height's centre, it returns Z and its bound, and
    raises ValueError unless every height lies in its centre's disk.
    """

    def __init__(self, centres, radius, bound, M, K, rho, mom, tol, cfg):
        self.centres, self.radius, self.bound = centres, radius, bound
        self._M, self._K, self._rho, self._mom = M, K, rho, mom
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
        # one tail pass and one Horner pass over every octave group: the
        # zero leading steps of a lower order are exact
        zv = _em_tail(0.5 + 1j * ts, self._M[idx], self._K[idx])
        zv += phases.cluster_horner(self._mom, idx, (ts - self.centres[idx])
                                    / self._rho[idx])
        w = np.exp(1j * _theta_any(ts)) * zv
        return w.real, self.bound[idx] + np.abs(w.imag)


def hardy_z_near(centres: np.ndarray, radius, tol: float,
                 cfg: PrecisionConfig = DEFAULT) -> NearZ:
    """Z by Euler-Maclaurin within ``radius`` (a scalar or one per centre)
    of each centre, its main sum one Taylor expansion per centre.

    The centres are grouped by octave as in ``hardy_z_batch`` and each
    group takes the truncation (M, K) of ``_em_plan`` at the top t of
    its disks.  The main sum over n < M is one expansion about every
    centre c of the group, its phases reduced once
    (``phases.expansion_about``); a height t costs the Horner sum in
    x = (t - c)/rho (``phases.cluster_horner``), the Euler-Maclaurin tail
    and theta.  A call takes one tail pass and one Horner pass over all
    its heights, each at its group's (M, K), rho and moments.  rho is the
    group's largest radius, capped at the cluster radius of
    ``phases.phase_sum``, and so is each centre's disk.  The bound of a
    group is its Euler-Maclaurin remainder plus the expansion's bound at
    |x| <= 1 plus the tail's over its disks (``_em_tail_roundoff``); each
    height adds |Im e^(i theta) zeta|.  No expansion is built for a
    centre whose disk ``hardy_z_batch`` would try by Riemann-Siegel at
    both ends, and so throughout (rs_error_bound is convex in t).
    """
    c = np.asarray(centres, dtype=float)
    R = np.broadcast_to(np.asarray(radius, dtype=float), c.shape)
    if c.ndim != 1 or not np.all(np.isfinite(c) & np.isfinite(R) & (R > 0)
                                 & (c - R >= 0)):
        raise ValueError("hardy_z_near requires finite centres and radii "
                         "> 0 whose disks lie in t >= 0")
    cover = np.full(c.shape, -1.0)
    bound = np.full(c.shape, np.inf)
    Ms = np.zeros(c.shape, dtype=np.intp)
    Ks = np.zeros(c.shape, dtype=np.intp)
    rhos = np.ones(c.shape)
    moms = []
    served = np.flatnonzero(~(_rs_tried(c - R, tol, cfg)[2]
                              & _rs_tried(c + R, tol, cfg)[2]))
    for m in _octave_groups(c[served]):
        k = served[m]
        tmax = float(np.max(c[k] + R[k]))
        M, K, em_bound = _em_plan(0.5, tmax, tol)
        n = np.arange(1, M)
        rho, mom, sum_bound = phases.expansion_about(
            n, n ** -0.5, c[k].astype(np.longdouble), float(np.max(R[k])),
            tmax)
        bound[k] = em_bound + sum_bound + _em_tail_roundoff(
            (0.5, 0.5), (float(np.min(c[k] - R[k])), tmax), M, K)
        cover[k] = np.minimum(R[k], rho)
        Ms[k], Ks[k], rhos[k] = M, K, rho
        moms.append((k, mom))
    J = max((part.shape[1] for _, part in moms), default=1)
    mom = np.zeros((c.size, J), dtype=complex)
    for k, part in moms:
        mom[k, :part.shape[1]] = part
    return NearZ(c, cover, bound, Ms, Ks, rhos, mom, tol, cfg)


def hardy_z(t: float, cfg: PrecisionConfig = DEFAULT) -> ZetaValue:
    """Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + i t), real-valued."""
    if t < 0:
        raise ValueError("hardy_z requires t >= 0")
    vals, errs = hardy_z_batch(np.array([float(t)]),
                               cfg.target_abs_error, cfg)
    return ZetaValue(complex(vals[0]), float(errs[0]))


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
    if not (math.isfinite(sigma) and math.isfinite(t)):
        raise ValueError("log_zeta_branch requires finite sigma and t")
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
    (direct, mirror), _ = phases.truncated_sums(
        ts, np.floor(_rs_tau(ts)), (sigma, 1.0 - sigma))
    vals = direct + chi * np.conj(mirror)
    bound = AFE_BOUND_COEF * ts ** (-sigma / 2.0 - 0.25)
    return vals, bound
