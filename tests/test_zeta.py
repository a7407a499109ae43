"""Zeta engine tests against independent oracles.

mpmath is used strictly as an oracle (never inside the package); the
eta-series and Bernoulli identities provide library-free cross-checks.
"""

import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsylab import errors, phases, sieve, zeta
from bsylab.config import DEFAULT, PrecisionConfig
from bsylab.quadrature import GK15_NODES
from bsylab.zeta import (
    _rs_theta_ld,
    hardy_z,
    hardy_z_batch,
    log_zeta_branch,
    rs_error_bound,
    rs_theta,
    rs_theta_error_bound,
    zeta_em,
)

mpmath.mp.dps = 30


def _mp_zeta(s: complex) -> complex:
    return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


def _eta_zeta_half(terms: int = 200_000) -> float:
    """zeta(1/2) from the alternating eta series with Euler averaging."""
    n = np.arange(1, terms + 1, dtype=float)
    partial = np.cumsum((-1.0) ** (n + 1) / np.sqrt(n))
    # repeated averaging of the tail accelerates the alternating series
    tail = partial[-40:]
    for _ in range(30):
        tail = 0.5 * (tail[1:] + tail[:-1])
    return float(tail[-1]) / (1.0 - 2.0 ** 0.5)


def test_basel_point():
    zv = zeta_em(2.0, DEFAULT)
    assert abs(complex(zv) - math.pi ** 2 / 6) <= 1e-10
    assert abs(complex(zv) - math.pi ** 2 / 6) <= zv.abs_error


def test_zeta_half_eta_series_oracle():
    zv = zeta_em(0.5, DEFAULT)
    oracle = _eta_zeta_half()
    assert abs(oracle - (-1.4603545088095868)) < 1e-9   # series sanity
    assert abs(complex(zv).real - oracle) < 1e-9
    assert abs(complex(zv).imag) < 1e-12


@pytest.mark.parametrize("s", [
    complex(0.5, 14.0), complex(0.5, 99.7), complex(0.5, 1013.3),
    complex(0.75, 250.1), complex(2.0, 50.0), complex(1.5, 0.0),
    complex(0.6, 9999.5), complex(0.5, 31.7),
])
def test_em_matches_mpmath_within_bound(s):
    zv = zeta_em(s, DEFAULT)
    ref = _mp_zeta(s)
    assert abs(complex(zv) - ref) <= zv.abs_error
    assert abs(complex(zv) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_em_error_bound_conservative_under_refinement():
    # refining must never move the value outside the earlier bound
    for s in (complex(0.5, 77.7), complex(0.8, 313.1)):
        coarse = zeta_em(s, DEFAULT)
        fine = zeta_em(s, DEFAULT.refined(10.0))
        assert abs(complex(coarse) - complex(fine)) <= coarse.abs_error


def test_pole_guard():
    with pytest.raises(errors.PoleAt1):
        zeta_em(complex(1.0, 1e-6), DEFAULT)


def _em_remainder(sigma, t, M, K):
    """The Euler-Maclaurin remainder bound A_K M^(-a_K) at any (M, K)."""
    log_a, a = zeta._em_log_remainder(sigma, t)
    return float(np.exp(log_a[K - 1] - a[K - 1] * math.log(M)))


@settings(max_examples=200, deadline=None)
@given(sigma=st.floats(min_value=-0.5, max_value=2.5),
       t=st.one_of(st.floats(min_value=0.0, max_value=2e5),   # and log-uniform
                   st.floats(min_value=-1.0, max_value=math.log10(2e5)).map(
                       lambda e: 10.0 ** e)),
       target=st.floats(min_value=-14.0, max_value=-3.0).map(
           lambda e: 10.0 ** e))
def test_em_truncation_is_least_work_meeting_target(sigma, t, target):
    M, K = zeta._em_plan(sigma, t, target)[:2]
    assert M >= zeta._EM_M_MIN and 1 <= K <= zeta._EM_K_MAX
    assert _em_remainder(sigma, t, M, K) <= target
    for k in range(1, zeta._EM_K_MAX + 1):
        m = M + K - k - 1       # the largest M of a pair cheaper than (M, K)
        if m >= zeta._EM_M_MIN:
            assert _em_remainder(sigma, t, m, k) > target, k
    # the Pochhammer product alone overflows here; the running one not
    M30 = zeta._em_plan(sigma, 2e5, target)[0]
    assert np.all(np.isfinite(zeta._em_tail(np.array([complex(sigma, 2e5)]),
                                            M30, 30)))


@pytest.mark.parametrize("sigma,t,M,K", [(0.5, 100.0, 40, 5),
                                         (-0.5, 3e3, 900, 30),
                                         (2.5, 2e5, 60000, 30)])
def test_em_remainder_bound_matches_direct_product(sigma, t, M, K):
    s = mpmath.mpc(sigma, t)
    b = mpmath.bernoulli(2 * K + 2) / mpmath.factorial(2 * K + 2)
    direct = abs(b) * abs(mpmath.rf(s, 2 * K + 1)) \
        * mpmath.mpf(M) ** (-(sigma + 2 * K + 1)) \
        * (abs(s) + 2 * K + 1) / (sigma + 2 * K + 1)
    got = _em_remainder(sigma, t, M, K)
    assert abs(got - float(direct)) <= 1e-12 * float(direct)


def _mp_em_tail(sigma, t, M, K):
    """The finite tail of ``zeta._em_tail`` at 40 digits."""
    with mpmath.workdps(40):
        s, m = mpmath.mpc(sigma, t), mpmath.mpf(M)
        c, acc = s / m, m / (s - 1) + mpmath.mpf(1) / 2
        for k in range(1, K + 1):
            if k > 1:
                c *= (s + 2 * k - 3) * (s + 2 * k - 2) / m ** 2
            acc += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * c
        return complex(m ** -s * acc)


@pytest.mark.parametrize("sigma,t", [(0.5, 1e3), (0.5, 1e5), (0.5, 1e6),
                                     (-0.5, 2e5), (2.0, 5.0), (-0.5, 0.0),
                                     (0.35, 0.0)])
def test_em_tail_within_its_roundoff_of_mpmath(sigma, t):
    # with the phase t log M taken in float64 the tail errs 2.4e-14,
    # 4.1e-13, 1.3e-12 and 2.9e-8 at the first four points, past this
    # bound; at (2, 5) it errs 1.9e-18, past the bound without the
    # roundings after the Horner sum (2.5e-19); the last two are on the
    # real axis, where those roundings are counted as real ones
    M, K = zeta._em_plan(sigma, t, 1e-12)[:2]
    got = zeta._em_tail(np.array([complex(sigma, t)]), M, K)[0]
    assert abs(got - _mp_em_tail(sigma, t, M, K)) \
        <= zeta._em_tail_roundoff((sigma, sigma), (t, t), M, K)


def test_em_bounds_carry_the_tail_roundoff():
    # each EM bound is its remainder, its main sum's bound and the tail's
    sigma, t, target = -0.5, 2e5, 1e-12
    M, K, rem = zeta._em_plan(sigma, t, target)
    n = np.arange(1, M)
    tail = zeta._em_tail_roundoff((sigma, sigma), (t, t), M, K)
    floor = phases.phase_sum(n, n ** -sigma, np.array([t]))[1]
    got = zeta._em_batch(sigma, np.array([t]), target=target)[1][0]
    assert got == pytest.approx(rem + floor + tail, rel=1e-13)
    sigmas = np.array([2.0, 1.0, 0.5])
    M, K, rem = zeta._em_plan(0.5, 3e4, target)
    _, floor, built = phases.sums_at_height(np.arange(1, M), sigmas, 3e4)
    tail = zeta._em_tail_roundoff((0.5, 2.0), (3e4, 3e4), M, K)
    got = zeta._em_sigma_grid(sigmas, 3e4,
                              PrecisionConfig(target_abs_error=target))[1][0]
    assert got == pytest.approx(rem + floor + built + tail, rel=1e-13)
    c, R = 5000.0, 0.05
    M, K, rem = zeta._em_plan(0.5, c + R, target)
    n = np.arange(1, M)
    _, _, near = phases.expansion_about(n, n ** -0.5,
                                        np.array([c], dtype=np.longdouble),
                                        R, c + R)
    tail = zeta._em_tail_roundoff((0.5, 0.5), (c - R, c + R), M, K)
    got = zeta.hardy_z_near(np.array([c]), R, target).bound[0]
    assert got == pytest.approx(rem + near + tail, rel=1e-13)
    assert tail > 1e-12 * got


def test_em_tail_per_point_orders_match_scalar_calls_to_the_bit():
    # three (M, K), shuffled into one call: each point takes b_k = 0
    # above its own K, and gets the bits of a call at its own (M, K)
    parts = [(0.5 + 1j * np.linspace(20.0, 60.0, 5), 24, 6),
             (0.5 + 1j * np.linspace(500.0, 900.0, 7), 180, 30),
             (-0.5 + 1j * np.linspace(100.0, 200.0, 4), 60, 17)]
    s = np.concatenate([p[0] for p in parts])
    M = np.repeat([p[1] for p in parts], [p[0].size for p in parts])
    K = np.repeat([p[2] for p in parts], [p[0].size for p in parts])
    apart = np.concatenate([zeta._em_tail(*p) for p in parts])
    order = np.random.default_rng(5).permutation(s.size)
    together = zeta._em_tail(s[order], M[order], K[order])
    assert np.array_equal(together.view(np.uint64),
                          apart[order].view(np.uint64))


def test_em_plan_reads_the_remainder_logs_once(monkeypatch):
    calls = []
    log_remainder = zeta._em_log_remainder

    def spy(sigma, tmax):
        calls.append((sigma, tmax))
        return log_remainder(sigma, tmax)

    monkeypatch.setattr(zeta, "_em_log_remainder", spy)
    M, K, bound = zeta._em_plan(0.5, 1e3, 1e-12)
    assert len(calls) == 1
    assert bound == _em_remainder(0.5, 1e3, M, K)
    calls.clear()
    zeta._em_batch(0.6, np.array([100.0, 120.0]))
    zeta._em_sigma_grid(np.array([2.0, 1.0, 0.5]), 300.0)
    zeta.hardy_z_near(np.array([100.0, 300.0]), 0.05, 1e-12)
    assert len(calls) == 4                   # 1 + 1 + one per group


def test_em_empty_batches():
    none = np.empty(0)
    assert zeta._em_tail(none + 0j, 24, 3).shape == (0,)
    assert zeta._em_tail(none + 0j, none.astype(np.intp),
                         none.astype(np.intp)).shape == (0,)
    vals, bounds = zeta._em_batch(0.5, none)
    assert vals.shape == bounds.shape == (0,)
    vals, errs = zeta.hardy_z_near(np.array([100.0]), 0.05, 1e-12)(
        none, none.astype(np.intp))
    assert vals.shape == errs.shape == (0,)


@pytest.mark.parametrize("t", [0.0, 1e3, 2e5])
def test_em_unreachable_target_raises(t):
    with pytest.raises(errors.PrecisionUnreachable):
        zeta._em_batch(0.5, np.array([t]), target=1e-300)


@pytest.mark.parametrize("s,exact", [(-1.0, -1.0 / 12.0), (0.0, -0.5)])
def test_em_at_a_vanishing_pochhammer_factor(s, exact):
    # s + j = 0 for some j: the remainder is zero, and no log(0) warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zv = zeta_em(s, DEFAULT)
    assert abs(complex(zv) - exact) <= zv.abs_error <= 1e-12


def test_theta_against_loggamma_oracle():
    for t in (10.0, 50.0, 444.4, 1e4, 2e5):
        oracle = float(mpmath.im(mpmath.loggamma(0.25 + 0.5j * t))
                       - 0.5 * t * mpmath.log(mpmath.pi))
        assert abs(rs_theta(t) - oracle) <= max(rs_theta_error_bound(t),
                                                1e-11 * max(1.0, abs(oracle)))


@pytest.mark.parametrize("t", [30.0, 1e3, 5e4, 2e5])
def test_theta_longdouble_matches_mpmath(t):
    v = _rs_theta_ld(np.array([t]))[0]
    head = float(v)
    # head + tail is the longdouble value exactly
    got = mpmath.mpf(head) + mpmath.mpf(float(v - np.longdouble(head)))
    oracle = mpmath.siegeltheta(t)
    tol = 4 * float(np.finfo(np.longdouble).eps) * abs(float(oracle)) \
        + rs_theta_error_bound(t)
    assert abs(float(got - oracle)) <= tol


_EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("t", [0.0, 0.5, -0.5, 3.0, 7.5, 9.999])
def test_theta_below_ten_matches_mpmath(t):
    # below THETA_T_MIN theta comes from _loggamma, shift and Stirling
    got = float(zeta._theta_any(np.array([t]))[0])
    oracle = mpmath.siegeltheta(t)
    tol = 4 * _EPS * abs(float(oracle)) + zeta._LOGGAMMA_BOUND
    assert abs(float(mpmath.mpf(got) - oracle)) <= tol


@pytest.mark.parametrize("sigma", [0.6, 0.75])
@pytest.mark.parametrize("t", [30.0, 1e3, 3.5e4])
def test_log_chi_matches_mpmath(sigma, t):
    got = complex(zeta._log_chi(np.array([complex(sigma, t)]))[0])
    s = mpmath.mpc(sigma, t)
    oracle = ((s - 0.5) * mpmath.log(mpmath.pi)
              + mpmath.loggamma((1 - s) / 2) - mpmath.loggamma(s / 2))
    tol = 4 * _EPS * abs(complex(oracle)) + 2 * zeta._LOGGAMMA_BOUND
    assert abs(complex(mpmath.mpc(got) - oracle)) <= tol


@pytest.mark.parametrize("z", [-2.5 + 0.3j, -7.3 - 4j, -0.5 + 20j,
                               -30.2 + 0.7j])
def test_loggamma_principal_branch_left_of_zero(z):
    # the shift crosses Re z = 0: its args must sum to the principal branch
    got = complex(zeta._loggamma(np.array([z]))[0])
    oracle = complex(mpmath.loggamma(z))
    assert abs(got - oracle) <= 1e-12 * abs(oracle)


def test_b2k_over_fact_correctly_rounded():
    with mpmath.workdps(60):
        exact = [float(mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k))
                 for k in range(33)]
    assert zeta._B2K_OVER_FACT.tolist() == exact


def test_theta_array_matches_scalar():
    ts = np.array([15.0, 100.0, 987.6])
    arr = zeta._theta_any(ts)
    for t, v in zip(ts, arr):
        assert v == rs_theta(float(t))


def test_theta_coefficients_correctly_rounded():
    with mpmath.workdps(50):
        exact = [float((1 - mpmath.mpf(2) ** (1 - 2 * n))
                       * abs(mpmath.bernoulli(2 * n)) / (4 * n * (2 * n - 1)))
                 for n in range(1, zeta._THETA_N + 2)]
    assert zeta._THETA_C.tolist() == exact


def _theta_tol(t: float, oracle) -> float:
    """float64 rounding of theta, plus the truncation of whichever path
    serves t."""
    trunc = zeta._LOGGAMMA_BOUND if abs(t) < zeta.THETA_T_MIN \
        else rs_theta_error_bound(t)
    return 4 * _EPS * abs(float(oracle)) + trunc


@pytest.mark.parametrize("t", [9.99, 10.0, 10.01])
def test_theta_across_the_switch(t):
    # the log Gamma path below 10, the expansion from 10 on; odd in t
    got = zeta._theta_any(np.array([t, -t]))
    assert got[1] == -got[0]
    oracle = mpmath.siegeltheta(t)
    assert abs(float(mpmath.mpf(got[0]) - oracle)) <= _theta_tol(t, oracle)
    # no jump at the switch beyond the two paths' error bounds
    below = float(zeta._theta_any(np.nextafter(10.0, 0.0)))
    at = float(zeta._theta_any(10.0))
    assert abs(at - below) <= (_theta_tol(9.99, at) + _theta_tol(10.0, at)
                               + 2 * _EPS * 10.0)


def test_theta_int_min_matches_mpmath():
    with mpmath.workdps(30):
        oracle = mpmath.quad(mpmath.siegeltheta, [0, 5, 10])
        got = zeta._THETA_INT_MIN
        head = float(got)
        got = mpmath.mpf(head) + mpmath.mpf(float(got - np.longdouble(head)))
        assert abs(got - oracle) <= 1e-18


@pytest.mark.parametrize("t", [10.0, 14.13, 500.0, 5e3, 1e5])
def test_theta_integral_matches_mpmath(t):
    v = zeta._theta_integral(t)
    head = float(v)
    with mpmath.workdps(30):
        got = mpmath.mpf(head) + mpmath.mpf(float(v - np.longdouble(head)))
        oracle = mpmath.quad(mpmath.siegeltheta, [0, 10, t])
        # longdouble rounding, plus the integral of the expansion's
        # exponentially small error over [10, t]
        tol = 8 * float(np.finfo(np.longdouble).eps) * abs(float(oracle)) \
            + math.exp(-10 * math.pi) / math.pi
        assert abs(float(got - oracle)) <= tol


def test_theta_integral_rejects_small_t():
    with pytest.raises(ValueError):
        zeta._theta_integral(9.5)


def _mp_rotation(t: float) -> complex:
    """exp(i theta(t)) from mpmath.siegeltheta, reduced mod 2 pi."""
    return complex(mpmath.expj(mpmath.siegeltheta(t) % (2 * mpmath.pi)))


_HALFWAY = st.integers(240, 1_600_000).map(lambda k: (k + 0.5) / 8)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(min_value=30.0, max_value=2e5), _HALFWAY))
@example(30.0625)                       # halfway between 30 and 30.125
@example(2e5 - 0.0625)
def test_rs_rotation_from_anchors(t):
    # t, the heights halfway to both neighbouring anchors, and a far one
    ts = np.array([t, t + 0.0625, max(30.0, t - 0.0625), t + 0.3, 31.0])
    cos_t, sin_t, err = zeta._rs_rotation(ts)
    rot = cos_t + 1j * sin_t
    per_point = np.exp(
        1j * (_rs_theta_ld(ts) % phases.TWO_PI_LD).astype(float))
    assert np.all(np.abs(rot - per_point) <= err)
    for k in range(ts.size):
        assert abs(rot[k] - _mp_rotation(float(ts[k]))) <= err[k]
        assert err[k] >= rs_theta_error_bound(ts[k])


def test_rs_theta_reduced_only_at_anchors(monkeypatch):
    ts = np.linspace(5000.0, 5010.0, 2001)
    sizes = []
    theta_ld = zeta._rs_theta_ld

    def spy(a):
        sizes.append(a.size)
        return theta_ld(a)

    monkeypatch.setattr(zeta, "_rs_theta_ld", spy)
    assert zeta._rs_tried(ts, 1e-6, DEFAULT)[2].all()
    hardy_z_batch(ts, 1e-6)
    assert sizes == [81]                # 5000, 5000.125, ..., 5010


@pytest.mark.parametrize("t", [35.0, 101.5, 999.9, 12345.6, 150000.0])
def test_hardy_z_matches_mpmath(t):
    zv = hardy_z(t, DEFAULT)
    oracle = float(mpmath.siegelz(t))
    assert abs(float(zv) - oracle) <= max(zv.abs_error, 5e-11)


#: C_k as the sum of Psi^(n) / (d pi^e) over its (n, d, e), with
#: Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p (Edwards, Riemann's Zeta
#: Function, ch. 7).
_RS_CLOSED_FORM = (
    ((0, 1, 0),),
    ((3, -96, 2),),
    ((2, 64, 2), (6, 18432, 4)),
    ((1, -64, 2), (5, -3840, 4), (9, -5308416, 6)),
)


def _psi(p):
    """Psi(p) at the working precision of mpmath."""
    pi = mpmath.pi
    return mpmath.cos(2 * pi * (p * p - p - mpmath.mpf(1) / 16)) \
        / mpmath.cos(2 * pi * p)


def _rs_closed_form(k: int, p: float) -> float:
    """C_k(p) to 40 digits, the derivatives of Psi by mpmath.diff."""
    with mpmath.workdps(40):
        return float(sum(mpmath.diff(_psi, mpmath.mpf(p), n)
                         / (d * mpmath.pi ** e)
                         for n, d, e in _RS_CLOSED_FORM[k]))


@functools.lru_cache(maxsize=None)
def _psi_taylor():
    """Psi's Taylor coefficients in p - 1/2 to degree 80, at 50 digits.
    In x = 2p - 1 the last is 3e-46, and the terms past it would move
    the economized C3, the most sensitive, by under 1e-20 relative."""
    with mpmath.workdps(50):
        return mpmath.taylor(_psi, mpmath.mpf(1) / 2, 80)


def _rs_economized(k: int):
    """(a, tail, off) for C_k, derived as ``zeta._RS_CHEBS`` was: the
    coefficients in powers of x^2 (x = 2p - 1, times x for odd k) of
    C_k's Taylor series economized at 2^-53, the sum of the |Chebyshev
    coefficients| dropped, and the largest Taylor term of the other
    parity."""
    t = _psi_taylor()
    deg = len(t) - 1
    odd = k % 2
    with mpmath.workdps(50):
        # Psi^(n)(p) = sum over j >= n of t_j j!/(j - n)! (x/2)^(j - n)
        series = np.array([mpmath.mpf(0)] * (deg + 1), dtype=object)
        for n, d, e in _RS_CLOSED_FORM[k]:
            for j in range(n, deg + 1):
                series[j - n] += t[j] * mpmath.ff(j, n) \
                    / (2 ** (j - n) * d * mpmath.pi ** e)
        off = max(np.abs(series[1 - odd::2]))
        cheb = np.polynomial.chebyshev.poly2cheb(series)
        mass = np.abs(cheb)
        # dropped[j]: the mass past degree j
        dropped = np.append(np.cumsum(mass[::-1])[::-1][1:], 0)
        cut = next(j for j in range(odd, cheb.size, 2)
                   if dropped[j] <= mass.sum() * mpmath.mpf(2) ** -53)
        kept = np.where(np.arange(cut + 1) % 2 == odd, cheb[:cut + 1], 0)
        a = np.polynomial.chebyshev.cheb2poly(kept)[odd::2]
        tail = dropped[cut] + mass[1 - odd:cut + 1:2].sum()
    return a, tail, off


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_rs_coefficients_derive_from_psi(k):
    a, tail, off = _rs_economized(k)
    got = zeta._RS_CHEBS[k]
    assert got.size == a.size
    want = np.array([float(c) for c in a])
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    assert zeta._RS_TAILS[k] >= tail
    assert off < 1e-40
    assert zeta._RS_POLYS[k][0] is got
    assert zeta._RS_POLYS[k][2] == (k % 2 == 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_rs_correction_matches_closed_form(k):
    ps = np.union1d(np.linspace(0.0, 1.0, 23), [0.0, 0.5, 1.0])
    got = zeta._rs_correction(k, 2.0 * ps - 1.0)
    ref = np.array([_rs_closed_form(k, p) for p in ps.tolist()])
    assert np.max(np.abs(got - ref)) <= 1e-14


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_rs_correction_within_its_bound_of_closed_form(k):
    # 59 points with both ends, none on p = 1/4 or 3/4, where Psi is 0/0
    ps = np.linspace(0.0, 1.0, 59)
    got = zeta._rs_correction(k, 2.0 * ps - 1.0)
    ref = np.array([_rs_closed_form(k, p) for p in ps.tolist()])
    assert np.max(np.abs(got - ref)) <= zeta._RS_POLYS[k][1]


@pytest.mark.parametrize("n_corr", [1, 2, 3, 4])
def test_rs_corrections_sum_by_powers_of_tau(n_corr):
    taus = np.array([2.3, 3.0, 5.6, 12.5, 40.05])     # p not near 1/4, 3/4
    corr, err = zeta._rs_corrections(taus, n_corr)
    for tau, c, e in zip(taus.tolist(), corr, err):
        p = tau - math.floor(tau)
        ref = sum(_rs_closed_form(k, p) * tau ** -k for k in range(n_corr))
        assert abs(c - ref) <= 1e-14
        assert e == pytest.approx(sum(zeta._RS_POLYS[k][1] * tau ** -k
                                      for k in range(n_corr)))


@pytest.mark.parametrize("n_corr", [2, 3, 4])
def test_rs_error_bound_conservative(n_corr):
    # the fitted correction-term coefficients must over-cover reality
    cfg = PrecisionConfig(target_abs_error=1e-6, quad_tol=1e-3,
                          rs_correction_terms=n_corr)
    ts = np.geomspace(35.0, 2e5, 60)
    vals, bounds = hardy_z_batch(ts, 1e-3, cfg)
    for t, v, b in zip(ts, vals, bounds):
        assert abs(v - float(mpmath.siegelz(float(t)))) <= b


@pytest.mark.parametrize("ts", [
    np.linspace(5000.0, 5010.0, 2001),
    20000.3 + 0.013 * np.arange(1500),
    1e3 + 0.05 * GK15_NODES,
    np.geomspace(35.0, 2e5, 40),
], ids=["linspace", "arange", "gk", "lone"])
def test_rs_on_phase_kernel_matches_mpmath(ts):
    # one truncation group on a grid (twice), one cluster, and heights
    # each in a group of its own, all by Riemann-Siegel
    assert zeta._rs_tried(ts, 1e-3, DEFAULT)[2].all()
    vals, bounds = hardy_z_batch(ts, 1e-3)
    K = ts.size
    for k in np.unique(np.r_[1, K - 2, np.linspace(0, K - 1, 15)]
                       .astype(int)).tolist():
        err = abs(vals[k] - float(mpmath.siegelz(float(ts[k]))))
        assert err <= bounds[k], (k, err, bounds[k])


def _truncation_edges(Ns):
    """2 pi N^2 and its float neighbours on either side, for each N."""
    t = 2.0 * math.pi * np.asarray(Ns, dtype=float) ** 2
    return np.concatenate([np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)])


@pytest.mark.parametrize("exponents", [(0.5,), (0.6, 0.4)],
                         ids=["rs", "afe"])
@pytest.mark.parametrize("kind", ["edges", "spread", "empty", "one"])
def test_truncated_sums_take_each_heights_own_truncation(kind, exponents):
    # at and either side of each 2 pi N^2 a height summed to the wrong N
    # is off by about N^(-e), far beyond both bounds
    rng = np.random.default_rng(24)
    ts = {"edges": np.concatenate([_truncation_edges(range(7, 15)),
                                   rng.uniform(300.0, 1300.0, 200)]),
          "spread": rng.uniform(300.0, 1300.0, 300),
          "empty": np.array([]),
          "one": np.array([2.0 * math.pi * 100.0])}[kind]
    sums, bounds = phases.truncated_sums(
        ts, np.floor(zeta._rs_tau(ts)), exponents)
    assert sums.shape == bounds.shape == (len(exponents), ts.size)
    for k, t in enumerate(ts.tolist()):
        N = math.floor(math.sqrt(t / (2.0 * math.pi)))
        n = np.arange(1, N + 1)
        for row, e in enumerate(exponents):
            ref, ref_bound = phases.phase_sum(n, n ** -float(e), np.array([t]))
            assert abs(sums[row, k] - ref[0]) <= bounds[row, k] + ref_bound, \
                (t, N, e)
            if k % 7 == 0:      # the bound alone, against 30 digits
                exact = complex(mpmath.fsum(
                    mpmath.mpf(m) ** -e * mpmath.expj(-t * mpmath.log(m))
                    for m in range(1, N + 1)))
                assert abs(sums[row, k] - exact) <= bounds[row, k], (t, N, e)


def test_rs_sum_is_one_cluster_pass_over_all_truncations(monkeypatch):
    # heights over N = 7..14 make one moment build, not one per N
    ts = np.linspace(2.0 * math.pi * 49.0 + 1.0,
                     2.0 * math.pi * 225.0 - 1.0, 3000)
    assert np.unique(np.floor(np.sqrt(ts / (2.0 * math.pi)))).tolist() \
        == list(range(7, 15))
    calls = []
    moments = phases._cluster_moments

    def spy(*args, **kwargs):
        calls.append(None)
        return moments(*args, **kwargs)

    monkeypatch.setattr(phases, "_cluster_moments", spy)
    zeta._rs_z_rounded(ts, 4)
    assert len(calls) == 1


def test_afe_builds_its_phases_once_per_moment_block(monkeypatch):
    # both exponents and every truncation share one phase build per
    # block of centres; the chunk is cut so that there are several blocks
    ts = np.geomspace(300.0, 1300.0, 500)
    monkeypatch.setattr(phases, "_CHUNK", 2000)
    blocks, built = [], []
    moments, unit_phases = phases._cluster_moments, phases.unit_phases

    def moments_spy(logs, amps, centre_phases, bounds, rho, J, terms=None):
        blocks.append(bounds.size - 1)
        return moments(logs, amps, centre_phases, bounds, rho, J, terms)

    def phases_spy(ts_ld, ns):
        built.append(ts_ld.size)
        return unit_phases(ts_ld, ns)

    monkeypatch.setattr(phases, "_cluster_moments", moments_spy)
    monkeypatch.setattr(phases, "unit_phases", phases_spy)
    zeta.zeta_afe_batch(0.6, ts)
    assert len(blocks) == 1 and blocks[0] > 1
    assert len(built) == blocks[0]


@pytest.mark.parametrize("N", [8, 12])
def test_rs_bound_covers_mpmath_across_a_truncation_change(N, monkeypatch):
    cfg = PrecisionConfig(target_abs_error=1e-6, quad_tol=1e-3,
                          rs_correction_terms=4)
    t0 = 2.0 * math.pi * N * N
    ts = np.sort(np.concatenate([
        _truncation_edges([N]),
        t0 + np.array([-0.5, -1e-3, -1e-9, 1e-9, 1e-3, 0.5])]))

    def no_em(*args, **kwargs):
        raise AssertionError("left Riemann-Siegel")

    monkeypatch.setattr(zeta, "_em_batch", no_em)
    vals, bounds = hardy_z_batch(ts, 1e-6, cfg)
    for t, v, b in zip(ts.tolist(), vals, bounds):
        assert abs(v - float(mpmath.siegelz(t))) <= b <= 1e-6, t


def test_hardy_z_batch_agrees_with_em():
    ts = np.linspace(31.0, 4000.0, 400)
    vals, bounds = hardy_z_batch(ts, 1e-8, DEFAULT)
    for t, v, b in zip(ts[::37], vals[::37], bounds[::37]):
        em = zeta_em(complex(0.5, t), DEFAULT)
        assert abs(abs(v) - abs(complex(em))) <= b + em.abs_error


def test_hardy_z_batch_keeps_rs_only_within_the_tolerance(monkeypatch):
    # rs_error_bound alone meets 1e-11 here, but the rounding of the sum
    # in the bound RS returns does not (3.4e-11 and 8.0e-11), so both
    # heights must go to Euler-Maclaurin
    ts, abs_tol = np.array([1e5, 2e5]), 1e-11
    assert np.all(rs_error_bound(ts, 4) <= abs_tol)
    to_em = []
    em_batch = zeta._em_batch

    def spy(sigma, heights, cfg=DEFAULT, target=None):
        to_em.extend(np.asarray(heights).tolist())
        return em_batch(sigma, heights, cfg, target)

    monkeypatch.setattr(zeta, "_em_batch", spy)
    vals, bounds = hardy_z_batch(ts, abs_tol, DEFAULT)
    for t, v, b in zip(ts.tolist(), vals, bounds):
        assert abs(v - float(mpmath.siegelz(t))) <= b
        assert b <= abs_tol or t in to_em, (t, b)
    assert to_em == ts.tolist()


@pytest.mark.parametrize("ts", [[-5.0, 20.0], [-5.0], [math.nan, 20.0],
                                [math.inf]],
                         ids=["negative", "negative-alone", "nan", "inf"])
def test_hardy_z_batch_refuses_negative_or_nonfinite_heights(ts):
    # its Euler-Maclaurin chunks run by octave from 0, so such a height
    # would never be evaluated
    with pytest.raises(ValueError):
        hardy_z_batch(np.array(ts), 1e-12, DEFAULT)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_zeta_em_and_log_zeta_branch_refuse_nonfinite_input(x):
    # past the checks _em_plan would meet int(inf), or a bound M <= nan
    for f in (lambda: zeta_em(complex(0.5, x)),
              lambda: zeta_em(complex(x, 10.0)),
              lambda: log_zeta_branch(0.5, x),
              lambda: log_zeta_branch(x, 10.0)):
        with pytest.raises(ValueError, match="finite"):
            f()


def test_em_plan_is_capped():
    # 5.2e11 terms at sigma = 100, t = 1e300, and 2.8e8 at t = 1e9: both
    # past _EM_M_MAX, refused before anything is allocated
    for sigma, t in ((100.0, 1e300), (0.5, 1e9)):
        with pytest.raises(errors.PrecisionUnreachable, match="4194304"):
            zeta._em_plan(sigma, t, 1e-12)
    assert zeta._em_plan(-1.0, 1e7, 1e-14)[0] <= zeta._EM_M_MAX


def test_zeta_em_refuses_a_bound_that_is_not_finite():
    # at sigma = t = 1e300, M^(-sigma) underflows to 0 while the tail's
    # rounding term overflows: their product made the bound nan
    with pytest.raises(errors.PrecisionUnreachable, match="finite"):
        zeta_em(complex(1e300, 1e300))


def _near_points(ev, xs):
    """Heights c + x * radius about every centre of ``ev``, each x in xs,
    moved in by an ulp where the sum rounds out of the disk, and the index
    of each height's centre."""
    idx = np.repeat(np.arange(ev.centres.size), len(xs))
    c, r = ev.centres[idx], ev.radius[idx]
    ts = c + r * np.tile(xs, ev.centres.size)
    return np.where(np.abs(ts - c) > r, np.nextafter(ts, c), ts), idx


@pytest.mark.parametrize("T", [100.0, 1000.0, 5000.0])
def test_hardy_z_near_matches_mpmath_within_batch_bound(T):
    # eight touching disks, each half a scan step at 8 per Gram interval
    # plus the stencil, together longer than a cluster of hardy_z_batch:
    # one Newton round of the zero solve
    R = math.pi / (8.0 * math.log(T / (2.0 * math.pi))) + 2e-5
    ev = zeta.hardy_z_near(T + 2.0 * R * np.arange(8), R, 1e-12)
    assert np.all(ev.radius == R)
    ts, idx = _near_points(ev, [-1.0, 0.3, 1.0])
    vals, bounds = ev(ts, idx)
    with mpmath.workdps(20):
        ref = np.array([float(mpmath.siegelz(t)) for t in ts])
    assert np.all(np.abs(vals - ref) <= bounds)
    assert np.all(bounds <= hardy_z_batch(ts, 1e-12)[1])


@pytest.mark.parametrize("T", [100.0, 1000.0, 5000.0])
def test_hardy_z_near_caps_its_radius(T):
    # a radius of 5 is cut to the cluster radius 3/log(M - 1): r = 3
    ev = zeta.hardy_z_near(np.array([T]), 5.0, 1e-12)
    M, K = zeta._em_plan(0.5, T + 5.0, 1e-12)[:2]
    lmax = float(np.log(M - 1.0))
    rho = float(ev.radius[0])
    assert rho == phases._CLUSTER_R / lmax
    # its bound: the EM remainder and the cluster path's bound at
    # |x| <= 1, whose Taylor tail is at least the exact one
    n = np.arange(1, M)
    amps = n ** -0.5
    amp_sum = float(amps.sum())
    r, J = rho * lmax, ev._mom.shape[1]
    with mpmath.workdps(30):
        tail = amp_sum * float(mpmath.exp(r) - mpmath.fsum(
            mpmath.mpf(r) ** j / mpmath.factorial(j) for j in range(J)))
    expect = (_em_remainder(0.5, T + 5.0, M, K)
              + phases.phase_roundoff(T + 5.0, lmax, amp_sum)
              + phases.PRODUCT_ROUNDOFF
              * float(amps @ phases.factor_plan(n).products)
              + phases.phase_roundoff(0.0, 0.0, amp_sum) * math.expm1(r)
              + tail)
    assert expect <= ev.bound[0] <= expect + tail
    ts, idx = _near_points(ev, [-1.0, 1.0])
    vals, bounds = ev(ts, idx)
    with mpmath.workdps(20):
        ref = np.array([float(mpmath.siegelz(t)) for t in ts])
    assert np.all(np.abs(vals - ref) <= bounds)
    for t in (T - 1.001 * rho, T + 1.001 * rho, math.nan):
        with pytest.raises(ValueError, match="outside"):
            ev(np.array([t]), np.array([0]))


def test_near_z_takes_one_tail_pass_per_call(monkeypatch):
    # centres in three octave groups, one (M, K) each; one tail pass and
    # one Horner pass serve them all
    ev = zeta.hardy_z_near(np.array([100.0, 300.0, 1000.0]), 0.05, 1e-12)
    assert len(set(zip(ev._M.tolist(), ev._K.tolist()))) == 3
    ts, idx = _near_points(ev, [-1.0, 0.5, 1.0])
    calls = []
    tail, horner = zeta._em_tail, phases.cluster_horner

    def spy(fn):
        def call(*args):
            calls.append((fn.__name__, args[-1].size))
            return fn(*args)
        return call

    monkeypatch.setattr(zeta, "_em_tail", spy(tail))
    monkeypatch.setattr(phases, "cluster_horner", spy(horner))
    vals, errs = ev(ts, idx)
    assert sorted(calls) == [("_em_tail", ts.size),
                             ("cluster_horner", ts.size)]
    with mpmath.workdps(20):
        ref = np.array([float(mpmath.siegelz(t)) for t in ts])
    assert np.all(np.abs(vals - ref) <= errs)


def test_hardy_z_near_leaves_riemann_siegel_heights_to_the_batch():
    # at 1e-9 hardy_z_batch tries RS at t = 2e4 but not at 100
    ev = zeta.hardy_z_near(np.array([100.0, 2e4]), 0.05, 1e-9)
    assert ev.radius.tolist() == [0.05, -1.0]
    ts = np.array([100.01, 2e4 + 0.01])
    assert ev.serves(ts, np.arange(2)).tolist() == [True, False]
    with pytest.raises(ValueError, match="outside"):
        ev(ts[1:], np.array([1]))


def test_em_batch_truncates_by_the_largest_abs_height():
    ts = np.array([-300.0, 20.0])
    vals, bounds = zeta._em_batch(0.6, ts)
    for t, v, b in zip(ts.tolist(), vals, bounds):
        assert abs(v - _mp_zeta(complex(0.6, t))) <= b


def test_log_abs_and_branch_consistency():
    ts = np.array([21.0, 143.111, 5005.5])
    z, _ = hardy_z_batch(ts, DEFAULT.target_abs_error, DEFAULT)
    for t, direct in zip(ts.tolist(), np.log(np.abs(z)).tolist()):
        branch = log_zeta_branch(0.5, t, DEFAULT)
        assert abs(direct - branch.real) < 1e-10
        oracle = complex(mpmath.log(mpmath.zeta(0.5 + 1j * t)))
        assert abs(direct - oracle.real) < 1e-10


def test_log_zeta_branch_anchors_on_its_own_grid(monkeypatch):
    # sigma = 1/2, t = 100.3 needs no step halving: one sigma grid, whose
    # node at sigma = 2 is the anchor, and no separate zeta(2 + it)
    calls = []
    grid, batch = zeta._em_sigma_grid, zeta._em_batch

    def grid_spy(*args, **kwargs):
        calls.append("grid")
        return grid(*args, **kwargs)

    def batch_spy(*args, **kwargs):
        calls.append("batch")
        return batch(*args, **kwargs)

    monkeypatch.setattr(zeta, "_em_sigma_grid", grid_spy)
    monkeypatch.setattr(zeta, "_em_batch", batch_spy)
    log_zeta_branch(0.5, 100.3, DEFAULT)
    assert calls == ["grid"]


@pytest.mark.parametrize("t", [0.0, 100.3, 5000.5])
def test_log_zeta_branch_at_two_is_principal(t):
    got = log_zeta_branch(2.0, t, DEFAULT)
    oracle = complex(mpmath.log(mpmath.zeta(mpmath.mpc(2.0, t))))
    assert abs(got - oracle) <= 1e-12


def test_log_zeta_branch_winding_oracle():
    # mpmath's principal log can differ by 2 pi k; the continuous branch
    # must make S(t) = Im/pi consistent with the counting formula
    t = 100.0
    br = log_zeta_branch(0.5, t, DEFAULT)
    s = br.imag / math.pi
    n = round(rs_theta(t) / math.pi + 1.0 + s)
    assert n == 29


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=12.0, max_value=3000.0),
       st.floats(min_value=0.5, max_value=2.5))
def test_conjugate_symmetry(t, sigma):
    plus = complex(zeta_em(complex(sigma, t), DEFAULT))
    minus = complex(zeta_em(complex(sigma, -t), DEFAULT))
    assert abs(plus.conjugate() - minus) <= 1e-11 * max(1.0, abs(plus))


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=31.0, max_value=50_000.0))
def test_z_is_real_and_bound_positive(t):
    zv = hardy_z(t, DEFAULT)
    assert np.isreal(float(zv))
    assert zv.abs_error > 0
    assert rs_error_bound(np.array([t]), 2)[0] > 0


# ----------------------------------------------------------------------
# Uniform-grid path of the phase-sum kernel
# ----------------------------------------------------------------------

def _grid(kind, t0, dx, K):
    if kind == "linspace":
        return np.linspace(t0, t0 + dx * (K - 1), K)
    return t0 + dx * np.arange(K)


@pytest.mark.parametrize("sigma", [0.6, 2.0])
@pytest.mark.parametrize("t0,dx,K", [(1000.3, 0.05, 2001),
                                     (20000.1, 0.013, 150)])
@pytest.mark.parametrize("kind", ["linspace", "arange"])
def test_em_grid_path_matches_mpmath(sigma, t0, dx, K, kind):
    ts = _grid(kind, t0, dx, K)
    assert phases._as_progression(ts) is not None    # takes the blocked path
    vals, bounds = zeta._em_batch(sigma, ts)
    for k in (0, 1, K // 3, K - 2, K - 1):
        err = abs(vals[k] - _mp_zeta(complex(sigma, ts[k])))
        assert err <= bounds[k]
        assert err <= 1e-12


@pytest.mark.parametrize("sigma", [0.6, 2.0])
def test_em_grid_path_matches_direct_path(sigma):
    ts = np.linspace(1000.0, 1100.0, 1201)
    off = ts.copy()
    off[600] += 1e-7                  # one point off the progression
    assert phases._as_progression(off) is None
    grid, gb = zeta._em_batch(sigma, ts)
    direct, db = zeta._em_batch(sigma, off)
    keep = np.arange(ts.size) != 600
    assert np.all(np.abs(grid - direct)[keep] <= (gb + db)[keep])


def test_em_grid_path_in_row_chunks(monkeypatch):
    ts = np.linspace(1000.0, 1100.0, 1201)
    whole, wb = zeta._em_batch(0.6, ts)
    # 268 terms: J is capped at 29 (35 uncapped) and the 42 block rows
    # come in 3 chunks
    monkeypatch.setattr(phases, "_CHUNK", 8000)
    sizes = []
    unit_phases = phases.unit_phases

    def spy(ts_ld, ns):
        sizes.append(ts_ld.size)       # J first, then each chunk's rows
        return unit_phases(ts_ld, ns)

    monkeypatch.setattr(phases, "unit_phases", spy)
    part, pb = zeta._em_batch(0.6, ts)
    assert sizes[0] < math.isqrt(ts.size - 1) + 1
    assert len(sizes) - 1 > 1
    assert np.all(np.abs(whole - part) <= wb + pb)


@pytest.mark.parametrize("ts", [
    np.array([1234.5]),
    np.array([1234.5, 1234.75]),
    np.array([1234.5, 1234.75, 1235.0]),
    np.linspace(1010.0, 1000.0, 301),          # descending
    np.full(50, 1234.5),                       # step 0
], ids=["K1", "K2", "K3", "descending", "step0"])
def test_em_batch_grid_edge_cases_match_mpmath(ts):
    sigma = 0.6
    vals, bounds = zeta._em_batch(sigma, ts)
    for k in sorted({0, ts.size // 2, ts.size - 1}):
        err = abs(vals[k] - _mp_zeta(complex(sigma, ts[k])))
        assert err <= bounds[k]
        assert err <= 1e-12


def test_afe_grid_path_matches_pointwise():
    ts = np.linspace(31_000.0, 31_050.0, 2001)
    assert phases._as_progression(ts) is not None
    vals, _ = zeta.zeta_afe_batch(0.6, ts)
    for k in (0, 777, 2000):
        one, _ = zeta.zeta_afe_batch(0.6, ts[k:k + 1])
        # the single point is a cluster of one, ~4e-15 off the grid
        # path here; a grouping or conjugation slip would show at the
        # size of the sums, far above 1e-10
        assert abs(vals[k] - one[0]) <= 1e-10


# ----------------------------------------------------------------------
# Cluster path of the phase-sum kernel
# ----------------------------------------------------------------------

def _direct_sum(ns, amps, ts):
    """sum_n a_n exp(-i t log n), phases reduced by a longdouble 2 pi."""
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    logs = np.log(np.asarray(ns).astype(np.longdouble))
    ph = ((np.asarray(ts, dtype=np.longdouble)[:, None] * logs[None, :])
          % two_pi).astype(float)
    re = (amps[None, :] * np.cos(ph)).sum(axis=1)
    return re - 1j * (amps[None, :] * np.sin(ph)).sum(axis=1)


def _em_terms(sigma, M):
    n = np.arange(1, M)
    return n, n ** (-sigma)


@pytest.mark.parametrize("t", [150.0, 1200.0, 2e4])
@pytest.mark.parametrize("sigma", [0.5, 0.6, 2.0])
def test_em_clusters_match_mpmath(sigma, t):
    h = 1e-5
    calls = {f"gk{w}": t + w * GK15_NODES for w in (0.5, 0.07, 1e-3)}
    calls["triplet"] = t + np.array([0.0, h, -h])      # as _solve_brackets
    calls["stencil"] = t + np.array([-2.0, -1.0, 1.0, 2.0]) * 1e-4
    calls["lone"] = np.array([t])
    for name, ts in calls.items():
        vals, bounds = zeta._em_batch(sigma, ts)
        for k in sorted({0, ts.size // 2, ts.size - 1}):
            err = abs(vals[k] - _mp_zeta(complex(sigma, ts[k])))
            assert err <= bounds[k], name
            assert err <= 1e-12, name


def test_cluster_path_input_order_and_repeats():
    # unsorted, one height repeated, two clusters and a lone height
    ns, amps = _em_terms(0.6, 400)
    ts = np.array([1000.4, 1000.1, 1005.0, 1000.4, 1000.25, 1000.9,
                   1000.7])
    vals, bound = phases.phase_sum(ns, amps, ts)
    assert np.all(np.abs(vals - _direct_sum(ns, amps, ts)) <= bound)
    rev, _ = phases.phase_sum(ns, amps, ts[::-1])
    assert np.all(np.abs(rev[::-1] - vals) <= 2 * bound)
    assert vals[0] == vals[3]


@pytest.mark.parametrize("ts", [np.array([]), np.array([1000.4])],
                         ids=["K0", "K1"])
def test_phase_sum_tiny_inputs(ts):
    ns, amps = _em_terms(0.6, 400)
    vals, bound = phases.phase_sum(ns, amps, ts)
    assert vals.shape == ts.shape
    assert np.all(np.abs(vals - _direct_sum(ns, amps, ts)) <= bound)


def test_isolated_heights_sum_directly():
    # more than 2*rho apart, so every height is a cluster of one
    ns, amps = _em_terms(0.5, 3000)
    ts = np.array([2e4, 150.3, 1200.7, 1201.9])
    vals, bound = phases.phase_sum(ns, amps, ts)
    assert np.all(np.abs(vals - _direct_sum(ns, amps, ts)) <= bound)
    rev, _ = phases.phase_sum(ns, amps, ts[::-1])
    assert np.all(np.abs(rev[::-1] - vals) <= 2 * bound)


def test_low_expansion_order_stays_within_bound(monkeypatch):
    # decide the order against a floor 1e8 times the real one: J drops
    # to about half, and the truncation tail must enter the bound
    ns, amps = _em_terms(0.5, 1200)
    ts = 1000.0 + 0.3 * np.linspace(-1.0, 1.0, 9) ** 3
    exact = _direct_sum(ns, amps, ts)
    full, full_bound = phases.phase_sum(ns, amps, ts)
    orders = []
    taylor_order = phases._taylor_order

    def coarse(r, amp_sum, floor):
        orders.append(taylor_order(r, amp_sum, floor)[0])
        J, tail = taylor_order(r, amp_sum, 1e8 * floor)
        orders.append(J)
        return J, tail

    monkeypatch.setattr(phases, "_taylor_order", coarse)
    low, low_bound = phases.phase_sum(ns, amps, ts)
    assert orders[1] < orders[0]
    err = np.abs(low - exact)
    assert np.max(err) > 100 * full_bound       # the low order shows
    assert np.all(err <= low_bound)
    assert np.all(np.abs(full - exact) <= full_bound)


@settings(max_examples=60, deadline=None)
@given(C=st.integers(1, 8), J=st.integers(1, 32), K=st.integers(0, 60),
       seed=st.integers(0, 2 ** 32 - 1))
@example(C=1, J=1, K=5, seed=0)
@example(C=3, J=27, K=0, seed=1)
@example(C=2, J=27, K=40, seed=2)
def test_cluster_horner_is_the_plain_horner_to_the_bit(C, J, K, seed):
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, J)])    # 1/j!
    mom = (rng.normal(size=(C, J)) + 1j * rng.normal(size=(C, J))) * scale
    cl = rng.integers(0, C, size=K)              # repeats once K > C
    x = rng.uniform(-1.0, 1.0, size=K)
    plain = mom[cl, J - 1]
    for j in range(J - 2, -1, -1):
        plain = plain * (-1j * x) + mom[cl, j]
    fast = phases.cluster_horner(mom, cl, x)
    assert fast.shape == (K,)
    assert np.array_equal(fast.view(np.uint64), plain.view(np.uint64))


def test_cluster_horner_blocks_hold_its_memory(monkeypatch):
    rng = np.random.default_rng(3)
    C, J, K = 4, 20, 50_000
    mom = rng.normal(size=(C, J)) + 1j * rng.normal(size=(C, J))
    cl = rng.integers(0, C, size=K)
    x = rng.uniform(-1.0, 1.0, size=K)
    tracemalloc.start()
    blocked = phases.cluster_horner(mom, cl, x)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the result, and z and one gathered column per block
    assert peak <= blocked.nbytes + 3 * 16 * phases._HORNER_BLOCK + 4096
    monkeypatch.setattr(phases, "_HORNER_BLOCK", 7)
    small = phases.cluster_horner(mom, cl, x)
    assert np.array_equal(small.view(np.uint64), blocked.view(np.uint64))


# ----------------------------------------------------------------------
# Unit phases built from the phases of the bases
# ----------------------------------------------------------------------

def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


@st.composite
def _integer_sets(draw):
    """Prefixes 1..M, divisor-closed sets, and sets whose least factors
    and cofactors are absent, so the kernel must add them."""
    kind = draw(st.sampled_from(["prefix", "divisor-closed", "sparse"]))
    if kind == "prefix":
        M = draw(st.one_of(st.sampled_from([1, 2, 3989, 2048]),
                           st.integers(1, 4000)))
        return np.arange(1, M + 1)
    if kind == "divisor-closed":
        gens = draw(st.lists(st.integers(1, 10 ** 6), min_size=1,
                             max_size=6))
        return np.array(sorted({d for g in gens for d in _divisors(g)}))
    picks = draw(st.lists(st.one_of(st.integers(1, 10 ** 4),
                                    st.integers(1, 10 ** 12)),
                          min_size=1, max_size=40, unique=True))
    return np.array(sorted(picks))


@st.composite
def _heights(draw):
    """A uniform grid, scattered heights or a lone height in [0, 2e5]."""
    kind = draw(st.sampled_from(["grid", "scattered", "lone"]))
    t0 = draw(st.floats(0.0, 2e5))
    if kind == "lone":
        return np.array([t0])
    if kind == "grid":
        K = draw(st.integers(5, 300))
        dt = draw(st.floats(1e-4, 1.0))
        return min(t0, 2e5 - dt * K) + dt * np.arange(K)
    offs = draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
    return np.clip(t0 + np.array(offs), 0.0, 2e5)


@settings(max_examples=60, deadline=None)
@given(_integer_sets(), st.integers(0, 2 ** 32 - 1), _heights())
@example(np.array([1, 6, 35, 221]), 0, np.array([1000.0, 1000.2, 5e4]))
def test_phase_sum_on_integer_sets_within_bound(ns, seed, ts):
    amps = np.random.default_rng(seed).standard_normal(ns.size)
    vals, bound = phases.phase_sum(ns, amps, ts)
    assert np.all(np.abs(vals - _direct_sum(ns, amps, ts)) <= bound)


@pytest.mark.parametrize("ns,n_bases", [
    (np.arange(1, 1001), 168),                 # the primes below 1000
    (np.arange(1, 2), 0),                      # 1 alone: nothing to reduce
    (np.array([1, 6, 35, 221]), 6),            # 2, 3, 5, 7, 13, 17
    (np.array([1, 11, 13, 143, 221, 2431]), 3),  # divisor-closed
    (np.array([1, 10 ** 18 + 9]), 1),          # prime: no factor below 2^10
    (np.array([1, 1031 * 1033]), 1),           # 1031*1033: a composite base
], ids=["prefix", "one", "cofactors-absent", "divisor-closed", "far-out",
        "composite-base"])
def test_only_bases_are_reduced(monkeypatch, ns, n_bases):
    reduced = []
    base_phases = phases._base_phases

    def spy(ts_ld, logs):
        reduced.append(logs.size * ts_ld.size)
        return base_phases(ts_ld, logs)

    monkeypatch.setattr(phases, "_base_phases", spy)
    ts = np.array([1000.0, 2000.0, 3000.0])     # three clusters of one
    vals, bound = phases.phase_sum(ns, np.ones(ns.size), ts)
    assert sum(reduced) == 3 * n_bases
    assert np.all(np.abs(vals - _direct_sum(ns, np.ones(ns.size), ts))
                  <= bound)


@pytest.mark.parametrize("t", [1e3, 1e5])
def test_built_phases_within_per_term_bound(t):
    ns = np.arange(1, 10_001)
    built = phases.unit_phases(np.array([t], dtype=np.longdouble), ns)[0]
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.expj(-t * mpmath.log(n)))
                          for n in ns.tolist()])
    products = phases.factor_plan(ns).products
    bound = (phases.phase_roundoff(t, np.log(ns), 1.0)
             + products * phases.PRODUCT_ROUNDOFF)
    assert products.max() == 12                 # 2^13 <= 10^4
    assert np.all(np.abs(built - exact) <= bound)


def test_far_out_entry_needs_no_sieve_to_it():
    # 10^18 + 9 is prime: trial division stops at 2^10 and leaves it a
    # base, so neither the plan nor the sum grows with it
    ns, amps = np.array([1, 10 ** 18 + 9]), np.array([1.0, -0.5])
    ts = np.array([1e3, 1e3 + 1e-3, 5e4])
    sieved = sieve._SPF.size
    phases._plan_of.cache_clear()
    tracemalloc.start()
    try:
        vals, bound = phases.phase_sum(ns, amps, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sieve._SPF.size == sieved
    assert np.all(np.abs(vals - _direct_sum(ns, amps, ts)) <= bound)


def test_phase_kernel_rejects_n_below_1():
    with pytest.raises(ValueError, match=">= 1"):
        phases.phase_sum(np.array([0, 1, 2]), np.ones(3), np.array([10.0]))
