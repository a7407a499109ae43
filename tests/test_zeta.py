"""Zeta engine tests against independent oracles.

mpmath is used strictly as an oracle (never inside the package); the
eta-series and Bernoulli identities provide library-free cross-checks.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsylab import errors, zeta
from bsylab.config import DEFAULT, PrecisionConfig
from bsylab.zeta import (
    _rs_theta_ld,
    hardy_z,
    hardy_z_batch,
    log_abs_zeta_half,
    log_zeta_branch,
    rs_error_bound,
    rs_theta,
    rs_theta_array,
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


def test_theta_array_matches_scalar():
    ts = np.array([15.0, 100.0, 987.6])
    arr = rs_theta_array(ts)
    for t, v in zip(ts, arr):
        assert v == rs_theta(float(t))


@pytest.mark.parametrize("t", [35.0, 101.5, 999.9, 12345.6, 150000.0])
def test_hardy_z_matches_mpmath(t):
    zv = hardy_z(t, DEFAULT)
    oracle = float(mpmath.siegelz(t))
    assert abs(float(zv) - oracle) <= max(zv.abs_error, 5e-11)


@pytest.mark.parametrize("n_corr", [2, 3, 4])
def test_rs_error_bound_conservative(n_corr):
    # the fitted correction-term coefficients must over-cover reality
    cfg = PrecisionConfig(target_abs_error=1e-6, quad_tol=1e-3,
                          rs_correction_terms=n_corr)
    ts = np.geomspace(35.0, 2e5, 60)
    vals, bounds = hardy_z_batch(ts, 1e-3, cfg)
    for t, v, b in zip(ts, vals, bounds):
        assert abs(v - float(mpmath.siegelz(float(t)))) <= b


def test_hardy_z_batch_agrees_with_em():
    ts = np.linspace(31.0, 4000.0, 400)
    vals, bounds = hardy_z_batch(ts, 1e-8, DEFAULT)
    for t, v, b in zip(ts[::37], vals[::37], bounds[::37]):
        em = zeta_em(complex(0.5, t), DEFAULT)
        assert abs(abs(v) - abs(complex(em))) <= b + em.abs_error


def test_log_abs_and_branch_consistency():
    for t in (21.0, 143.111, 5005.5):
        direct = log_abs_zeta_half(t, DEFAULT)
        branch = log_zeta_branch(0.5, t, DEFAULT)
        assert abs(direct - branch.real) < 1e-10
        oracle = complex(mpmath.log(mpmath.zeta(0.5 + 1j * t)))
        assert abs(direct - oracle.real) < 1e-10


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
    assert zeta._as_progression(ts) is not None    # takes the blocked path
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
    assert zeta._as_progression(off) is None
    grid, gb = zeta._em_batch(sigma, ts)
    direct, db = zeta._em_batch(sigma, off)
    keep = np.arange(ts.size) != 600
    assert np.all(np.abs(grid - direct)[keep] <= (gb + db)[keep])


def test_em_grid_path_in_row_chunks(monkeypatch):
    ts = np.linspace(1000.0, 1100.0, 1201)
    whole, wb = zeta._em_batch(0.6, ts)
    # 585 terms: J is capped at 13 and the 93 block rows come in 16
    # chunks
    monkeypatch.setattr(zeta, "_EM_CHUNK", 8000)
    part, pb = zeta._em_batch(0.6, ts)
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
    assert zeta._as_progression(ts) is not None
    vals, _ = zeta.zeta_afe_batch(0.6, ts)
    for k in (0, 777, 2000):
        one, _ = zeta.zeta_afe_batch(0.6, ts[k:k + 1])
        # the single point takes the direct path, ~4e-15 off the grid
        # path here; a grouping or conjugation slip would show at the
        # size of the sums, far above 1e-10
        assert abs(vals[k] - one[0]) <= 1e-10


# ----------------------------------------------------------------------
# Cluster path of the phase-sum kernel
# ----------------------------------------------------------------------

def _direct_sum(logs, amps, ts):
    """sum_n a_n exp(-i t l_n), phases reduced by a longdouble 2 pi."""
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    ph = ((np.asarray(ts, dtype=np.longdouble)[:, None] * logs[None, :])
          % two_pi).astype(float)
    re = (amps[None, :] * np.cos(ph)).sum(axis=1)
    return re - 1j * (amps[None, :] * np.sin(ph)).sum(axis=1)


def _em_terms(sigma, M):
    n = np.arange(1, M, dtype=float)
    return np.log(n.astype(np.longdouble)), n ** (-sigma)


@pytest.mark.parametrize("t", [150.0, 1200.0, 2e4])
@pytest.mark.parametrize("sigma", [0.5, 0.6, 2.0])
def test_em_clusters_match_mpmath(sigma, t):
    from bsylab.quadrature import GK15_NODES
    h = 1e-5
    calls = {f"gk{w}": t + w * GK15_NODES for w in (0.5, 0.07, 1e-3)}
    calls["triplet"] = t + np.array([0.0, h, -h])      # as _newton_polish
    calls["stencil"] = t + np.array([-2.0, -1.0, 1.0, 2.0]) * 1e-4
    calls["lone"] = np.array([t])
    for name, ts in calls.items():
        vals, bounds = zeta._em_batch(sigma, ts)
        for k in sorted({0, ts.size // 2, ts.size - 1}):
            err = abs(vals[k] - _mp_zeta(complex(sigma, ts[k])))
            assert err <= bounds[k], name
            assert err <= 1e-12, name


def test_cluster_path_input_order_and_repeats():
    logs, amps = _em_terms(0.6, 400)
    # unsorted, one height repeated, two clusters and a lone height
    ts = np.array([1000.4, 1000.1, 1005.0, 1000.4, 1000.25, 1000.9, 1000.7])
    vals, bound = zeta._phase_sum(logs, amps, ts)
    assert vals[0] == vals[3]
    assert np.all(np.abs(vals - _direct_sum(logs, amps, ts)) <= bound)
    rev, _ = zeta._phase_sum(logs, amps, ts[::-1])
    assert np.all(np.abs(rev[::-1] - vals) <= 2 * bound)


@pytest.mark.parametrize("ts", [np.array([]), np.array([1000.4])],
                         ids=["K0", "K1"])
def test_phase_sum_tiny_inputs(ts):
    logs, amps = _em_terms(0.6, 400)
    vals, _ = zeta._phase_sum(logs, amps, ts)
    assert vals.shape == ts.shape
    assert np.array_equal(vals, _direct_sum(logs, amps, ts))


def test_isolated_heights_sum_directly():
    # more than 2*rho apart, so no two heights share a cluster
    logs, amps = _em_terms(0.5, 3000)
    ts = np.array([2e4, 150.3, 1200.7, 1201.9])
    vals, _ = zeta._phase_sum(logs, amps, ts)
    assert np.array_equal(vals, _direct_sum(logs, amps, ts))


def test_low_expansion_order_stays_within_bound(monkeypatch):
    # decide the order against a floor 1e8 times the real one: J drops
    # to about half, and the truncation tail must enter the bound
    logs, amps = _em_terms(0.5, 1200)
    ts = 1000.0 + 0.3 * np.linspace(-1.0, 1.0, 9) ** 3
    exact = _direct_sum(logs, amps, ts)
    full, full_bound = zeta._phase_sum(logs, amps, ts)
    orders = []
    taylor_order = zeta._taylor_order

    def coarse(r, amp_sum, floor):
        orders.append(taylor_order(r, amp_sum, floor)[0])
        J, tail = taylor_order(r, amp_sum, 1e8 * floor)
        orders.append(J)
        return J, tail

    monkeypatch.setattr(zeta, "_taylor_order", coarse)
    low, low_bound = zeta._phase_sum(logs, amps, ts)
    assert orders[1] < orders[0]
    err = np.abs(low - exact)
    assert np.max(err) > 100 * full_bound       # the low order shows
    assert np.all(err <= low_bound)
    assert np.all(np.abs(full - exact) <= full_bound)
