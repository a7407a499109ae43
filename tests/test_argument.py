"""S(t), S1(t) and the scan statistics."""

import math

import mpmath
import numpy as np
import pytest

from bsylab import errors, integral, zeta
from bsylab.accum import comp_sum
from bsylab.argument import (
    S1_direct,
    S1_littlewood,
    S_of_t,
    lemma2_normalized,
    lemma2_scan,
    omega_normalized,
    omega_scan,
)
from bsylab.config import DEFAULT, PrecisionConfig
from bsylab.integral import ScanReport
from bsylab.sieve import primes_up_to
from bsylab.zeros import ZeroList
from bsylab.zeta import rs_theta


def test_reconstruction_identity(zeros_100):
    for t in (15.0, 33.3, 77.7, 99.9):
        s = S_of_t(t, DEFAULT, zeros_100)
        n = round(rs_theta(t) / math.pi + 1.0 + s)
        assert n == int(np.count_nonzero(zeros_100.ordinates <= t))


def test_jump_and_midpoint_convention(zeros_100):
    g1 = float(zeros_100.ordinates[0])
    eps = 1e-6
    left = S_of_t(g1 - eps, DEFAULT, zeros_100)
    right = S_of_t(g1 + eps, DEFAULT, zeros_100)
    assert right - left == pytest.approx(1.0, abs=1e-3)
    mid = S_of_t(g1, DEFAULT, zeros_100)
    assert mid == pytest.approx(0.5 * (left + right), abs=1e-3)


def test_s1_continuous_across_ordinate(zeros_100):
    g1 = float(zeros_100.ordinates[2])
    lo = S1_direct(g1 - 1e-5, zeros_100, DEFAULT)
    hi = S1_direct(g1 + 1e-5, zeros_100, DEFAULT)
    assert abs(hi - lo) < 1e-3


def _s1_branch_tracked(t, zl):
    """S1 gap by gap, with S + theta/pi on each gap taken from S at its
    midpoint by branch tracking (one log zeta per gap), and the integral
    of theta over each gap from mpmath."""
    g = zl.ordinates[zl.ordinates < t]
    lo, hi = np.concatenate([[0.0], g]), np.concatenate([g, [t]])
    mids = 0.5 * (lo + hi)
    c = np.array([S_of_t(m, DEFAULT) for m in mids.tolist()]) \
        + zeta._theta_any(mids) / math.pi
    th = np.array([float(mpmath.quad(mpmath.siegeltheta, [a, b]))
                   for a, b in zip(lo.tolist(), hi.tolist())])
    return comp_sum(c * (hi - lo) - th / math.pi)


@pytest.mark.parametrize("t", [100.0, 300.0])
def test_s1_direct_matches_branch_tracked_gaps(zeros_550, t):
    assert abs(S1_direct(t, zeros_550, DEFAULT)
               - _s1_branch_tracked(t, zeros_550)) <= 1e-10


def _s1_reference(t, zl):
    """sum over gamma < t of (t - gamma), minus t, minus (1/pi) times
    mpmath's integral of theta over [0, t], at 30 digits."""
    with mpmath.workdps(30):
        g = zl.ordinates[zl.ordinates < t]
        theta_int = mpmath.quad(mpmath.siegeltheta, [0, 10, t])
        return (mpmath.fsum(t - mpmath.mpf(x) for x in g.tolist()) - t
                - theta_int / mpmath.pi)


@pytest.mark.parametrize("t", [20.0, 333.3])
def test_s1_direct_matches_mpmath(zeros_550, t):
    got = S1_direct(t, zeros_550, DEFAULT)
    assert abs(float(got - _s1_reference(t, zeros_550))) <= 1e-10


def test_s1_direct_matches_mpmath_high(zeros_10k):
    t = 9999.5
    got = S1_direct(t, zeros_10k, DEFAULT)
    assert abs(float(got - _s1_reference(t, zeros_10k))) <= 1e-10


def test_s1_direct_requires_t_above_ten(zeros_100):
    with pytest.raises(ValueError):
        S1_direct(9.99, zeros_100, DEFAULT)


def test_s1_direct_rejects_list_missing_an_ordinate(zeros_100):
    # the witness, S at t itself, lies above each of these
    g = zeros_100.ordinates
    for i in range(g.size):
        zl = ZeroList(np.delete(g, i), zeros_100.covered_height,
                      verified=True)
        with pytest.raises(errors.Inconsistent):
            S1_direct(100.0, zl, DEFAULT)


def test_s1_littlewood_on_ordinate_raises(zeros_100):
    with pytest.raises(errors.OnOrdinate):
        S1_littlewood(float(zeros_100.ordinates[0]), DEFAULT)


def _sigma_tail(t: float) -> float:
    """(1/pi) * integral over sigma in [2, inf) of log|zeta(sigma+it)|.

    Absolutely convergent prime-power series; this is exactly the piece
    the truncated-at-2 variant drops.
    """
    total = 0.0
    for p in primes_up_to(3000).tolist():
        pk, k = p, 1
        while pk <= 10 ** 6:
            total += math.cos(t * k * math.log(p)) \
                / (pk * pk * k * k * math.log(p))
            pk *= p
            k += 1
    return total / math.pi


def test_littlewood_difference_is_tail_plus_constant(zeros_550):
    # S1_direct - S1_littlewood = C + sigma-tail beyond 2, pointwise
    ts = np.linspace(20.0, 500.0, 17)
    corrected = [S1_direct(t, zeros_550, DEFAULT)
                 - S1_littlewood(t, DEFAULT) - _sigma_tail(t) for t in ts]
    assert max(corrected) - min(corrected) < 1e-5


def test_s_mean_near_zero(zeros_550):
    ts = np.linspace(1.0, 500.0, 2000)
    mean = np.mean([S_of_t(float(t), DEFAULT, zeros_550) for t in ts])
    assert abs(mean) <= 0.1


def test_lemma2_scan_telescopes(zeros_100):
    grid = np.array([30.0, 50.0, 80.0])
    rep = lemma2_scan(20.0, grid, zeros_100, DEFAULT)
    vals = rep.samples[:, 1]
    part = lemma2_scan(50.0, np.array([80.0]), zeros_100, DEFAULT)
    assert abs((vals[2] - vals[1]) - part.samples[0, 1]) < 1e-9
    # t = T gives the empty integral
    zero = lemma2_scan(30.0, np.array([30.0, 60.0]), zeros_100, DEFAULT)
    assert zero.samples[0, 1] == 0.0


def test_lemma2_normalization():
    ts = np.array([100.0, 1000.0])
    vals = np.array([1.0, 1.0])
    norm = lemma2_normalized(ts, vals)
    expect = (np.log(np.log(ts)) ** 2) / np.log(ts)
    np.testing.assert_allclose(norm, expect, rtol=1e-12)


def test_omega_scan_both_signs_and_grid(zeros_550):
    rep = omega_scan(200.0, 0.3, zeros_550, DEFAULT)
    mx, tmx, mn, tmn = rep.fitted_params
    assert mx > 0 > mn
    assert 200.0 <= tmx <= 400.0 and 200.0 <= tmn <= 400.0
    ts = rep.samples[:, 0]
    assert np.all(np.diff(ts) <= 0.3 / 4 + 1e-12)
    # normalization matches the closed form
    norm = omega_normalized(ts, rep.samples[:, 1], 0.3)
    expect = rep.samples[:, 1] / (0.3 * np.sqrt(np.log(ts)
                                                / np.log(np.log(ts))))
    np.testing.assert_allclose(norm, expect, rtol=1e-12)


@pytest.mark.parametrize("ulps, offset", [(1, 0.0), (64, 0.0), (0, 1e-10)],
                         ids=["1", "64", "1e-10"])
def test_omega_scan_survives_ordinates_moved_by_ulps(zeros_550, ulps,
                                                     offset):
    # the listed ordinates and the zeros of the Z engine differ by ulps,
    # or by 1e-10 in a table imported at that precision; the quadrature
    # must not chase that mismatch into the subdivision cap
    moved = zeros_550.ordinates + offset
    for _ in range(ulps):
        moved = np.nextafter(moved, np.inf)
    zl = ZeroList(moved, zeros_550.covered_height, zeros_550.source, True)
    mx, tmx, mn, tmn = omega_scan(200.0, 0.3, zl, DEFAULT).fitted_params
    ref = omega_scan(200.0, 0.3, zeros_550, DEFAULT).fitted_params
    assert mx > 0 > mn
    assert (tmx, tmn) == (ref[1], ref[3])


def test_scans_refuse_nan_heights(zeros_100):
    # past the checks a nan would fail deep in the scan, or
    # give a scan of nan heights
    with pytest.raises(ValueError, match="need T >= 10"):
        omega_scan(math.nan, 0.3, zeros_100, DEFAULT)
    with pytest.raises(ValueError, match="need 3 <= T"):
        lemma2_scan(math.nan, [30.0, 40.0], zeros_100, DEFAULT)
    with pytest.raises(ValueError, match="strictly ascending"):
        lemma2_scan(20.0, [30.0, math.nan, 40.0], zeros_100, DEFAULT)


def test_omega_scan_reads_no_zero_above_2T_plus_h(zeros_550):
    # 2T + h = 201.24 lies just below the zero at 201.2648
    T, h = 100.47, 0.3
    g = zeros_550.ordinates
    cut = ZeroList(g[g <= 2 * T + h], 2 * T + h, zeros_550.source, True)
    rep = omega_scan(T, h, cut, DEFAULT)
    ref = omega_scan(T, h, zeros_550, DEFAULT)
    assert np.array_equal(rep.samples, ref.samples)
    assert T <= rep.samples[0, 0] and rep.samples[-1, 0] <= 2 * T


def test_omega_scan_z_points_per_lattice_step(zeros_550, monkeypatch):
    # the h/4 lattice steps are read out of panels laid by the ordinates,
    # whose remainders have the neighbouring ordinates' logs taken out:
    # at Z errors of 1e-6 (Riemann-Siegel above t ~ 370) 2340 Z points,
    # all in the first adaptive round; the bound leaves room for two
    # panels bisected once (60 points).  A 15-point panel per step would
    # make 15+ per step, and the neighbours' logs left in force
    # bisections (5974 points)
    cfg = PrecisionConfig(target_abs_error=1e-6, quad_tol=1e-4,
                          rs_correction_terms=4)
    points = [0]
    z_batch = zeta.hardy_z_batch

    def counting(ts, *args, **kwargs):
        points[0] += np.asarray(ts).size
        return z_batch(ts, *args, **kwargs)

    monkeypatch.setattr(zeta, "hardy_z_batch", counting)
    T, h = 200.0, 0.3
    omega_scan(T, h, zeros_550, cfg)
    steps = int(math.floor(T / (h / 4))) + 8
    assert steps == 2674
    assert points[0] <= 2400


#: The Z errors and quadrature tolerance of the benchmark's scans.
_SCAN_CFG = PrecisionConfig(target_abs_error=1e-6, quad_tol=1e-4,
                            rs_correction_terms=4)


def test_scan_budgets_cover_a_tight_run(zeros_100):
    # each sample's budget sums the error estimates of its segments:
    # against a quad_tol 1e-9 / Z 1e-12 run on the same cuts, every
    # sample is within the two budgets
    grid = np.geomspace(30.0, 90.0, 12)
    for scan in (lambda cfg: lemma2_scan(20.0, grid, zeros_100, cfg),
                 lambda cfg: omega_scan(40.0, 0.3, zeros_100, cfg)):
        rep, ref = scan(_SCAN_CFG), scan(DEFAULT)
        np.testing.assert_array_equal(rep.samples[:, 0], ref.samples[:, 0])
        assert rep.budgets.shape == (rep.samples.shape[0],)
        assert np.all(rep.budgets > 0) and np.all(ref.budgets < 1e-8)
        err = np.abs(rep.samples[:, 1] - ref.samples[:, 1])
        assert np.all(err <= rep.budgets + ref.budgets)
    # a running integral's budget grows; from T itself it starts at 0
    rep = lemma2_scan(30.0, grid, zeros_100, _SCAN_CFG)
    assert rep.budgets[0] == 0.0 and np.all(np.diff(rep.budgets) > 0)
    with pytest.raises(ValueError):
        ScanReport(rep.samples, "none", rep.fitted_params, 0.0,
                   budgets=rep.budgets[1:])


@pytest.mark.parametrize("scan", ["lemma2", "omega"])
def test_scan_work_contract(zeros_10k, monkeypatch, scan):
    # the benchmark's scan shapes at its Z errors and tolerance: every
    # cut panel passes in the first adaptive round, and no Kronrod node
    # needs Z'(gamma) from the 4-point stencil.  lemma2_scan makes one Z
    # batch.  omega_scan(600, 0.3) makes a second for its two end panels
    # alone, each 0.15-0.23 from an ordinate outside the span whose log
    # stays in its remainder: the filler at T - h (a filler takes no log
    # out) above 599.55, and the singular panel at 2T + h below 1200.53
    # (the scan reads no ordinate above 2T + h)
    batches, stencils = [], []
    z_batch, stencil = zeta.hardy_z_batch, integral._z_log_derivative
    monkeypatch.setattr(zeta, "hardy_z_batch",
                        lambda ts, *a, **kw: batches.append(np.asarray(ts))
                        or z_batch(ts, *a, **kw))
    monkeypatch.setattr(integral, "_z_log_derivative",
                        lambda gs, cfg: stencils.append(gs.size)
                        or stencil(gs, cfg))
    if scan == "lemma2":
        lemma2_scan(20.0, np.geomspace(30.0, 1250.0, 40), zeros_10k,
                    _SCAN_CFG)
        assert len(batches) == 1
    else:
        T, h = 600.0, 0.3
        omega_scan(T, h, zeros_10k, _SCAN_CFG)
        assert 1 <= len(batches) <= 2
        for ts in batches[1:]:
            to_end = np.minimum(ts - (T - h), 2 * T + h - ts)
            assert np.all(to_end < 2 * integral._SING_RADIUS)
    assert stencils == []


def test_omega_scan_needs_coverage(zeros_100):
    with pytest.raises(errors.ZeroListInsufficient):
        omega_scan(200.0, 0.3, zeros_100, DEFAULT)
