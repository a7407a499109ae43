"""The weighted critical-line integral I(T) and its decay machinery.

The independent oracle is a singularity-subtracted trapezoid rule: the
smooth part log|Z(t)/prod(t-gamma)| on a dense grid plus closed-form
pieces for each log|t-gamma| factor against the Cauchy weight.
"""

import math
import random
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bsylab import errors, integral, zeta
from bsylab.config import DEFAULT, PrecisionConfig
from bsylab.integral import (
    MODELS,
    ScanReport,
    compute_I,
    compute_I_many,
    fit_decay,
    tail_I,
    theorem2_residual,
    weight_identity_check,
    zero_sum_term,
)
from bsylab.quadrature import G7_WEIGHTS, GK15_NODES, GK15_WEIGHTS
from bsylab.zeros import ZeroCandidate
from bsylab.zeta import hardy_z_batch


def _trapezoid_oracle(a: float, b: float, zl, n: int = 200_001) -> float:
    """Dense singularity-subtracted trapezoid for the weighted integral."""
    ts = np.linspace(a, b, n)
    gs = zl.ordinates[(zl.ordinates > a - 2) & (zl.ordinates < b + 2)]
    zs = np.abs(hardy_z_batch(ts, 1e-10, DEFAULT)[0])
    smooth = np.log(zs)
    for g in gs:
        smooth -= np.log(np.abs(ts - g))
    w = 1.0 / (0.25 + ts ** 2)
    total = np.trapezoid(smooth * w, ts)
    for g in gs:
        lo, hi = max(a, g - 50.0), min(b, g + 50.0)
        total += quad(lambda t: math.log(abs(t - g)) / (0.25 + t * t),
                      lo, hi, points=[g], limit=400, epsabs=1e-12)[0]
    return total


def test_compute_I_against_trapezoid_oracle(zeros_100):
    res = compute_I(40.0, zeros_100, DEFAULT)
    oracle = 2.0 * _trapezoid_oracle(0.0, 40.0, zeros_100)
    assert abs(res.value - oracle) < 5e-8
    # counts refer to the half-range [0, T] profile
    assert res.singularities_handled == np.count_nonzero(
        zeros_100.ordinates <= 40.0)


def test_compute_I_many_telescopes(zeros_100):
    Ts = np.array([10.0, 20.0, 40.0, 80.0])
    many = compute_I_many(Ts, zeros_100, DEFAULT)
    for T, r in zip(Ts, many):
        single = compute_I(float(T), zeros_100, DEFAULT)
        assert abs(r.value - single.value) < 1e-11


def test_tail_identity(zeros_100):
    # I(T2) = I(T1) - 2 * integral over [T1, T2]; tail_I returns the
    # signed difference I-contribution of [T1, T2]
    i1 = compute_I(30.0, zeros_100, DEFAULT).value
    i2 = compute_I(90.0, zeros_100, DEFAULT).value
    t = tail_I(30.0, 90.0, zeros_100, DEFAULT).value
    assert abs((i1 - i2) - t) < 1e-11


@pytest.mark.parametrize("T", [-5.0, math.nan])
def test_tail_I_refuses_negative_T(zeros_100, T):
    with pytest.raises(ValueError):
        tail_I(T, 30.0, zeros_100, DEFAULT)


def test_compute_I_refuses_nan_heights(zeros_100):
    # nan fails no comparison written as "T <= 0"; past the checks it
    # would give I = 0 with a zero error bound
    for Ts in ([math.nan], [10.0, math.nan], [math.nan, 10.0]):
        with pytest.raises(ValueError, match="positive"):
            compute_I_many(Ts, zeros_100, DEFAULT)
    with pytest.raises(ValueError, match="positive"):
        compute_I(math.nan, zeros_100, DEFAULT)


@pytest.mark.parametrize("X", [math.nan, math.inf])
def test_weight_identity_refuses_non_finite_X(X):
    # past the check the quadrature would run to its subdivision cap
    with pytest.raises(ValueError, match="finite"):
        weight_identity_check(X, DEFAULT)


def test_zero_list_insufficient(zeros_100):
    with pytest.raises(errors.ZeroListInsufficient):
        compute_I(5000.0, zeros_100, DEFAULT)


def test_zero_sum_term_closed_form():
    # log|rho/(1-rho)| for rho = beta + i gamma
    beta, gamma = 0.75, 100.0
    truth = 0.5 * math.log((beta ** 2 + gamma ** 2)
                           / ((1 - beta) ** 2 + gamma ** 2))
    assert zero_sum_term(ZeroCandidate(beta, gamma)) \
        == pytest.approx(truth, rel=1e-13)


def test_zero_sum_term_tiny_offsets():
    assert zero_sum_term(ZeroCandidate(0.5 + 1e-9, 50.0)) <= 1e-8
    assert zero_sum_term(ZeroCandidate(0.5 + 1e-9, 50.0)) > 0
    with pytest.raises(errors.BetaOutOfRange):
        ZeroCandidate(0.5, 50.0)


def test_theorem2_residual_shift(zeros_100):
    cand = ZeroCandidate(0.8, 33.3)
    base, base_n = theorem2_residual(90.0, [], zeros_100, DEFAULT)
    shifted, _ = theorem2_residual(90.0, [cand], zeros_100, DEFAULT)
    expect = 2.0 * math.pi * zero_sum_term(cand)
    assert abs((base - shifted) - expect) <= 1e-12 * abs(expect)
    # out-of-window hypotheticals are ignored
    far, _ = theorem2_residual(90.0, [ZeroCandidate(0.8, 95.0)],
                               zeros_100, DEFAULT)
    assert far == base
    assert base_n == pytest.approx(base * 90.0 ** 2 / math.log(90.0))


def test_weight_identity_small():
    # 2 * integral over [0, X] of log sqrt(1/4+t^2) / (1/4+t^2) -> 0
    for X in (100.0, 1000.0):
        assert abs(weight_identity_check(X, DEFAULT)) \
            <= 4.0 * (1.0 + math.log(X)) / X


def test_fit_decay_recovers_planted_power():
    Ts = np.geomspace(10.0, 5000.0, 12)
    samples = np.column_stack([Ts, 3.7 * Ts ** -2.13])
    fit = fit_decay(samples, "pure_power")
    assert fit.model == "pure_power"
    assert fit.fitted_params[1] == pytest.approx(2.13, abs=1e-9)
    assert fit.residual_rms < 1e-9


def test_fit_decay_shaped_models():
    Ts = np.geomspace(10.0, 5000.0, 12)
    planted = 2.5 * np.log(Ts) / Ts ** 2
    fit = fit_decay(np.column_stack([Ts, planted]), "logT_over_T2")
    assert fit.fitted_params[0] == pytest.approx(2.5, rel=1e-6)
    assert fit.residual_rms < 1e-9
    worse = fit_decay(np.column_stack([Ts, planted]), "sqrtlog_T2")
    assert worse.residual_rms > fit.residual_rms


def test_fit_decay_flags_sign_changes():
    Ts = np.geomspace(10.0, 5000.0, 12)
    vals = 3.7 * Ts ** -2.0
    vals[5] *= -1.0
    fit = fit_decay(np.column_stack([Ts, vals]), "pure_power")
    assert any(f.startswith("sign_change_in_window") for f in fit.flags)


def test_fit_decay_degenerate():
    Ts = np.geomspace(10.0, 20.0, 9)
    with pytest.raises(errors.DegenerateFit):
        fit_decay(np.column_stack([Ts, Ts ** -2.0]), "pure_power")
    with pytest.raises(errors.DegenerateFit):
        fit_decay(np.column_stack([Ts[:4], Ts[:4] ** -2.0]), "pure_power")


def test_scan_report_validation():
    good = np.array([[1.0, 0.1], [2.0, 0.05]])
    ScanReport(good, "none", np.array([]), 0.0)
    with pytest.raises(ValueError):
        ScanReport(good[::-1], "none", np.array([]), 0.0)
    with pytest.raises(ValueError):
        ScanReport(good, "bogus", np.array([]), 0.0)
    assert set(MODELS) == {"pure_power", "logT_over_T2", "sqrtlog_T2"}


@st.composite
def _span_and_ordinates(draw):
    """Ordinates on a 1/8 grid in (0, 40) and a span [a, b] whose ends
    are drawn from the same grid, from any float, and from the ordinates
    and their panel edges give or take a few ulps (a = b and ends on an
    ordinate included)."""
    ords = np.unique(draw(st.lists(st.integers(1, 319), max_size=40))) / 8.0
    pool = st.integers(0, 320).map(lambda i: i / 8.0) \
        | st.floats(0.0, 40.0, allow_nan=False)
    if ords.size:
        edge = st.sampled_from(ords.tolist()) \
            | st.sampled_from(ords.tolist()).map(
                lambda g: g - integral._SING_RADIUS)
        pool = pool | st.tuples(edge, st.sampled_from(
            [-1e-12, -5e-15, 0.0, 5e-15, 1e-12])).map(sum)
    a, b = sorted(draw(st.lists(pool, min_size=2, max_size=2)))
    return a, b, ords


@settings(max_examples=200, deadline=None)
@given(_span_and_ordinates(), st.sampled_from([None, 1e-8, 1e-13]),
       st.sampled_from([None, integral._weight]))
# pieces of 1e-12 before and after a singular panel are kept, of 5e-15 not
@example((9 - 1e-12, 11 + 1e-12, np.array([10.0, 14.0])), None, None)
@example((13 - 5e-15, 15 + 5e-15, np.array([10.0, 14.0])), None, None)
# a panel centred on its ordinate keeps 0.9 of its right side; the
# freed piece joins the next filler, or is one
@example((9.0, 11.0, np.array([10.0])), 1e-13, integral._weight)
@example((9.0, 10.5, np.array([9.5, 10.0])), None, None)
def test_panel_layout_tiles_segments(case, density, weight_f):
    a, b, ords = case
    lo, hi, g = integral._panel_layout(a, b, ords, density, weight_f)
    sing = ~np.isnan(g)
    if b <= a:
        assert not lo.size
        return
    # ascending, no overlaps; only pieces up to 1e-14 wide are left out
    assert lo.size and np.all(lo < hi)
    assert 0.0 <= lo[0] - a <= 1e-14 and 0.0 <= b - hi[-1] <= 1e-14
    assert np.all((lo[1:] >= hi[:-1]) & (lo[1:] - hi[:-1] <= 1e-14))
    width = hi - lo
    assert np.all(width[~sing] > 1e-14) or (lo.size == 1 and b - a <= 1e-14)
    # fillers graded toward +-i/2: none wider than half its distance
    # from them
    assert np.all(width[~sing] <= 0.5 * np.hypot(lo[~sing], 0.5)
                  * (1 + 1e-12))
    # no Kronrod node within _NEAR_GUARD of its own ordinate, where
    # moving the panel's right end can help
    c, h = 0.5 * (lo + hi)[sing], 0.5 * width[sing]
    gap = np.min(np.abs(c[:, None] + h[:, None] * GK15_NODES
                        - g[sing, None]), axis=1)
    inner = np.minimum(g[sing] - lo[sing], hi[sing] - g[sing]) >= 1e-3
    assert np.all(gap[inner] >= integral._NEAR_GUARD)
    # grading toward the ordinates only splits fillers further
    blo, bhi, bg = integral._panel_layout(a, b, ords)
    assert np.isin(blo, lo).all() and np.isin(bhi, hi).all()
    np.testing.assert_array_equal(lo[sing], blo[~np.isnan(bg)])
    # one singular panel per ordinate in the span, one-sided on an end
    np.testing.assert_array_equal(g[sing], ords[(ords >= a) & (ords <= b)])
    assert np.all((lo[sing] <= g[sing]) & (g[sing] <= hi[sing]))
    assert np.all((lo[sing] < g[sing]) | (g[sing] == a))
    assert np.all((g[sing] < hi[sing]) | (g[sing] == b))
    assert np.all(hi[sing] - lo[sing] <= 2 * integral._SING_RADIUS)
    # no ordinate inside a filler panel
    fl, fh = lo[~sing, None], hi[~sing, None]
    assert not np.any((ords[None, :] > fl) & (ords[None, :] < fh))


#: The Z errors and quadrature tolerance of the benchmark's S and scan
#: workload (Riemann-Siegel above t ~ 370).
_SCAN_CFG = PrecisionConfig(target_abs_error=1e-6, quad_tol=1e-4,
                            rs_correction_terms=4)


@pytest.mark.parametrize("cfg,weight_f", [
    (DEFAULT, integral._weight), (_SCAN_CFG, np.ones_like),
    (_SCAN_CFG, None)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cut_readout_within_estimates_of_separate_segments(
        zeros_100, cfg, weight_f, data):
    # one profile read at many cuts against one profile per segment:
    # cuts on ordinates, within 1e-14 and 1e-12 of singular-panel edges,
    # anywhere, and repeated (empty segments).  The separate profiles are
    # refined, since Z errors common to two runs at one config cancel.
    g = zeros_100.ordinates
    a = data.draw(st.floats(13.0, 60.0))
    b = a + data.draw(st.floats(0.5, 8.0))
    lo, hi, gs = integral._panel_layout(a, b, g)
    sing = ~np.isnan(gs)
    edges = np.concatenate([lo[sing], hi[sing]]).tolist()
    pool = st.floats(a, b)
    if any(sing):
        pool = pool | st.sampled_from(gs[sing].tolist()) \
            | st.tuples(st.sampled_from(edges), st.sampled_from(
                [-1e-12, -1e-14, 1e-14, 1e-12])).map(sum)
    inner = [c for c in data.draw(st.lists(pool, min_size=1, max_size=8))
             if a < c < b]
    inner += inner[:data.draw(st.integers(0, 2))]
    cuts = np.sort(np.concatenate([[a], inner, [b]]))
    runs = []
    panels_of = integral.adaptive_panels
    with mock.patch.object(integral, "adaptive_panels",
                           lambda *args: runs.append(panels_of(*args))
                           or runs[-1]):
        v, e, _, _ = integral._segment_profile(cuts, g, cfg, weight_f)
    # the pieces' rule errors sum to within the tolerance plus their P
    [p] = runs
    assert p.rule_error.sum() <= cfg.quad_tol * (1 + 1e-9) + p.pointwise.sum()
    for i in range(cuts.size - 1):
        vi, ei, _, _ = integral._segment_profile(
            cuts[i:i + 2], g, cfg.refined(100.0), weight_f)
        assert abs(v[i] - vi[0]) <= e[i] + ei[0], (i, cuts)


def test_refinement_stays_within_bound(zeros_100):
    coarse = compute_I(60.0, zeros_100, DEFAULT)
    fine = compute_I(60.0, zeros_100, DEFAULT.refined(10.0))
    assert abs(coarse.value - fine.value) <= max(coarse.abs_error_est, 1e-12)


@pytest.mark.parametrize("centred", [False, True])
def test_z_points_per_panel(zeros_100, monkeypatch, centred):
    # 15 Z points per evaluated panel and no stencil: the initial layout
    # puts no Kronrod node within _NEAR_GUARD of its own ordinate, not
    # even where a panel would be centred on it (the +-_SING_RADIUS
    # panel of an isolated zero, or here a span centred on one)
    a, b = (float(zeros_100.ordinates[5]) + np.array([-0.5, 0.5])
            if centred else (0.0, 100.0))
    ords = zeros_100.ordinates[(zeros_100.ordinates >= a)
                               & (zeros_100.ordinates <= b)]
    panels, near, stencils = [], [], []
    points = [0]
    panels_of, z_batch = integral.adaptive_panels, zeta.hardy_z_batch
    stencil = integral._z_log_derivative

    def counting_panels(f, *args, **kwargs):
        def rule(ts, labels):
            gi = np.broadcast_to(labels[:, None], ts.shape)
            close = (gi >= 0) & (np.abs(ts - ords[gi]) < integral._NEAR_GUARD)
            if not panels:
                near.extend(ords[gi[close]].tolist())
            panels.append(ts.shape[0])
            return f(ts, labels)
        return panels_of(rule, *args, **kwargs)

    def counting_z(ts, *args, **kwargs):
        points[0] += np.asarray(ts).size
        return z_batch(ts, *args, **kwargs)

    def counting_stencil(gammas, cfg):
        stencils.extend(gammas.tolist())
        return stencil(gammas, cfg)

    monkeypatch.setattr(integral, "adaptive_panels", counting_panels)
    monkeypatch.setattr(zeta, "hardy_z_batch", counting_z)
    monkeypatch.setattr(integral, "_z_log_derivative", counting_stencil)
    integral._segment_profile(np.array([a, b]), zeros_100.ordinates, DEFAULT)
    assert near == [] and stencils == []
    assert points[0] == 15 * sum(panels)
    if centred:
        # the singular panel keeps 0.9 of its right side
        lo, hi, gs = integral._panel_layout(a, b, zeros_100.ordinates)
        [k] = np.flatnonzero(~np.isnan(gs))
        assert (lo[k], hi[k]) == (a, ords[0] + 0.9 * (b - ords[0]))


def test_stencil_fallback_near_an_ordinate(zeros_100, monkeypatch):
    # nodes that bisection or a cut brings within _NEAR_GUARD of an
    # ordinate take |Z'(gamma)| from the 4-point stencil, once per
    # ordinate however often they come; the value is within its
    # pointwise bound of log|Z'(gamma)| (30 digits) less the
    # neighbours' logs
    g = zeros_100.ordinates
    k = 5
    calls = []
    stencil = integral._z_log_derivative
    monkeypatch.setattr(integral, "_z_log_derivative",
                        lambda gs, cfg: calls.append(gs.tolist())
                        or stencil(gs, cfg))
    f = integral._remainder_rule(g, DEFAULT, integral._weight)
    ts = g[k] + np.array([[-1e-3, -1e-7, 0.0, 1e-7, 1e-3]])
    v, pw = f(ts, np.array([k]))
    again, _ = f(ts, np.array([k]))
    assert calls == [[g[k]]]
    np.testing.assert_array_equal(v, again)
    first, stop = integral._neighbours(g)
    others = [j for j in range(first[k], stop[k]) if j != k]
    with mpmath.workdps(30):
        gk = mpmath.mpf(float(g[k]))
        expect = float(mpmath.log(abs(mpmath.siegelz(gk, derivative=1)))
                       - mpmath.fsum(mpmath.log(abs(gk - float(g[j])))
                                     for j in others))
    w = float(integral._weight(g[k]))
    assert abs(v[0, 2] / w - expect) <= pw[0, 2] / w + 1e-12
    assert 0 < pw[0, 2] / w < 1e-6
    # off the ordinate, within the guard, the same stencil value less
    # the neighbours' logs at t; just outside, the raw quotient agrees
    assert np.allclose(v[0, 1:4] / integral._weight(ts[0, 1:4]), expect,
                       rtol=0, atol=1e-6)
    assert abs(v[0, 0] / integral._weight(ts[0, 0]) - expect) < 1e-2


def test_compute_I_accuracy_guard(zeros_100):
    # I(10) against 30-digit quadrature (the filler is graded toward
    # +-i/2; as one panel it errs 3.5e-14), and a ladder against a run
    # 1000x tighter (with a Kronrod node on each isolated ordinate, the
    # stencil's 1/(12h) error reaches 3e-14)
    with mpmath.workdps(30):
        ref = 2 * mpmath.quad(
            lambda t: mpmath.log(abs(mpmath.zeta(mpmath.mpf(0.5) + 1j * t)))
            / (mpmath.mpf(0.25) + t * t), [0, 1, 3, 10])
    assert abs(compute_I(10.0, zeros_100, DEFAULT).value - float(ref)) \
        <= 5e-15
    Ts = 10.0 * 2.0 ** np.arange(4)
    ladder = compute_I_many(Ts, zeros_100, DEFAULT)
    fine = compute_I_many(Ts, zeros_100, DEFAULT.refined(1000.0))
    for r, f in zip(ladder, fine):
        assert abs(r.value - f.value) <= 1e-14
        assert abs(r.value - f.value) <= r.abs_error_est


def test_ladder_work_contract(zeros_10k, monkeypatch):
    # the layout converges in the first adaptive rounds: on the 10 * 2^k
    # ladder at most 3 Z batches (one per round) and no stencil
    calls, stencils = [], []
    z_batch, stencil = zeta.hardy_z_batch, integral._z_log_derivative
    monkeypatch.setattr(zeta, "hardy_z_batch",
                        lambda ts, *a, **kw: calls.append(np.size(ts))
                        or z_batch(ts, *a, **kw))
    monkeypatch.setattr(integral, "_z_log_derivative",
                        lambda gs, cfg: stencils.append(gs.size)
                        or stencil(gs, cfg))
    compute_I_many(10.0 * 2.0 ** np.arange(8), zeros_10k, DEFAULT)
    assert 1 <= len(calls) <= 3 and stencils == []


@pytest.mark.parametrize("seed", [0, 2, 5, 10])
def test_benchmark_ladder_takes_one_z_batch(zeros_10k, monkeypatch, seed):
    # the 8-point ladder base * 2^k to 128 base, base = 10 (1 + u/100):
    # the filler holding the cut near 80.8 (seeds 0, 2, 5) was sized on
    # K15 - G7 but judged on its pieces' top modes, and the end filler
    # next to the ordinate 1287.41 just beyond T (seed 10) was sized
    # without it; each failed round 1 and cost a second Z batch
    base = 10.0 * (1.0 + 0.01 * random.Random(seed).random())
    calls = []
    z_batch = zeta.hardy_z_batch
    monkeypatch.setattr(zeta, "hardy_z_batch",
                        lambda ts, *a, **kw: calls.append(np.size(ts))
                        or z_batch(ts, *a, **kw))
    compute_I_many(np.geomspace(base, 128.0 * base, 8), zeros_10k, DEFAULT)
    assert len(calls) == 1


@pytest.mark.parametrize("cfg", [
    DEFAULT, PrecisionConfig(target_abs_error=1e-6, quad_tol=1e-6)])
def test_singular_weight_points_per_ordinate(zeros_100, monkeypatch, cfg):
    # one 12- and one 8-point product rule per side, whatever the
    # tolerance and the side lengths: 20 weight points for each boundary
    # of a singular panel times each ordinate within 2 _SING_RADIUS of
    # its own, its own included.  An uncut panel has two boundaries; the
    # cut just above gamma_1 gives its panel a third, ~1e-9 from gamma_1
    g = zeros_100.ordinates
    cuts = np.array([0.0, g[0] + 1e-9, 100.0])
    seen = []
    singular = integral.log_singular_batch

    def counting(gammas, d_left, d_right, weight_f):
        d = np.concatenate([d_left, d_right])
        seen.append([0, np.min(d[d > 0])])

        def spy(ts):
            seen[-1][0] += np.asarray(ts).size
            return weight_f(ts)
        return singular(gammas, d_left, d_right, spy)

    monkeypatch.setattr(integral, "log_singular_batch", counting)
    integral._segment_profile(cuts, g, cfg)
    [(points, d_min)] = seen
    assert d_min < 1e-8
    lo, hi, gs = integral._panel_layout(0.0, 100.0, g)
    own = neighbour = 0
    for a, b, gamma in zip(lo, hi, gs):
        if np.isnan(gamma):
            continue
        boundaries = 2 + np.count_nonzero((cuts > a) & (cuts < b))
        near = np.abs(g - gamma) <= 2 * integral._SING_RADIUS
        own += boundaries
        neighbour += boundaries * (np.count_nonzero(near) - 1)
    assert own == 2 * g.size + 1 and neighbour > 0
    assert points == 20 * (own + neighbour)


@pytest.mark.parametrize("cfg,weight_f", [
    (DEFAULT, integral._weight), (_SCAN_CFG, None)])
def test_neighbours_taken_out_and_added_back_within_estimates(
        zeros_550, monkeypatch, cfg, weight_f):
    # the neighbours' logs leave the remainder and join the singular
    # parts: against a refined run that takes out each panel's own
    # ordinate alone, every segment is within the summed estimates.
    # Dropping the neighbours from either side alone moves a segment by
    # the integral of their logs, far beyond its estimate
    g = zeros_550.ordinates
    a = 400.0
    cuts = a + 0.075 * np.arange(161)          # lattice steps of h/4
    first, stop = integral._neighbours(g[(g >= a) & (g <= cuts[-1])])
    assert np.max(stop - first) > 2           # panels with neighbours
    v, e, ns, nsing = integral._segment_profile(cuts, g, cfg, weight_f)
    monkeypatch.setattr(integral, "_neighbours",
                        lambda g: (np.arange(g.size), np.arange(g.size) + 1))
    vr, er, _, nsing_r = integral._segment_profile(cuts, g,
                                                   cfg.refined(100.0),
                                                   weight_f)
    np.testing.assert_array_equal(nsing, nsing_r)
    assert np.all(np.abs(v - vr) <= e + er)


@pytest.mark.parametrize("end", ["low", "high"])
def test_ordinates_beyond_the_span_taken_out(zeros_550, monkeypatch, end):
    # gamma_135 and gamma_136 lie 0.61 apart: a span that stops 0.05
    # short of one of them ends inside the other's singular panel, and
    # the ordinate beyond its end is one of that panel's neighbours.  Its
    # log leaves the remainder, so one adaptive round suffices, and the
    # integral is within the estimates of a refined run
    g = zeros_550.ordinates
    lo_g, hi_g = g[134], g[135]
    cuts = np.array([lo_g - 0.5, hi_g - 0.05] if end == "high"
                    else [lo_g + 0.05, hi_g + 0.5])
    batches = []
    z_batch = zeta.hardy_z_batch
    monkeypatch.setattr(zeta, "hardy_z_batch",
                        lambda ts, *a, **kw: batches.append(np.size(ts))
                        or z_batch(ts, *a, **kw))
    v, e, _, nsing = integral._segment_profile(cuts, g, DEFAULT)
    assert nsing[0] == 1 and len(batches) == 1
    monkeypatch.setattr(zeta, "hardy_z_batch", z_batch)
    vr, er, _, _ = integral._segment_profile(cuts, g, DEFAULT.refined(100.0))
    assert abs(v[0] - vr[0]) <= e[0] + er[0]


def test_pointwise_error_reaches_estimate(zeros_550, monkeypatch):
    # a smooth segment near t = 400 with Z good to 1e-6 only (taken from
    # Riemann-Siegel there): the error estimate is sum |K15 - G7| plus
    # the propagated Z error P, here about a tenth of the total
    cfg = PrecisionConfig(target_abs_error=1e-6, quad_tol=1e-6)
    g = zeros_550.ordinates
    k = int(np.searchsorted(g, 400.0))
    a, b = g[k] + 0.1, g[k + 1] - 0.1
    runs = []
    panels_of = integral.adaptive_panels
    monkeypatch.setattr(integral, "adaptive_panels",
                        lambda *args, **kw: runs.append(panels_of(*args, **kw))
                        or runs[-1])
    v, e, _, nsing = integral._segment_profile(np.array([a, b]), g, cfg)
    assert nsing[0] == 0
    p = runs[0]
    mid, half = 0.5 * (p.lo + p.hi), 0.5 * (p.hi - p.lo)
    ts = mid[:, None] + half[:, None] * GK15_NODES[None, :]
    z, zerr = hardy_z_batch(ts.ravel(), cfg.target_abs_error, cfg)
    z, zerr = np.abs(z.reshape(ts.shape)), zerr.reshape(ts.shape)
    w = 1.0 / (0.25 + ts ** 2)
    vals = np.log(z) * w
    k15 = half * (vals @ GK15_WEIGHTS)
    g7 = half * (vals[:, 1::2] @ G7_WEIGHTS)
    rule = float(np.sum(np.abs(k15 - g7)))
    P = float(np.sum(half * ((-np.log1p(-zerr / z) * w) @ GK15_WEIGHTS)))
    assert P > 0.05 * e[0]
    assert e[0] - rule == pytest.approx(P, rel=1e-9)
    assert v[0] == pytest.approx(float(np.sum(k15)), rel=1e-12)
