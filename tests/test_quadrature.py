"""Adaptive and log-singular quadrature against closed forms and scipy."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bsylab import errors, quadrature
from bsylab.accum import comp_sum
from bsylab.quadrature import (
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    adaptive_panels,
    adaptive_quad,
    log_singular_batch,
)

#: float64 unit roundoff, as in the product rule's rounding term
U = 2.0 ** -53


def test_polynomial_exact():
    res = adaptive_quad(lambda x: x ** 3 - 2.0 * x, 0.0, 2.0, 1e-12)
    assert abs(res.value - (4.0 - 4.0)) < 1e-13
    assert res.abs_error_est >= 0


def test_oscillatory_vs_scipy():
    f = lambda x: np.cos(7.3 * x) * np.exp(-0.1 * x)
    res = adaptive_quad(f, 0.0, 30.0, 1e-11)
    oracle = quad(lambda x: math.cos(7.3 * x) * math.exp(-0.1 * x),
                  0.0, 30.0, limit=500, epsabs=1e-13)[0]
    assert abs(res.value - oracle) < 1e-10


def test_error_estimate_covers_truth():
    f = lambda x: 1.0 / (1.0 + x ** 2)
    res = adaptive_quad(f, -4.0, 4.0, 1e-9)
    truth = 2.0 * math.atan(4.0)
    assert abs(res.value - truth) <= max(res.abs_error_est, 1e-12)


def test_subdivision_cap_raises():
    with pytest.raises(errors.ToleranceNotMet):
        adaptive_quad(lambda x: np.cos(5000.0 * x), 0.0, 200.0, 1e-14,
                      max_subdivisions=6)


def test_subdivision_cap_names_the_span():
    # panels on [14.13, 15] and [16, 17.5]: the message names their span,
    # not one that starts at 0
    with pytest.raises(errors.ToleranceNotMet,
                       match=r"cap 4 reached on \[14\.13, 17\.5\]"):
        adaptive_panels(lambda ts, _: (np.cos(5000.0 * ts), None),
                        [14.13, 16.0], [15.0, 17.5], 1e-14,
                        max_subdivisions=4)


def test_log_singular_batch_closed_form():
    # weight 1: integral of log|t-g| over [g-dl, g+dr] is exact
    gammas = np.array([10.0, 50.0])
    dl = np.array([0.3, 1.0])
    dr = np.array([0.7, 0.2])
    vals, errs = log_singular_batch(gammas, dl, dr,
                                    lambda t: np.ones_like(t))
    for g, a, b, v, e in zip(gammas, dl, dr, vals, errs):
        truth = a * (math.log(a) - 1.0) + b * (math.log(b) - 1.0)
        assert abs(v - truth) <= max(e, 1e-11)


def test_log_singular_batch_with_cauchy_weight():
    # oracle: scipy with explicit singular-point handling
    g = 30.0
    w = lambda t: 1.0 / (0.25 + t ** 2)
    vals, errs = log_singular_batch(np.array([g]), np.array([0.8]),
                                    np.array([0.6]), w)
    oracle = quad(lambda t: math.log(abs(t - g)) / (0.25 + t * t),
                  g - 0.8, g + 0.6, points=[g], limit=500, epsabs=1e-13)[0]
    assert abs(vals[0] - oracle) <= max(errs[0], 1e-10)


def test_product_rules_in_blocks_hold_their_memory(monkeypatch):
    rng = np.random.default_rng(4)
    n = 25_000
    g = rng.uniform(14.0, 1e4, n)
    dl, dr = rng.uniform(0.0, 1.0, (2, n))
    dr[::7] = 0.0

    def cauchy(t):
        return 1.0 / (0.25 + t ** 2)

    tracemalloc.start()
    v, e = log_singular_batch(g, dl, dr, cauchy)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # a dozen floats per side, and four (sides, 20) temporaries per block
    sides = 2 * n
    assert peak <= 12 * 8 * sides + 4 * 20 * 8 * quadrature._LOG_BLOCK
    monkeypatch.setattr(quadrature, "_LOG_BLOCK", 7)
    small = log_singular_batch(g, dl, dr, cauchy)
    for a, b in zip((v, e), small):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=14.0, max_value=1e5),
       st.floats(min_value=1e-12, max_value=10.0),
       st.floats(min_value=1e-12, max_value=10.0) | st.just(0.0))
def test_unit_weight_closed_form(gamma, dl, dr):
    # weight_f None takes each side as d (log d - 1): within its rounding
    # term of a 40-digit closed form, and within the two estimates of
    # the 12-point rule under a unit weight
    v, e = log_singular_batch(np.array([gamma]), dl, dr, None)
    vr, er = log_singular_batch(np.array([gamma]), dl, dr, np.ones_like)
    assert abs(v[0] - vr[0]) <= e[0] + er[0]
    with mpmath.workdps(40):
        exact = sum(mpmath.mpf(d) * (mpmath.log(d) - 1)
                    for d in (dl, dr) if d > 0)
        assert abs(v[0] - exact) <= e[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7),
       st.floats(min_value=1e-12, max_value=1.0),
       st.floats(min_value=1e-12, max_value=1.0))
def test_product_rule_exact_for_polynomials(j, dl, dr):
    # about gamma = 0 the nodes are t = +-d x_k, so W(t) = t^j is a
    # degree-j polynomial in u = |t - gamma| with t - gamma unrounded;
    # the integral of log(u) u^j over [0, d] is
    # d^(j+1) (log d / (j+1) - 1 / (j+1)^2)
    vals, _ = log_singular_batch(np.zeros(1), dl, dr, lambda t: t ** j)

    def moment(d):
        return d ** (j + 1) * (math.log(d) / (j + 1) - 1.0 / (j + 1) ** 2)

    truth = moment(dr) + (-1) ** j * moment(dl)
    # |W| <= d^j on each side
    rounding = sum(8.0 * U * d * (abs(math.log(d)) + 1.0) * d ** j
                   for d in (dl, dr))
    assert abs(vals[0] - truth) <= rounding


@pytest.mark.parametrize("weight", ["cauchy", "unit"])
@pytest.mark.parametrize("gamma,dl,dr", [
    (14.134725141734693, 1.0, 1.0),
    (14.134725141734693, 1e-12, 1e-6),
    (21.022039638771555, 0.5, 1e-3),
    (1e5, 1.0, 1.0),
    (1e5, 1e-12, 1e-12),
])
def test_product_rule_estimate_covers_mpmath(weight, gamma, dl, dr):
    # oracle in u = t - gamma, so that no node rounds onto gamma
    w = (lambda t: 1.0 / (0.25 + t ** 2)) if weight == "cauchy" \
        else np.ones_like
    vals, errs = log_singular_batch(np.array([gamma]), dl, dr, w)
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        W = (lambda t: 1 / (mpmath.mpf(0.25) + t * t)) \
            if weight == "cauchy" else (lambda t: 1)
        oracle = sum(mpmath.quad(lambda u: mpmath.log(u) * W(g + s * u),
                                 [0, mpmath.mpf(d)])
                     for s, d in ((-1, dl), (1, dr)))
        err = abs(vals[0] - oracle)
    assert errs[0] > 0
    assert err <= errs[0]


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=8.0))
def test_linearity_property(a, width):
    f = lambda x: 2.0 * x + 1.0
    res = adaptive_quad(f, a, a + width, 1e-12)
    truth = (a + width) ** 2 + (a + width) - a ** 2 - a
    assert abs(res.value - truth) <= 1e-9 * max(1.0, abs(truth))


def test_kronrod_nodes_embed_gauss_7():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(GK15_NODES[1::2] - nodes)) <= 1e-15
    assert np.max(np.abs(G7_WEIGHTS - weights)) <= 1e-15


def test_gauss_kronrod_degrees():
    # K15 integrates x^k exactly on [-1, 1] for k <= 22 (23 by symmetry),
    # the embedded G7 for k <= 13; neither for the next even power
    k = np.arange(25)
    exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
    k15 = np.abs(GK15_NODES[None, :] ** k[:, None] @ GK15_WEIGHTS - exact)
    g7 = np.abs(GK15_NODES[None, 1::2] ** k[:, None] @ G7_WEIGHTS - exact)
    assert np.all(k15[:23] <= 1e-15) and k15[24] > 1e-12
    assert np.all(g7[:14] <= 1e-15) and g7[14] > 1e-6


def test_node_without_error_bound_is_never_accepted():
    # an infinite pointwise error (no bound) must not pass as small
    def f(ts, _):
        return np.ones(ts.shape), np.where(ts > 1.5, np.inf, 1e-20)

    with pytest.raises(errors.ToleranceNotMet):
        adaptive_panels(f, [0.0], [2.0], 1e-9, max_subdivisions=50)


def test_pieces_read_a_degree_14_polynomial_exactly():
    # p15 of a degree-14 polynomial is the polynomial itself: each piece,
    # down to 1e-14 wide, reads its integral to rounding, and the pieces'
    # P (unit pointwise bounds) is at least the piece's width
    coef = np.random.default_rng(3).standard_normal(15)

    def f(ts, _):
        return (np.polynomial.polynomial.polyval(ts, coef),
                np.ones(ts.shape))

    cuts = [-0.3, 0.2, 0.2 + 1e-14, 0.9, 0.9, 2.5]
    p = adaptive_panels(f, [-1.0, 1.0], [1.0, 2.0], 10.0, cuts=cuts)
    np.testing.assert_array_equal(p.lo, [1.0, -1.0, -0.3, 0.2, 0.2 + 1e-14,
                                         0.9])
    np.testing.assert_array_equal(p.hi, [2.0, -0.3, 0.2, 0.2 + 1e-14, 0.9,
                                         1.0])
    with mpmath.workdps(40):
        c = [mpmath.mpf(x) for x in coef.tolist()]
        F = lambda x: sum(ck * mpmath.mpf(x) ** (k + 1) / (k + 1)
                          for k, ck in enumerate(c))
        exact = [F(h) - F(l) for l, h in zip(p.lo.tolist(), p.hi.tolist())]
        rel = [abs((v - e) / e) for v, e in zip(p.value.tolist(), exact)]
    assert max(rel) <= 1e-13
    assert np.all(p.pointwise >= (p.hi - p.lo) * (1 - 1e-12))
    # without cuts every panel is one piece, read as K15
    whole = adaptive_panels(f, [-1.0, 1.0], [1.0, 2.0], 10.0)
    assert whole.value[0] == pytest.approx(comp_sum(p.value[1:]), rel=1e-13)


def _singular_integrand(kind, z0):
    """An integrand analytic on [-1, 1] with a pole or a log singularity
    at z0 (mpmath)."""
    if kind == "pole":
        return lambda x: mpmath.re(1 / (x - z0))
    return lambda x: mpmath.log(abs(x - z0))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["pole", "log"]),
       st.floats(min_value=2.5, max_value=8.0),
       st.floats(min_value=0.0, max_value=math.pi),
       st.lists(st.floats(min_value=-1.0, max_value=1.0,
                          exclude_min=True, exclude_max=True),
                min_size=1, max_size=6))
# odd and even about the middle: c_14 = 0, then c_13 = 0
@example("pole", 2.5, math.pi / 2, [0.5])
@example("log", 2.5, math.pi / 2, [0.5])
# a pole on the axis, 0.45 beyond the end, and a piece next to it
@example("pole", 2.5, 0.0, [0.9])
def test_piece_estimates_cover_their_errors(kind, rho, theta, cuts):
    # a piece's rule error (|c_13| + |c_14|) * width, plus the P of
    # correctly rounded values, covers its 40-digit error when the
    # singularity lies on the Bernstein ellipse of parameter rho >= 2.5
    # (below rho = 2 the error can exceed the estimate); over the
    # panel the pieces sum to at least |K15 - G7|
    with mpmath.workdps(40):
        z0 = mpmath.mpc(0.5 * (rho + 1 / rho) * math.cos(theta),
                        0.5 * (rho - 1 / rho) * math.sin(theta))
        f = _singular_integrand(kind, z0)
        vals = np.array([[float(f(mpmath.mpf(x)))
                          for x in GK15_NODES.tolist()]])
        owner, lo, hi, value, rule, P = quadrature._read_pieces(
            np.unique(cuts), np.array([-1.0]), np.array([1.0]), vals,
            U * np.abs(vals))
        exact = [mpmath.quad(f, [a, b])
                 for a, b in zip(lo.tolist(), hi.tolist())]
        err = np.array([float(abs(v - e))
                        for v, e in zip(value.tolist(), exact)])
    assert np.all(err <= rule + P), (err, rule, P)
    k15_g7 = abs(vals[0] @ GK15_WEIGHTS - vals[0, 1::2] @ G7_WEIGHTS)
    assert rule.sum() >= k15_g7


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3),
       st.floats(min_value=1e-6, max_value=1e3),
       st.lists(st.floats(min_value=0.0, max_value=1.0,
                          exclude_min=True, exclude_max=True),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_piece_estimates_of_a_degree_12_polynomial_are_rounding(
        lo, width, at, seed):
    # p15 of a degree-12 polynomial has c_13 = c_14 = 0: from values
    # correctly rounded at the nodes, its pieces' rule errors are
    # rounding, at most (1 + 15) u times the two coefficient rows'
    # 1-norms (4.24 + 4.41) times max|f| and the piece width
    coef = np.random.default_rng(seed).standard_normal(13)
    with mpmath.workdps(40):
        vals = np.array([[float(mpmath.polyval(coef[::-1].tolist(),
                                               mpmath.mpf(x)))
                          for x in GK15_NODES.tolist()]])
    hi = lo + width
    _, plo, phi, _, rule, _ = quadrature._read_pieces(
        np.unique(lo + width * np.array(at)), np.array([lo]), np.array([hi]),
        vals, None)
    assert np.all(rule <= 140.0 * U * np.max(np.abs(vals)) * (phi - plo))
