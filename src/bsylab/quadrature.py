"""Vectorized adaptive quadrature and product rules for log singularities.

One adaptive routine, ``adaptive_panels``, serves every smooth integral
of the package.  It keeps a stack of panels and evaluates the integrand
on *all* active panels in a single array call, so integrands backed by
the vectorized zeta engines stay cheap.  Each panel carries the nested
Gauss-Kronrod 7/15 pair (QUADPACK constants): 15 evaluations give the
Kronrod value K15 and, from the odd nodes, the embedded Gauss value G7.
A panel is accepted when |K15 - G7| is within its share of the budget
plus P, the integrand's own pointwise error propagated through the
Kronrod weights; P is reported as part of the error.  Reduction order
is fixed for bit-reproducibility.

Cuts read a panel out in pieces instead of bounding it.  A panel that a
cut falls strictly inside is split there, and each piece is read from
the panel's own 15 values: its value is the integral over the piece of
p15, the degree-14 interpolant through them, its rule error is
(|c_13| + |c_14|) times its width, c_m the Legendre coefficients of
p15 (a bound on p15's two top modes over the piece, which shrinks at
p15's own rate; P. Gonnet, ACM TOMS 37, 2010, takes error estimates
from the interpolant in use), and its P uses the integrals of p15's
Lagrange basis over the piece as weights.  Over a whole panel the
values sum to K15, the rule errors to at least 4.4 |K15 - G7| and the
P to at least P.  So a scan with many cuts pays per panel, not per cut.

``log_singular_batch`` integrates log|t - gamma| against a smooth
weight on each side of many points gamma at once, by product
integration (Davis & Rabinowitz, *Methods of Numerical Integration*,
sec. 2.5): Gauss-Legendre nodes with weights taken against the exact
log moments, 12 points per side checked by 8; the unit weight
(``weight_f=None``) is taken in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .accum import comp_sum, sorted_unique
from .errors import ToleranceNotMet

# Gauss-Kronrod 7/15 on [-1, 1] (Piessens et al., QUADPACK, 1983, qk15),
# nodes ascending; the 7 Gauss nodes are the odd positions 1, 3, ..., 13.
_XK = np.array([0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144845693013,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245,
                0.0])
_WK = np.array([0.022935322010529224963732008058970,
                0.063092092629978553290700663189204,
                0.104790010322250183839876322541518,
                0.140653259715525918745189590510238,
                0.169004726639267902826583426598550,
                0.190350578064785409913256402421014,
                0.204432940075298892414161999234649,
                0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])
GK15_NODES = np.concatenate([-_XK, _XK[-2::-1]])
GK15_WEIGHTS = np.concatenate([_WK, _WK[-2::-1]])
G7_WEIGHTS = np.concatenate([_WG, _WG[-2::-1]])


#: The Legendre coefficients c_0..c_14 of p15, the degree-14 interpolant
#: through the 15 Kronrod values, are this matrix times those values.
_TO_LEGENDRE = np.linalg.inv(np.polynomial.legendre.legvander(GK15_NODES, 14))


def _piece_map():
    """The (15, 16) map from D_0..D_15 to a piece's weights for p15: the
    integrals of the Lagrange bases on the Kronrod nodes.

    D_m is the divided difference over a piece of the monic Legendre
    polynomial p_m = P_m / k_m, k_m = binom(2m, m) / 2^m.  Over a piece
    of width du the Legendre moments are du k_1 D_1 and
    du (k_{m+1} D_{m+1} - k_{m-1} D_{m-1}) / (2m + 1), and the Lagrange
    basis has the Legendre coefficients ``_TO_LEGENDRE``.
    """
    k = np.array([math.comb(2 * m, m) / 2.0 ** m for m in range(16)])
    to_moments = np.zeros((16, 15))
    to_moments[1, 0] = 1.0
    for m in range(1, 15):
        to_moments[m + 1, m], to_moments[m - 1, m] = 1.0, -1.0
        to_moments[:, m] /= 2 * m + 1
    to_moments *= k[:, None]
    return np.ascontiguousarray((to_moments @ _TO_LEGENDRE).T)


_PIECE_MAP = _piece_map()
#: c_13 and c_14 of p15 from its 15 values, as a (15, 2) right factor.
_TOP_MODES = np.ascontiguousarray(_TO_LEGENDRE[13:].T)
#: Recurrence coefficients of the monic Legendre polynomials.
_MONIC_C = np.arange(16) ** 2 / (4.0 * np.arange(16) ** 2 - 1.0)


@dataclass
class IntegralResult:
    """Value, error estimate and subdivision diagnostics.

    ``abs_error_est`` sums, over the accepted panels, |K15 - G7| and the
    propagated pointwise error of the integrand, plus, for any
    log-singular panels, the product rules' |v12 - v8| and rounding
    terms.
    """

    value: float
    abs_error_est: float
    subintervals: int
    singularities_handled: int = 0


@dataclass
class Panels:
    """The accepted panels of one ``adaptive_panels`` run, one row per
    piece (a panel without a cut strictly inside is one piece)."""

    lo: np.ndarray
    hi: np.ndarray
    value: np.ndarray          # K15, or the integral of p15 over the piece
    rule_error: np.ndarray     # |K15 - G7|, or (|c_13| + |c_14|) * width
    pointwise: np.ndarray      # P, the propagated pointwise error


def _cut_inside(cuts: np.ndarray, lo, hi) -> np.ndarray:
    """Whether some cut lies strictly inside each [lo_i, hi_i]; ``cuts``
    ascending."""
    return np.searchsorted(cuts, lo, "right") \
        < np.searchsorted(cuts, hi, "left")


def split_at_cuts(cuts: np.ndarray, lo, hi):
    """The pieces into which the cuts strictly inside [lo_i, hi_i] split it.

    ``cuts`` ascending and distinct.  Returns (owner, piece_lo, piece_hi):
    panel i gives one piece more than it has cuts inside, ascending, and
    the pieces come panel by panel.
    """
    i0 = np.searchsorted(cuts, lo, "right")
    n = np.searchsorted(cuts, hi, "left") - i0 + 1
    owner = np.repeat(np.arange(n.size), n)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    j = i0[owner] + k
    piece_lo = np.where(k == 0, lo[owner], cuts.take(j - 1, mode="clip"))
    piece_hi = np.where(k == n[owner] - 1, hi[owner],
                        cuts.take(j, mode="clip"))
    return owner, piece_lo, piece_hi


def _piece_weights(a: np.ndarray, du: np.ndarray) -> np.ndarray:
    """The (15, n) weights of the pieces [a_i, a_i + du_i] of [-1, 1],
    which integrate p15 over the piece.

    The divided differences D_m of the monic Legendre polynomials over
    the piece follow their three-term recurrence alongside p_m(a), with
    no difference of nearby values, so a narrow piece keeps its relative
    accuracy.
    """
    x = np.stack([a + du, a])
    d = np.empty((16, a.size))
    d[0], d[1] = 0.0, 1.0
    # rows D_m, p_m(a) for m - 1, m and m + 1
    prev = np.stack([d[0], np.ones(a.size)])
    cur = np.stack([d[1], a])
    nxt = np.empty((2, a.size))
    for m in range(1, 15):
        np.multiply(x, cur, out=nxt)
        nxt[0] += cur[1]
        prev *= _MONIC_C[m]
        nxt -= prev
        d[m + 1] = nxt[0]
        prev, cur, nxt = cur, nxt, prev
    w = _PIECE_MAP @ d
    w *= du
    return w


def _read_pieces(cuts, lo, hi, vals, pw):
    """Value, rule error and P of each piece of the panels [lo_i, hi_i].

    ``vals`` and ``pw`` are the panels' 15 Kronrod values and pointwise
    bounds (pw None: exact values).  A piece's weights are the integrals
    of the Lagrange basis over it, so its value is the integral of p15
    and its P the half-width times sum_k |weight_k| pw_k.  Its rule error
    is (|c_13| + |c_14|) times its width, c_m the Legendre coefficients
    of its panel's p15: a bound on p15's two top modes over the piece, so
    it shrinks at p15's own rate.  Over a panel these sum to
    (|c_13| + |c_14|) * width, at least 4.4 times |K15 - G7| =
    width * |c_14| * |G7(P_14)| / 2, |G7(P_14)| = 0.454.  Returns (owner,
    lo, hi, value, rule error, P) per piece.
    """
    owner, plo, phi = split_at_cuts(cuts, lo, hi)
    mid, half = 0.5 * (lo + hi)[owner], 0.5 * (hi - lo)[owner]
    ul = np.where(plo == lo[owner], -1.0, (plo - mid) / half)
    w = _piece_weights(ul, (phi - plo) / half)
    value = half * np.einsum("ki,ki->i", w, vals.T[:, owner])
    rule = np.abs(vals @ _TOP_MODES).sum(axis=1)[owner] * (phi - plo)
    P = np.zeros(owner.size) if pw is None else half * np.einsum(
        "ki,ki->i", np.abs(w, out=w), pw.T[:, owner])
    return owner, plo, phi, value, rule, P


def adaptive_panels(f, lo, hi, density: float, labels=None,
                    max_subdivisions: int = 20_000, cuts=()) -> Panels:
    """Batched globally adaptive Gauss-Kronrod 7/15 over [lo_i, hi_i].

    ``f(ts, labels)`` gets the (n, 15) Kronrod nodes of the n active
    panels and their ``labels`` (one integer per panel, copied to both
    halves on bisection; None if none were given) and returns (values,
    pointwise): the integrand at ts and a per-node bound on its own
    error, or None when the values are exact.  With P = half-width *
    sum_k w_k pointwise_k, a panel is accepted when |K15 - G7| <=
    density * width + P; a panel with an infinite P (a node whose error
    has no bound) is bisected instead.  A panel that one of ``cuts``
    (any order) falls strictly inside is read in pieces
    (``_read_pieces``) and accepted when its pieces' rule errors, which
    sum to (|c_13| + |c_14|) * width, are within density * width plus
    their summed P; that sum is at least 4.4 |K15 - G7|, so a cut never
    loosens the rule-error side of the test.  Its rows in the result are
    its pieces.  Raises ToleranceNotMet once more than
    ``max_subdivisions`` panels have been made.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    labels = None if labels is None else np.asarray(labels)
    span = (float(np.min(lo, initial=np.inf)),
            float(np.max(hi, initial=-np.inf)))
    cuts = sorted_unique(np.asarray(cuts, dtype=float))
    split = _cut_inside(cuts, lo, hi)
    done = [[np.empty(0)] * 5]
    n_panels = lo.size
    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vals, pw = f(mid[:, None] + half[:, None] * GK15_NODES[None, :],
                     labels)
        fine = half * (vals @ GK15_WEIGHTS)
        err = np.abs(fine - half * (vals[:, 1::2] @ G7_WEIGHTS))
        P = np.zeros(lo.size) if pw is None else half * (pw @ GK15_WEIGHTS)
        s = np.flatnonzero(split)
        if s.size:
            owner, *pieces = _read_pieces(cuts, lo[s], hi[s], vals[s],
                                          None if pw is None else pw[s])
            err[s] = np.bincount(owner, pieces[3], s.size)   # rule errors
            P[s] = np.bincount(owner, pieces[4], s.size)
        budget = np.maximum(density * (hi - lo), 1e-300)
        ok = np.isfinite(P) & (err <= budget + P)
        bad = ~ok
        n_panels += int(np.count_nonzero(bad))
        if n_panels > max_subdivisions:
            raise ToleranceNotMet(
                f"subdivision cap {max_subdivisions} reached on "
                f"[{span[0]}, {span[1]}]")
        whole = ok & ~split
        done.append([lo[whole], hi[whole], fine[whole], err[whole], P[whole]])
        if s.size:
            keep = ok[s][owner]
            done.append([c[keep] for c in pieces])
        if ok.all():
            break
        lo, mid, hi = lo[bad], mid[bad], hi[bad]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        if labels is not None:
            labels = np.concatenate([labels[bad]] * 2)
        split = np.concatenate([split[bad]] * 2)
        split[split] = _cut_inside(cuts, lo[split], hi[split])
    return Panels(*map(np.concatenate, zip(*done)))


def adaptive_quad(f, a: float, b: float, tol: float,
                  max_subdivisions: int = 20_000) -> IntegralResult:
    """Globally adaptive integration of a vectorized integrand on [a, b].

    ``f`` maps an ndarray of points to an ndarray of real values, taken
    as exact (P = 0).  Raises ToleranceNotMet if the subdivision cap is
    reached while the summed error estimate still exceeds ``tol``.
    """
    if b <= a:
        return IntegralResult(0.0, 0.0, 0)
    p = adaptive_panels(
        lambda ts, _: (f(ts.ravel()).reshape(ts.shape), None),
        [a], [b], tol / (b - a), None, max_subdivisions)
    # correctly rounded sums: independent of the acceptance order
    return IntegralResult(comp_sum(p.value), comp_sum(p.rule_error),
                          p.value.size)


def _log_product_rule(n: int):
    """Gauss-Legendre nodes x_k, weights w_k and log moments o_k on [0, 1].

    o_k = integral_0^1 log(x) l_k(x) dx for the Lagrange basis l_k of
    the nodes.  The shifted Legendre expansion of l_k, whose
    coefficients the Gauss rule gives exactly, yields o_k = w_k
    sum_{m<n} (2m+1) P_m(2x_k - 1) mu_m with mu_0 = -1 and
    mu_m = (-1)^(m+1) / (m(m+1)).
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x, w, m = 0.5 * (x + 1.0), 0.5 * w, np.arange(n)
    mu = np.where(m == 0, -1.0,
                  (-1.0) ** (m + 1) / np.maximum(m * (m + 1), 1))
    P = np.polynomial.legendre.legvander(2.0 * x - 1.0, n - 1)
    return x, w, w * (P @ ((2 * m + 1) * mu))


#: The 12-point product rule, then the 8-point one that checks it.
_LOG_N = (12, 8)
_LOG_NODES, _LOG_W, _LOG_O = map(np.concatenate,
                                 zip(*map(_log_product_rule, _LOG_N)))
#: Unit roundoff of float64.
_U = 0.5 * np.finfo(float).eps
#: ``log_singular_batch`` weighs at most this many sides at once (its
#: temporaries: 20 points a side, 160 KiB each).
_LOG_BLOCK = 1 << 10


def log_singular_batch(gammas, d_left, d_right,
                       weight_f) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of log|t - gamma| * weight(t) over [gamma-dl, gamma+dr].

    Each side is one product rule, integral_0^d log(u) W(gamma +- u) du =
    d sum_k (w_k log d + o_k) W(gamma +- d x_k), exact for polynomial W
    of degree < n and geometrically convergent for W analytic around the
    side.  The value is the 12-point rule's; its error estimate is, per
    side, |v12 - v8| plus a rounding term 8u d (|log d| + 1) max|W| over
    the side's nodes.  ``weight_f`` is called on 20 points per side,
    _LOG_BLOCK sides at a time, so that the temporaries do not grow with
    the batch.  ``weight_f=None`` is the unit weight, taken exactly: a side is
    d (log d - 1), and its error estimate the rounding term
    4u d (|log d| + 1) alone.  A side of length 0 is left out, so
    one-sided rules come from d = 0 on the other side.  Returns (values,
    error_estimates).
    """
    gammas = np.asarray(gammas, dtype=float)
    d = np.stack([np.broadcast_to(np.asarray(side, dtype=float), gammas.shape)
                  for side in (d_left, d_right)])
    live = d > 0
    dl = d[live]
    logd = np.log(dl)
    val, err = np.zeros(d.shape), np.zeros(d.shape)
    if weight_f is None:
        # log d to an ulp, then a rounding each in log d - 1 and the
        # product
        val[live] = dl * (logd - 1.0)
        err[live] = 4.0 * _U * dl * (np.abs(logd) + 1.0)
        return val[0] + val[1], err[0] + err[1]
    # sides can number in the millions, 20 points each: the weight is
    # taken _LOG_BLOCK sides at a time, in place where the arithmetic
    # allows
    sd = (d * np.array([-1.0, 1.0])[:, None])[live]
    g = np.broadcast_to(gammas, d.shape)[live]
    v, rounding = np.empty((dl.size, 2)), np.empty(dl.size)
    for b0 in range(0, dl.size, _LOG_BLOCK):
        blk = slice(b0, b0 + _LOG_BLOCK)
        W = sd[blk, None] * _LOG_NODES
        W += g[blk, None]
        W = weight_f(W)
        rounding[blk] = np.maximum(W.max(axis=-1), -W.min(axis=-1))
        W *= logd[blk, None] * _LOG_W + _LOG_O
        v[blk] = np.add.reduceat(W, [0, _LOG_N[0]], axis=-1)
    v *= dl[:, None]
    rounding *= 8.0 * _U * dl * (np.abs(logd) + 1.0)
    val[live] = v[:, 0]
    err[live] = np.abs(v[:, 0] - v[:, 1]) + rounding
    return val[0] + val[1], err[0] + err[1]
