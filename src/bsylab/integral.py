"""The critical-line log-modulus integral against the Cauchy weight.

Computes I(T) = integral over [-T, T] of log|zeta(1/2+it)| / (1/4+t^2),
whose decay encodes the horizontal distribution of zeta's nontrivial
zeros.  The integrand has integrable logarithmic singularities at every
zero ordinate, so [0, T] is partitioned with exactly one ordinate per
panel.  On the singular panel of gamma the integrand is split into
log|t-gamma'|/(1/4+t^2) for gamma' = gamma and every ordinate within
two panel radii of it (beyond the span's ends too), each handled by
Gauss-Legendre product rules from gamma' to the panel's ends, plus the
smooth remainder log|Z(t)/prod(t-gamma')|/(1/4+t^2), handled by
adaptive quadrature.  Taking out the neighbours' logs as well leaves the
remainder's nearest singularity more than two panel radii from gamma,
instead of at the next ordinate, half a gap beyond the panel's end.  The
panels between (fillers) are graded toward t = +-i/2, where zeta and the
weight have their poles (s = 1), and split where the tolerance needs it
near an ordinate, since Gauss-Kronrod converges at a rate set by the
nearest complex singularity; and no Kronrod node of the layout sits
within _NEAR_GUARD of its ordinate.  So the layout converges in the
first adaptive rounds, without Z'(gamma) from a difference stencil.
The same segment-profile engine serves cumulative scans (with the unit
weight, taken in closed form): its panels are laid out by the ordinates
alone, and each cut is read out of the panel it falls in.

Also provided: the closed-form per-zero summand log|rho/(1-rho)|, the
residual of I(T) against a hypothetical off-line zero sum (with its
T^2/log T normalization), decay-model least-squares fits, and the
truncated weighted-log identity whose value must tend to zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import errors, zeta
from .accum import comp_sum
from .config import DEFAULT, PrecisionConfig
from .quadrature import (_U, GK15_NODES, IntegralResult, _cut_inside,
                         adaptive_panels, log_singular_batch, split_at_cuts)
from .zeros import ZeroCandidate, ZeroList

__all__ = [
    "ScanReport", "compute_I", "compute_I_many", "tail_I", "zero_sum_term",
    "theorem2_residual", "fit_decay", "weight_identity_check", "MODELS",
]

MODELS = ("pure_power", "logT_over_T2", "sqrtlog_T2")

#: Inside this distance of an ordinate the smooth remainder is evaluated
#: from the stencil derivative of Z instead of the raw quotient; the
#: panel layout puts no Kronrod node there.
_NEAR_GUARD = 1e-6

#: Maximum half-width of a log-singular panel around an ordinate.
_SING_RADIUS = 1.0

#: A singular panel takes out the logs of the ordinates this near its own
#: (``_neighbours``): beyond, one lies _SING_RADIUS outside the panel.
_REACH = 2.0 * _SING_RADIUS

#: Widest step of a filler panel in asinh(2t): log 1.5 keeps every
#: filler within half its distance from t = +-i/2 (``_graded``).
_GRADE = math.log(1.5)

#: K15 - G7 on a filler is about this times max|weight| * width *
#: rho^-14, rho the Bernstein-ellipse parameter of the nearest ordinate
#: (0.2 to 0.36 on the fillers between t = 20 and 120).
_KRONROD_C = 0.4

#: The same for the rule error of a filler a cut falls inside, the sum of
#: its pieces' (|c_13| + |c_14|) * width (``quadrature.adaptive_panels``):
#: 1.0 to 2.1 times max|weight| * width * rho^-14 on the fillers between
#: t = 15 and 110 of the weighted integrand.
_TOP_MODES_C = 2.5

#: ``_graded`` splits a filler into at most this many equal parts: an
#: ordinate just beyond a span's end can lie arbitrarily near its end
#: filler, and equal parts that narrow would cost more than bisection.
_MAX_SPLIT = 16


@dataclass(frozen=True)
class ScanReport:
    """Samples of a decay statistic over a T-grid plus an optional fit.

    ``budgets`` (None: not known) bounds the error of each sample's
    statistic: the summed error estimates of the segment integrals it
    is made of.
    """

    samples: np.ndarray            # shape (n, 2): columns (T, stat)
    model: str
    fitted_params: np.ndarray
    residual_rms: float
    flags: tuple = ()
    budgets: np.ndarray | None = None      # shape (n,)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2:
            raise ValueError("samples must have shape (n, 2)")
        if np.any(np.diff(s[:, 0]) <= 0):
            raise ValueError("samples must be ascending in T")
        object.__setattr__(self, "samples", s)
        if self.budgets is not None:
            b = np.asarray(self.budgets, dtype=float)
            if b.shape != s.shape[:1] or not np.all(b >= 0):
                raise ValueError("budgets must be n non-negative numbers")
            object.__setattr__(self, "budgets", b)
        if self.model not in MODELS and self.model != "none":
            raise ValueError(f"unknown model {self.model!r}")


def _weight(t):
    return 1.0 / (0.25 + np.asarray(t, dtype=float) ** 2)


# ----------------------------------------------------------------------
# Segment profile engine
# ----------------------------------------------------------------------

def _z_log_derivative(gammas: np.ndarray,
                      cfg: PrecisionConfig) -> tuple[np.ndarray, np.ndarray]:
    """log|Z'(gamma)| for each ordinate via a 4-point stencil at +-h and
    +-2h (the fourth-order central difference, whose centre weight is 0).

    Also returns the relative error of |Z'| that the Z errors at the four
    stencil points carry, (e_1 + 8 e_2 + 8 e_3 + e_4) / (12 h |Z'|).
    """
    h = 1e-4
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    pts = (gammas[:, None] + offs[None, :]).ravel()
    z, e = zeta.hardy_z_batch(pts, cfg.target_abs_error, cfg)
    z, e = z.reshape(gammas.size, 4), e.reshape(gammas.size, 4)
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    azp = np.maximum(np.abs(z @ stencil), 1e-300)
    return np.log(azp), (e @ np.abs(stencil)) / azp


def _neighbours(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges [first_i, stop_i) of the ordinates of ``g`` (ascending)
    within _REACH of g_i, g_i's own index included."""
    return (np.searchsorted(g, g - _REACH, "left"),
            np.searchsorted(g, g + _REACH, "right"))


def _remainder_rule(ords: np.ndarray, cfg: PrecisionConfig, weight_f):
    """The smooth-remainder integrand of ``adaptive_panels``.

    Each panel's label indexes ``ords`` (-1: no ordinate in the panel).
    At each node of a singular panel of gamma the value is
    log|Z(t) / prod (t - gamma')| * weight(t), the product over gamma
    and its ``_neighbours`` in ``ords``: a neighbour's log would
    otherwise sit half a gap beyond the panel's end and cap the
    convergence of every rule on it.  A filler panel's value is
    log|Z(t)| * weight(t).  The pointwise bound is
    weight(t) * (-log(1 - e/|Z(t)|)) with e the error bound of Z(t); it
    is infinite where e >= |Z(t)|/2.  Within
    _NEAR_GUARD of gamma the quotient Z(t)/(t - gamma) is replaced by
    the stencil derivative |Z'(gamma)| (removable singularity) and e/|Z|
    by the stencil's relative error; the stencil is evaluated once per
    ordinate, the first time a node lands that close.  ``_panel_layout``
    puts no node there, so only a bisection or a cut brings one (the
    stencil's 1/(12h) factor makes its bound ~1e4 times Z's).
    ``weight_f`` None is the unit weight.
    """
    zp_log = np.full(ords.shape, np.nan)
    zp_rel = np.full(ords.shape, np.nan)
    first, stop = _neighbours(ords)
    width = int(np.max(stop - first, initial=0))

    def f(ts, labels):
        z, e = zeta.hardy_z_batch(ts.ravel(), cfg.target_abs_error, cfg)
        az = np.maximum(np.abs(z), 1e-300).reshape(ts.shape)
        out = np.log(az)
        rel = e.reshape(ts.shape) / az
        rows = np.flatnonzero(labels >= 0)
        k = labels[rows]
        tr = ts[rows]
        d = np.abs(tr - ords[k, None])
        # prod |t - gamma'| over the neighbours, one offset at a time
        nb = np.ones(tr.shape)
        for off in range(width):
            j = first[k] + off
            r = np.flatnonzero((j < stop[k]) & (j != k))
            nb[r] *= np.abs(tr[r] - ords[j[r], None])
        out[rows] -= np.log(np.maximum(d * nb, 1e-300))
        ri, ci = np.nonzero(d < _NEAR_GUARD)
        if ri.size:
            need = np.unique(k[ri])
            need = need[np.isnan(zp_log[need])]
            if need.size:
                zp_log[need], zp_rel[need] = _z_log_derivative(ords[need],
                                                               cfg)
            out[rows[ri], ci] = zp_log[k[ri]] - np.log(nb[ri, ci])
            rel[rows[ri], ci] = zp_rel[k[ri]]
        pw = np.full(ts.shape, np.inf)
        bounded = rel < 0.5
        pw[bounded] = -np.log1p(-rel[bounded])
        if weight_f is None:
            return out, pw
        w = weight_f(ts)
        return out * w, pw * np.abs(w)

    return f


def _split(p, q, n, to_u=None, from_u=None):
    """Each [p_i, q_i] in n_i pieces of equal length in u = to_u(t)
    (t itself by default), ascending; the ends stay p_i and q_i."""
    owner = np.repeat(np.arange(p.size), n)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    u0, u1 = (p, q) if to_u is None else (to_u(p), to_u(q))
    step = ((u1 - u0) / n)[owner]
    inner = u0[owner] + k * step
    inner = inner if from_u is None else from_u(inner)
    lo = np.where(k == 0, p[owner], inner)
    hi = np.append(lo[1:], 0.0)
    last = k == n[owner] - 1
    hi[last] = q[owner[last]]
    return lo, hi


def _graded(p, q, ords, density, weight_f, cuts=()):
    """Pieces (lo, hi) of the fillers [p_i, q_i], 0 <= p_i, ascending.

    First graded toward t = +-i/2: equal steps of at most _GRADE in
    asinh(2t), so that no piece is wider than half its distance
    |lo + i/2| from the Cauchy weight's poles (and zeta's, at s = 1).
    Then, with ``density`` given, each piece in equal parts, so narrow
    that K15 - G7 meets the piece's share of the tolerance although the
    nearest of ``ords`` lies only d beyond an end:
    _KRONROD_C * max|weight| * rho^-14 <= density, with
    rho = x + sqrt(x^2 - 1) and x = 1 + d / half-width; a piece that one
    of ``cuts`` (ascending) falls strictly inside is judged on its pieces'
    top modes instead, with _TOP_MODES_C.  Low fillers at a tight
    tolerance split; fillers high on the line or at a loose tolerance
    stay whole.  ``ords`` are the span's own and those within _REACH
    beyond its ends, the ordinates the segment profile reads: one just
    beyond an end limits the end filler as much as one inside.
    """
    n = np.ceil((np.arcsinh(2.0 * q) - np.arcsinh(2.0 * p)) / _GRADE)
    lo, hi = _split(p, q, np.maximum(n, 1).astype(int),
                    lambda t: np.arcsinh(2.0 * t),
                    lambda u: 0.5 * np.sinh(u))
    if density is None or not ords.size:
        return lo, hi
    j = np.searchsorted(ords, lo, "right")
    below = np.where(j > 0, ords[np.maximum(j - 1, 0)], -np.inf)
    above = np.where(j < ords.size, ords[np.minimum(j, ords.size - 1)],
                     np.inf)
    d = np.minimum(lo - below, above - hi)
    scale = 1.0 if weight_f is None else np.maximum(
        np.abs(weight_f(lo)), np.abs(weight_f(hi)))
    c = np.where(_cut_inside(np.asarray(cuts, dtype=float), lo, hi),
                 _TOP_MODES_C, _KRONROD_C)
    rho = np.maximum(c * scale / density, 1.0) ** (1.0 / 14.0)
    x = 0.5 * (rho + 1.0 / rho)
    n = np.ceil((hi - lo) * (x - 1.0) / (2.0 * d))
    return _split(lo, hi, np.clip(n, 1, _MAX_SPLIT).astype(int))


def _panel_layout(a: float, b: float, ords: np.ndarray, density=None,
                  weight_f=None, cuts=()):
    """Panels (lo, hi, gamma) tiling [a, b], 0 <= a, ascending.

    Each ordinate in [a, b] gets a singular panel capped at _SING_RADIUS
    around it (so the Cauchy weight's poles at +-i/2 stay at least 13
    side lengths from every side the product rule integrates, since
    gamma_1 > 14), at the midpoints to its neighbours and at a and b (an
    ordinate on an end has a one-sided panel).  A singular panel with a
    Kronrod node within _NEAR_GUARD of its ordinate (the middle node of
    a panel centred on it, as an isolated zero's is) keeps 0.9 of its
    right side instead, so no node needs the stencil derivative of Z
    (should the moved nodes land on it again, the stencil serves).
    Smooth filler panels (gamma NaN) cover the rest, graded toward
    +-i/2 and, at the tolerance ``density`` per unit length of
    weight_f(t) times log|Z(t)| (None: not), toward the nearest
    ordinates, in the span or within _REACH beyond it (``_graded``): the
    K15 error falls at a rate set by the nearest complex singularity,
    and a filler holding one of ``cuts`` is judged on its pieces.  Pieces
    no wider than 1e-14 are left out.  ``ords`` must be ascending.
    """
    if not b > a:
        return np.empty(0), np.empty(0), np.empty(0)
    g = ords[(ords >= a) & (ords <= b)]
    left = right = g
    if g.size:
        mid = 0.5 * (g[1:] + g[:-1])
        left = np.maximum(np.maximum(a, g - _SING_RADIUS),
                          np.concatenate([[a], mid]))
        right = np.minimum(np.minimum(b, g + _SING_RADIUS),
                           np.append(mid, b))
        c, h = 0.5 * (left + right), 0.5 * (right - left)
        near = np.min(np.abs(c[:, None] + h[:, None] * GK15_NODES
                             - g[:, None]), axis=1) < _NEAR_GUARD
        near &= (left < g) & (g < right)
        right[near] = g[near] + 0.9 * (right[near] - g[near])
    # the fillers: before each ordinate's panel, then the tail
    p, q = np.append(a, right), np.append(left, b)
    keep = (q > p + 1e-14) | (g.size == 0)
    near = ords[(ords >= a - _REACH) & (ords <= b + _REACH)]
    flo, fhi = _graded(p[keep], q[keep], near, density, weight_f, cuts)
    lo = np.concatenate([left, flo])
    order = np.argsort(lo, kind="stable")
    hi = np.concatenate([right, fhi])[order]
    gs = np.concatenate([g, np.full(flo.shape, math.nan)])[order]
    return lo[order], hi, gs


def _singular_pieces(cuts, ords, own, lo, hi, weight_f):
    """log|t - gamma'| * weight(t) over the pieces of singular panels,
    summed over gamma' = the panel's own ordinate and its neighbours.

    ``cuts`` ascending and distinct, each singular panel [lo_i, hi_i]
    holding ords[own_i] (``ords`` and the panels ascending), split at
    the cuts strictly inside it; the gamma' of panel i are ords[own_i]
    and its ``_neighbours`` in ``ords``, the set ``_remainder_rule``
    subtracts.  Every piece boundary x is, for each gamma' of its panel,
    one side of length |x - gamma'| of a one-sided product rule from
    gamma' (none on gamma' itself), and a piece's integral is
    F(piece_hi) - F(piece_lo) with F(x) the sum over gamma' of the signed
    integrals from gamma' to x (for the own gamma of an uncut panel: its
    two sides' sum).  All sides go through one
    ``log_singular_batch`` call.  Returns (piece_lo, values,
    error_estimates), each piece's error the sum of its two boundaries'
    side errors plus the rounding of their sums, n u |side| for n sides.
    """
    owner, plo, _ = split_at_cuts(cuts, lo, hi)
    # the boundaries panel by panel: piece k starts at k + owner[k] and
    # ends at the next one; panel i ends after its pieces
    at = np.arange(owner.size) + owner
    ends = np.cumsum(np.bincount(owner)) + np.arange(lo.size)
    x, panel = np.empty(at.size + lo.size), np.empty(at.size + lo.size, int)
    x[at], x[ends] = plo, hi
    panel[at], panel[ends] = owner, np.arange(lo.size)
    # the sides: boundary b has n_b of them, from ords[first .. stop)
    first, stop = (r[own[panel]] for r in _neighbours(ords))
    n = stop - first
    side = np.repeat(np.arange(x.size), n)
    c = np.repeat(first - np.cumsum(n) + n, n) + np.arange(side.size)
    g, xs = ords[c], x[side]
    S, E = log_singular_batch(g, np.maximum(g - xs, 0.0),
                              np.maximum(xs - g, 0.0), weight_f)
    F = np.bincount(side, np.sign(xs - g) * S, x.size)
    E = np.bincount(side, E + _U * n[side] * np.abs(S), x.size)
    return plo, F[at + 1] - F[at], E[at + 1] + E[at]


def _segment_profile(cuts: np.ndarray, ords: np.ndarray,
                     cfg: PrecisionConfig, weight_f=_weight):
    """Integrals of log|Z(t)|*weight(t) over each [cuts[i], cuts[i+1]].

    Returns (values, error_estimates, subintervals, n_singular) as
    per-segment arrays.  Panels are laid out by the ordinates alone over
    [cuts[0], cuts[-1]] and all are processed in one batched adaptive
    pass; a panel that a cut falls strictly inside is read out in pieces
    (``quadrature.adaptive_panels``), so a scan pays per panel, not per
    cut.  A singular panel's remainder has the logs of its own ordinate
    and of the ordinates of ``ords`` within _REACH of it taken out,
    beyond [cuts[0], cuts[-1]] too (``_remainder_rule``), and its
    log-singular parts add them back exactly (``_singular_pieces``), so
    the neighbours cost no bisections, not even an ordinate just beyond
    a span's end.  ``subintervals`` counts pieces and ``n_singular`` the
    ordinates in [cuts[i], cuts[i+1]) (one on cuts[-1] counts in the
    last non-empty segment).  A segment's error estimate sums the rule
    errors (|K15 - G7| for a whole panel) and the propagated pointwise Z
    error P over its smooth-remainder pieces, plus the product rules'
    |v12 - v8| and rounding terms of its log-singular parts, read piece
    by piece from one-sided product rules.  ``weight_f`` None is the
    unit weight, with the log-singular parts in closed form.
    """
    cuts = np.asarray(cuts, dtype=float)
    if np.any(np.diff(cuts) < 0):
        raise ValueError("cuts must be ascending")
    nseg = cuts.size - 1
    total_w = float(cuts[-1] - cuts[0])
    density = cfg.quad_tol / max(total_w, 1e-300)
    inner = np.unique(cuts)
    lo, hi, gs = _panel_layout(cuts[0], cuts[-1], ords, density, weight_f,
                               inner)
    last = np.searchsorted(cuts, cuts[-1]) - 1    # the last non-empty one

    def segment(t):
        return np.minimum(np.searchsorted(cuts, t, "right") - 1, last)

    vals = np.zeros(nseg)
    errs = np.zeros(nseg)
    nsub = np.zeros(nseg, dtype=int)
    nsing = np.zeros(nseg, dtype=int)

    # --- singular parts: one vectorized product-rule call over all sides
    sing = ~np.isnan(gs)
    g = gs[sing]
    # the neighbours come from the span's ordinates and those within
    # their reach beyond its ends; own indexes each panel's ordinate
    near = ords[(ords >= cuts[0] - _REACH) & (ords <= cuts[-1] + _REACH)]
    own = np.searchsorted(near, g)
    if g.size:
        plo, sv, se = _singular_pieces(inner, near, own, lo[sing], hi[sing],
                                       weight_f)
        np.add.at(vals, segment(plo), sv)
        np.add.at(errs, segment(plo), se)
        np.add.at(nsing, segment(g), 1)

    # --- smooth remainders: one batched adaptive pass over all panels
    gi = np.full(gs.shape, -1)
    gi[sing] = own
    p = adaptive_panels(_remainder_rule(near, cfg, weight_f), lo, hi,
                        density, gi, cfg.max_subdivisions, inner)
    seg = segment(p.lo)
    np.add.at(vals, seg, p.value)
    np.add.at(errs, seg, p.rule_error + p.pointwise)
    np.add.at(nsub, seg, 1)
    return vals, errs, nsub, nsing


def _require_cover(zl: ZeroList, height: float) -> None:
    if not isinstance(zl, ZeroList):
        raise errors.ZeroListInsufficient("zero list must be verified")
    zl.require_height(height)


def compute_I(T: float, zeros: ZeroList,
              cfg: PrecisionConfig = DEFAULT) -> IntegralResult:
    """I(T) = 2 * integral over [0, T] (the integrand is even)."""
    return compute_I_many([T], zeros, cfg)[0]


def compute_I_many(Ts, zeros: ZeroList,
                   cfg: PrecisionConfig = DEFAULT) -> list[IntegralResult]:
    """I(T) for an ascending T-grid in one cumulative pass over [0, max]."""
    Ts = np.asarray(Ts, dtype=float)
    if Ts.ndim != 1 or Ts.size == 0 or np.any(np.diff(Ts) <= 0) \
            or not np.all(Ts > 0):
        raise ValueError("Ts must be positive and strictly ascending")
    _require_cover(zeros, float(Ts[-1]))
    cuts = np.concatenate([[0.0], Ts])
    v, e, ns, sg = _segment_profile(cuts, zeros.ordinates, cfg)
    out = []
    for k in range(Ts.size):
        out.append(IntegralResult(
            2.0 * comp_sum(v[:k + 1]), 2.0 * comp_sum(e[:k + 1]),
            int(ns[:k + 1].sum()), int(sg[:k + 1].sum())))
    return out


def tail_I(T: float, T_max: float, zeros: ZeroList,
           cfg: PrecisionConfig = DEFAULT) -> IntegralResult:
    """-2 * integral over [T, T_max]; a truncated tail of I."""
    T, T_max = float(T), float(T_max)
    if not 0.0 <= T <= T_max:
        raise ValueError("need 0 <= T <= T_max")
    _require_cover(zeros, T_max)
    if T == T_max:
        return IntegralResult(0.0, 0.0, 0, 0)
    v, e, ns, sg = _segment_profile(np.array([T, T_max]),
                                    zeros.ordinates, cfg)
    return IntegralResult(-2.0 * float(v[0]), 2.0 * float(e[0]),
                          int(ns[0]), int(sg[0]))


# ----------------------------------------------------------------------
# Zero sums and residuals
# ----------------------------------------------------------------------

def zero_sum_term(rho: ZeroCandidate) -> float:
    """log|rho/(1-rho)| for rho = beta + i*gamma with beta in (1/2, 1).

    Equals 0.5*log((beta^2+gamma^2)/((1-beta)^2+gamma^2)); strictly
    positive, vanishing as beta -> 1/2.
    """
    b, g = rho.beta, rho.gamma
    if not 0.5 < b < 1.0:
        raise errors.BetaOutOfRange(f"beta = {b} outside (1/2, 1)")
    num = b * b + g * g
    den = (1.0 - b) * (1.0 - b) + g * g
    # log1p form keeps precision when beta is barely off the half line
    return 0.5 * math.log1p((num - den) / den)


def theorem2_residual(T: float, hypotheticals, zeros: ZeroList,
                      cfg: PrecisionConfig = DEFAULT) -> tuple[float, float]:
    """I(T) minus 2*pi times the hypothetical off-line zero sum.

    Entries of ``hypotheticals`` with ordinate outside [-T, T] are
    ignored.  Returns (residual, residual * T^2 / log T); under the
    verified-zeros regime (empty hypothetical list) the normalized form
    stays bounded across T.
    """
    T = float(T)
    if T < 3.0:
        raise ValueError("T must be >= 3")
    val = compute_I(T, zeros, cfg).value
    shift = 0.0
    for cand in hypotheticals:
        if -T <= cand.gamma <= T:
            shift += zero_sum_term(cand)
    residual = val - 2.0 * math.pi * shift
    return residual, residual * T * T / math.log(T)


# ----------------------------------------------------------------------
# Decay-model fits
# ----------------------------------------------------------------------

def _model_baseline(model: str, Ts: np.ndarray) -> np.ndarray:
    """log of the model shape with unit constant (fit target offset)."""
    if model == "logT_over_T2":
        return np.log(np.log(Ts)) - 2.0 * np.log(Ts)
    if model == "sqrtlog_T2":
        return 0.5 * np.log(np.log(Ts)) - 2.0 * np.log(Ts)
    raise ValueError(model)


def fit_decay(samples, model: str) -> ScanReport:
    """Least-squares fit of log|stat| against a decay model.

    ``pure_power`` fits log|stat| = c - alpha*log T (params [c, alpha]);
    the other models fit only the constant in front of a fixed shape
    (params [c]).  ``samples`` holds (T, stat) rows.  Windows where the
    statistic changes sign are flagged (log fits are distorted there)
    but all points are used.
    """
    s = np.asarray(samples, dtype=float)
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    Ts, stat = s[:, 0], s[:, 1]
    if Ts.size < 8:
        raise errors.DegenerateFit("need at least 8 samples")
    if math.log10(Ts[-1] / Ts[0]) < 1.5:
        raise errors.DegenerateFit("grid must span >= 1.5 decades")
    if np.any(stat == 0.0):
        raise errors.DegenerateFit("statistic vanishes at a sample")
    flags = tuple(
        f"sign_change_in_window:[{Ts[i]:.6g},{Ts[i + 1]:.6g}]"
        for i in range(Ts.size - 1)
        if np.sign(stat[i]) != np.sign(stat[i + 1]))
    y = np.log(np.abs(stat))
    if model == "pure_power":
        A = np.column_stack([np.ones_like(Ts), -np.log(Ts)])
        params, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ params
    else:
        base = _model_baseline(model, Ts)
        c_log = float(np.mean(y - base))
        params = np.array([math.exp(c_log)])
        resid = y - base - c_log
    if not np.all(np.isfinite(params)):
        raise errors.DegenerateFit("singular normal equations")
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return ScanReport(np.column_stack([Ts, stat]), model,
                      np.asarray(params, dtype=float), rms, flags)


# ----------------------------------------------------------------------
# Weighted-log identity
# ----------------------------------------------------------------------

def weight_identity_check(X: float, cfg: PrecisionConfig = DEFAULT) -> float:
    """Truncation of the identity integral of log|-1/2+it|/(1/4+t^2).

    The full integral over the real line vanishes; the truncated value
    over [-X, X] (computed as twice the even half) must satisfy
    |value| <= 4*(1+log X)/X.
    """
    X = float(X)
    if not (math.isfinite(X) and X >= 10.0):
        raise ValueError("X must be finite and >= 10")
    from .quadrature import adaptive_quad

    def f(t):
        return 0.5 * np.log(0.25 + t * t) * _weight(t)

    r = adaptive_quad(f, 0.0, X, tol=cfg.quad_tol,
                      max_subdivisions=cfg.max_subdivisions)
    return 2.0 * r.value
