"""The critical-line log-modulus integral against the Cauchy weight.

Computes I(T) = integral over [-T, T] of log|zeta(1/2+it)| / (1/4+t^2),
whose decay encodes the horizontal distribution of zeta's nontrivial
zeros.  The integrand has integrable logarithmic singularities at every
zero ordinate, so [0, T] is partitioned with exactly one ordinate per
panel; on a singular panel the integrand is split into
log|t-gamma|/(1/4+t^2), handled by a dedicated graded-mesh rule, plus
the smooth remainder log|Z(t)/(t-gamma)|/(1/4+t^2), handled by adaptive
quadrature.  The same segment-profile engine serves cumulative scans.

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
from .quadrature import IntegralResult, adaptive_panels, log_singular_batch
from .zeros import ZeroCandidate, ZeroList

__all__ = [
    "ScanReport", "bsy_integrand", "compute_I", "compute_I_many", "tail_I",
    "zero_sum_term", "theorem2_residual", "fit_decay",
    "weight_identity_check", "MODELS",
]

MODELS = ("pure_power", "logT_over_T2", "sqrtlog_T2")

#: Inside this distance of an ordinate the smooth remainder is evaluated
#: from the stencil derivative of Z instead of the raw quotient.
_NEAR_GUARD = 1e-6

#: Maximum half-width of a log-singular panel around an ordinate.
_SING_RADIUS = 1.0


@dataclass(frozen=True)
class ScanReport:
    """Samples of a decay statistic over a T-grid plus an optional fit."""

    samples: np.ndarray            # shape (n, 2): columns (T, stat)
    model: str
    fitted_params: np.ndarray
    residual_rms: float
    flags: tuple = ()

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2:
            raise ValueError("samples must have shape (n, 2)")
        if np.any(np.diff(s[:, 0]) <= 0):
            raise ValueError("samples must be ascending in T")
        object.__setattr__(self, "samples", s)
        if self.model not in MODELS and self.model != "none":
            raise ValueError(f"unknown model {self.model!r}")


def _weight(t):
    return 1.0 / (0.25 + np.asarray(t, dtype=float) ** 2)


def bsy_integrand(t: float, cfg: PrecisionConfig = DEFAULT) -> float:
    """log|zeta(1/2+it)| / (1/4+t^2); even in t.

    Raises NearZeroOrdinate when t is too close to a zero ordinate for
    the log to be evaluated pointwise (the integral routines handle
    those neighbourhoods by singularity subtraction instead).
    """
    t = float(t)
    return zeta.log_abs_zeta_half(abs(t), cfg) / (0.25 + t * t)


# ----------------------------------------------------------------------
# Segment profile engine
# ----------------------------------------------------------------------

def _z_log_derivative(gammas: np.ndarray,
                      cfg: PrecisionConfig) -> tuple[np.ndarray, np.ndarray]:
    """log|Z'(gamma)| for each ordinate via a 5-point stencil.

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


def _remainder_rule(ords: np.ndarray, cfg: PrecisionConfig, weight_f):
    """The smooth-remainder integrand of ``adaptive_panels``.

    Panel payload "g" indexes ``ords`` (-1: no ordinate in the panel).
    At each node the value is log|Z(t)/(t-gamma)| * weight(t), and its
    pointwise bound is weight(t) * (-log(1 - e/|Z(t)|)) with e the error
    bound of Z(t); it is infinite where e >= |Z(t)|/2.  Within
    _NEAR_GUARD of gamma the quotient is replaced by the stencil
    derivative |Z'(gamma)| (removable singularity) and e/|Z| by the
    stencil's relative error; the stencil is evaluated once per ordinate,
    the first time a node lands that close.
    """
    zp_log = np.full(ords.shape, np.nan)
    zp_rel = np.full(ords.shape, np.nan)

    def f(ts, payload):
        z, e = zeta.hardy_z_batch(ts.ravel(), cfg.target_abs_error, cfg)
        az = np.maximum(np.abs(z), 1e-300).reshape(ts.shape)
        out = np.log(az)
        rel = e.reshape(ts.shape) / az
        gi = np.broadcast_to(payload["g"][:, None], ts.shape)
        has = gi >= 0
        d = np.abs(ts[has] - ords[gi[has]])
        out[has] -= np.log(np.maximum(d, 1e-300))
        near = np.zeros(ts.shape, dtype=bool)
        near[has] = d < _NEAR_GUARD
        if np.any(near):
            need = np.unique(gi[near])
            need = need[np.isnan(zp_log[need])]
            if need.size:
                zp_log[need], zp_rel[need] = _z_log_derivative(ords[need],
                                                               cfg)
            out[near] = zp_log[gi[near]]
            rel[near] = zp_rel[gi[near]]
        w = weight_f(ts)
        pw = np.full(ts.shape, np.inf)
        bounded = rel < 0.5
        pw[bounded] = -np.log1p(-rel[bounded])
        return out * w, pw * np.abs(w)

    return f


def _segment_profile(cuts: np.ndarray, ords: np.ndarray,
                     cfg: PrecisionConfig, weight_f=_weight):
    """Integrals of log|Z(t)|*weight(t) over each [cuts[i], cuts[i+1]].

    Returns (values, error_estimates, subintervals, n_singular) as
    per-segment arrays.  All segments are processed in one batched
    adaptive pass; panels are cut so each contains at most one ordinate.
    A segment's error estimate sums |K15 - G7| and the propagated
    pointwise Z error P over its accepted smooth-remainder panels, plus
    the graded-mesh and stub bounds of its log-singular parts.
    """
    cuts = np.asarray(cuts, dtype=float)
    if np.any(np.diff(cuts) < 0):
        raise ValueError("cuts must be ascending")
    nseg = cuts.size - 1
    lo_all, hi_all, g_all, seg_all = [], [], [], []
    for i in range(nseg):
        a, b = cuts[i], cuts[i + 1]
        if b <= a:
            continue
        g = ords[(ords > a) & (ords < b)]
        # singular panels capped at _SING_RADIUS around each ordinate
        # (wider panels would make the graded log mesh resolve the
        # weight poorly); everything else is smooth filler.
        left = np.maximum.reduce([np.full(g.shape, a),
                                  g - _SING_RADIUS,
                                  np.concatenate([[a], 0.5 * (g[1:] + g[:-1])])
                                  ]) if g.size else np.zeros(0)
        right = np.minimum.reduce([np.full(g.shape, b),
                                   g + _SING_RADIUS,
                                   np.concatenate([0.5 * (g[1:] + g[:-1]),
                                                   [b]])
                                   ]) if g.size else np.zeros(0)
        pos = a
        for j in range(g.size):
            if left[j] > pos + 1e-14:
                lo_all.append(pos)
                hi_all.append(left[j])
                g_all.append(math.nan)
                seg_all.append(i)
            lo_all.append(left[j])
            hi_all.append(right[j])
            g_all.append(g[j])
            seg_all.append(i)
            pos = right[j]
        if b > pos + 1e-14 or not g.size:
            lo_all.append(pos)
            hi_all.append(b)
            g_all.append(math.nan)
            seg_all.append(i)
    lo = np.asarray(lo_all)
    hi = np.asarray(hi_all)
    gs = np.asarray(g_all)
    seg = np.asarray(seg_all, dtype=int)

    vals = np.zeros(nseg)
    errs = np.zeros(nseg)
    nsub = np.zeros(nseg, dtype=int)
    nsing = np.zeros(nseg, dtype=int)

    # --- singular parts: one vectorized graded-mesh call over all zeros
    sing = ~np.isnan(gs)
    if np.any(sing):
        gsing = gs[sing]
        d_left = np.maximum(gsing - lo[sing], 1e-12)
        d_right = np.maximum(hi[sing] - gsing, 1e-12)
        sv, se = log_singular_batch(gsing, d_left, d_right, weight_f,
                                    w_min=cfg.target_abs_error)
        np.add.at(vals, seg[sing], sv)
        np.add.at(errs, seg[sing], se)
        np.add.at(nsing, seg[sing], 1)

    # --- smooth remainders: one batched adaptive pass over all panels
    gi = np.full(gs.shape, -1)
    gi[sing] = np.arange(np.count_nonzero(sing))
    total_w = float(cuts[-1] - cuts[0])
    p = adaptive_panels(_remainder_rule(gs[sing], cfg, weight_f), lo, hi,
                        cfg.quad_tol / max(total_w, 1e-300),
                        {"g": gi, "seg": seg}, cfg.max_subdivisions)
    np.add.at(vals, p.payload["seg"], p.value)
    np.add.at(errs, p.payload["seg"], p.rule_error + p.pointwise)
    np.add.at(nsub, p.payload["seg"], 1)
    return vals, errs, nsub, nsing


def _require_cover(zl: ZeroList, height: float) -> None:
    if not isinstance(zl, ZeroList):
        raise errors.ZeroListInsufficient("zero list must be verified")
    zl.require_height(height)


def compute_I(T: float, zeros: ZeroList,
              cfg: PrecisionConfig = DEFAULT) -> IntegralResult:
    """I(T) = 2 * integral over [0, T] (the integrand is even)."""
    T = float(T)
    if T <= 0:
        raise ValueError("T must be positive")
    _require_cover(zeros, T)
    v, e, ns, sg = _segment_profile(np.array([0.0, T]), zeros.ordinates, cfg)
    return IntegralResult(2.0 * float(v[0]), 2.0 * float(e[0]),
                          int(ns[0]), int(sg[0]))


def compute_I_many(Ts, zeros: ZeroList,
                   cfg: PrecisionConfig = DEFAULT) -> list[IntegralResult]:
    """I(T) for an ascending T-grid in one cumulative pass over [0, max]."""
    Ts = np.asarray(Ts, dtype=float)
    if Ts.ndim != 1 or Ts.size == 0 or np.any(np.diff(Ts) <= 0) \
            or Ts[0] <= 0:
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
    if T > T_max:
        raise ValueError("need T <= T_max")
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
    if isinstance(rho, tuple):
        rho = ZeroCandidate(*rho)
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
        if isinstance(cand, tuple):
            cand = ZeroCandidate(*cand)
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
    (params [c]).  Windows where the statistic changes sign are flagged
    (log fits are distorted there) but all points are used.
    """
    if isinstance(samples, ScanReport):
        s = samples.samples
    else:
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
    if X < 10.0:
        raise ValueError("X must be >= 10")
    from .quadrature import adaptive_quad

    def f(t):
        return 0.5 * np.log(0.25 + t * t) * _weight(t)

    r = adaptive_quad(f, 0.0, X, tol=cfg.quad_tol,
                      max_subdivisions=cfg.max_subdivisions)
    return 2.0 * r.value
