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

``log_singular_batch`` integrates log|t - gamma| against a smooth
weight on each side of many points gamma at once, by product
integration (Davis & Rabinowitz, *Methods of Numerical Integration*,
sec. 2.5): Gauss-Legendre nodes with weights taken against the exact
log moments, 12 points per side checked by 8.
"""

from dataclasses import dataclass

import numpy as np

from .accum import comp_sum, comp_sum_complex
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
    """The accepted panels of one ``adaptive_panels`` run."""

    lo: np.ndarray
    hi: np.ndarray
    value: np.ndarray          # K15
    rule_error: np.ndarray     # |K15 - G7|
    pointwise: np.ndarray      # P, the propagated pointwise error
    payload: dict


def adaptive_panels(f, lo, hi, density: float, payload: dict | None = None,
                    max_subdivisions: int = 20_000) -> Panels:
    """Batched globally adaptive Gauss-Kronrod 7/15 over [lo_i, hi_i].

    ``f(ts, payload)`` gets the (n, 15) Kronrod nodes of the n active
    panels and their payload rows (a dict of per-panel arrays, copied to
    both halves on bisection) and returns (values, pointwise): the
    integrand at ts and a per-node bound on its own error, or None when
    the values are exact.  With P = half-width * sum_k w_k pointwise_k,
    a panel is accepted when |K15 - G7| <= density * width + P; a panel
    with an infinite P (a node whose error has no bound) is bisected
    instead.  Raises ToleranceNotMet once more than ``max_subdivisions``
    panels have been made.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    payload = {k: np.asarray(v) for k, v in (payload or {}).items()}
    keys = list(payload)
    span = (float(np.min(lo, initial=0.0)), float(np.max(hi, initial=0.0)))
    done = []
    n_panels = lo.size
    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vals, pw = f(mid[:, None] + half[:, None] * GK15_NODES[None, :],
                     payload)
        fine = half * (vals @ GK15_WEIGHTS)
        err = np.abs(fine - half * (vals[:, 1::2] @ G7_WEIGHTS))
        P = np.zeros(lo.size) if pw is None else half * (pw @ GK15_WEIGHTS)
        budget = np.maximum(density * (hi - lo), 1e-300)
        ok = np.isfinite(P) & (err <= budget + P)
        bad = ~ok
        n_panels += int(np.count_nonzero(bad))
        if n_panels > max_subdivisions:
            raise ToleranceNotMet(
                f"subdivision cap {max_subdivisions} reached on "
                f"[{span[0]}, {span[1]}]")
        done.append([lo[ok], hi[ok], fine[ok], err[ok], P[ok]]
                    + [payload[k][ok] for k in keys])
        if ok.all():
            break
        lo, mid, hi = lo[bad], mid[bad], hi[bad]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        payload = {k: np.concatenate([v[bad]] * 2)
                   for k, v in payload.items()}
    cols = [np.concatenate(c) for c in zip(*done)] if done \
        else [lo, hi, lo, lo, lo] + [payload[k] for k in keys]
    return Panels(*cols[:5], dict(zip(keys, cols[5:])))


def adaptive_quad(f, a: float, b: float, tol: float,
                  max_subdivisions: int = 20_000) -> IntegralResult:
    """Globally adaptive integration of a vectorized integrand on [a, b].

    ``f`` maps an ndarray of points to an ndarray of values (real or
    complex), taken as exact (P = 0).  Raises ToleranceNotMet if the
    subdivision cap is reached while the summed error estimate still
    exceeds ``tol``.
    """
    if b <= a:
        return IntegralResult(0.0, 0.0, 0)
    p = adaptive_panels(
        lambda ts, _: (f(ts.ravel()).reshape(ts.shape), None),
        [a], [b], tol / (b - a), None, max_subdivisions)
    # correctly rounded sums: independent of the acceptance order
    value = comp_sum_complex(p.value) if np.iscomplexobj(p.value) \
        else comp_sum(p.value)
    return IntegralResult(value, comp_sum(p.rule_error), p.value.size)


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


def log_singular_batch(gammas, d_left, d_right,
                       weight_f) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of log|t - gamma| * weight(t) over [gamma-dl, gamma+dr].

    Each side is one product rule, integral_0^d log(u) W(gamma +- u) du =
    d sum_k (w_k log d + o_k) W(gamma +- d x_k), exact for polynomial W
    of degree < n and geometrically convergent for W analytic around the
    side.  The value is the 12-point rule's; its error estimate is, per
    side, |v12 - v8| plus a rounding term 8u d (|log d| + 1) max|W| over
    the side's nodes.  ``weight_f`` is called once, on 40 points per
    singular point.  Returns (values, error_estimates).
    """
    gammas = np.asarray(gammas, dtype=float)
    d = np.stack([np.broadcast_to(np.asarray(side, dtype=float), gammas.shape)
                  for side in (d_left, d_right)])
    signed = d * np.array([-1.0, 1.0])[:, None]
    W = weight_f(gammas[..., None] + signed[..., None] * _LOG_NODES)
    logd = np.log(d)
    v = d[..., None] * np.add.reduceat(
        W * (logd[..., None] * _LOG_W + _LOG_O), [0, _LOG_N[0]], axis=-1)
    rounding = 8.0 * _U * d * (np.abs(logd) + 1.0) \
        * np.max(np.abs(W), axis=-1)
    err = np.abs(v[..., 0] - v[..., 1]) + rounding
    return v[0, :, 0] + v[1, :, 0], err[0] + err[1]
