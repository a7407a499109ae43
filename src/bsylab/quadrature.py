"""Vectorized adaptive quadrature and graded-mesh log-singular panels.

The adaptive driver keeps a stack of intervals and evaluates the
integrand on *all* active intervals in a single array call, so
integrands backed by the vectorized zeta engines stay cheap.  Error
estimation compares two separate Gauss-Legendre rules, 7 and 15 points
(not nested: 22 evaluations per panel), rather than Kronrod tables.
Reduction order is fixed (ascending interval position) for
bit-reproducibility.
"""

import math
from dataclasses import dataclass

import numpy as np

from .accum import comp_sum
from .errors import ToleranceNotMet

_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


@dataclass
class IntegralResult:
    """Value, conservative error estimate and subdivision diagnostics."""

    value: float
    abs_error_est: float
    subintervals: int
    singularities_handled: int = 0


def _panel_eval(f, lo, hi, nodes, weights):
    """Integrals of f over each [lo_i, hi_i] with a fixed rule; batched."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = f(ts.ravel()).reshape(ts.shape)
    return half * (vals * weights[None, :]).sum(axis=1)


def adaptive_quad(f, a: float, b: float, tol: float,
                  max_subdivisions: int = 20_000,
                  hard_fail: bool = True) -> IntegralResult:
    """Globally adaptive integration of a vectorized integrand on [a, b].

    ``f`` maps an ndarray of points to an ndarray of values (real or
    complex).  Raises ToleranceNotMet if the subdivision cap is reached
    while the summed error estimate still exceeds ``tol`` (unless
    ``hard_fail`` is False, in which case the best estimate is returned).
    """
    if b <= a:
        return IntegralResult(0.0, 0.0, 0)
    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    done_lo, done_val, done_err = [], [], []
    n_panels = 1
    while lo.size:
        coarse = _panel_eval(f, lo, hi, *_GL7)
        fine = _panel_eval(f, lo, hi, *_GL15)
        err = np.abs(fine - coarse)
        # local acceptance: proportional share of the global budget
        budget = tol * (hi - lo) / (b - a)
        ok = err <= np.maximum(budget, 1e-300)
        done_lo.extend(lo[ok].tolist())
        done_val.extend(fine[ok].tolist())
        done_err.extend(err[ok].tolist())
        lo_bad, hi_bad = lo[~ok], hi[~ok]
        n_panels += lo_bad.size
        if n_panels > max_subdivisions:
            if hard_fail:
                raise ToleranceNotMet(
                    f"subdivision cap {max_subdivisions} reached on "
                    f"[{a}, {b}]")
            done_lo.extend(lo_bad.tolist())
            done_val.extend(fine[~ok].tolist())
            done_err.extend(err[~ok].tolist())
            break
        mid = 0.5 * (lo_bad + hi_bad)
        lo = np.concatenate([lo_bad, mid])
        hi = np.concatenate([mid, hi_bad])
    order = np.argsort(np.array(done_lo), kind="stable")
    vals = np.asarray(done_val)[order]
    errs = np.asarray(done_err)[order]
    if np.iscomplexobj(vals):
        value = complex(comp_sum(vals.real), comp_sum(vals.imag))
    else:
        value = comp_sum(vals)
    return IntegralResult(value, comp_sum(errs), len(done_val))


def graded_log_mesh(w_min_rel: float, per_cell: int = 10):
    """Relative node/weight mesh for x in (0, 1] graded toward 0.

    Geometric cells [2^-(j+1), 2^-j] with ratio 1/2, refined until the
    innermost cell is below ``w_min_rel``; each cell carries a fixed
    Gauss-Legendre rule.  Returns (nodes, weights, stub_width).
    """
    J = max(1, int(math.ceil(math.log2(1.0 / w_min_rel))))
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(per_cell)
    nodes, weights = [], []
    for j in range(J):
        hi = 2.0 ** (-j)
        lo = hi / 2.0
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * gl_nodes)
        weights.append(half * gl_w)
    return (np.concatenate(nodes), np.concatenate(weights), 2.0 ** (-J))


def log_singular_batch(gammas, d_left, d_right, weight_f,
                       w_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of log|t - gamma| * weight(t) over [gamma-dl, gamma+dr].

    Vectorized over many singular points; the graded mesh (geometric
    refinement ratio 1/2 down to absolute width ``w_min``) is shared in
    relative coordinates.  The innermost stub is integrated analytically
    against weight(gamma).  Returns (values, error_estimates).
    """
    gammas = np.asarray(gammas, dtype=float)
    d_left = np.broadcast_to(np.asarray(d_left, dtype=float), gammas.shape)
    d_right = np.broadcast_to(np.asarray(d_right, dtype=float), gammas.shape)
    if gammas.size == 0:
        return np.zeros(0), np.zeros(0)
    d_min = min(float(np.min(d_left)), float(np.min(d_right)))
    rel = max(w_min / d_min, 1e-15)
    nodes, weights, stub = graded_log_mesh(rel, per_cell=10)
    nodes5, weights5, _ = graded_log_mesh(rel, per_cell=5)

    def one_side(d, sign):
        ts = gammas[:, None] + sign * d[:, None] * nodes[None, :]
        integ = (np.log(d[:, None] * nodes[None, :]) * weight_f(ts))
        v10 = d * (integ * weights[None, :]).sum(axis=1)
        ts5 = gammas[:, None] + sign * d[:, None] * nodes5[None, :]
        integ5 = (np.log(d[:, None] * nodes5[None, :]) * weight_f(ts5))
        v5 = d * (integ5 * weights5[None, :]).sum(axis=1)
        ws = d * stub
        v10 += weight_f(gammas) * ws * (np.log(ws) - 1.0)
        v5 += weight_f(gammas) * ws * (np.log(ws) - 1.0)
        # stub bound: weight variation across the stub
        stub_err = np.abs(weight_f(gammas + sign * ws) - weight_f(gammas)) \
            * ws * (np.abs(np.log(ws)) + 1.0)
        return v10, np.abs(v10 - v5) + stub_err

    vr, er = one_side(d_right, +1.0)
    vl, el = one_side(d_left, -1.0)
    return vr + vl, er + el
