"""Spans around bsylab's layer boundaries, recorded from outside the program.

``installed(tracer)`` replaces each boundary function with a wrapper at
the module attribute its caller looks it up by, and puts the originals
back on exit.  A wrapper records one span (name, layer, start, end,
parent id) and, after the call has returned, the machine-independent
counts of that call (points, terms, panels, entries, pairs).  Spans stay
in memory; ``layer_metrics`` turns the spans of one pass into the
per-layer metrics listed in ``METRICS``.

Time metrics named ``*_self_s`` are a layer's self time: the duration
of its spans minus the time in their child spans of other layers.  Other
``*_s`` metrics are the summed durations of the spans of one name that
are not nested in a span of the same name (recursion is counted once).
"""

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager

import numpy as np

from bsylab import dirichlet, zeta


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "counts")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent      # index into Tracer.spans, or -1
        self.start = self.end = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span store for one thread; reset between passes."""

    def __init__(self):
        self.spans = []
        self._open = []

    def reset(self):
        self.spans = []
        self._open = []

    def open(self, name, layer):
        rec = Span(name, layer, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        return rec

    def close(self, rec):
        rec.end = time.perf_counter()
        self._open.pop()


# ----------------------------------------------------------------------
# Counts taken at the boundaries (run after the wrapped call returns)
# ----------------------------------------------------------------------

def _z_counts(a, out):
    """Split Z points by the engine hardy_z_batch picks for them."""
    ts = np.asarray(a["ts"], dtype=float)
    n_corr = min(a["cfg"].rs_correction_terms, len(zeta._RS_CHEBS))
    use_rs = (ts >= zeta.RS_T_MIN) & (zeta.rs_error_bound(ts, n_corr)
                                      <= a["abs_tol"])
    rs_terms = np.floor(np.sqrt(ts[use_rs] / (2.0 * math.pi)))
    n_rs = int(np.count_nonzero(use_rs))
    return {"points": int(ts.size), "points_rs": n_rs,
            "points_em": int(ts.size) - n_rs,
            "terms_rs": int(rs_terms.sum())}


def _em_counts(a, out):
    ts = np.asarray(a["ts"], dtype=float)
    if ts.size == 0:
        return {"points": 0, "terms": 0}
    target = a["target"]
    if target is None:
        target = a["cfg"].target_abs_error
    M = zeta._em_choose_M(a["sigma"], float(np.max(ts)), a["cfg"], target)
    return {"points": int(ts.size), "terms": int(ts.size) * (M - 1)}


def _points(a, out):
    return {"points": int(np.asarray(a["ts"]).size)}


def _found(a, out):
    return {"found": len(out)}


def _panels(a, out):
    _, _, nsub, nsing = out
    return {"panels": int(np.sum(nsub)), "singular_panels": int(np.sum(nsing))}


def _entries(a, out):
    return {"entries": int(out.ns.size)}


def _eval_R_pairs(a, out):
    ns, _ = dirichlet._table_arrays(a["table"])
    return {"pairs": int(np.asarray(a["ts"]).size) * int(ns.size)}


def _mean_square_pairs(a, out):
    ns, _ = dirichlet._table_arrays(a["table"])
    return {"pairs": int(ns.size) * (int(ns.size) - 1) // 2}


#: (module, attribute, layer, counts).  Each entry is wrapped where its
#: caller looks it up: zeros, integral and argument call zeta.* through
#: the module; integral binds log_singular_batch by name; argument binds
#: _segment_profile and adaptive_quad by name; dirichlet calls
#: zeta._em_batch and zeta.zeta_afe_batch through the module.
BOUNDARIES = (
    ("zeta", "hardy_z_batch", "zeta", _z_counts),
    ("zeta", "_em_batch", "zeta", _em_counts),
    ("zeta", "zeta_afe_batch", "zeta", _points),
    ("zeta", "log_zeta_branch", "zeta", None),
    ("zeros", "find_zeros_up_to", "zeros", _found),
    ("zeros", "_find_in_window", "zeros", None),
    ("zeros", "verify_zero_list", "zeros", None),
    ("zeros", "import_zeros", "zeros", None),
    ("zeros", "export_zeros", "zeros", None),
    ("integral", "log_singular_batch", "quadrature", None),
    ("argument", "adaptive_quad", "quadrature", None),
    ("integral", "_segment_profile", "integral", _panels),
    ("argument", "_segment_profile", "integral", _panels),
    ("integral", "compute_I_many", "integral", None),
    ("integral", "fit_decay", "integral", None),
    ("argument", "lemma2_scan", "argument", None),
    ("argument", "omega_scan", "argument", None),
    ("argument", "S_of_t", "argument", None),
    ("argument", "S1_direct", "argument", None),
    ("argument", "S1_littlewood", "argument", None),
    ("resonator", "build_resonator", "resonator", _entries),
    ("resonator", "resonator_numerator", "resonator", None),
    ("dirichlet", "eval_R_batch", "dirichlet", _eval_R_pairs),
    ("dirichlet", "mean_square_exact", "dirichlet", _mean_square_pairs),
    ("dirichlet", "lemma3_lhs", "dirichlet", None),
    ("dirichlet", "lemma3_rhs", "dirichlet", None),
    ("dirichlet", "s1_resonance_statistic", "dirichlet", None),
    ("dirichlet", "_phase_increment", "dirichlet", None),
    ("cli", "run", "cli", None),
)


def _wrap(tracer, fn, span_name, layer, counter):
    sig = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.open(span_name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.counts = counter(bound.arguments, out)
        return out

    return wrapper


@contextmanager
def installed(tracer):
    """Wrap every boundary for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, layer, counter in BOUNDARIES:
            mod = importlib.import_module(f"bsylab.{mod_name}")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            # the callee's own module name, so that a function bound by
            # name into another module keeps one span name everywhere
            home = fn.__module__.rsplit(".", 1)[-1]
            setattr(mod, attr, _wrap(tracer, fn, f"{home}.{attr}", layer,
                                     counter))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ----------------------------------------------------------------------
# Per-layer metrics of one pass
# ----------------------------------------------------------------------

#: name -> (unit, better).  Counts repeat exactly for the same code and
#: inputs; times do not.
METRICS = {
    "zeta.z_calls": ("count", "lower"),
    "zeta.z_points": ("count", "lower"),
    "zeta.z_points_em": ("count", "lower"),
    "zeta.z_points_rs": ("count", "lower"),
    "zeta.terms_summed": ("count", "lower"),
    "zeta.z_self_s": ("s", "lower"),
    "zeta.z_points_per_s": ("1/s", "higher"),
    "zeta.offline_points": ("count", "lower"),
    "zeta.offline_self_s": ("s", "lower"),
    "zeta.branch_calls": ("count", "lower"),
    "zeta.branch_self_s": ("s", "lower"),
    "zeros.find_s": ("s", "lower"),
    "zeros.verify_s": ("s", "lower"),
    "zeros.io_s": ("s", "lower"),
    "zeros.found": ("count", "higher"),
    "zeros.z_points": ("count", "lower"),
    "zeros.z_points_per_zero": ("ratio", "lower"),
    "zeros.window_scans": ("count", "lower"),
    "quadrature.singular_calls": ("count", "lower"),
    "quadrature.singular_s": ("s", "lower"),
    "quadrature.adaptive_calls": ("count", "lower"),
    "quadrature.adaptive_s": ("s", "lower"),
    "integral.profile_s": ("s", "lower"),
    "integral.panels": ("count", "lower"),
    "integral.singular_panels": ("count", "lower"),
    "integral.z_points": ("count", "lower"),
    "integral.z_points_per_panel": ("ratio", "lower"),
    "argument.lemma2_s": ("s", "lower"),
    "argument.omega_s": ("s", "lower"),
    "argument.S_s": ("s", "lower"),
    "argument.S1_direct_s": ("s", "lower"),
    "argument.S1_littlewood_s": ("s", "lower"),
    "resonator.build_s": ("s", "lower"),
    "resonator.entries": ("count", "lower"),
    "resonator.numerator_s": ("s", "lower"),
    "dirichlet.eval_R_s": ("s", "lower"),
    "dirichlet.eval_R_pairs": ("count", "lower"),
    "dirichlet.eval_R_pairs_per_s": ("1/s", "higher"),
    "dirichlet.mean_square_s": ("s", "lower"),
    "dirichlet.mean_square_pairs": ("count", "lower"),
    "dirichlet.lemma3_lhs_s": ("s", "lower"),
    "dirichlet.lemma3_rhs_s": ("s", "lower"),
    "dirichlet.resonance_s": ("s", "lower"),
    "dirichlet.phase_bisections": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """The METRICS of one pass's spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def ancestors(s):
        while s.parent >= 0:
            s = spans[s.parent]
            yield s

    def named(name):
        return [s for s in spans if s.name == name]

    def outer(name):
        return [s for s in named(name)
                if not any(a.name == name for a in ancestors(s))]

    def dur(name):
        return math.fsum(s.duration for s in outer(name))

    def total(group, key):
        return sum(s.counts.get(key, 0) for s in group)

    z = named("zeta.hardy_z_batch")
    em_under_z = [s for s in named("zeta._em_batch")
                  if s.parent >= 0 and spans[s.parent].name
                  == "zeta.hardy_z_batch"]
    offline = [s for s in spans
               if s.name in ("zeta._em_batch", "zeta.zeta_afe_batch")
               and s.parent >= 0 and spans[s.parent].layer == "dirichlet"]
    z_zeros = [s for s in z if any(a.layer == "zeros" for a in ancestors(s))]
    z_integral = [s for s in z
                  if any(a.name == "integral._segment_profile"
                         for a in ancestors(s))]
    profiles = outer("integral._segment_profile")
    phase = named("dirichlet._phase_increment")

    z_points = total(z, "points")
    z_self = math.fsum(s.duration for s in z)
    found = total(named("zeros.find_zeros_up_to"), "found")
    zeros_z = total(z_zeros, "points")
    panels = total(profiles, "panels")
    integral_z = total(z_integral, "points")
    eval_R_pairs = total(named("dirichlet.eval_R_batch"), "pairs")
    eval_R_s = dur("dirichlet.eval_R_batch")

    return {
        "zeta.z_calls": len(z),
        "zeta.z_points": z_points,
        "zeta.z_points_em": total(z, "points_em"),
        "zeta.z_points_rs": total(z, "points_rs"),
        "zeta.terms_summed": total(z, "terms_rs") + total(em_under_z,
                                                          "terms"),
        "zeta.z_self_s": z_self,
        "zeta.z_points_per_s": _ratio(z_points, z_self),
        "zeta.offline_points": total(offline, "points"),
        "zeta.offline_self_s": math.fsum(s.duration for s in offline),
        "zeta.branch_calls": len(outer("zeta.log_zeta_branch")),
        "zeta.branch_self_s": dur("zeta.log_zeta_branch"),
        "zeros.find_s": dur("zeros.find_zeros_up_to"),
        "zeros.verify_s": dur("zeros.verify_zero_list"),
        "zeros.io_s": dur("zeros.import_zeros") + dur("zeros.export_zeros"),
        "zeros.found": found,
        "zeros.z_points": zeros_z,
        "zeros.z_points_per_zero": _ratio(zeros_z, found),
        "zeros.window_scans": len(named("zeros._find_in_window")),
        "quadrature.singular_calls": len(named(
            "quadrature.log_singular_batch")),
        "quadrature.singular_s": dur("quadrature.log_singular_batch"),
        "quadrature.adaptive_calls": len(named("quadrature.adaptive_quad")),
        "quadrature.adaptive_s": dur("quadrature.adaptive_quad"),
        "integral.profile_s": math.fsum(s.duration for s in profiles),
        "integral.panels": panels,
        "integral.singular_panels": total(profiles, "singular_panels"),
        "integral.z_points": integral_z,
        "integral.z_points_per_panel": _ratio(integral_z, panels),
        "argument.lemma2_s": dur("argument.lemma2_scan"),
        "argument.omega_s": dur("argument.omega_scan"),
        "argument.S_s": dur("argument.S_of_t"),
        "argument.S1_direct_s": dur("argument.S1_direct"),
        "argument.S1_littlewood_s": dur("argument.S1_littlewood"),
        "resonator.build_s": dur("resonator.build_resonator"),
        "resonator.entries": total(named("resonator.build_resonator"),
                                   "entries"),
        "resonator.numerator_s": dur("resonator.resonator_numerator"),
        "dirichlet.eval_R_s": eval_R_s,
        "dirichlet.eval_R_pairs": eval_R_pairs,
        "dirichlet.eval_R_pairs_per_s": _ratio(eval_R_pairs, eval_R_s),
        "dirichlet.mean_square_s": dur("dirichlet.mean_square_exact"),
        "dirichlet.mean_square_pairs": total(
            named("dirichlet.mean_square_exact"), "pairs"),
        "dirichlet.lemma3_lhs_s": dur("dirichlet.lemma3_lhs"),
        "dirichlet.lemma3_rhs_s": dur("dirichlet.lemma3_rhs"),
        "dirichlet.resonance_s": dur("dirichlet.s1_resonance_statistic"),
        # every bisection evaluates a midpoint and recurses into two halves
        "dirichlet.phase_bisections": sum(
            1 for s in phase if s.parent >= 0
            and spans[s.parent].name == "dirichlet._phase_increment") // 2,
        "cli.self_s": math.fsum(s.duration - child_time[i]
                                for i, s in enumerate(spans)
                                if s.name == "cli.run"),
    }
