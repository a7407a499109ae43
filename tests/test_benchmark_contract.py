"""The names the benchmark's tracer binds in bsylab still resolve.

``perfbench/tracing.py`` wraps bsylab functions by module and attribute
name, binds their arguments by keyword to count work, and reads a few
private helpers.  A refactor that renames one of them, or changes what
one returns, breaks the traced benchmark; these tests catch that
without running it.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_boundaries_resolve_with_the_arguments_their_counters_read():
    tracing = _load_tracing()
    for mod_name, attr, _, counter in tracing.BOUNDARIES:
        fn = getattr(importlib.import_module(f"bsylab.{mod_name}"), attr)
        assert callable(fn), (mod_name, attr)
        if counter is None:
            continue
        # the keys of a["..."], the bound arguments the counter reads
        tree = ast.parse(inspect.getsource(counter))
        keys = {node.slice.value for node in ast.walk(tree)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == "a"
                and isinstance(node.slice, ast.Constant)}
        params = inspect.signature(fn).parameters
        assert keys <= set(params), (mod_name, attr, keys - set(params))


def test_module_attributes_read_by_the_tracer_exist():
    from bsylab import dirichlet, zeta
    modules = {"zeta": zeta, "dirichlet": dirichlet}
    tree = ast.parse(TRACING.read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("zeta", "_RS_CHEBS"), ("zeta", "RS_T_MIN"),
            ("zeta", "_em_choose_M"), ("dirichlet", "_table_arrays")} <= used
    for mod_name, attr in sorted(used):
        assert hasattr(modules[mod_name], attr), f"{mod_name}.{attr}"


@pytest.mark.parametrize("sigma,ts,target", [
    (0.5, [14.1], 1e-12),
    (0.6, np.linspace(1000.0, 1100.0, 50), 1e-9),
    (2.0, [0.0, 5.0], 1e-6),
    (-0.5, [3e4, 2.9e4], 1e-12),
])
def test_em_choose_m_is_one_more_than_the_terms_em_batch_sums(
        monkeypatch, sigma, ts, target):
    from bsylab import phases, zeta
    from bsylab.config import DEFAULT
    ts = np.asarray(ts, dtype=float)
    summed = []
    phase_sum = phases.phase_sum

    def spy(ns, amps, heights):
        summed.append(ns.size)
        return phase_sum(ns, amps, heights)

    monkeypatch.setattr(phases, "phase_sum", spy)
    zeta._em_batch(sigma, ts, DEFAULT, target)
    # positionally, as the tracer's EM counter calls it
    M = zeta._em_choose_M(sigma, float(np.max(ts)), DEFAULT, target)
    assert isinstance(M, int)
    assert summed == [M - 1]


def test_hardy_z_batch_makes_one_em_batch_call_per_octave_group(
        monkeypatch):
    # the tracer counts zeta.terms_summed on these calls, one per group
    # with that group's heights, so hoisting them would zero the counter
    from bsylab import zeta
    from bsylab.config import DEFAULT
    tracing = _load_tracing()
    ts = np.array([20.0, 50.0, 100.0, 130.0, 300.0, 900.0, 1000.0])
    calls = []
    em_batch = zeta._em_batch

    def spy(sigma, ts, cfg=DEFAULT, target=None):
        calls.append({"sigma": sigma, "ts": np.array(ts), "cfg": cfg,
                      "target": target})
        return em_batch(sigma, ts, cfg, target)

    monkeypatch.setattr(zeta, "_em_batch", spy)
    zeta.hardy_z_batch(ts, 1e-12)              # no Riemann-Siegel at 1e-12
    groups = [ts[m] for m in zeta._octave_groups(ts)]
    assert len(calls) == len(groups) == 5
    for a, heights in zip(calls, groups):
        assert np.array_equal(a["ts"], heights)
        assert (a["sigma"], a["target"]) == (0.5, 1e-12)
        assert tracing._em_counts(a, None)["terms"] > 0


def test_segment_profile_returns_what_the_panel_counter_unpacks(zeros_100):
    # tracing._panels unpacks (values, errors, subintervals, n_singular)
    # and sums the last two as counts; the tracer wraps log_singular_batch
    # and _segment_profile where integral and argument bind them by name
    from bsylab import argument, integral, quadrature
    from bsylab.config import DEFAULT
    assert integral.log_singular_batch is quadrature.log_singular_batch
    assert argument._segment_profile is integral._segment_profile
    tracing = _load_tracing()
    names = {(m, a) for m, a, _, _ in tracing.BOUNDARIES}
    assert {("integral", "log_singular_batch"),
            ("integral", "_segment_profile"),
            ("argument", "_segment_profile")} <= names
    g = zeros_100.ordinates
    cuts = np.array([10.0, g[0], 20.0, 20.0, 33.3])
    out = integral._segment_profile(cuts, g, DEFAULT)
    assert len(out) == 4
    for arr in out:
        assert isinstance(arr, np.ndarray) and arr.shape == (cuts.size - 1,)
    assert all(np.issubdtype(arr.dtype, np.integer) for arr in out[2:])
    counts = tracing._panels({}, out)
    assert counts == {"panels": int(out[2].sum()),
                      "singular_panels": int(out[3].sum())}
