"""The phase-kernel module: one home for its names, and its greedy cut."""

import ast
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsylab import errors, phases, zeta

_SRC = Path(phases.__file__).parent


def _phases_names():
    """The names bound at the top level of phases.py."""
    names = set()
    for node in ast.parse((_SRC / "phases.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def _uses(tree):
    """(module, name) of every ``module.name`` and ``from module import
    name`` in a parsed file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            yield node.value.id, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module.rsplit(".", 1)[-1], alias.name


def test_kernel_names_have_one_home():
    # no module reaches into phases by a private name, none reads a moved
    # name off zeta, and zeta keeps no copy or alias of one
    ours = _phases_names()
    moved = ours | {"_" + n for n in ours} | {"_EM_CHUNK", "_NEAR_BLOCK"}
    assert not [n for n in moved if hasattr(zeta, n)]
    found = [(path.name, owner, name)
             for path in sorted(_SRC.glob("*.py"))
             for owner, name in _uses(ast.parse(path.read_text()))
             if (owner == "phases" and name.startswith("_")
                 and path.stem != "phases")
             or (owner == "zeta" and name in moved)]
    assert found == []


def _plain_clusters(srt, rho, groups):
    """The greedy cut one height at a time: a cluster takes each next
    height within 2*rho of its first and, with groups, in its group."""
    K = len(srt)
    starts, i = [], 0
    while i < K:
        starts.append(i)
        j = i
        while j < K and srt[j] <= srt[i] + 2.0 * rho \
                and (groups is None or groups[j] == groups[i]):
            j += 1
        i = j
    ends = starts[1:] + [K]
    mid = [0.5 * (np.longdouble(srt[s]) + np.longdouble(srt[e - 1]))
           for s, e in zip(starts, ends)]
    cl = [c for c, (s, e) in enumerate(zip(starts, ends))
          for _ in range(s, e)]
    x = [float((np.longdouble(srt[k]) - mid[cl[k]]) / rho) for k in range(K)]
    return starts, ends, cl, mid, x


@st.composite
def _cut_inputs(draw):
    """Ascending heights with repeats, a cluster radius (finite or
    infinite) and, or not, a non-decreasing group key per height."""
    base = draw(st.lists(st.floats(0.0, 2e4), min_size=1, max_size=60))
    picks = draw(st.lists(st.sampled_from(base), max_size=20))
    srt = np.sort(np.array(base + picks))
    rho = draw(st.one_of(st.floats(1e-3, 50.0), st.just(math.inf)))
    kind = draw(st.sampled_from(["none", "truncation", "random"]))
    if kind == "none":
        return srt, rho, None
    if kind == "truncation":
        return srt, rho, np.floor(np.sqrt(srt / (2.0 * math.pi))).astype(
            np.intp)
    keys = draw(st.lists(st.integers(0, 5), min_size=srt.size,
                         max_size=srt.size))
    return srt, rho, np.sort(np.array(keys, dtype=np.intp))


@settings(max_examples=100, deadline=None)
@given(_cut_inputs())
@example((np.array([1000.0]), 0.5, None))
@example((np.array([1000.0]), math.inf, np.array([7])))
@example((np.array([5.0, 5.0, 5.0, 9.0]), math.inf, None))
@example((np.array([5.0, 5.0, 6.0, 6.0]), 1.0, np.array([1, 2, 2, 2])))
@example((np.array([5.0, 6.0, 7.0, 7.0, 9.5]), 1.0, None))   # 7 = 5 + 2*rho
def test_clusters_match_the_plain_greedy_cut(inputs):
    srt, rho, groups = inputs
    starts, ends, cl, mid, x = phases._clusters(srt, rho, groups)
    p_starts, p_ends, p_cl, p_mid, p_x = _plain_clusters(
        srt.tolist(), rho, None if groups is None else groups.tolist())
    assert starts.tolist() == p_starts and ends.tolist() == p_ends
    assert cl.tolist() == p_cl
    assert np.array_equal(mid, np.array(p_mid, dtype=np.longdouble))
    assert np.array_equal(x, np.array(p_x))


def _fresh_phases():
    """phases.py run again as a new module (not put in sys.modules), its
    relative imports resolved in the package."""
    spec = importlib.util.spec_from_file_location("bsylab._phases_probe",
                                                  _SRC / "phases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_refuses_a_longdouble_narrower_than_x87(monkeypatch):
    # the check reads np.finfo(np.longdouble); patch that, not the platform
    finfo = np.finfo

    class Float64LongDouble:
        nmant = 52

    monkeypatch.setattr(np, "finfo", lambda dtype: Float64LongDouble()
                        if dtype is np.longdouble else finfo(dtype))
    with pytest.raises(errors.UnsupportedPlatform, match="52 significand"):
        _fresh_phases()
    assert issubclass(errors.UnsupportedPlatform, errors.BsyError)
    monkeypatch.undo()
    assert np.finfo(np.longdouble).nmant >= phases.LD_NMANT_MIN == 63
    assert _fresh_phases().LD_PHASE_ROUNDOFF == phases.LD_PHASE_ROUNDOFF
