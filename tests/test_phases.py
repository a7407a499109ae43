"""The phase-kernel module: one home for its names, and its lattice of
cluster centres."""

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
@example((np.array([5.0, 7.0]), 1.0, None))                 # x = -1 and 1
def test_lattice_cells_hold_their_heights(inputs):
    srt, rho, groups = inputs
    ns = np.arange(1, 3)
    cl, x, first, _, _, reach, split = phases._lattice(srt, rho, ns, 1, 8,
                                                       groups)
    # cells ascend from 0 one at a time, each from its first height
    assert cl[0] == 0 and set(np.diff(cl).tolist()) <= {0, 1}
    assert first.tolist() == np.flatnonzero(np.diff(cl, prepend=-1)).tolist()
    if groups is not None:                       # no cell crosses a change
        assert np.array_equal(groups, groups[first][cl])
    assert not split                             # one base: no split
    top = float(np.max(np.abs(srt)))
    assert np.all(np.abs(x) <= 1.0 + 8.0 * np.spacing(top) / rho)
    if srt[0] == srt[-1]:                        # a lone height
        assert np.all(x == 0.0)
    if math.isinf(rho):                          # one cell per group
        assert np.all(x == 0.0)
        return
    # each centre is c_0 + k*2*rho: within a cell one centre, and from a
    # cell to the next a whole number of cells, none only at a new group
    centre = srt - rho * x
    cells = (centre[first] - centre[0]) / (2.0 * rho)
    tol = 8.0 * np.spacing(top + rho) / rho
    assert np.all(np.abs(centre - centre[first][cl]) <= tol * rho)
    assert np.all(np.abs(cells - np.rint(cells)) <= tol)
    steps = np.diff(np.rint(cells))
    assert np.all(steps >= 0)
    if groups is not None:
        assert np.all((steps > 0) | (np.diff(groups[first]) != 0))
    else:
        assert np.all(steps > 0)
    assert np.allclose(reach[cl], np.abs(centre), rtol=1e-12,
                       atol=tol * rho)


def test_lattice_refuses_heights_rounded_past_a_cell():
    # float64 spaces heights near 1e20 by 16384: no centre sits within
    # rho of each, so the pass raises rather than expand about far centres
    ns = np.arange(1, 50)
    for ts in ([0.0, 1e300], [1e20, 1e20 + 16384.0]):
        with pytest.raises(errors.PrecisionUnreachable, match="cell radius"):
            phases.phase_sum(ns, ns ** -0.5, np.array(ts))
    vals, bound = phases.phase_sum(ns, ns ** -0.5, np.array([1e300]))
    assert np.isfinite(vals).all() and math.isfinite(bound)


def _direct(ns, amps, ts):
    """sum_n a_n exp(-i t l_n), each phase reduced once in longdouble:
    within ``phase_roundoff`` of the exact sum."""
    logs = np.log(ns.astype(np.longdouble))
    return phases.reduced_phases(ts.astype(np.longdouble)[:, None]
                                 * logs[None, :]) @ amps


def _width(ns):
    """The cell width 2*rho of the cluster path for the integers ns."""
    return 2.0 * phases._CLUSTER_R / math.log(int(np.max(ns)))


@st.composite
def _lattice_inputs(draw):
    """Integers (a prefix 1..M or a sparse set), real amplitudes and
    heights: a lone height, heights on cell edges (the span a whole
    number of cells, so that the edges fall on t_min + k*2*rho), dense
    heights over many cells, or heights over several octaves."""
    if draw(st.booleans()):
        ns = np.arange(1, draw(st.sampled_from([2, 30, 120, 400])) + 1)
    else:
        ns = np.array(sorted(set(draw(st.lists(st.integers(1, 10 ** 6),
                                               min_size=2, max_size=60)))
                             | {1}))
    amps = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))) \
        .standard_normal(ns.size)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["lone", "edges", "cells", "octaves"]))
    t0 = draw(st.floats(14.0, 1e5))
    if kind == "lone":
        return ns, amps, np.array([t0])
    K = draw(st.sampled_from([2, 40, 600, 2500]))
    if kind == "octaves":
        return ns, amps, t0 * 2.0 ** rng.uniform(0.0, 4.0, K)
    cells = draw(st.integers(1, 2 * K))
    if kind == "edges":
        k = np.concatenate([[0, cells], rng.integers(0, cells + 1, K)])
        return ns, amps, t0 + _width(ns) * k
    return ns, amps, t0 + _width(ns) * cells * rng.uniform(0.0, 1.0, K)


@settings(max_examples=40, deadline=None)
@given(_lattice_inputs())
# 1300 heights over 4400 cells from 1e5
@example((np.arange(1, 201),
          np.random.default_rng(1).standard_normal(200),
          1e5 + 5000.0 * np.random.default_rng(2).uniform(0.0, 1.0, 1300)))
def test_phase_sum_on_the_lattice_within_bound(inputs):
    ns, amps, ts = inputs
    vals, bound = phases.phase_sum(ns, amps, ts)
    ref = _direct(ns, amps, ts)
    floor = phases.phase_roundoff(float(ts.max()), math.log(ns.max()),
                                  float(np.abs(amps).sum()))
    assert np.all(np.abs(vals - ref) <= bound + floor)


@pytest.mark.parametrize("n", [125, 124, 97])
def test_lattice_phases_term_by_term(n):
    # one term at a time, the bound is that of one unit phase: an outer
    # step 2*rho*L rounded to float64 put 3 times the bound into the
    # phases of these 6000 heights from 512 to 1024
    ns = np.arange(1, 126)
    amps = np.zeros(ns.size)
    amps[n - 1] = 1.0
    ts = 512.0 + 512.0 * np.random.default_rng(2).uniform(0.0, 1.0, 6000)
    vals, bound = phases.phase_sum(ns, amps, ts)
    ref = _direct(ns, amps, ts)
    floor = phases.phase_roundoff(float(ts.max()), math.log(125), 1.0)
    assert np.all(np.abs(vals - ref) <= bound + floor)


def _per_cell_reductions(ns, ts):
    """The phases of one reduction of the bases per occupied cell of the
    lattice, laid symmetrically about the midpoint of the heights."""
    width = _width(ns)
    cells = math.ceil(float(np.ptp(ts)) / width)
    c_0 = 0.5 * (ts.min() + ts.max()) - width * (cells - 1) / 2
    occupied = np.unique(np.rint((ts - c_0) / width)).size
    return occupied * phases.factor_plan(ns).bases.size


@pytest.mark.parametrize("M,t0,span,K", [
    (252, 512.0, 512.0, 6459),       # the ladder's top group below 1024
    (321, 1024.0, 266.0, 3444),
    (126, 256.0, 256.0, 3000),
    (2506, 8192.0, 1800.0, 4000),
])
def test_lattice_reduces_order_sqrt_cells_phases(monkeypatch, M, t0, span, K):
    ns = np.arange(1, M)
    ts = t0 + span * np.random.default_rng(M).uniform(0.0, 1.0, K)
    reduced = []
    reduce = phases.reduced_phases

    def spy(x):
        reduced.append(x.size)
        return reduce(x)

    monkeypatch.setattr(phases, "reduced_phases", spy)
    vals, bound = phases.phase_sum(ns, ns ** -0.5, ts)
    cells = math.ceil(float(np.ptp(ts)) / _width(ns))
    P = phases.factor_plan(ns).closure.size
    assert sum(reduced) <= (2 * math.isqrt(cells - 1) + 4) * P
    assert 2 * sum(reduced) <= _per_cell_reductions(ns, ts)
    assert np.all(np.abs(vals - _direct(ns, ns ** -0.5, ts)) <= 2 * bound)


def test_lattice_bound_takes_one_more_product_per_term(monkeypatch):
    # each lattice phase is outer * inner: one product on top of those
    # that built the outer phase, PRODUCT_ROUNDOFF * sum|a_n| in all
    ns = np.arange(1, 300)
    amps = np.random.default_rng(5).standard_normal(ns.size)
    built = []
    expansion_bound = phases._expansion_bound

    def spy(floor, b, amp_sum, r, tail):
        built.append(b)
        return expansion_bound(floor, b, amp_sum, r, tail)

    monkeypatch.setattr(phases, "_expansion_bound", spy)
    products = float(np.abs(amps) @ phases.factor_plan(ns).products)
    dense = 1000.0 + 300.0 * np.random.default_rng(6).uniform(0, 1, 4000)
    phases.phase_sum(ns, amps, dense)               # the lattice
    phases.phase_sum(ns, amps, np.array([1e3, 2e3, 3e3]))  # three of one
    assert built[0] == pytest.approx(phases.PRODUCT_ROUNDOFF * (
        products + float(np.abs(amps).sum())), rel=1e-12, abs=0.0)
    assert built[1] == pytest.approx(phases.PRODUCT_ROUNDOFF * products,
                                     rel=1e-12, abs=0.0)


def test_truncated_sums_split_lattice_within_bound(monkeypatch):
    # 20 000 Riemann-Siegel heights at 1e5, N = 126: the lattice splits,
    # and each bound holds PRODUCT_ROUNDOFF * A_k for the product
    # outer * inner on top of what the same cells cost unsplit
    ts = 1e5 + 1000.0 * np.random.default_rng(8).uniform(0.0, 1.0, 20000)
    N = np.full(ts.size, 126)
    (S,), (bound,) = phases.truncated_sums(ts, N, (0.5,))
    ns = np.arange(1, 127)
    amps = ns ** -0.5
    ref = np.concatenate([_direct(ns, amps, part)
                          for part in np.array_split(ts, 10)])
    floor = phases.phase_roundoff(float(ts.max()), math.log(126),
                                  float(amps.sum()))
    assert np.all(np.abs(S - ref) <= bound + floor)
    monkeypatch.setattr(phases, "_LATTICE_MIN_SAVING", math.inf)
    (S_plain,), (plain,) = phases.truncated_sums(ts, N, (0.5,))
    assert np.all(np.abs(S - S_plain) <= bound + plain)
    assert np.allclose(bound - plain, phases.PRODUCT_ROUNDOFF * amps.sum(),
                       rtol=1e-6, atol=0.0)


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
