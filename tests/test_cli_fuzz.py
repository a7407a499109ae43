"""Fuzz the CLI: extreme numeric flags and malformed input files.

Every run must end in a documented exit code: 0 with only finite numbers
printed, 1 for a usage error, or 2 with the JSON error on stderr.  The
one documented non-finite output is the normalized column of ``bsy arg
s``, which is nan for t <= e.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bsylab import cli
from bsylab.acceptance import TOY_PARAMS
from bsylab.resonator import build_resonator

#: The extreme values every numeric flag is drawn from, half the time; a
#: typical value of its own the other half, so that runs with several
#: typical flags and one extreme reach the computation.
_EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")

#: The extremes of a height that may need zeros found: all but 1e300, so
#: that a list to at most 45 is ever found.
_HEIGHTS = tuple(x for x in _EXTREMES if x != "1e300")

#: A verified zero list to 40, as ``export_zeros`` writes it.
_ZERO_LIST = ["# zero ordinates up to 40.0", "14.134725141734693",
              "21.022039638771556", "25.01085758014569", "30.42487612585951",
              "32.93506158773919", "37.58617815882578"]

#: The toy resonator table, as ``write_table`` writes it.
_TOY_TABLE = build_resonator(TOY_PARAMS, "plus")
_TOY_LINES = ["# resonator sign=plus N=100 mu=2 nu=0 h=0.1 L=1.0 A=2.0 "
              "B=30.0 override=True"] + [
    f"{n} {r!r}" for n, r in zip(_TOY_TABLE.ns.tolist(),
                                  _TOY_TABLE.rs.tolist())]


def _num(typical, extremes=_EXTREMES):
    return st.just(typical) | st.sampled_from(extremes)


def _flags(**flags):
    """argv pieces: each flag with its drawn value, or left out where the
    strategy draws None."""
    return st.fixed_dictionaries(flags).map(lambda d: [
        part for k, v in d.items() if v is not None
        for part in (f"--{k}", v)])


def _optional(strategy):
    return st.none() | strategy


def _joined(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


# ---- input files: one list of lines each -----------------------------

_table_file = st.sampled_from([_TOY_LINES, _TOY_LINES[1:]]) | _joined(
    st.sampled_from([[], _TOY_LINES[:1], ["# resonator sign=plus N=abc"],
                     ["# resonator"], ["# N = 10"]]),
    st.lists(st.tuples(st.sampled_from(["1", "2", "3", "6", "0", "-3",
                                        str(2 ** 63), "x"]),
                       _num("0.5")).map(" ".join), max_size=4),
    st.sampled_from([[], ["bogus"], ["1 2 3"]]))

_zero_file = st.just(_ZERO_LIST) | _joined(
    _optional(_num("40.0", ("nan", "inf", "0", "-1", "1e-300", "x"))).map(
        lambda h: [] if h is None else [f"# zero ordinates up to {h}"]),
    st.lists(st.sampled_from([*_ZERO_LIST[1:], *_EXTREMES, "21.0", "x"]),
             max_size=3))

_config_file = st.lists(st.one_of(
    _num("1e-9").map("quad_tol = {}".format),
    _num("1e-12").map("target_abs_error = {}".format),
    _num("20000").map("max_subdivisions = {}".format),
    _num("4").map("rs_correction_terms = {}".format),
    st.sampled_from(["zero_cache_path = z.txt", "bogus = 1",
                     "no equals sign"])), max_size=2)


# ---- subcommands -----------------------------------------------------

_resonator_flags = _joined(
    _flags(mu=_num("2"), nu=_num("0"), N=_num("100"),
           h=_optional(_num("0.1"))),
    st.sampled_from([[], ["--override"]]),
    _flags(A=_optional(_num("2")), B=_optional(_num("30")),
           L=_optional(_num("1"))))

_argv = st.one_of(
    _flags(t=_num("30"), sigma=_optional(_num("0.5")),
           format=_optional(st.sampled_from(["csv", "json"]))).map(
        lambda f: ["zeta", *f]),
    _resonator_flags.map(lambda f: ["resonator", "build", *f,
                                    "--out", "{out}"]),
    _resonator_flags.map(lambda f: ["resonator", "check", *f]),
    _flags(T=_num("1000")).map(
        lambda f: ["mv", "exact", "--table", "{table}", *f]),
    # T <= 50: the moment integral's grid grows with T
    _flags(alpha=_num("0.6"), h=_num("0.1"), T=_num("20", _HEIGHTS)).map(
        lambda f: ["mv", "lemma3", "--table", "{table}", *f]),
    _flags(t=_num("30"), zeros=_optional(st.just("{zeros}"))).map(
        lambda f: ["arg", "s", *f]),
    # the scans on the zero file as their cache, at heights <= 40
    _flags(t=_num("30", _HEIGHTS),
           method=_optional(st.sampled_from(["direct", "littlewood"]))).map(
        lambda f: ["arg", "s1", "--zero-cache", "{zeros}", *f]),
    _flags(T=_num("20", _HEIGHTS), tmax=_num("35", _HEIGHTS),
           points=_num("3")).map(
        lambda f: ["arg", "lemma2", "--zero-cache", "{zeros}", *f]),
    _flags(T=_num("15", _HEIGHTS), h=_num("0.3")).map(
        lambda f: ["arg", "omega", "--zero-cache", "{zeros}", *f]),
    _flags(T=_num("30"), tmax=_optional(_num("40")),
           format=_optional(st.sampled_from(["csv", "json"]))).map(
        lambda f: ["integral", "--zeros", "{zeros}", *f]),
    st.just(["zeros", "verify", "--in", "{zeros}"]),
    # heights <= 40, which the zero file covers at most; the fit needs
    # 1.5 decades
    _flags(tmin=_num("1", _HEIGHTS), tmax=_num("40", _HEIGHTS),
           points=_num("8"),
           model=_optional(st.sampled_from(["pure_power",
                                            "logT_over_T2"]))).map(
        lambda f: ["integral-scan", "--zeros", "{zeros}", "--out", "{out}",
                   *f]),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _numbers(out):
    """Every token of the output that reads as a float."""
    found = []
    for token in re.split(r"[\s,:={}\[\]\"]+", out):
        try:
            found.append(float(token))
        except ValueError:
            pass
    return found


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv, table=_table_file, zero_list=_zero_file,
       config=_optional(_config_file))
@example(argv=["resonator", "check", "--mu", "2", "--nu", "0", "--N", "100"],
         table=[], zero_list=[], config=None)
@example(argv=["mv", "exact", "--table", "{table}", "--T", "1000"],
         table=["1 1.0", "2 nan"], zero_list=[], config=None)
def test_cli_ends_in_a_documented_exit_code(workdir, argv, table, zero_list,
                                            config):
    paths = {name: str(workdir / f"{name}.txt")
             for name in ("table", "zeros", "config", "out")}
    for name, lines in (("table", table), ("zeros", zero_list),
                        ("config", config or [])):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    argv = [arg.format(**paths) for arg in argv]
    if config is not None:
        argv.append(f"--config={paths['config']}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out)
    assert code in (0, 1, 2)
    if code == 2:
        doc = json.loads(err.getvalue())
        assert set(doc) == {"error", "message"} and out.getvalue() == ""
    if code != 0:
        return
    text = out.getvalue()
    if argv[:2] == ["arg", "s"]:
        t, stat, norm = map(float, text.splitlines()[1].split(","))
        assert math.isfinite(norm) or t <= math.e
        text = f"{t} {stat}"
    assert all(math.isfinite(x) for x in _numbers(text)), text
