"""CLI plumbing: subcommands, config handling, exit codes, determinism."""

import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bsylab import cli, dirichlet, resonator
from bsylab.cli import RunConfig, load_run_config, run
from bsylab.config import DEFAULT, PrecisionConfig
from bsylab.errors import ParseError

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(argv, cwd=None):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def _error(capsys):
    """The JSON error that a failed run printed: all of stderr, no stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory, zeros_100):
    from bsylab.zeros import export_zeros
    path = tmp_path_factory.mktemp("cli") / "cache.txt"
    export_zeros(zeros_100, str(path))
    return str(path)


def test_zeros_pipeline(tmp_path):
    out_path = str(tmp_path / "z.txt")
    code, out = _run(["zeros", "find", "--max-t", "60", "--out", out_path])
    assert code == 0
    assert "found = " in out
    code, out = _run(["zeros", "verify", "--in", out_path])
    assert code == 0
    assert "verified = true" in out


def test_integral_csv_and_json(cache_file):
    code, out = _run(["integral", "--T", "50", "--zeros", cache_file])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "T,I,abs_err,subintervals,singularities"
    cells = row.split(",")
    assert len(cells) == 5
    assert float(cells[0]) == 50.0

    code, out = _run(["integral", "--T", "50", "--zeros", cache_file,
                      "--format", "json"])
    doc = json.loads(out)
    assert float(doc["I"]) == float(cells[1])


def test_integral_tail_below_zero_exits_2(cache_file, capsys):
    code, out = _run(["integral", "--T", "-5", "--tmax", "30",
                      "--zeros", cache_file])
    assert code == 2 and out == ""
    assert _error(capsys)["error"] == "ValueError"


def test_integral_determinism(cache_file):
    runs = [_run(["integral", "--T", "77", "--zeros", cache_file])[1]
            for _ in range(2)]
    assert runs[0] == runs[1]   # byte-identical


def test_seventeen_significant_digits(cache_file):
    _, out = _run(["integral", "--T", "50", "--zeros", cache_file])
    value = out.strip().splitlines()[1].split(",")[1]
    # round-trips exactly through float
    assert f"{float(value):.17g}" == value


def test_zeta_subcommand():
    code, out = _run(["zeta", "--t", "100", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["zeta_re"]) - 2.6926198856813253) < 1e-10


def test_arg_csv_shape(cache_file):
    code, out = _run(["arg", "s", "--t", "50", "--zeros", cache_file])
    assert code == 0
    assert out.splitlines()[0] == "t,stat,normalized"


def test_arg_s1_direct_below_ten_is_a_domain_error(cache_file, capsys):
    code, _ = _run(["arg", "s1", "--method", "direct", "--t", "5",
                    "--zero-cache", cache_file])
    assert code == 2
    assert _error(capsys)["error"] == "ValueError"


def test_resonator_and_mv_roundtrip(tmp_path):
    table = str(tmp_path / "toy.txt")
    common = ["--mu", "2", "--nu", "0", "--N", "100", "--h", "0.1",
              "--override", "--A", "2", "--B", "30", "--L", "1"]
    code, out = _run(["resonator", "build", *common, "--sign", "plus",
                      "--out", table])
    assert code == 0 and "entries = 25" in out
    code, out = _run(["resonator", "check", *common])
    doc = json.loads(out)
    assert float(doc["ratio_plus"]) > 0 > float(doc["ratio_minus"])

    code, out = _run(["mv", "exact", "--table", table, "--T", "1000"])
    doc = json.loads(out)
    assert 0.9 <= float(doc["ratio"]) <= 1.1

    code, out = _run(["mv", "lemma3", "--table", table, "--alpha", "2",
                      "--h", "0.1", "--T", "50"])
    doc = json.loads(out)
    assert set(doc) == {"lhs_re", "lhs_im", "rhs_re", "rhs_im",
                        "normalized_gap"}


def test_mv_lemma3_evaluates_each_side_once(tmp_path, toy_table,
                                            monkeypatch):
    table = str(tmp_path / "toy.txt")
    resonator.write_table(toy_table, table)
    calls = []
    lhs, rhs = dirichlet.lemma3_lhs, dirichlet.lemma3_rhs

    def counted_lhs(req, cfg=DEFAULT):
        calls.append("lhs")
        return lhs(req, cfg)

    def counted_rhs(req):
        calls.append("rhs")
        return rhs(req)

    monkeypatch.setattr(dirichlet, "lemma3_lhs", counted_lhs)
    monkeypatch.setattr(dirichlet, "lemma3_rhs", counted_rhs)
    code, _ = _run(["mv", "lemma3", "--table", table, "--alpha", "0.6",
                    "--h", "0.1", "--T", "100"])
    assert code == 0
    assert calls == ["rhs", "lhs"]


@pytest.mark.parametrize("argv", [
    ["exact", "--T", "nan"],
    ["exact", "--T", "inf"],
    ["lemma3", "--alpha", "0.6", "--h", "0.1", "--T", "nan"],
    ["lemma3", "--alpha", "0.6", "--h", "inf", "--T", "100"],
])
def test_mv_non_finite_input_exits_2(tmp_path, toy_table, capsys, argv):
    table = str(tmp_path / "toy.txt")
    resonator.write_table(toy_table, table)
    assert run(["mv", argv[0], "--table", table, *argv[1:]]) == 2
    assert _error(capsys)["error"] == "ValueError"


@pytest.mark.parametrize("params", [
    ["--h", "nan"],
    ["--h", "0.1", "--override", "--A", "nan", "--B", "30", "--L", "1"],
    ["--h", "0.1", "--override", "--A", "2", "--B", "inf", "--L", "1"],
])
def test_resonator_non_finite_input_exits_2(capsys, params):
    assert run(["resonator", "check", "--mu", "2", "--nu", "0",
                "--N", "1000", *params]) == 2
    doc = _error(capsys)
    assert doc["error"] == "ValueError" and "finite" in doc["message"]


@pytest.mark.parametrize("h", [None, "0", "1e-300"])
def test_resonator_check_needs_positive_h_exits_2(capsys, h):
    # --h defaults to 0; h^mu = 0 was a ZeroDivisionError traceback
    argv = ["resonator", "check", "--mu", "2", "--nu", "0", "--N", "100"]
    assert run(argv + ([] if h is None else ["--h", h])) == 2
    assert _error(capsys)["error"] == "ValueError"


@pytest.mark.parametrize("t,sigma", [("1e300", "100"), ("1e9", "0.5")])
def test_zeta_past_the_em_cap_exits_2(capsys, t, sigma):
    # the plans asked for 5.2e11 and 2.8e8 terms: a MemoryError traceback
    # and gigabytes; the cap refuses them before anything is allocated
    tracemalloc.start()
    try:
        code = run(["zeta", "--t", t, "--sigma", sigma])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 22
    assert _error(capsys)["error"] == "PrecisionUnreachable"


def test_resonator_build_window_past_N(tmp_path):
    # B = 1e300 was a sieve numpy refused (exit 2); only primes <= N count
    out = tmp_path / "t.txt"
    code, _ = _run(["resonator", "build", "--mu", "2", "--nu", "0", "--N",
                    "100", "--h", "0.1", "--A", "2", "--B", "1e300", "--L",
                    "1", "--override", "--out", str(out)])
    assert code == 0
    ns, _ = resonator.read_table(str(out))
    assert ns[-1] <= 100 and ns.size > 1


@pytest.mark.parametrize("r", ["nan", "inf"])
def test_mv_table_coefficient_not_finite_exits_2(tmp_path, capsys, r):
    table = tmp_path / "t.txt"
    table.write_text(f"1 1.0\n2 {r}\n")
    assert run(["mv", "exact", "--table", str(table), "--T", "1000"]) == 2
    doc = _error(capsys)
    assert doc["error"] == "ParseError"
    assert doc["message"].startswith("line 2:")


def test_mv_lemma3_normalizes_by_the_header_N(tmp_path, toy_table):
    # the toy table's N is 100 and its largest entry 95: a file with
    # write_table's header gives the library's gap, one without it keeps
    # N = the largest entry
    path = tmp_path / "toy.txt"
    resonator.write_table(toy_table, str(path))
    flags = ["--alpha", "0.6", "--h", "0.1", "--T", "200"]
    req = dirichlet.Lemma3Request(0.6, 0.1, 200.0, toy_table)
    pair = dataclasses.replace(req, table=(toy_table.ns, toy_table.rs))
    for expect in (req, pair):
        code, out = _run(["mv", "lemma3", "--table", str(path), *flags])
        assert code == 0
        assert json.loads(out)["normalized_gap"] \
            == cli._fmt(dirichlet.lemma3_compare(expect))
        path.write_text("".join(path.read_text().splitlines(True)[1:]))


def test_mv_malformed_header_exits_2(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("# resonator sign=plus N=abc\n1 1.0\n")
    assert run(["mv", "exact", "--table", str(table), "--T", "1000"]) == 2
    doc = _error(capsys)
    assert doc["error"] == "ParseError"
    assert doc["message"].startswith("line 1:")


_FINITE_T = "find_zeros_up_to requires finite T >= 15"


@pytest.mark.parametrize("argv, error, message", [
    (["zeta", "--t", "inf"], "ValueError", "zeta_em requires finite s"),
    (["zeta", "--t", "nan"], "ValueError", "zeta_em requires finite s"),
    (["arg", "s", "--t", "inf"], "ValueError", "requires finite sigma and t"),
    (["arg", "s", "--t", "nan"], "ValueError", "requires finite sigma and t"),
    (["integral", "--T", "nan"], "ValueError", "Ts must be positive"),
    (["integral", "--T", "20", "--tmax", "inf"], "ZeroListInsufficient",
     "need inf"),
    (["zeros", "find", "--max-t", "nan", "--out", "z.txt"], "ValueError",
     _FINITE_T),
    (["zeros", "find", "--max-t", "inf", "--out", "z.txt"], "ValueError",
     _FINITE_T),
    (["arg", "lemma2", "--T", "nan", "--tmax", "40", "--points", "3"],
     "ValueError", "t_grid must be strictly ascending"),
    (["arg", "lemma2", "--T", "20", "--tmax", "nan", "--points", "3"],
     "ValueError", "t_grid must be strictly ascending"),
    (["arg", "omega", "--T", "nan", "--h", "0.3"], "ValueError",
     "need T >= 10"),
    (["arg", "omega", "--T", "inf", "--h", "0.3"], "ValueError", _FINITE_T),
], ids=["zeta-inf", "zeta-nan", "s-inf", "s-nan", "integral-nan", "tail-inf",
        "zeros-nan", "zeros-inf", "lemma2-T-nan", "lemma2-tmax-nan",
        "omega-nan", "omega-inf"])
def test_non_finite_height_exits_2(tmp_path, monkeypatch, capsys,
                                   cache_file, argv, error, message):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "integral":
        argv = [*argv, "--zeros", cache_file]
    assert run(argv) == 2
    doc = _error(capsys)
    assert doc["error"] == error and message in doc["message"]


@pytest.mark.parametrize("argv, message", [
    (["arg", "omega", "--T", "20", "--h", "5"], "need 0 < h <= 1"),
    (["arg", "omega", "--T", "20", "--h", "nan"], "need 0 < h <= 1"),
    (["arg", "s1", "--t", "5", "--method", "direct"],
     "S1_direct requires t >= 10"),
    (["arg", "lemma2", "--T", "2", "--tmax", "40", "--points", "3"],
     "need 3 <= T <= min(t_grid)"),
], ids=["omega-h-5", "omega-h-nan", "s1-direct-t-5", "lemma2-T-2"])
def test_arg_checks_its_flags_before_it_loads_zeros(tmp_path, capsys, argv,
                                                    message):
    cache = tmp_path / "zeros.txt"
    assert run([*argv, "--zero-cache", str(cache)]) == 2
    doc = _error(capsys)
    assert doc["error"] == "ValueError" and message in doc["message"]
    assert not cache.exists()


# np.geomspace warns on a negative or infinite end: the flags are refused
# before the grid is built, with no warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T, tmax, message", [
    ("-1", "40", "need 3 <= T <= min(t_grid)"),
    ("inf", "40", "need 3 <= T <= min(t_grid)"),
    ("20", "-40", "t_grid must be strictly ascending"),
    ("20", "inf", "t_grid must be strictly ascending"),
], ids=["T-negative", "T-inf", "tmax-negative", "tmax-inf"])
def test_arg_lemma2_refuses_grid_ends_without_a_warning(tmp_path, capsys, T,
                                                        tmax, message):
    cache = tmp_path / "zeros.txt"
    assert run(["arg", "lemma2", "--T", T, "--tmax", tmax, "--points", "3",
                "--zero-cache", str(cache)]) == 2
    doc = _error(capsys)
    assert doc["error"] == "ValueError" and message in doc["message"]
    assert not cache.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tmin, tmax", [("10", "inf"), ("10", "nan"),
                                        ("-1", "40"), ("40", "10")])
def test_integral_scan_checks_its_grid_before_the_zeros(tmp_path, capsys,
                                                        tmin, tmax):
    # the zero file does not exist: the flags are refused first
    assert run(["integral-scan", "--tmin", tmin, "--tmax", tmax,
                "--points", "8", "--zeros", str(tmp_path / "none.txt"),
                "--out", str(tmp_path / "out.csv")]) == 2
    doc = _error(capsys)
    assert doc == {"error": "ValueError",
                   "message": "need 0 < tmin < tmax < inf and points >= 2"}


def test_mv_table_entry_below_1_exits_2(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("0 1.0\n2 0.5\n")
    assert run(["mv", "exact", "--table", str(table), "--T", "1000"]) == 2
    doc = _error(capsys)
    assert doc["error"] == "ParseError"
    assert doc["message"].startswith("line 1:")


def test_mv_lemma3_refuses_huge_table_before_the_integral(tmp_path, capsys,
                                                          monkeypatch):
    table = tmp_path / "t.txt"
    table.write_text(f"1 1.0\n{10 ** 18 + 9} 0.5\n")

    def never(*args, **kwargs):
        raise AssertionError("lemma3_lhs called")

    monkeypatch.setattr(dirichlet, "lemma3_lhs", never)
    assert run(["mv", "lemma3", "--table", str(table), "--alpha", "0.6",
                "--h", "0.1", "--T", "300"]) == 2
    assert _error(capsys)["error"] == "TableTooLarge"


def test_resonator_build_N_beyond_int64_exits_2(tmp_path, capsys):
    assert run(["resonator", "build", "--mu", "2", "--nu", "0",
                "--N", str(10 ** 19), "--override", "--A", "2100000",
                "--B", "2100200", "--L", "1",
                "--out", str(tmp_path / "t.txt")]) == 2
    doc = _error(capsys)
    assert doc["error"] == "ValueError" and "2^63" in doc["message"]


@pytest.mark.parametrize("argv", [
    ["zeta", "--t", "20", "--zero-cache", "x"],
    ["integral", "--T", "50", "--zeros", "z.txt", "--zero-cache", "x"],
    ["arg", "s", "--t", "50", "--zero-cache", "x"],
    ["resonator", "check", "--mu", "2", "--nu", "0", "--N", "1000",
     "--h", "0.1", "--quad-tol", "1"],
    ["resonator", "build", "--mu", "2", "--nu", "0", "--N", "100",
     "--out", "t.txt", "--max-subdivisions", "1"],
    ["mv", "exact", "--table", "t.txt", "--T", "1000",
     "--target-abs-error", "1e-9"],
])
def test_flag_the_subcommand_never_reads_exits_1(tmp_path, monkeypatch,
                                                 capsys, argv):
    # --zero-cache belongs to arg s1/lemma2/omega and report, and the
    # precision flags to the subcommands that read the precision
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["arg", "s1", "--t", "50"],
    ["arg", "lemma2", "--T", "20", "--tmax", "40", "--points", "3"],
    ["arg", "omega", "--T", "20", "--h", "0.3"],
    ["report", "zero-sum-term"],
])
def test_zero_cache_and_precision_flags_where_read(argv):
    args = cli.build_parser().parse_args(
        [*argv, "--zero-cache", "z.txt", "--quad-tol", "1e-6"])
    assert (args.zero_cache, args.quad_tol) == ("z.txt", 1e-6)


def test_usage_errors_exit_1(capsys):
    assert run(["nosuch"]) == 1
    assert run(["integral", "--nonsense"]) == 1
    assert run(["integral", "--T", "50"]) == 1
    assert run(["report", "nosuch-suite"]) == 1
    capsys.readouterr()


def test_one_parser_serves_every_run(tmp_path, monkeypatch, capsys):
    # a usage error, then two subcommands in one process: the parser is
    # built once, and each run prints what a fresh interpreter prints
    runs = [["zeros", "find", "--max-t"],
            ["zeros", "find", "--max-t", "40", "--out", "z.txt"],
            ["zeta", "--t", "20"]]
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda b=cli.build_parser: built.append(1) or b())
    cli._parser.cache_clear()
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    got = []
    for argv in runs:
        code, out = _run(argv)
        got.append((code, out, capsys.readouterr().err))
    cli._parser.cache_clear()
    assert len(built) == 1
    assert [g[0] for g in got] == [1, 0, 0]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, mine in zip(runs, got):
        proc = subprocess.run([sys.executable, "-c",
                               "from bsylab.cli import main; main()", *argv],
                              cwd=fresh, env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == mine
    assert (here / "z.txt").read_text() == (fresh / "z.txt").read_text()


def test_module_entry_point_prints_no_warning():
    # runpy warns if the package has imported cli before it runs as __main__
    argv = ["zeta", "--t", "100", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bsylab.cli",
         *argv], cwd=README.parent / "src", capture_output=True, text=True,
        timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == _run(argv)[1]


def test_computational_errors_exit_2(cache_file, capsys):
    code = run(["integral", "--T", "5000", "--zeros", cache_file])
    assert code == 2
    assert _error(capsys)["error"] == "ZeroListInsufficient"


def test_zeros_verify_missing_last_ordinate_exits_2(tmp_path, zeros_100,
                                                   capsys):
    from bsylab.zeros import ZeroList, export_zeros
    path = tmp_path / "short.txt"
    export_zeros(ZeroList(zeros_100.ordinates[:-1],
                          zeros_100.covered_height), path)
    assert run(["zeros", "verify", "--in", str(path)]) == 2
    assert _error(capsys)["error"] == "Inconsistent"


def test_config_file_and_env(tmp_path, monkeypatch):
    cfg_path = tmp_path / "bsy.conf"
    cfg_path.write_text("quad_tol = 1e-7   # loose\n"
                        "target_abs_error = 1e-10\n")
    rc = load_run_config(str(cfg_path))
    assert rc.precision.quad_tol == 1e-7

    monkeypatch.setenv("BSY_CONFIG", str(cfg_path))
    rc = load_run_config(None)
    assert rc.precision.quad_tol == 1e-7

    monkeypatch.delenv("BSY_CONFIG")
    assert load_run_config(None) == RunConfig()


def test_flag_overrides_config(tmp_path, cache_file):
    cfg_path = tmp_path / "bsy.conf"
    cfg_path.write_text("quad_tol = 1e-3\ntarget_abs_error = 1e-6\n")
    code, loose = _run(["integral", "--T", "50", "--zeros", cache_file,
                        "--config", str(cfg_path)])
    assert code == 0
    code, tight = _run(["integral", "--T", "50", "--zeros", cache_file,
                        "--config", str(cfg_path),
                        "--quad-tol", "1e-9", "--target-abs-error", "1e-12"])
    assert code == 0
    err_loose = float(loose.splitlines()[1].split(",")[2])
    err_tight = float(tight.splitlines()[1].split(",")[2])
    assert err_tight < err_loose


@pytest.mark.parametrize("field", dataclasses.fields(PrecisionConfig),
                         ids=lambda f: f.name)
def test_precision_field_is_a_flag_and_a_file_key(tmp_path, monkeypatch,
                                                  field):
    value = type(field.default)(field.default / 2)
    (tmp_path / "bsy.conf").write_text(f"{field.name} = {value}\n")
    seen = []
    monkeypatch.setitem(cli._HANDLERS, "zeta",
                        lambda args, rc, out: seen.append(rc.precision) or 0)
    for given in (["--" + field.name.replace("_", "-"), str(value)],
                  ["--config", str(tmp_path / "bsy.conf")]):
        assert run(["zeta", "--t", "1", *given]) == 0
    want = dataclasses.replace(DEFAULT, **{field.name: value})
    assert seen == [want, want]
    assert {type(getattr(p, field.name)) for p in seen} == {type(value)}


def test_config_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "bsy.conf"
    cfg_path.write_text("parallelism = 2\n")
    with pytest.raises(ParseError, match="unknown config key"):
        load_run_config(str(cfg_path))


def test_report_fast_suites(tmp_path):
    cache = str(tmp_path / "cache.txt")
    for suite, cid in (("weight-identity", 5), ("zero-sum-term", 6)):
        buf = io.StringIO()
        code = run(["report", suite, "--zero-cache", cache], out=buf)
        assert code == 0
        doc = json.loads(buf.getvalue())
        assert doc["criterion_id"] == cid
        assert doc["pass"] is True


def test_report_one_failed_check_fails(monkeypatch):
    real = resonator.resonator_denominator
    calls = []

    def flip_second(table):
        calls.append(table)
        d = real(table)
        return -d if len(calls) == 2 else d

    monkeypatch.setattr(resonator, "resonator_denominator", flip_second)
    code, out = _run(["report", "resonator-exact"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is False
    assert "signs WRONG" in doc["detail"]


def test_report_mean_value_without_scipy(monkeypatch, capsys):
    # criterion 10's quadrature oracle is the one use of scipy left
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    assert run(["report", "mean-value"], out=io.StringIO()) == 2
    doc = _error(capsys)
    assert doc["error"] == "MissingDependency"
    assert "test extra" in doc["message"]


_NO_SCIPY_SCRIPT = """
import io
import sys
import numpy as np
import bsylab
from bsylab import cli, zeta
from bsylab.resonator import ResonatorParams
if cli.run(["zeros", "find", "--max-t", "40", "--out", sys.argv[1]],
           out=io.StringIO()) != 0:
    raise SystemExit("zeros find failed")
ResonatorParams.solved(4103, 0)
zeta._theta_any(np.array([-3.0, 0.5, 9.5]))
zeta.zeta_afe_batch(0.6, [3.5e4])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter, so that neither an eager nor a lazy import of
    # scipy anywhere on these paths can hide behind the test process's own
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path / "z.txt")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = [shlex.split(line) for line in block.replace("\\\n", " ")
             .splitlines() if line.startswith("bsy ")]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert _run(argv[1:])[0] == 0, shlex.join(argv)
