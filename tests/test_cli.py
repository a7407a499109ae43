"""CLI plumbing: subcommands, config handling, exit codes, determinism."""

import io
import json
import re
import shlex
from pathlib import Path

import pytest

from bsylab import resonator
from bsylab.cli import RunConfig, load_run_config, run
from bsylab.errors import ParseError

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(argv, cwd=None):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


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


def test_usage_errors_exit_1(capsys):
    assert run(["nosuch"]) == 1
    assert run(["integral", "--nonsense"]) == 1
    assert run(["integral", "--T", "50"]) == 1
    assert run(["report", "nosuch-suite"]) == 1
    capsys.readouterr()


def test_computational_errors_exit_2(cache_file, capsys):
    code = run(["integral", "--T", "5000", "--zeros", cache_file])
    assert code == 2
    err = capsys.readouterr().err
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == "ZeroListInsufficient"


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


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = [shlex.split(line) for line in block.replace("\\\n", " ")
             .splitlines() if line.startswith("bsy ")]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert _run(argv[1:])[0] == 0, shlex.join(argv)
