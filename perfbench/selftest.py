"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order:

1. span arithmetic of tracing.layer_metrics on hand-made spans;
2. the brute-force oracles against closed forms and against bsylab;
3. BENCHMARK.json names exactly the metrics run.py reports;
4. a copy of the benchmark without the program exits non-zero and
   prints no result;
5. for each of the four workloads, two traced runs with the same seed
   report identical per-layer counts.

Exits non-zero on the first failure.  Step 5 takes about three minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _span(tracer, name, layer, start, end, parent=-1, **counts):
    rec = tracing.Span(name, layer, parent)
    rec.start, rec.end, rec.counts = start, end, counts
    tracer.spans.append(rec)
    return len(tracer.spans) - 1


def check_span_arithmetic():
    t = tracing.Tracer()
    cli = _span(t, "cli.run", "cli", 0.0, 10.0)
    find = _span(t, "zeros.find_zeros_up_to", "zeros", 1.0, 6.0, cli,
                 found=4)
    _span(t, "zeta.hardy_z_batch", "zeta", 2.0, 5.0, find, points=10,
          points_em=10, points_rs=0, terms_rs=0)
    phase = _span(t, "dirichlet._phase_increment", "dirichlet", 6.0, 9.0)
    _span(t, "dirichlet._phase_increment", "dirichlet", 6.5, 7.0, phase)
    _span(t, "dirichlet._phase_increment", "dirichlet", 7.0, 8.0, phase)
    m = tracing.layer_metrics(t.spans)
    assert m["cli.self_s"] == 5.0, m["cli.self_s"]
    assert m["zeros.find_s"] == 5.0
    assert m["zeta.z_self_s"] == 3.0
    assert m["zeros.z_points"] == 10 and m["zeros.z_points_per_zero"] == 2.5
    assert m["integral.z_points"] == 0
    assert m["dirichlet.phase_bisections"] == 1
    assert set(m) == set(tracing.METRICS)


def check_oracles():
    import numpy as np
    from bsylab import dirichlet
    T, ln2 = 1234.5, math.log(2.0)
    ns, rs = [1, 2], [1.0, 0.5]
    closed = T * 1.25 + 2 * 0.5 * (math.sin(2 * T * ln2)
                                   - math.sin(T * ln2)) / ln2
    assert abs(oracles.mean_squares(ns, rs, [T])[0] - closed) < 1e-9
    # table {1, 2, 3, 6}: prime-power pairs (1,2), (1,3), (2,6), (3,6)
    ns, rs = [1, 2, 3, 6], [1.0, 0.5, 0.25, 0.125]
    pairs = sorted((q, round(rr, 12))
                   for q, _, rr in oracles.prime_power_pairs(ns, rs))
    assert pairs == [(2, 0.03125), (2, 0.5), (3, 0.0625), (3, 0.25)], pairs
    table = (np.array(ns), np.array(rs))
    got = dirichlet.mean_square_exact(table, T)
    ref = oracles.mean_squares(ns, rs, [T])[0]
    assert abs(got - ref) <= 1e-12 * T, (got, ref)
    req = dirichlet.Lemma3Request(alpha=0.7, h=0.2, T=50.0, table=table)
    got = dirichlet.lemma3_rhs(req)
    assert abs(got - oracles.lemma3_rhs(ns, rs, 0.7, 0.2, 50.0)) < 1e-12
    got = dirichlet.s1_resonance_statistic(table, 0.3)
    ref = oracles.resonance(ns, rs, 0.3)
    assert all(abs(a - b) < 1e-14 for a, b in zip(got, ref)), (got, ref)


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, e2e
    assert layer == {**tracing.METRICS, **run.RUN_LAYER}, \
        set(layer) ^ set(tracing.METRICS) ^ set(run.RUN_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def check_bare_directory():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        res = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "zero_hunt", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert res.returncode != 0 and not res.stdout.strip(), res
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass   # a benchmark run still uses it


def _traced_counts(workload, seed):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, res.stdout
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def check_counts_repeat():
    for workload in run.WORKLOAD_NAMES:
        first, second = (_traced_counts(workload, 7) for _ in range(2))
        assert first == second, (workload, {
            k: (first[k], second[k]) for k in first if first[k] != second[k]})
        print(f"  {workload}: {len(first)} counts repeat exactly")


def main():
    for check in (check_span_arithmetic, check_oracles,
                  check_benchmark_json, check_bare_directory,
                  check_counts_repeat):
        check()
        print(f"ok {check.__name__}")


if __name__ == "__main__":
    main()
