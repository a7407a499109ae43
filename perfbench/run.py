"""bsylab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload zero_hunt --seed 1 --seconds 12 \
        --trace 0

Workloads: zero_hunt, criterion_ladder, arg_scan, mean_value (see
workloads.py and design.md).  The program is imported from the
checkout's src/, never from an installed copy; without it the run exits
with code 2 and prints no result.

With ``--trace 0`` the run sets the workload up five times (median is
``setup_s``), repeats the timed pass for ``--seconds`` (median pass is
``wall_s``) and prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes for ``--seconds`` and prints the
per-layer metrics of tracing.py, the tracing overhead and the
known-defect probe.  The references and the probe run in forked
children, so that ``peak_rss_mb`` is the peak of the timed passes.
Times are rescaled to reference-machine seconds (calibration.py); raw
times are printed beside them.  Either way every operation's output is
checked, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3
SETUP_TIMEOUT_S = 150

WORKLOAD_NAMES = ("zero_hunt", "criterion_ladder", "arg_scan", "mean_value")

#: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "ops_ok_frac": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics measured by the run itself rather than by spans:
#: the tracing overhead and the known-defect probes (workloads.py).
PROBES = ("zeros.edge_probe", "dirichlet.afe_probe")
RUN_LAYER = {"trace.overhead_s": ("s", "lower"),
             **{f"{probe}{suffix}": (unit, "lower") for probe in PROBES
                for suffix, unit in (("_failed", "count"), ("_s", "s"))}}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setups(name, inputs, workdir, repeats):
    """[(raw, rescaled)] seconds of each set-up process."""
    import calibration
    out = []
    before = calibration.kernel_seconds()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_inputs.py"), name,
                        json.dumps(inputs), str(workdir)],
                       check=True, timeout=SETUP_TIMEOUT_S)
        raw = time.perf_counter() - start
        after = calibration.kernel_seconds()
        out.append((raw, raw * calibration.scale(before, after)))
        before = after
    return out


def _forked(call):
    """``call()`` run in a forked child, its result sent back pickled.

    The child's memory is not part of this process's ``ru_maxrss``, so
    the references and the known-defect probe stay out of
    ``peak_rss_mb``, which then measures the timed passes.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as fh:
                try:
                    result = (True, call())
                except Exception as exc:  # re-raised in the parent
                    result = (False, f"{type(exc).__name__}: {exc}")
                pickle.dump(result, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"child process ended with status {status}")
    ok, result = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"in child process: {result}")
    return result


def _prepared(workload):
    """The attributes ``prepare()`` gives the workload: its references
    and the inputs its passes read."""
    workload.prepare()
    return vars(workload)


def _passes(workload, seconds, kinds):
    """Repeat one pass of each kind in turn for ``seconds``.

    ``kinds`` holds "plain" and/or "traced"; at least MIN_PASSES of each
    are made.  Returns {kind: [workloads.Pass]}; a traced pass carries
    its per-layer metrics as ``layers``.
    """
    import tracing
    from workloads import Pass
    tracer = tracing.Tracer()
    runs = {kind: [] for kind in kinds}
    start = time.perf_counter()
    while (min(len(v) for v in runs.values()) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        for kind in kinds:
            p = Pass()
            if kind == "traced":
                tracer.reset()
                with tracing.installed(tracer):
                    workload.run_pass(p)
                p.layers = tracing.layer_metrics(tracer.spans)
            else:
                workload.run_pass(p)
            runs[kind].append(p)
    return runs


def _layer_values(traced):
    """Per-layer metrics over the traced passes, times rescaled."""
    import tracing
    values = {}
    for name, (unit, _) in tracing.METRICS.items():
        if unit == "count":       # exact; repetition is checked by main
            values[name] = traced[0].layers[name]
        elif unit == "s":
            values[name] = median([p.layers[name] * p.wall / p.raw
                                    for p in traced])
        elif unit == "1/s":
            values[name] = median([p.layers[name] * p.raw / p.wall
                                    for p in traced])
        else:
            values[name] = median([p.layers[name] for p in traced])
    return values


def _environment():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "bsylab" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'bsylab'} is missing; run from a "
              "bsylab checkout", file=sys.stderr)
        return 2
    # cap BLAS/OpenMP threads before numpy loads, here and in set-up
    for var in THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    inputs = cls.draw(args.seed)
    scratch = ROOT / ".bench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = _setups(args.workload, inputs, workdir,
                         1 if args.trace else SETUP_REPEATS)
        workload = cls(inputs, workdir)
        start = time.perf_counter()
        vars(workload).update(_forked(lambda: _prepared(workload)))
        prepare_s = time.perf_counter() - start
        runs = _passes(workload, args.seconds,
                       ("plain", "traced") if args.trace else ("plain",))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = _forked(workload.probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run still uses it

    checked = [p for kind in runs.values() for p in kind]
    ops = [op for p in checked for op in p.ops]
    failures = [(name, problem) for name, problem, _ in ops if problem]
    correct = not any(problem and not raised for _, problem, raised in ops)
    plain = runs["plain"]
    lines = [f"bsylab benchmark: workload={args.workload} seed={args.seed} "
             f"trace={args.trace}",
             f"inputs: {json.dumps(inputs)}",
             f"environment: {json.dumps(_environment())}",
             f"references computed in {prepare_s:.3f} s (untimed)",
             f"passes: {len(checked)}, operations checked: {len(ops)}, "
             f"failed: {len(failures)}"]
    lines += [f"  FAILED {name}: {problem}" for name, problem in failures[:20]]
    if probe:
        lines.append(f"known-defect probe ({probe['seconds']:.3f} s, not in "
                     f"wall_s or the operation counts): {probe['operation']} "
                     f"{probe['outcome']}")
    for label, timed in (("set-up", setups),
                         ("pass", [(p.raw, p.wall) for p in plain])):
        lines.append(f"{label} raw s: " + " ".join(
            f"{raw:.4f}" for raw, _ in timed) + "; rescaled s: " + " ".join(
            f"{scaled:.4f}" for _, scaled in timed))

    if args.trace:
        traced = runs["traced"]
        units = {**tracing.METRICS, **RUN_LAYER}
        values = _layer_values(traced)
        values["trace.overhead_s"] = (median([p.wall for p in traced])
                                      - median([p.wall for p in plain]))
        for name in PROBES:
            mine = probe is not None and probe["metric"] == name
            values[f"{name}_failed"] = probe["failed"] if mine else 0
            values[f"{name}_s"] = probe["seconds"] if mine else 0.0
        for name, (unit, _) in tracing.METRICS.items():
            seen = {p.layers[name] for p in traced}
            if unit == "count" and len(seen) > 1:
                correct = False
                lines.append(f"  COUNT NOT REPEATED {name}: {sorted(seen)}")
        lines.append("traced pass rescaled s: " + " ".join(
            f"{p.wall:.4f}" for p in traced))
    else:
        units = END_TO_END
        values = {
            "wall_s": median([p.wall for p in plain]),
            "setup_s": median([scaled for _, scaled in setups]),
            "ops_ok_frac": 1.0 - len(failures) / len(ops),
            "peak_rss_mb": peak_rss_mb,
        }
    lines += [f"  {name} = {values[name]!r} {unit}"
              for name, (unit, _) in units.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
