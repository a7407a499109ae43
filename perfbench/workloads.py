"""The four bsylab workloads: seeded inputs, set-up, timed passes, checks.

Each workload is one task a bsylab user runs, driven from one process
through the public entry points (``cli.run`` or the library functions),
always called through their module so that ``tracing.installed`` sees
the call.  Per workload:

* ``draw(seed)`` makes the inputs; the same seed gives the same inputs.
* ``setup()`` builds the files a user has on disk before the task (zero
  file, resonator table).  It runs in a fresh interpreter, see
  ``setup_inputs.py``, so that set-up time includes the package import.
* ``prepare()`` computes the reference values, outside the timed region.
* ``run_pass(p)`` makes one pass of the timed operations; each operation
  is checked against the references after its time is taken.

The sizes are scaled so that a run (set-up five times, a pass repeated
for the measured seconds, references) stays near half a minute on two
cores; see design.md for the sizes the time budget left out.
"""

import dataclasses
import io
import json
import math
import random
import time

import numpy as np

import calibration
import oracles
from bsylab import argument, cli, dirichlet, integral, resonator, zeros
from bsylab.config import DEFAULT


class Pass:
    """One pass: the time of its operations and their verdicts.

    ``raw`` is the summed wall time of the operations; ``wall`` is the
    same rescaled to reference-machine seconds, each operation by the
    calibration kernel timed just before and just after it.
    """

    def __init__(self):
        self.raw = 0.0
        self.wall = 0.0
        self.ops = []           # (operation, problem or None, raised)
        self.layers = None      # per-layer metrics, when traced
        self._before = calibration.kernel_seconds()

    def _timed(self, call):
        start = time.perf_counter()
        try:
            return call()
        finally:
            raw = time.perf_counter() - start
            after = calibration.kernel_seconds()
            self.raw += raw
            self.wall += raw * calibration.scale(self._before, after)
            self._before = after

    def op(self, name, call, check):
        """Time ``call()``, then run ``check(result)`` untimed.

        ``check`` returns None when the output is right, else a
        description.  An operation fails if it raises or its check fails;
        only the second makes the run incorrect.
        """
        try:
            out = self._timed(call)
        except Exception as exc:  # counted as a failed operation
            self.ops.append((name, f"raised {type(exc).__name__}: {exc}",
                             True))
            return None
        try:
            problem = check(out)
        except Exception as exc:  # a malformed output fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        self.ops.append((name, problem, False))
        return out


def _finite(x):
    return None if np.all(np.isfinite(x)) else f"non-finite output {x!r}"


def _close(value, reference, tol, scale=None):
    scale = abs(reference) if scale is None else scale
    err = abs(value - reference)
    if err <= tol * scale:
        return None
    return f"{value!r} differs from reference {reference!r} by {err:.3e}"


def _write_zero_file(path, height):
    """What ``bsy zeros find`` leaves on disk: a verified zero file."""
    zl = zeros.find_zeros_up_to(height, DEFAULT)
    zeros.export_zeros(zeros.verify_zero_list(zl, DEFAULT), str(path))


def _between_zeros(t):
    """The midpoint of the two zero ordinates around height t.

    A zero file ending within 0.05 above an ordinate loses that zero (see
    ZeroHunt.probe), so every seeded height where a zero file ends is
    moved to the middle of its gap.
    """
    import mpmath
    n = int(mpmath.nzeros(t))
    return float((mpmath.zetazero(n).imag + mpmath.zetazero(n + 1).imag)
                 / 2)


def _probe(metric, operation, call):
    """Run a known-failing operation once; report its outcome and time."""
    timed = Pass()
    try:
        out = timed._timed(call)
        outcome, failed = f"completed: {out!r}", 0
    except Exception as exc:  # the outcome is what the probe reports
        outcome, failed = f"raised {type(exc).__name__}: {exc}", 1
    return {"metric": metric, "operation": operation, "outcome": outcome,
            "failed": failed, "seconds": timed.wall}


def _read_ordinates(path):
    with open(path, encoding="utf-8") as fh:
        return [float(line) for line in fh
                if line.strip() and not line.startswith("#")]


class Workload:
    name = ""

    def __init__(self, inputs, workdir):
        self.inputs = inputs
        self.workdir = workdir

    def setup(self):
        pass

    def probe(self):
        """A known-failing operation run once per run, or None."""
        return None


class ZeroHunt(Workload):
    """``bsy zeros find``: find, verify and export all zeros up to T."""

    name = "zero_hunt"

    @staticmethod
    def draw(seed):
        rng = random.Random(seed)
        return {"T": _between_zeros(1000.0 + 8.0 * rng.random()),
                "picks": [rng.random() for _ in range(3)],
                "edge_zero": 30 + rng.randrange(10),
                "edge_offset": 0.005 + 0.035 * rng.random()}

    def prepare(self):
        import mpmath
        T = self.inputs["T"]
        self.count = int(mpmath.nzeros(T))
        picks = sorted({1 + int(f * self.count)
                        for f in self.inputs["picks"]})
        self.gammas = {n: float(mpmath.zetazero(n).imag) for n in picks}
        self.out_file = self.workdir / "zeros_found.txt"

    def _check(self, code):
        if code != 0:
            return f"exit code {code}"
        ords = _read_ordinates(self.out_file)
        if len(ords) != self.count:
            return (f"found {len(ords)} zeros, mpmath.nzeros gives "
                    f"{self.count}")
        for n, gamma in self.gammas.items():
            if abs(ords[n - 1] - gamma) > zeros.ORDINATE_ACCURACY:
                return (f"zero {n} at {ords[n - 1]!r}, mpmath.zetazero "
                        f"gives {gamma!r}")
        return None

    def probe(self):
        """A zero file ending just above an ordinate: a known defect.

        find_zeros_up_to(T) with T within 0.05 above an ordinate nudges
        its last census edge below that ordinate and drops the zero;
        verify_zero_list then raises Inconsistent (census mismatch).  It
        is run once per run at a seeded low height, outside wall_s and
        the operation counts, so that a fix shows as a completed probe.
        """
        import mpmath
        k, offset = self.inputs["edge_zero"], self.inputs["edge_offset"]
        T = float(mpmath.zetazero(k).imag) + offset
        return _probe(
            "zeros.edge_probe",
            f"verify_zero_list(find_zeros_up_to({T!r})), {offset:.4f} "
            f"above zero {k}",
            lambda: len(zeros.verify_zero_list(
                zeros.find_zeros_up_to(T, DEFAULT), DEFAULT)))

    def run_pass(self, p):
        self.out_file.unlink(missing_ok=True)
        argv = ["zeros", "find", "--max-t", repr(self.inputs["T"]),
                "--out", str(self.out_file)]
        p.op("zeros find", lambda: cli.run(argv, out=io.StringIO()),
             self._check)


class CriterionLadder(Workload):
    """``bsy integral-scan`` over the doubling ladder base * 2^k."""

    name = "criterion_ladder"
    POINTS = 8

    @staticmethod
    def draw(seed):
        rng = random.Random(seed)
        base = 10.0 * (1.0 + 0.01 * rng.random())
        tmax = base * 2.0 ** (CriterionLadder.POINTS - 1)
        return {"tmin": base, "tmax": tmax,
                "zero_height": _between_zeros(tmax + 5.0)}

    @property
    def zero_file(self):
        return self.workdir / "zeros_cache.txt"

    def setup(self):
        _write_zero_file(self.zero_file, self.inputs["zero_height"])

    def prepare(self):
        zl = zeros.verify_zero_list(zeros.import_zeros(str(self.zero_file)),
                                    DEFAULT)
        Ts = np.geomspace(self.inputs["tmin"], self.inputs["tmax"],
                          self.POINTS)
        self.reference = [r.value for r in integral.compute_I_many(
            Ts, zl, DEFAULT.refined(10.0))]
        self.csv = self.workdir / "ladder.csv"

    def _check(self, code, printed):
        if code != 0:
            return f"exit code {code}"
        with open(self.csv, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().split()[1:]]
        if len(rows) != self.POINTS:
            return f"{len(rows)} rows, expected {self.POINTS}"
        for row, ref in zip(rows, self.reference):
            T, value, err = float(row[0]), float(row[1]), float(row[2])
            if not abs(value - ref) <= err:
                return (f"I({T!r}) = {value!r} is {abs(value - ref):.3e} "
                        f"from the refined reference, above its error "
                        f"estimate {err:.3e}")
        fit = [float(x) for x in
               json.loads(printed.getvalue())["fitted_params"]]
        return _finite(fit)

    def run_pass(self, p):
        self.csv.unlink(missing_ok=True)
        printed = io.StringIO()
        argv = ["integral-scan", "--tmin", repr(self.inputs["tmin"]),
                "--tmax", repr(self.inputs["tmax"]),
                "--points", str(self.POINTS), "--model", "logT_over_T2",
                "--zeros", str(self.zero_file), "--out", str(self.csv)]
        p.op("integral-scan", lambda: cli.run(argv, out=printed),
             lambda code: self._check(code, printed))


class ArgScan(Workload):
    """Criterion-8 scans and the S, S1 statistics at seeded heights."""

    name = "arg_scan"

    @staticmethod
    def draw(seed):
        rng = random.Random(seed)
        j = 1.0 + 0.01 * rng.random()
        return {"grid_top": 1250.0 * j, "omega_T": 600.0 * j,
                "zero_height": _between_zeros(1250.0 * j + 5.0),
                "S_t": [100.0 + 1100.0 * rng.random() for _ in range(6)],
                "S1_direct_t": [300.0 + 200.0 * rng.random()
                                for _ in range(2)],
                "S1_littlewood_t": [100.0 + 1100.0 * rng.random()
                                    for _ in range(4)]}

    @property
    def zero_file(self):
        return self.workdir / "zeros_cache.txt"

    def setup(self):
        _write_zero_file(self.zero_file, self.inputs["zero_height"])

    def prepare(self):
        import mpmath
        # 1e-6 points put the Riemann-Siegel path to work above t ~ 370
        # (at 1e-8 it starts only at t ~ 2870, above these heights)
        self.cfg = dataclasses.replace(
            DEFAULT, target_abs_error=1e-6, quad_tol=1e-4,
            rs_correction_terms=4, max_subdivisions=200_000)
        self.zl = zeros.verify_zero_list(
            zeros.import_zeros(str(self.zero_file)), DEFAULT)
        self.grid = np.geomspace(30.0, self.inputs["grid_top"], 40)
        self.count = {t: int(mpmath.nzeros(t)) for t in self.inputs["S_t"]}
        self.theta = {t: float(mpmath.siegeltheta(t))
                      for t in self.inputs["S_t"]}

    def _check_S(self, t, s):
        n = self.theta[t] / math.pi + 1.0 + s
        if abs(n - self.count[t]) > 1e-2:
            return (f"theta/pi + 1 + S = {n!r}, mpmath.nzeros gives "
                    f"{self.count[t]}")
        return None

    @staticmethod
    def _check_lemma2(rep):
        return _finite(rep.fitted_params) or _finite(rep.samples)

    @staticmethod
    def _check_omega(rep):
        mx, _, mn, _ = rep.fitted_params
        return None if mx > 0.0 > mn else f"omega max {mx!r}, min {mn!r}"

    def run_pass(self, p):
        cfg, zl = self.cfg, self.zl
        p.op("lemma2_scan",
             lambda: argument.lemma2_scan(20.0, self.grid, zl, cfg),
             self._check_lemma2)
        p.op("omega_scan",
             lambda: argument.omega_scan(self.inputs["omega_T"], 0.3, zl,
                                         cfg),
             self._check_omega)
        for t in self.inputs["S_t"]:
            p.op(f"S_of_t({t:.4f})", lambda t=t: argument.S_of_t(t, cfg),
                 lambda s, t=t: self._check_S(t, s))
        for t in self.inputs["S1_direct_t"]:
            p.op(f"S1_direct({t:.4f})",
                 lambda t=t: argument.S1_direct(t, zl, cfg), _finite)
        for t in self.inputs["S1_littlewood_t"]:
            p.op(f"S1_littlewood({t:.4f})",
                 lambda t=t: argument.S1_littlewood(t, cfg), _finite)


#: The toy table of the acceptance tests (25 entries).
_TOY = dict(mu=2, nu=0, N=100, h=0.1, L=1.0, A=2.0, B=30.0, override=True)

#: Mean squares are taken at these heights.
_MS_HEIGHTS = (1e3, 1e4, 1e5)


class MeanValue(Workload):
    """Resonator tables, Dirichlet-polynomial mean values and moments."""

    name = "mean_value"

    @staticmethod
    def draw(seed):
        rng = random.Random(seed)
        return {"mid_N": 20_000 + rng.randrange(400),
                "mid_h": 0.1 + 0.05 * rng.random(),
                "big_N": 30_000 + rng.randrange(600),
                "alpha": 0.55 + 0.25 * rng.random(),
                "h": 0.05 + 0.2 * rng.random(),
                "T": 1000.0 + 10.0 * rng.random(),
                "grid_T": 1000.0 + 100.0 * rng.random(),
                "probe_T": 15_000.0 + 5000.0 * rng.random()}

    def _params(self, N, B):
        return resonator.ResonatorParams(
            mu=2, nu=0, N=N, h=self.inputs["mid_h"], L=1.0, A=2.0, B=B,
            override=True)

    @property
    def mid(self):
        # ~1000 entries: the O(n^2) pair arrays of mean_square_exact
        return self._params(self.inputs["mid_N"], 80.0)

    @property
    def big_file(self):
        return self.workdir / "resonator_big.txt"

    def setup(self):
        # ~1550 entries over N ~ 3e4: large enough that the pure-Python
        # c(p^k) loops of lemma3_rhs and s1_resonance_statistic show
        big = self._params(self.inputs["big_N"], 100.0)
        resonator.write_table(resonator.build_resonator(big, "plus"),
                              str(self.big_file))

    def prepare(self):
        mid = self.mid
        self.plus = resonator.build_resonator(mid, "plus")
        self.minus = resonator.build_resonator(mid, "minus")
        self.big = resonator.read_table(str(self.big_file))
        self.toy = resonator.build_resonator(
            resonator.ResonatorParams(**_TOY), "plus")
        self.loose = dataclasses.replace(DEFAULT, quad_tol=1e-3)
        self.grid = np.linspace(self.inputs["grid_T"],
                                2.0 * self.inputs["grid_T"], 5000)
        self.grid_checks = (0, 2499, 4999)
        ns, rs = self.plus.ns, self.plus.rs
        self.ref = {
            "numerator_plus": oracles.numerator(ns, rs, mid.mu, mid.nu,
                                                mid.h),
            "numerator_minus": oracles.numerator(
                self.minus.ns, self.minus.rs, mid.mu, mid.nu, mid.h),
            "mean_square": oracles.mean_squares(ns, rs, _MS_HEIGHTS),
            "R": [oracles.dirichlet_value(ns, rs, float(self.grid[i]))
                  for i in self.grid_checks],
            "resonance": oracles.resonance(*self.big, self.inputs["mid_h"]),
            "rhs": oracles.lemma3_rhs(*self.big, self.inputs["alpha"],
                                      self.inputs["h"], self.inputs["T"]),
        }
        self.sum_r2 = math.fsum(float(r) ** 2 for r in rs)
        self.sum_abs_r = math.fsum(abs(float(r)) for r in rs)

    @staticmethod
    def _same_table(table, ref):
        if np.array_equal(table.ns, ref.ns) and np.array_equal(table.rs,
                                                                ref.rs):
            return None
        return f"table of {table.ns.size} entries differs from the reference"

    @staticmethod
    def _check_lemma4(res):
        if res["ratio_plus"] > 0.0 > res["ratio_minus"]:
            return None
        return f"resonance ratios have the wrong signs: {res!r}"

    def _check_R(self, values):
        for i, ref in zip(self.grid_checks, self.ref["R"]):
            problem = _close(complex(values[i]), ref, 1e-9, self.sum_abs_r)
            if problem:
                return problem
        return None

    def _check_big(self, table):
        ns, rs = table
        ok = np.array_equal(ns, self.big[0]) and np.array_equal(rs,
                                                                self.big[1])
        return None if ok else "re-read table differs"

    def _check_resonance(self, res):
        return (_close(res[0], self.ref["resonance"][0], 1e-9)
                or _close(res[1], self.ref["resonance"][1], 1e-9))

    def _check_gap(self, gap):
        return _finite(gap) or (None if gap >= 0.0 else f"gap {gap!r} < 0")

    def run_pass(self, p):
        x, mid = self.inputs, self.mid
        plus = p.op("build_resonator plus",
                    lambda: resonator.build_resonator(mid, "plus"),
                    lambda t: self._same_table(t, self.plus))
        minus = p.op("build_resonator minus",
                     lambda: resonator.build_resonator(mid, "minus"),
                     lambda t: self._same_table(t, self.minus))
        p.op("lemma4_check", lambda: resonator.lemma4_check(mid),
             self._check_lemma4)
        p.op("resonator_numerator plus",
             lambda: resonator.resonator_numerator(plus),
             lambda v: _close(v, self.ref["numerator_plus"], 1e-10))
        p.op("resonator_numerator minus",
             lambda: resonator.resonator_numerator(minus),
             lambda v: _close(v, self.ref["numerator_minus"], 1e-10))
        for T, ref in zip(_MS_HEIGHTS, self.ref["mean_square"]):
            p.op(f"mean_square_exact(T={T:g})",
                 lambda T=T: dirichlet.mean_square_exact(plus, T),
                 lambda v, T=T, ref=ref: _close(v, ref, 1e-9,
                                                T * self.sum_r2))
        p.op("eval_R_batch", lambda: dirichlet.eval_R_batch(plus, self.grid),
             self._check_R)
        big = p.op("read_table", lambda: resonator.read_table(
            str(self.big_file)), self._check_big)
        p.op("s1_resonance_statistic",
             lambda: dirichlet.s1_resonance_statistic(big, x["mid_h"]),
             self._check_resonance)
        p.op("lemma3_rhs",
             lambda: dirichlet.lemma3_rhs(dirichlet.Lemma3Request(
                 alpha=x["alpha"], h=x["h"], T=x["T"], table=big)),
             lambda v: _close(v, self.ref["rhs"], 1e-9))
        p.op("lemma3_compare",
             lambda: dirichlet.lemma3_compare(dirichlet.Lemma3Request(
                 alpha=x["alpha"], h=x["h"], T=x["T"], table=self.toy),
                 self.loose),
             self._check_gap)

    def probe(self):
        """The AFE-regime moment, T in [1.5e4, 2e4]: a known defect.

        At the seed lemma3_compare raises BranchAmbiguous there ("unwrapped
        phase misses the endpoint anchor").  It is run once per run and
        reported beside the metrics, outside wall_s and the operation
        counts, so that a fix shows as a completed probe.
        """
        req = dirichlet.Lemma3Request(alpha=0.6, h=0.1,
                                      T=self.inputs["probe_T"],
                                      table=self.toy)
        return _probe(
            "dirichlet.afe_probe",
            f"lemma3_compare(alpha=0.6, h=0.1, T={req.T!r}, toy table, "
            f"quad_tol=1e-3)",
            lambda: dirichlet.lemma3_compare(req, self.loose))


WORKLOADS = {w.name: w for w in (ZeroHunt, CriterionLadder, ArgScan,
                                  MeanValue)}
