"""Command-line entry point ``bsy``.

Subcommands: zeta, zeros, integral, integral-scan, arg, resonator, mv,
report.  Configuration comes from a ``key = value`` file (``--config``
flag or the ``BSY_CONFIG`` environment variable); command-line flags
override file values.  All numeric output is printed with 17 significant
digits.  Exit codes: 0 success, 1 usage error, 2 computational error (a
machine-readable JSON object describing the error is written to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import acceptance, argument, dirichlet, integral, resonator, zeros, zeta
from .accum import comp_sum
from .config import DEFAULT, PrecisionConfig
from .errors import BsyError, ParseError


@dataclass(frozen=True)
class RunConfig:
    """Session-level settings shared by every subcommand."""

    precision: PrecisionConfig = DEFAULT
    zero_cache_path: str = "zeros_cache.txt"


def _fmt(x) -> str:
    """17-significant-digit decimal rendering of a float."""
    return f"{float(x):.17g}"


def _read_config_file(path: str) -> dict:
    opts = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value' on line {lineno}",
                                 line_number=lineno)
            key, val = line.split("=", 1)
            opts[key.strip()] = val.strip()
    return opts


def _merged(rc: RunConfig, values: dict) -> RunConfig:
    """rc with the precision fields and ``zero_cache_path`` that values
    gives (None meaning unset) in place of its own."""
    precision = {f.name: values[f.name]
                 for f in dataclasses.fields(PrecisionConfig)
                 if values.get(f.name) is not None}
    cache = values.get("zero_cache_path")
    return RunConfig(dataclasses.replace(rc.precision, **precision),
                     rc.zero_cache_path if cache is None else cache)


def load_run_config(path: str | None) -> RunConfig:
    """RunConfig from a config file; missing path means defaults."""
    if path is None:
        path = os.environ.get("BSY_CONFIG")
    if path is None:
        return RunConfig()
    opts = _read_config_file(path)
    field_types = {f.name: type(f.default)
                   for f in dataclasses.fields(PrecisionConfig)}
    for key, val in opts.items():
        if key in field_types:
            opts[key] = field_types[key](val)
        elif key != "zero_cache_path":
            raise ParseError(f"unknown config key {key!r}")
    return _merged(RunConfig(), opts)


def _load_zeros(path: str, need_height: float,
                cfg: PrecisionConfig) -> zeros.ZeroList:
    """Cached zeros covering need_height, else all found anew and cached."""
    if os.path.exists(path):
        zl = zeros.import_zeros(path)
        if zl.covered_height >= need_height:
            return zeros.verify_zero_list(zl, cfg)
    zl = zeros.find_zeros_up_to(need_height, cfg)
    zl = zeros.verify_zero_list(zl, cfg)
    zeros.export_zeros(zl, path)
    return zl


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

def _cmd_zeta(args, rc: RunConfig, out) -> int:
    cfg = rc.precision
    t = float(args.t)
    sigma = float(args.sigma)
    zv = zeta.zeta_em(complex(sigma, t), cfg)
    row = {
        "sigma": sigma,
        "t": t,
        "zeta_re": zv.value.real,
        "zeta_im": zv.value.imag,
        "abs_err": zv.abs_error,
    }
    if sigma == 0.5:
        row["hardy_z"] = float(zeta.hardy_z(t, cfg))
    if args.format == "json":
        print(json.dumps({k: _fmt(v) for k, v in row.items()}), file=out)
    else:
        print(",".join(row), file=out)
        print(",".join(_fmt(v) for v in row.values()), file=out)
    return 0


def _cmd_zeros(args, rc: RunConfig, out) -> int:
    cfg = rc.precision
    if args.zeros_cmd == "find":
        zl = zeros.find_zeros_up_to(float(args.max_t), cfg)
        zl = zeros.verify_zero_list(zl, cfg)
        zeros.export_zeros(zl, args.out)
        print(f"found = {len(zl)}", file=out)
        print(f"covered_height = {_fmt(zl.covered_height)}", file=out)
        return 0
    # verify
    zl = zeros.import_zeros(args.infile)
    zl = zeros.verify_zero_list(zl, cfg)   # raises Inconsistent on failure
    print(f"verified = {'true' if zl.verified else 'false'}", file=out)
    print(f"count = {len(zl)}", file=out)
    return 0


def _integral_csv_row(T: float, res) -> str:
    return ",".join([_fmt(T), _fmt(res.value), _fmt(res.abs_error_est),
                     str(res.subintervals), str(res.singularities_handled)])


def _cmd_integral_scan(args, rc: RunConfig, out) -> int:
    cfg = rc.precision
    tmin, tmax, npts = float(args.tmin), float(args.tmax), int(args.points)
    if not (0 < tmin < tmax < math.inf and npts >= 2):
        raise ValueError("need 0 < tmin < tmax < inf and points >= 2")
    zl = zeros.verify_zero_list(zeros.import_zeros(args.zeros), cfg)
    Ts = np.geomspace(tmin, tmax, npts)
    results = integral.compute_I_many(Ts, zl, cfg)
    samples = np.column_stack([Ts, [r.value for r in results]])
    fit = integral.fit_decay(samples, args.model)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("T,I,abs_err,subintervals,singularities\n")
        for T, r in zip(Ts, results):
            fh.write(_integral_csv_row(T, r) + "\n")
    print(json.dumps({
        "model": fit.model,
        "fitted_params": [_fmt(p) for p in fit.fitted_params],
        "residual_rms": _fmt(fit.residual_rms),
        "flags": list(fit.flags),
    }), file=out)
    return 0


def _cmd_integral(args, rc: RunConfig, out) -> int:
    cfg = rc.precision
    zl = zeros.verify_zero_list(zeros.import_zeros(args.zeros), cfg)
    T = float(args.T)
    if args.tmax is not None:
        res = integral.tail_I(T, float(args.tmax), zl, cfg)
    else:
        res = integral.compute_I(T, zl, cfg)
    if args.format == "json":
        print(json.dumps({
            "T": _fmt(T), "I": _fmt(res.value),
            "abs_err": _fmt(res.abs_error_est),
            "subintervals": res.subintervals,
            "singularities": res.singularities_handled,
        }), file=out)
    else:
        print("T,I,abs_err,subintervals,singularities", file=out)
        print(_integral_csv_row(T, res), file=out)
    return 0


def _arg_rows(out, rows):
    print("t,stat,normalized", file=out)
    for t, stat, norm in rows:
        print(f"{_fmt(t)},{_fmt(stat)},{_fmt(norm)}", file=out)


def _cmd_arg(args, rc: RunConfig, out) -> int:
    cfg = rc.precision
    sub = args.arg_cmd
    if sub == "s":
        t = float(args.t)
        zl = None
        if args.zeros:
            zl = zeros.import_zeros(args.zeros)
        s = argument.S_of_t(t, cfg, zl)
        norm = (s * math.log(math.log(t)) / math.log(t)
                if t > math.e else math.nan)
        _arg_rows(out, [(t, s, norm)])
        return 0
    if sub == "s1":
        t = float(args.t)
        if args.method == "littlewood":
            stat = argument.S1_littlewood(t, cfg)
        else:
            zl = _load_zeros(rc.zero_cache_path,
                             argument._s1_height(t) + 5.0, cfg)
            stat = argument.S1_direct(t, zl, cfg)
        norm = float(argument.lemma2_normalized(
            np.array([t]), np.array([stat]))[0])
        _arg_rows(out, [(t, stat, norm)])
        return 0
    if sub == "lemma2":
        T, tmax, npts = float(args.T), float(args.tmax), int(args.points)
        # np.geomspace warns on a negative or infinite end: refuse those
        # here, with the messages of argument._lemma2_height
        if T < 3.0 or math.isinf(T):
            raise ValueError("need 3 <= T <= min(t_grid)")
        if not (tmax > 0.0 and npts >= 1) or math.isinf(tmax):
            raise ValueError("t_grid must be strictly ascending")
        grid = np.geomspace(T, tmax, npts)
        zl = _load_zeros(rc.zero_cache_path,
                         argument._lemma2_height(T, grid) + 5.0, cfg)
        rep = argument.lemma2_scan(T, grid, zl, cfg)
        ts, vals = rep.samples[:, 0], rep.samples[:, 1]
        norms = argument.lemma2_normalized(ts, vals)
        _arg_rows(out, zip(ts, vals, norms))
        print(f"# sup_normalized = {_fmt(rep.fitted_params[0])}", file=out)
        return 0
    # omega
    T, h = float(args.T), float(args.h)
    zl = _load_zeros(rc.zero_cache_path, argument._omega_height(T, h) + 5.0,
                     cfg)
    rep = argument.omega_scan(T, h, zl, cfg)
    ts, vals = rep.samples[:, 0], rep.samples[:, 1]
    norms = argument.omega_normalized(ts, vals, h)
    _arg_rows(out, zip(ts, vals, norms))
    mx, tmx, mn, tmn = rep.fitted_params
    print(f"# max_normalized = {_fmt(mx)} at t = {_fmt(tmx)}", file=out)
    print(f"# min_normalized = {_fmt(mn)} at t = {_fmt(tmn)}", file=out)
    return 0


def _resonator_params(args) -> resonator.ResonatorParams:
    if args.override:
        if args.A is None or args.B is None or args.L is None:
            raise ValueError("--override requires --A, --B and --L")
        return resonator.ResonatorParams(
            mu=args.mu, nu=args.nu, N=args.N, h=args.h,
            L=args.L, A=args.A, B=args.B, override=True)
    return resonator.ResonatorParams.solved(args.N, args.nu,
                                            mu=args.mu, h=args.h)


def _cmd_resonator(args, rc: RunConfig, out) -> int:
    if args.resonator_cmd == "build":
        params = _resonator_params(args)
        table = resonator.build_resonator(params, args.sign)
        resonator.write_table(table, args.out)
        print(f"entries = {table.ns.size}", file=out)
        return 0
    # check
    params = _resonator_params(args)
    res = resonator.lemma4_check(params)
    print(json.dumps({k: _fmt(v) for k, v in res.items()}), file=out)
    return 0


def _cmd_mv(args, rc: RunConfig, out) -> int:
    cfg = rc.precision
    # N comes from write_table's header where there is one, else from the
    # largest entry
    ns, rs = resonator.read_table(args.table)
    head = resonator.read_header(args.table)
    table = (ns, rs) if head is None \
        else resonator.ResonatorTable(ns, rs, *head)
    if args.mv_cmd == "exact":
        T = float(args.T)
        ms = dirichlet.mean_square_exact(table, T)
        base = T * comp_sum(rs ** 2)
        print(json.dumps({
            "mean_square": _fmt(ms),
            "t_times_sum_r2": _fmt(base),
            "ratio": _fmt(ms / base),
        }), file=out)
        return 0
    # lemma3
    req = dirichlet.Lemma3Request(
        alpha=float(args.alpha), h=float(args.h), T=float(args.T),
        table=table)
    # the exact sum first: it refuses a table before the costly integral
    rhs = dirichlet.lemma3_rhs(req)
    lhs = dirichlet.lemma3_lhs(req, cfg)
    gap = abs(lhs - rhs) / dirichlet.lemma3_normalization(req)
    print(json.dumps({
        "lhs_re": _fmt(lhs.real), "lhs_im": _fmt(lhs.imag),
        "rhs_re": _fmt(rhs.real), "rhs_im": _fmt(rhs.imag),
        "normalized_gap": _fmt(gap),
    }), file=out)
    return 0


# ----------------------------------------------------------------------
# report: the acceptance experiments of bsylab.acceptance
# ----------------------------------------------------------------------

def _zeros_to(rc: RunConfig, height: float) -> zeros.ZeroList:
    return _load_zeros(rc.zero_cache_path, height, rc.precision)


def _ladder(rc: RunConfig):
    zl = _zeros_to(rc, float(acceptance.LADDER[-1]))
    return zl, acceptance.ladder_I(zl, rc.precision)


_SUITES = {
    "zeta-engine": (1, lambda rc: acceptance.zeta_engine(rc.precision)),
    "zero-finding": (2, lambda rc: acceptance.zero_census(rc.precision)),
    "theorem2-bounded": (3, lambda rc: acceptance.theorem2_bounded(
        *_ladder(rc), rc.precision)),
    "decay-exponent": (4, lambda rc: acceptance.decay_exponent(
        _ladder(rc)[1])),
    "weight-identity": (5, lambda rc: acceptance.weight_identity(
        rc.precision)),
    "zero-sum-term": (6, lambda rc: acceptance.zero_sum(
        _zeros_to(rc, 100.0), rc.precision)),
    "argument-suite": (7, lambda rc: acceptance.argument_suite(
        _zeros_to(rc, 500.0), rc.precision)),
    "lemma2-omega": (8, lambda rc: acceptance.lemma2_omega(
        _zeros_to(rc, 1e4), rc.precision)),
    "resonator-exact": (9, lambda rc: acceptance.resonator_exact(
        acceptance.TOY_PARAMS)),
    "mean-value": (10, lambda rc: acceptance.lemma3_mv(
        resonator.build_resonator(acceptance.TOY_PARAMS, "plus"),
        acceptance.TRIVIAL_TABLE, rc.precision)),
}


def _cmd_report(args, rc: RunConfig, out) -> int:
    suite = args.suite
    if suite not in _SUITES:
        known = ", ".join(sorted(_SUITES))
        print(f"bsy report: unknown suite {suite!r}; known: {known}",
              file=sys.stderr)
        return 1
    cid, fn = _SUITES[suite]
    try:
        measured, threshold, detail = fn(rc)
    except Exception as exc:
        print(json.dumps({
            "criterion_id": cid, "suite": suite,
            "error": type(exc).__name__, "message": str(exc),
        }), file=sys.stderr)
        return 2
    print(json.dumps({
        "criterion_id": cid,
        "suite": suite,
        "measured": _fmt(measured),
        "threshold": _fmt(threshold),
        "pass": bool(measured <= threshold),
        "detail": detail,
    }), file=out)
    return 0


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------

def _session_flags():
    """The session flags as parent parsers, one per set a subcommand may
    read: --config (every subcommand); one flag per PrecisionConfig
    field, of the type of the field's default (the subcommands that read
    ``rc.precision``); and --zero-cache (the ones that read their zeros
    from the cache file).  A flag a subcommand would ignore is a usage
    error there."""
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="path to a 'key = value' config file")
    precision = argparse.ArgumentParser(add_help=False)
    for f in dataclasses.fields(PrecisionConfig):
        precision.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               type=type(f.default))
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--zero-cache", help="zero-list cache file")
    return [config], [config, precision], [config, precision, cache]


def build_parser() -> _Parser:
    top = _Parser(prog="bsy",
                  description="Critical-line zeta laboratory")
    sub = top.add_subparsers(dest="command", required=True)
    plain, common, cached = _session_flags()

    p = sub.add_parser("zeta", parents=common,
                       help="evaluate zeta(sigma + it)")
    p.add_argument("--t", required=True, type=float)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("zeros", help="find or verify zero lists")
    zsub = p.add_subparsers(dest="zeros_cmd", required=True)
    pf = zsub.add_parser("find", parents=common)
    pf.add_argument("--max-t", required=True, type=float)
    pf.add_argument("--out", required=True)
    pv = zsub.add_parser("verify", parents=common)
    pv.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("integral", parents=common,
                       help="critical-line weighted integral")
    p.add_argument("--T", required=True, type=float)
    p.add_argument("--zeros", required=True, help="verified zero-list file")
    p.add_argument("--tmax", type=float,
                   help="compute the truncated tail over [T, tmax]")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("integral-scan", parents=common,
                       help="scan I(T) over a grid and fit a decay model")
    p.add_argument("--tmin", required=True, type=float)
    p.add_argument("--tmax", required=True, type=float)
    p.add_argument("--points", required=True, type=int)
    p.add_argument("--model", choices=integral.MODELS, default="pure_power")
    p.add_argument("--zeros", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("arg", help="argument statistics S, S1 and scans")
    asub = p.add_subparsers(dest="arg_cmd", required=True)
    ps = asub.add_parser("s", parents=common)
    ps.add_argument("--t", required=True, type=float)
    ps.add_argument("--zeros")
    p1 = asub.add_parser("s1", parents=cached)
    p1.add_argument("--t", required=True, type=float)
    p1.add_argument("--method", choices=("direct", "littlewood"),
                    default="littlewood")
    pl = asub.add_parser("lemma2", parents=cached)
    pl.add_argument("--T", required=True, type=float)
    pl.add_argument("--tmax", required=True, type=float)
    pl.add_argument("--points", required=True, type=int)
    po = asub.add_parser("omega", parents=cached)
    po.add_argument("--T", required=True, type=float)
    po.add_argument("--h", required=True, type=float)

    p = sub.add_parser("resonator", help="build or check resonator tables")
    rsub = p.add_subparsers(dest="resonator_cmd", required=True)
    for name in ("build", "check"):
        pr = rsub.add_parser(name, parents=plain)
        pr.add_argument("--mu", required=True, type=int)
        pr.add_argument("--nu", required=True, type=int)
        pr.add_argument("--N", required=True, type=int)
        pr.add_argument("--h", type=float, default=0.0)
        pr.add_argument("--override", action="store_true")
        pr.add_argument("--A", type=float)
        pr.add_argument("--B", type=float)
        pr.add_argument("--L", type=float)
        if name == "build":
            pr.add_argument("--sign", choices=("plus", "minus"),
                            default="plus")
            pr.add_argument("--out", required=True)

    p = sub.add_parser("mv", help="Dirichlet-polynomial mean values")
    msub = p.add_subparsers(dest="mv_cmd", required=True)
    pe = msub.add_parser("exact", parents=plain)
    pe.add_argument("--table", required=True)
    pe.add_argument("--T", required=True, type=float)
    pm = msub.add_parser("lemma3", parents=common)
    pm.add_argument("--table", required=True)
    pm.add_argument("--alpha", required=True, type=float)
    pm.add_argument("--h", required=True, type=float)
    pm.add_argument("--T", required=True, type=float)

    p = sub.add_parser("report", parents=cached,
                       help="run one acceptance experiment")
    p.add_argument("suite")

    return top


@functools.cache
def _parser() -> _Parser:
    """``build_parser()``, once per process: parsing leaves the tree as it
    is, and building it costs milliseconds a call."""
    return build_parser()


_HANDLERS = {
    "zeta": _cmd_zeta,
    "zeros": _cmd_zeros,
    "integral": _cmd_integral,
    "integral-scan": _cmd_integral_scan,
    "arg": _cmd_arg,
    "resonator": _cmd_resonator,
    "mv": _cmd_mv,
    "report": _cmd_report,
}


def run(argv=None, out=None) -> int:
    """Parse argv, execute, and return the process exit code."""
    out = out if out is not None else sys.stdout
    parser = _parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # "integral scan" spelled as two words maps to the integral-scan parser
    if argv[:2] == ["integral", "scan"]:
        argv = ["integral-scan"] + argv[2:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rc = _merged(load_run_config(getattr(args, "config", None)),
                     dict(vars(args),
                          zero_cache_path=getattr(args, "zero_cache", None)))
        return _HANDLERS[args.command](args, rc, out)
    except (BsyError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
