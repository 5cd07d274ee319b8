"""Command-line front end.

Subcommands: sample, estimate, test, calibrate, power, diagnose, ppplot.
Output is line-delimited JSON by default; `--table` switches to aligned
human-readable columns. Exit codes: 0 success, 2 usage, 3 data/parse,
4 estimation or statistic precondition failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .condmoments import QuantileSplit
from .datasets import FIXTURES, fixture_analysis
from .distributions import (ALTERNATIVE_FAMILIES, AlternativeSpec, LevyParams,
                            levy_cdf, sample_alternative, sample_levy)
from .estimators import METHODS, EstimationError, estimate
from .montecarlo import (ReplicationPlan, calibrate, normality_diagnostic,
                         p_value, power_study, run_test, simulate_null)
from .statistics import STATISTIC_KINDS, StatisticSpec, evaluate
from .streams import RandomStream

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4

# Statistics reported by `test --all`: the case-study battery.
ALL_TEST_KINDS = ("vn", "tn", "on", "deltan", "ran")


class DataError(Exception):
    pass


class UsageError(Exception):
    pass


# Checked in order. A failed precondition of the data or the statistic is an
# EstimationError; any other ValueError comes from a bad argument value.
ERROR_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    DataError: EXIT_DATA,
    OSError: EXIT_DATA,
    EstimationError: EXIT_ESTIMATION,
    ValueError: EXIT_USAGE,
}


def _parse_split(text: str) -> QuantileSplit:
    try:
        a, b = (float(v) for v in text.split(","))
        return QuantileSplit(a, b)
    except ValueError as e:
        raise UsageError(f"bad --split value {text!r}: {e}")


def _parse_alt(text: str, flag: str = "--alt") -> AlternativeSpec:
    """family:p1,p2 or family (no parameters)."""
    fam, _, ptext = text.partition(":")
    try:
        params = tuple(float(v) for v in ptext.split(",")) if ptext else ()
        return AlternativeSpec(fam, params)
    except ValueError as e:
        raise UsageError(f"bad {flag} value {text!r}: {e}")


def _plan(args) -> ReplicationPlan:
    try:
        return ReplicationPlan(args.seed, args.replicates, args.workers)
    except ValueError as e:
        raise UsageError(f"bad --seed, --replicates or --workers: {e}")


def read_observations(path: str, column: int | None = None) -> np.ndarray:
    """One number per line; blank lines and # comments skipped.

    With `column`, lines are treated as CSV and the given 0-based column
    is extracted. Parse failures report the line number.
    """
    out = []
    stream = sys.stdin if path == "-" else open(path)
    try:
        for lineno, line in enumerate(stream, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            token = body.split(",")[column].strip() if column is not None else body
            try:
                value = float(token)
            except (ValueError, IndexError):
                raise DataError(f"{path}:{lineno}: cannot parse {body!r}")
            if not np.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value {body!r}")
            out.append(value)
    finally:
        if stream is not sys.stdin:
            stream.close()
    if not out:
        raise DataError(f"{path}: no observations found")
    return np.array(out)


def _load_data(args) -> np.ndarray:
    if args.fixture is not None:
        if args.input is not None:
            raise UsageError("give --input or --fixture, not both")
        if args.column is not None:
            raise UsageError("--column applies to --input only")
        return fixture_analysis(args.fixture)
    if args.input is None:
        raise UsageError("provide --input FILE or --fixture NAME")
    if args.column is not None and args.column < 0:
        raise UsageError(f"bad --column {args.column}: column must be >= 0")
    return read_observations(args.input, args.column)


def _jsonable(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


class Emitter:
    """Writes records as JSONL, or as aligned columns under --table."""

    def __init__(self, out, table: bool):
        self.out = out
        self.table = table
        self._header = None

    def comment(self, text: str):
        if self.table:
            print(f"# {text}", file=self.out)

    def record(self, rec: dict):
        rec = {k: _jsonable(v) for k, v in rec.items()}
        if not self.table:
            print(json.dumps(rec), file=self.out)
            return
        keys = list(rec)
        if keys != self._header:
            self._header = keys
            print("  ".join(f"{k:>12}" for k in keys), file=self.out)
        cells = []
        for v in rec.values():
            if isinstance(v, float):
                cells.append(f"{v:>12.6g}")
            elif isinstance(v, list):
                cells.append(" ".join(format(x, "g") for x in v))
            else:
                cells.append(f"{v!s:>12}")
        print("  ".join(cells), file=self.out)


def _stat_spec(args) -> StatisticSpec:
    if args.stat is None:
        raise UsageError("provide --stat KIND")
    splits = [_parse_split(text) for text in (args.split, args.split2) if text]
    try:
        return StatisticSpec(args.stat, tuple(splits))
    except ValueError as e:
        raise UsageError(f"bad --split/--split2 for --stat {args.stat}: {e}")


def cmd_sample(args, emit: Emitter) -> int:
    try:
        stream = RandomStream(args.seed, 0)
    except ValueError as e:
        raise UsageError(f"bad --seed: {e}")
    if args.dist == "levy":
        draws = sample_levy(LevyParams(c=args.c, mu=args.mu), args.n, stream)
    else:
        if args.params is None:
            raise UsageError(f"--dist {args.dist} requires --params")
        spec = _parse_alt(f"{args.dist}:{args.params}", "--dist/--params")
        draws = sample_alternative(spec, args.n, stream)
    for v in draws:
        print(format(v, ".17g"), file=emit.out)
    return EXIT_OK


def cmd_estimate(args, emit: Emitter) -> int:
    method = METHODS.get(args.method.lower())
    if method is None:
        raise UsageError(f"unknown --method {args.method!r}; expected one of "
                         f"{', '.join(METHODS)}")
    if args.split and method.split is None:
        raise UsageError(f"--split does not apply to --method {args.method}")
    split = _parse_split(args.split) if args.split else None
    data = _load_data(args)
    est = estimate(args.method, data, split)
    rec = {"method": est.method, "estimate": est.value, "n": int(data.size)}
    if est.split is not None:
        rec["split"] = [est.split.a, est.split.b]
    emit.record(rec)
    return EXIT_OK


def cmd_test(args, emit: Emitter) -> int:
    data = _load_data(args)
    if args.all:
        if args.stat or args.split or args.split2:
            raise UsageError("--stat/--split/--split2 do not apply to --all")
        specs = tuple(StatisticSpec(kind) for kind in ALL_TEST_KINDS)
    elif args.stat:
        specs = (_stat_spec(args),)
    else:
        raise UsageError("provide --stat KIND or --all")
    _check_level(args)
    plan = _plan(args)
    failures = 0
    bound = 1.0 / (plan.replicates + 1)
    for spec, rep in zip(specs, run_test(specs, data, args.level, plan)):
        if isinstance(rep, EstimationError):
            failures += 1
            emit.record({"stat": spec.kind, "error": str(rep)})
            continue
        rec = {
            "stat": rep.kind,
            "value": rep.value,
            "p_value": rep.p,
            "p_bound": f"<{2.0 * bound:.2g}" if rep.p <= 2.0 * bound else None,
            "level": rep.level,
            "reject": rep.reject,
            "lower": rep.lower,
            "upper": rep.upper,
            "replicates": rep.replicates,
            "seed": rep.seed,
        }
        emit.record(rec)
    return EXIT_ESTIMATION if failures == len(specs) else EXIT_OK


def _check_level(args) -> None:
    if not 0.0 < args.level < 1.0:
        raise UsageError(f"bad --level {args.level}: level must be in (0, 1)")


def _n_values(args) -> list[int]:
    if args.n_grid and args.n is not None:
        raise UsageError("give --n or --n-grid, not both")
    if args.n_grid:
        try:
            return [int(v) for v in args.n_grid.split(",")]
        except ValueError as e:
            raise UsageError(f"bad --n-grid value {args.n_grid!r}: {e}")
    if args.n is None:
        raise UsageError("provide --n or --n-grid")
    return [args.n]


def cmd_calibrate(args, emit: Emitter) -> int:
    spec = _stat_spec(args)
    _check_level(args)
    plan = _plan(args)
    for n in _n_values(args):
        (nd,) = simulate_null((spec,), n, plan)
        lower, upper = calibrate(nd, args.level)
        emit.record({"stat": spec.kind, "n": n, "level": args.level,
                     "lower": lower, "upper": upper,
                     "replicates": plan.replicates, "seed": plan.master_seed})
    return EXIT_OK


def cmd_power(args, emit: Emitter) -> int:
    spec = _stat_spec(args)
    alt = _parse_alt(args.alt)
    _check_level(args)
    plan = _plan(args)
    for n in _n_values(args):
        (cell,) = power_study(simulate_null((spec,), n, plan), alt, args.level)
        emit.record({"stat": cell.kind, "alt": alt.label(), "n": cell.n,
                     "level": cell.level, "power": cell.power,
                     "std_error": cell.std_error, "replicates": cell.replicates,
                     "failed_replicates": cell.failed_replicates,
                     "seed": args.seed})
    return EXIT_OK


def cmd_diagnose(args, emit: Emitter) -> int:
    spec = _stat_spec(args)
    if args.bins < 1:
        raise UsageError(f"bad --bins {args.bins}: bins must be >= 1")
    for n in _n_values(args):
        rep = normality_diagnostic(spec, n, _plan(args), bins=args.bins)
        emit.record({"stat": rep.kind, "n": rep.n,
                     "fitted_mean": rep.fitted_mean, "fitted_std": rep.fitted_std,
                     "ks_distance": rep.ks_distance, "replicates": rep.replicates,
                     "bin_edges": rep.bin_edges, "counts": rep.counts,
                     "seed": args.seed})
    return EXIT_OK


def cmd_ppplot(args, emit: Emitter) -> int:
    data = _load_data(args)
    c_hat = estimate("mle", data).value
    emit.comment(f"fitted with MLE scale estimate c = {c_hat:.6g}")
    xs = np.sort(data)
    n = xs.size
    fitted = levy_cdf(xs, LevyParams(c=c_hat))
    for i in range(n):
        emit.record({"empirical": (i + 1) / n, "fitted": float(fitted[i])})
    return EXIT_OK


def _add_io_flags(p):
    p.add_argument("--input", help="data file, one number per line ('-' for stdin)")
    p.add_argument("--fixture", choices=sorted(FIXTURES), help="embedded dataset")
    p.add_argument("--column", type=int, help="0-based CSV column to read")


def _add_mc_flags(p):
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="advisory worker count")


def _add_stat_flags(p):
    p.add_argument("--stat", choices=STATISTIC_KINDS)
    p.add_argument("--split", help="a,b window override")
    p.add_argument("--split2", help="second a,b window (on/cn)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levygof",
        description="Scale estimation and goodness-of-fit tests for the one-sided Levy law.")
    ap.add_argument("--table", action="store_true", help="aligned human-readable output")
    ap.add_argument("--out", help="write records to this file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw from the Levy law or an alternative family")
    p.add_argument("--dist", required=True,
                   choices=("levy",) + tuple(sorted(ALTERNATIVE_FAMILIES)))
    p.add_argument("--params", help="comma-separated family parameters")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="estimate the scale parameter")
    p.add_argument("--method", required=True, help="mle|cov|qcm|qcv")
    p.add_argument("--split", help="a,b window for qcm/qcv")
    _add_io_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="goodness-of-fit test(s) with simulated p-values")
    _add_stat_flags(p)
    p.add_argument("--all", action="store_true", help="run the full test battery")
    _add_io_flags(p)
    _add_mc_flags(p)
    p.add_argument("--level", type=float, default=0.05)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("calibrate", help="simulated two-sided rejection thresholds")
    _add_stat_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-grid", help="comma-separated sample sizes")
    _add_mc_flags(p)
    p.add_argument("--level", type=float, default=0.05)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("power", help="empirical power against an alternative")
    _add_stat_flags(p)
    p.add_argument("--alt", required=True, help="family:p1,p2,... e.g. lognormal:0,1")
    p.add_argument("--n", type=int)
    p.add_argument("--n-grid", help="comma-separated sample sizes")
    _add_mc_flags(p)
    p.add_argument("--level", type=float, default=0.05)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("diagnose", help="normality diagnostics of a null law")
    _add_stat_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-grid", help="comma-separated sample sizes")
    p.add_argument("--bins", type=int, default=50)
    _add_mc_flags(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("ppplot", help="PP-plot data against the MLE-fitted law")
    _add_io_flags(p)
    p.set_defaults(func=cmd_ppplot)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    out = sys.stdout
    try:
        # Opened inside the try: an unwritable --out is a data error (exit 3).
        if args.out:
            out = open(args.out, "w")
        code = args.func(args, Emitter(out, args.table))
    except tuple(ERROR_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        code = next(c for cls, c in ERROR_EXIT_CODES.items() if isinstance(e, cls))
    finally:
        if out is not sys.stdout:
            out.close()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
