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
from .montecarlo import (ReplicationPlan, calibrate, normality_diagnostic, power_study,
                         run_test, simulate_null)
from .statistics import STATISTIC_KINDS, StatisticSpec
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
# EstimationError; any other ValueError comes from a bad argument value, and
# so does an allocation that NumPy refuses (a --n or --replicates too large).
ERROR_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    DataError: EXIT_DATA,
    OSError: EXIT_DATA,
    EstimationError: EXIT_ESTIMATION,
    ValueError: EXIT_USAGE,
    MemoryError: EXIT_USAGE,
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line (a UsageError), not a usage block."""

    def error(self, message):
        raise UsageError(message)


def _typed(parse):
    """An argparse `type=`: a ValueError of `parse` reads `argument --X: bad value 'text': why`."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {e}")
    return convert


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _split(text: str) -> QuantileSplit:
    a, b = _floats(text)
    return QuantileSplit(a, b)


def _alt(text: str) -> AlternativeSpec:
    """family:p1,p2 or family (no parameters)."""
    fam, _, ptext = text.partition(":")
    return AlternativeSpec(fam, _floats(ptext) if ptext else ())


def _level(text: str) -> float:
    level = float(text)
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    return level


def _seed(text: str) -> int:
    return RandomStream(int(text)).master_seed


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value
    return _typed(parse)


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
    if args.fixture is None:
        return read_observations(args.input, args.column)
    if args.column is not None:
        raise UsageError("--column applies to --input only")
    return fixture_analysis(args.fixture)


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
    try:
        return StatisticSpec(args.stat, tuple(s for s in (args.split, args.split2) if s))
    except ValueError as e:
        raise UsageError(f"bad --split/--split2 for --stat {args.stat}: {e}")


def _sizes(args, spec: StatisticSpec) -> list[int]:
    """The --n or --n-grid sizes, all checked before the first one is simulated."""
    sizes = args.n_grid or [args.n]
    for n in sizes:
        spec.check_n(n)
    return sizes


def cmd_sample(args, emit: Emitter) -> int:
    stream = RandomStream(args.seed, 0)
    if args.dist == "levy":
        if args.params is not None:
            raise UsageError("--dist levy takes no --params")
        c, mu = (1.0 if args.c is None else args.c), (0.0 if args.mu is None else args.mu)
        draws = sample_levy(LevyParams(c=c, mu=mu), args.n, stream)
    else:
        if args.params is None:
            raise UsageError(f"--dist {args.dist} requires --params")
        for flag in ("c", "mu"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--dist {args.dist} takes no --{flag}")
        try:
            spec = AlternativeSpec(args.dist, args.params)
        except ValueError as e:
            raise UsageError(f"bad --params for --dist {args.dist}: {e}")
        draws = sample_alternative(spec, args.n, stream)
    for v in draws:
        print(format(v, ".17g"), file=emit.out)
    return EXIT_OK


def cmd_estimate(args, emit: Emitter) -> int:
    if args.split and METHODS[args.method].split is None:
        raise UsageError(f"--split does not apply to --method {args.method}")
    data = _load_data(args)
    est = estimate(args.method, data, args.split)
    rec = {"method": est.method, "estimate": est.value, "n": int(data.size)}
    if est.split is not None:
        rec["split"] = [est.split.a, est.split.b]
    emit.record(rec)
    return EXIT_OK


def cmd_test(args, emit: Emitter) -> int:
    data = _load_data(args)
    if args.all:
        if args.split or args.split2:
            raise UsageError("--split/--split2 do not apply to --all")
        specs = tuple(StatisticSpec(kind) for kind in ALL_TEST_KINDS)
    else:
        specs = (_stat_spec(args),)
    plan = ReplicationPlan(args.seed, args.replicates, args.workers)
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


def cmd_calibrate(args, emit: Emitter) -> int:
    spec = _stat_spec(args)
    plan = ReplicationPlan(args.seed, args.replicates, args.workers)
    for n in _sizes(args, spec):
        (nd,) = simulate_null((spec,), n, plan)
        lower, upper = calibrate(nd, args.level)
        emit.record({"stat": spec.kind, "n": n, "level": args.level,
                     "lower": lower, "upper": upper,
                     "replicates": plan.replicates, "seed": plan.master_seed})
    return EXIT_OK


def cmd_power(args, emit: Emitter) -> int:
    spec = _stat_spec(args)
    plan = ReplicationPlan(args.seed, args.replicates, args.workers)
    for n in _sizes(args, spec):
        (cell,) = power_study(simulate_null((spec,), n, plan), args.alt, args.level)
        emit.record({"stat": cell.kind, "alt": args.alt.label(), "n": cell.n,
                     "level": cell.level, "power": cell.power,
                     "std_error": cell.std_error, "replicates": cell.replicates,
                     "failed_replicates": cell.failed_replicates,
                     "seed": args.seed})
    return EXIT_OK


def cmd_diagnose(args, emit: Emitter) -> int:
    spec = _stat_spec(args)
    plan = ReplicationPlan(args.seed, args.replicates, args.workers)
    for n in _sizes(args, spec):
        rep = normality_diagnostic(spec, n, plan, bins=args.bins)
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
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--input", help="data file, one number per line ('-' for stdin)")
    g.add_argument("--fixture", choices=sorted(FIXTURES), help="embedded dataset")
    p.add_argument("--column", type=_at_least(0), help="0-based CSV column to read")


def _add_mc_flags(p):
    p.add_argument("--replicates", type=_at_least(1), default=10000)
    p.add_argument("--seed", type=_typed(_seed), default=0)
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="worker processes; capped at one per CPU core and per "
                        "512-replicate chunk")


def _add_stat_flags(p, group=None):
    # --stat is required unless it sits in a mutually exclusive `group`.
    (group or p).add_argument("--stat", choices=STATISTIC_KINDS, required=group is None)
    p.add_argument("--split", type=_typed(_split), help="a,b window override")
    p.add_argument("--split2", type=_typed(_split), help="second a,b window (on/cn)")


def _add_n_flags(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--n-grid", type=_typed(lambda text: [int(v) for v in text.split(",")]),
                   help="comma-separated sample sizes")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="levygof",
        description="Scale estimation and goodness-of-fit tests for the one-sided Levy law.")
    ap.add_argument("--table", action="store_true", help="aligned human-readable output")
    ap.add_argument("--out", help="write records to this file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw from the Levy law or an alternative family")
    p.add_argument("--dist", required=True,
                   choices=("levy",) + tuple(sorted(ALTERNATIVE_FAMILIES)))
    p.add_argument("--params", type=_typed(_floats), help="comma-separated family parameters")
    p.add_argument("--c", type=float, help="Levy scale (default 1)")
    p.add_argument("--mu", type=float, help="Levy location (default 0)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_typed(_seed), default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="estimate the scale parameter")
    p.add_argument("--method", required=True, type=str.lower, choices=METHODS)
    p.add_argument("--split", type=_typed(_split), help="a,b window for qcm/qcv")
    _add_io_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="goodness-of-fit test(s) with simulated p-values")
    g = p.add_mutually_exclusive_group(required=True)
    _add_stat_flags(p, g)
    g.add_argument("--all", action="store_true", help="run the full test battery")
    _add_io_flags(p)
    _add_mc_flags(p)
    p.add_argument("--level", type=_typed(_level), default=0.05)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("calibrate", help="simulated two-sided rejection thresholds")
    _add_stat_flags(p)
    _add_n_flags(p)
    _add_mc_flags(p)
    p.add_argument("--level", type=_typed(_level), default=0.05)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("power", help="empirical power against an alternative")
    _add_stat_flags(p)
    p.add_argument("--alt", required=True, type=_typed(_alt),
                   help="family:p1,p2,... e.g. lognormal:0,1")
    _add_n_flags(p)
    _add_mc_flags(p)
    p.add_argument("--level", type=_typed(_level), default=0.05)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("diagnose", help="normality diagnostics of a null law")
    _add_stat_flags(p)
    _add_n_flags(p)
    p.add_argument("--bins", type=_at_least(1), default=50)
    _add_mc_flags(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("ppplot", help="PP-plot data against the MLE-fitted law")
    _add_io_flags(p)
    p.set_defaults(func=cmd_ppplot)

    return ap


def main(argv=None) -> int:
    out = sys.stdout
    try:
        args = build_parser().parse_args(argv)
        # Opened inside the try: an unwritable --out is a data error (exit 3).
        if args.out:
            out = open(args.out, "w")
        code = args.func(args, Emitter(out, args.table))
    except tuple(ERROR_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        code = next(c for cls, c in ERROR_EXIT_CODES.items() if isinstance(e, cls))
    except SystemExit as e:
        # --help exits the parser after printing usage; its errors are UsageErrors.
        code = e.code
    finally:
        if out is not sys.stdout:
            out.close()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
