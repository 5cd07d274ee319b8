"""Command-line front end.

Subcommands: sample, estimate, test, calibrate, power, diagnose, ppplot.
Output is line-delimited JSON by default; `--table` switches to aligned
human-readable columns. Exit codes: 0 success, 2 usage, 3 data/parse,
4 estimation or statistic precondition failure, 141 output pipe closed.

Each value is one typed flag. A law is `levy[:c[,mu]]` or `family:p1,p2,...`
(`sample --dist`; `power --alt` takes the families only), and a quantile
window is one `--split a,b`, given once per window (twice for on and cn) of
a single `--stat`. `test`, `calibrate`, `power` and `diagnose` take `--stat`
once per statistic, and `power` takes `--alt` once per alternative (the
paper's alternatives when `--alt` is left out). One null draw per size serves
every statistic, and records come in statistic, (alternative,) size order.
Any other flag given twice is a usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import stat
import sys
import tempfile
from array import array

# levygof calls no BLAS routine (tests/test_cli.py checks the sources), yet
# OpenBLAS starts a worker thread per extra core when NumPy loads, a fixed cost
# of every cold start. So the command, not the library, asks for one thread,
# before anything below loads NumPy. A value the user set wins, and pool
# workers inherit the setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .datasets import FIXTURES, fixture_analysis  # noqa: E402
from .distributions import (PAPER_ALTERNATIVES, AlternativeSpec, LevyParams,  # noqa: E402
                            QuantileSplit, family_name, levy_cdf, sample_alternative, sample_levy)
from .montecarlo import (ReplicationPlan, _check_diagnostic, _check_level,  # noqa: E402
                         calibrate, normality_diagnostic, null_grid, power_grid, run_test)
from .statistics import (METHODS, STATISTIC_KINDS, EstimationError, StatisticSpec,  # noqa: E402
                         evaluate)
from .streams import RandomStream  # noqa: E402

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer that SIGPIPE killed

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


class _Once(argparse.Action):
    """argparse's `store`, except that a second use of the flag is a usage error
    (with `store` the last value would silently win)."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            parser.error(f"argument {'/'.join(self.option_strings)}: given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line (a UsageError), not a usage block.

    Its flags, and those of its subcommands, store by `_Once`, and each is read
    only as spelled in full: no prefix of a flag stands for it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.register("action", None, _Once)
        self.register("action", "store", _Once)

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


def _law(text: str) -> LevyParams | AlternativeSpec:
    """levy, levy:c or levy:c,mu; any other name is an alternative, read by _alt."""
    fam, _, ptext = text.partition(":")
    if family_name(fam) != "levy":
        return _alt(text)
    params = _floats(ptext) if ptext else ()
    if len(params) > 2:
        raise ValueError(f"levy takes at most 2 parameters (c, mu), got {len(params)}")
    return LevyParams(*params)


def _level(text: str) -> float:
    level = float(text)
    _check_level(level)
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
    """One number per line of the file `path`, or of stdin when `path` is "-";
    blank lines and # comments skipped.

    With `column`, lines are treated as CSV and the given 0-based column
    is extracted. Parse failures report the line number. The input is read
    as a stream, line by line, into one float64 buffer that the returned
    array views, so it costs about 8 bytes per value. A line ends at a line
    feed, a carriage return, or the two together, as `bytes.splitlines` has
    it. A byte that is not UTF-8 reads as U+FFFD: it fails to parse in a
    value, on that value's line, and is harmless in a comment or in another
    CSV column. A leading UTF-8 byte-order mark, which spreadsheet exports
    often write, is dropped.
    """
    out = array("d")
    try:
        binary = sys.stdin.buffer if path == "-" else open(path, "rb")
        with io.TextIOWrapper(binary, encoding="utf-8-sig", errors="replace") as lines:
            for lineno, line in enumerate(lines, start=1):
                body = line.partition("#")[0].strip()
                if not body:
                    continue
                try:
                    value = float(body.split(",")[column].strip() if column is not None else body)
                except (ValueError, IndexError):
                    raise DataError(f"{path}:{lineno}: cannot parse {body!r}")
                if not math.isfinite(value):
                    raise DataError(f"{path}:{lineno}: non-finite value {body!r}")
                out.append(value)
    except MemoryError:
        raise MemoryError(f"{path}: out of memory after {len(out)} values") from None
    if not out:
        raise DataError(f"{path}: no observations found")
    return np.frombuffer(out)


def _load_data(args) -> np.ndarray:
    if args.fixture is None:
        return read_observations(args.input, args.column)
    if args.column is not None:
        raise UsageError("--column applies to --input only")
    return fixture_analysis(args.fixture)


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
        if not self.table:
            # np.float64 is a float; NumPy bools, ints and arrays go through tolist().
            print(json.dumps(rec, default=lambda v: v.tolist()), file=self.out)
            return
        keys = list(rec)
        if keys != self._header:
            self._header = keys
            print("  ".join(f"{k:>12}" for k in keys), file=self.out)
        cells = []
        for v in rec.values():
            if isinstance(v, float):
                cells.append(f"{v:>12.6g}")
            elif isinstance(v, (list, np.ndarray)):
                cells.append(" ".join(format(x, "g") for x in v))
            else:
                cells.append(f"{v!s:>12}")
        print("  ".join(cells), file=self.out)


def _stat_spec(flag: str, kind: str, splits) -> StatisticSpec:
    """The spec of `kind` (given by `flag`) on `splits`; a bad window is a usage error."""
    try:
        return StatisticSpec(kind, tuple(splits or ()))
    except ValueError as e:
        raise UsageError(f"bad --split for {flag} {kind}: {e}")


def _specs(args, kinds) -> tuple[StatisticSpec, ...]:
    """The spec of each of `kinds`; --split windows go with exactly one --stat."""
    if args.split and len(kinds) != 1:
        raise UsageError("--split applies to exactly one --stat")
    return tuple(_stat_spec("--stat", kind, args.split) for kind in kinds)


def cmd_sample(args, emit: Emitter) -> int:
    draw = sample_levy if isinstance(args.dist, LevyParams) else sample_alternative
    values = draw(args.dist, args.n, RandomStream(args.seed, 0))
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise UsageError(f"argument --dist: the law drew {bad[0]}, a value --input rejects")
    for v in values:
        print(format(v, ".17g"), file=emit.out)
    return EXIT_OK


def cmd_estimate(args, emit: Emitter) -> int:
    spec = _stat_spec("--method", args.method, (args.split,) if args.split else ())
    data = _load_data(args)
    rec = {"method": spec.kind.upper(), "estimate": evaluate(spec, data), "n": int(data.size)}
    if spec.splits:
        rec["split"] = [spec.splits[0].a, spec.splits[0].b]
    emit.record(rec)
    return EXIT_OK


def cmd_test(args, emit: Emitter) -> int:
    data = _load_data(args)
    specs = _specs(args, ALL_TEST_KINDS if args.all else args.stat)
    records = run_test(specs, data, args.level,
                       ReplicationPlan(args.seed, args.replicates, args.workers))
    for rec in records:
        emit.record(rec)
    return EXIT_ESTIMATION if all("error" in rec for rec in records) else EXIT_OK


def _emit_grid(args, emit: Emitter, record) -> int:
    """Emits record(nd) for the null nd of each --stat at each --n-grid size, in
    statistic, size order, from one null draw per size."""
    plan = ReplicationPlan(args.seed, args.replicates, args.workers)
    for rec in null_grid(_specs(args, args.stat), args.n_grid, plan,
                         lambda nulls: [[record(nd)] for nd in nulls]):
        emit.record(rec)
    return EXIT_OK


def cmd_calibrate(args, emit: Emitter) -> int:
    return _emit_grid(args, emit, lambda nd: calibrate(nd, args.level))


def cmd_power(args, emit: Emitter) -> int:
    plan = ReplicationPlan(args.seed, args.replicates, args.workers)
    for rec in power_grid(_specs(args, args.stat), args.alt or PAPER_ALTERNATIVES,
                          args.n_grid, plan, args.level):
        emit.record(rec)
    return EXIT_OK


def cmd_diagnose(args, emit: Emitter) -> int:
    _check_diagnostic(args.replicates, args.bins)
    return _emit_grid(args, emit, lambda nd: normality_diagnostic(nd, bins=args.bins))


def cmd_ppplot(args, emit: Emitter) -> int:
    data = _load_data(args)
    c_hat = evaluate(StatisticSpec("mle"), data)
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
                   help="worker processes, at most one per CPU core and per chunk of "
                        "replicates, whose size depends on n alone")


def _add_stat_flags(p, group=None):
    # --stat, once per statistic, is required unless it sits in a mutually
    # exclusive `group`.
    (group or p).add_argument("--stat", type=str.lower, choices=STATISTIC_KINDS,
                              required=group is None, action="append")
    p.add_argument("--split", type=_typed(_split), action="append",
                   help="a,b window; once per window (twice for on/cn)")


def _add_n_grid(p):
    size = _at_least(1)
    # Each size is checked by `size`, whose error names the bad one.
    p.add_argument("--n-grid", required=True,
                   type=lambda text: [size(v) for v in text.split(",")],
                   help="sample size, or comma-separated sample sizes")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="levygof",
        description="Scale estimation and goodness-of-fit tests for the one-sided Levy law.")
    ap.add_argument("--table", action="store_true", help="aligned human-readable output")
    ap.add_argument("--out", help="write records to this file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw from the Levy law or an alternative family")
    p.add_argument("--dist", required=True, type=_typed(_law),
                   help="levy[:c[,mu]] (c = 1, mu = 0 by default) or family:p1,p2,... "
                        "e.g. gamma:2,3")
    p.add_argument("--n", type=_at_least(1), required=True)
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
    _add_n_grid(p)
    _add_mc_flags(p)
    p.add_argument("--level", type=_typed(_level), default=0.05)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("power", help="empirical power against alternatives")
    _add_stat_flags(p)
    p.add_argument("--alt", type=_typed(_alt), action="append",
                   help="family:p1,p2,... e.g. lognormal:0,1; once per alternative "
                        "(the paper's 12 when left out)")
    _add_n_grid(p)
    _add_mc_flags(p)
    p.add_argument("--level", type=_typed(_level), default=0.05)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("diagnose", help="normality diagnostics of a null law")
    _add_stat_flags(p)
    _add_n_grid(p)
    p.add_argument("--bins", type=_at_least(1), default=50)
    _add_mc_flags(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("ppplot", help="PP-plot data against the MLE-fitted law")
    _add_io_flags(p)
    p.set_defaults(func=cmd_ppplot)

    return ap


@contextlib.contextmanager
def _output(path: str | None):
    """The stream records go to: stdout, or the --out file `path`.

    The file is written as a temporary file next to its target (through a
    symlink), made before the command runs, and it replaces the target only
    when the command returns; on an exception it is removed and the old file
    stays. A new file gets the mode `open(path, "w")` would give it, an old one
    keeps its mode. A target that exists and is not a regular file (a FIFO, a
    device) is written directly.
    """
    if not path:
        yield sys.stdout
        sys.stdout.flush()
        return
    target = os.path.realpath(path)
    try:
        old = os.stat(target)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(target, "w") as f:
            yield f
        return
    if old is None:
        mask = os.umask(0)
        os.umask(mask)
        mode = 0o666 & ~mask
    else:
        os.close(os.open(target, os.O_WRONLY))  # a file we may not write stays an error
        mode = stat.S_IMODE(old.st_mode)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", suffix=".tmp",
                                   dir=os.path.dirname(target))
    except OSError as e:
        e.filename = path  # the error names the target, not the temporary file
        raise
    try:
        os.fchmod(fd, mode)
        with open(fd, "w") as f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Opened inside the try: an unwritable --out is a data error (exit 3).
        with _output(args.out) as out:
            code = args.func(args, Emitter(out, args.table))
    except BrokenPipeError:
        # The reader left (`levygof sample ... | head -1`): no error line, and
        # stdout points at devnull so that the flush at shutdown is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except tuple(ERROR_EXIT_CODES) as e:
        # Of these, only a MemoryError comes without text, as it usually does.
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        code = next(c for cls, c in ERROR_EXIT_CODES.items() if isinstance(e, cls))
    except SystemExit as e:
        # --help exits the parser after printing usage; its errors are UsageErrors.
        code = e.code
    return code


if __name__ == "__main__":
    raise SystemExit(main())
