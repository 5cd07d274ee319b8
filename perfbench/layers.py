#!/usr/bin/env python3
"""Per-layer trace of one workload, taken from outside the program.

The public functions of each levygof layer are replaced, at the module where
their caller looks them up, by wrappers that record a span (name, start,
end, parent) and count the work passed in. Nothing under src/ changes. Pool
workers cannot report spans, so the layer spans come from an in-process pass
at 1 worker; the pool metrics come from the parent side of a pass at the
workload's own worker count.

Passes, in order: untraced at 1 worker (the base of trace.overhead_frac),
pool-only at the workload's worker count when that is above 1, and fully
traced at 1 worker. Prints one JSON object; spans go to the --spans file.

    PYTHONPATH=src python3 perfbench/layers.py --workload kernel-n250 --seed 3 \\
        --spans .perfbench_out/spans.npz
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import runpy
import sys
import time
import tracemalloc
import traceback
from array import array

import numpy as np

from workloads import ROOT, WORKLOADS, Command

# Wrap point -> (module where the caller looks the name up, attribute path).
WRAP_POINTS = {
    "streams.generator": ("levygof.streams", "RandomStream.generator"),
    "distributions.sample_levy": ("levygof.montecarlo", "sample_levy"),
    "distributions.sample_alternative": ("levygof.montecarlo", "sample_alternative"),
    "statistics.evaluate_batch": ("levygof.montecarlo", "evaluate_batch"),
    "condmoments.theoretical_qcm": ("levygof.statistics", "theoretical_qcm"),
    "condmoments.theoretical_qcv": ("levygof.statistics", "theoretical_qcv"),
    "montecarlo._simulate": ("levygof.montecarlo", "_simulate"),
    "montecarlo.simulate_null": ("levygof.montecarlo", "simulate_null"),
    "montecarlo.calibrate": ("levygof.montecarlo", "calibrate"),
    "montecarlo.p_value": ("levygof.montecarlo", "p_value"),
    "montecarlo.run_test": ("levygof.cli", "run_test"),
    # scripts/power_table.py imports power_study from levygof.montecarlo when
    # it runs, so the wrapper installed there is the one it binds.
    "montecarlo.power_study": ("levygof.montecarlo", "power_study"),
    "montecarlo.normality_diagnostic": ("levygof.cli", "normality_diagnostic"),
    "montecarlo.pool": ("levygof.montecarlo", "ProcessPoolExecutor"),
}
REDUCE_POINTS = ("montecarlo.simulate_null", "montecarlo.calibrate", "montecarlo.p_value",
                 "montecarlo.run_test", "montecarlo.power_study",
                 "montecarlo.normality_diagnostic")
KINDS = ("vn", "on", "tn", "cn", "ran", "deltan")
KERNEL_PREFIX = "statistics.kernel."
ROOT_SPAN = "pass.layers"
POOL_ROOT_SPAN = "pass.pool"


class Tracer:
    """Spans in flat arrays (one entry per span) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.values_drawn = 0
        self.rows_drawn = 0
        self.rows_useful = 0          # distinct rows summed over commands
        self._rows_seen: set = set()  # (seed, stream index, n, sampler) of this command
        self.rows = dict.fromkeys(KINDS, 0)
        self.peak_bytes = 0
        self.failed_replicates = 0
        self.pool_cpu_s = 0.0
        self.pool_capacity_s = 0.0    # workers x pool wall

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> float:
        self.end[sid] = time.perf_counter()
        self.stack.pop()
        return self.end[sid] - self.start[sid]

    def reserve(self, k: int = 8):
        """Make room for k more spans without reallocating the arrays.

        CPython keeps an array's buffer when fewer than 16 items are
        deleted, so spans opened while tracemalloc measures a kernel do not
        show up as a reallocation of the span arrays.
        """
        for arr in (self.name, self.parent, self.start, self.end):
            arr.extend(array(arr.typecode, bytes(arr.itemsize * k)))
            del arr[len(arr) - k:]

    def wrap(self, fn, name, before=None):
        """fn inside a span; `name` is a string or a function of the args.

        `before(args)` runs ahead of the span, for counting; its cost and the
        wrapper's own land in the caller's self time (see trace.overhead_frac).
        """
        names, parents, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        if callable(name):
            def name_of(args):
                return self.name_id(name(args))
        else:
            def name_of(args, nid=self.name_id(name)):
                return nid
        count = before or (lambda args: None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            count(args)
            sid = len(start)
            names.append(name_of(args))
            parents.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
        return wrapper

    def end_command(self):
        self.rows_useful += len(self._rows_seen)
        self._rows_seen.clear()

    # -- counting hooks ----------------------------------------------------

    def count_draw(self, sampler_key):
        """Counts a draw and the identity of the row it yields."""
        seen = self._rows_seen

        def before(args):
            params, n, stream = args[:3]
            self.values_drawn += n
            self.rows_drawn += 1
            seen.add((stream.master_seed, stream.stream_index, n, sampler_key(params)))
        return before

    def kernel(self, fn):
        """evaluate_batch counting rows and the peak bytes allocated inside it.

        The allocations of a kernel depend only on the statistic and the
        input shape, so tracemalloc (which slows every Python allocation,
        including those of nested constant computations) runs on the first
        call of each (statistic, shape) only.
        """
        measured_shapes = set()

        def counted(spec, x, *args, **kwargs):
            self.rows[spec.kind] += len(x)
            shape = (spec, np.shape(x))
            if shape in measured_shapes:
                return fn(spec, x, *args, **kwargs)
            measured_shapes.add(shape)
            self.reserve()
            tracemalloc.start()
            try:
                return fn(spec, x, *args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return counted

    def simulate(self, fn):
        def counted(*args, **kwargs):
            vals = fn(*args, **kwargs)
            self.failed_replicates += int(np.count_nonzero(~np.isfinite(vals)))
            return vals
        return counted

    def pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                self._workers = max_workers or os.cpu_count()
                self._usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
                self._sid = tracer.open("montecarlo.pool")
                super().__init__(max_workers, *args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    wall = tracer.close(self._sid)
                    u0, u1 = self._usage0, resource.getrusage(resource.RUSAGE_CHILDREN)
                    tracer.pool_cpu_s += (u1.ru_utime + u1.ru_stime) - (u0.ru_utime + u0.ru_stime)
                    tracer.pool_capacity_s += self._workers * wall
        return TracedPool


def _replacement(tracer: Tracer, point: str, orig):
    if point == "montecarlo.pool":
        return tracer.pool_class(orig)
    if point == "statistics.evaluate_batch":
        return tracer.wrap(tracer.kernel(orig), lambda args: KERNEL_PREFIX + args[0].kind)
    if point == "montecarlo._simulate":
        return tracer.wrap(tracer.simulate(orig), point)
    if point == "distributions.sample_levy":
        return tracer.wrap(orig, point, tracer.count_draw(lambda p: ("levy", p.c, p.mu)))
    if point == "distributions.sample_alternative":
        return tracer.wrap(orig, point, tracer.count_draw(lambda p: (p.family, p.params)))
    return tracer.wrap(orig, point)


@contextlib.contextmanager
def installed(tracer: Tracer, points, missing: set):
    """Replace each wrap point for the duration; a vanished one goes to `missing`."""
    undo = []
    try:
        for point in points:
            module, path = WRAP_POINTS[point]
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                orig = getattr(owner, attr)
            except AttributeError:
                missing.add(point)
                continue
            setattr(owner, attr, _replacement(tracer, point, orig))
            undo.append((owner, attr, orig))
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def _invoke(cmd: Command) -> int:
    if cmd.script is None:
        from levygof.cli import main
        return main(list(cmd.args))
    path = str(ROOT / cmd.script)
    saved = sys.argv
    sys.argv = [path, *cmd.args]
    try:
        runpy.run_path(path, run_name="__main__")
        return 0
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        sys.argv = saved


def run_pass(commands, tracer: Tracer | None = None, root: str = ROOT_SPAN):
    """Wall time of the commands run in this process, and their outputs."""
    outputs = []
    t0 = time.perf_counter()
    for cmd in commands:
        buf = io.StringIO()
        sid = tracer.open(root) if tracer else None
        try:
            with contextlib.redirect_stdout(buf):
                status = _invoke(cmd)
        except Exception:  # a failing command is a counted error, not a crash
            traceback.print_exc()
            status = 1
        if tracer:
            tracer.close(sid)
            tracer.end_command()
        outputs.append((status, buf.getvalue()))
    return time.perf_counter() - t0, outputs


# Per-layer metric -> (unit, wrap points it depends on).
METRICS = {
    "streams.generator_calls": ("count", ("streams.generator",)),
    "streams.generator_s": ("s", ("streams.generator",)),
    "distributions.values_drawn": ("count", ("distributions.sample_levy",)),
    "distributions.levy_draw_s": ("s", ("distributions.sample_levy",)),
    "distributions.alt_draw_s": ("s", ("distributions.sample_alternative",)),
    **{f"statistics.rows.{k}": ("count", ("statistics.evaluate_batch",)) for k in KINDS},
    **{f"statistics.kernel_s.{k}": ("s", ("statistics.evaluate_batch",)) for k in KINDS},
    "statistics.intermediate_mb": ("MiB", ("statistics.evaluate_batch",)),
    "condmoments.constant_calls": ("count", ("condmoments.theoretical_qcm",
                                            "condmoments.theoretical_qcv")),
    "condmoments.constant_s": ("s", ("condmoments.theoretical_qcm",
                                     "condmoments.theoretical_qcv")),
    "montecarlo.simulations": ("count", ("montecarlo._simulate",)),
    "montecarlo.rows_drawn": ("count", ("distributions.sample_levy",)),
    "montecarlo.draw_useful_frac": ("ratio", ("distributions.sample_levy",)),
    "montecarlo.self_s": ("s", ("montecarlo._simulate",)),
    "montecarlo.reduce_s": ("s", REDUCE_POINTS),
    "montecarlo.pool_starts": ("count", ("montecarlo.pool",)),
    "montecarlo.pool_s": ("s", ("montecarlo.pool",)),
    "montecarlo.pool_busy_frac": ("ratio", ("montecarlo.pool",)),
    "montecarlo.failed_replicates": ("count", ("montecarlo._simulate",)),
    "trace.overhead_frac": ("ratio", ()),
    "trace.unattributed_frac": ("ratio", ()),
}
LAYERS = ("streams", "distributions", "statistics", "condmoments", "montecarlo")


def _point_of(span: str) -> str:
    return "statistics.evaluate_batch" if span.startswith(KERNEL_PREFIX) else span


def _aggregate(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Calls, total time and self time (total minus child spans) per span name."""
    name = np.frombuffer(tracer.name, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    k = len(tracer.names)
    return tuple(dict(zip(tracer.names, np.bincount(name, weights=w, minlength=k).tolist()))
                 for w in (None, dur, dur - child))


def summarize(tracer: Tracer, pool: Tracer, untraced_s: float, traced_s: float) -> dict:
    """Metric values from the layers pass, and pool metrics from `pool`'s pass."""
    calls, total, self_s = _aggregate(tracer)
    pool_calls, pool_total, _ = _aggregate(pool)

    def own_of(*spans):
        return sum(self_s.get(s, 0.0) for s in spans)

    def n_of(*spans):
        return int(sum(calls.get(s, 0) for s in spans))

    constants = ("condmoments.theoretical_qcm", "condmoments.theoretical_qcv")
    values = {
        "streams.generator_calls": n_of("streams.generator"),
        "streams.generator_s": own_of("streams.generator"),
        "distributions.values_drawn": tracer.values_drawn,
        "distributions.levy_draw_s": own_of("distributions.sample_levy"),
        "distributions.alt_draw_s": own_of("distributions.sample_alternative"),
        **{f"statistics.rows.{k}": tracer.rows[k] for k in KINDS},
        **{f"statistics.kernel_s.{k}": own_of(KERNEL_PREFIX + k) for k in KINDS},
        "statistics.intermediate_mb": tracer.peak_bytes / 2**20,
        "condmoments.constant_calls": n_of(*constants),
        "condmoments.constant_s": own_of(*constants),
        "montecarlo.simulations": n_of("montecarlo._simulate"),
        "montecarlo.rows_drawn": tracer.rows_drawn,
        "montecarlo.draw_useful_frac": tracer.rows_useful / max(tracer.rows_drawn, 1),
        "montecarlo.self_s": own_of("montecarlo._simulate"),
        "montecarlo.reduce_s": own_of(*REDUCE_POINTS),
        "montecarlo.pool_starts": int(pool_calls.get("montecarlo.pool", 0)),
        "montecarlo.pool_s": pool_total.get("montecarlo.pool", 0.0),
        "montecarlo.pool_busy_frac": pool.pool_cpu_s / pool.pool_capacity_s
        if pool.pool_capacity_s else 0.0,
        "montecarlo.failed_replicates": tracer.failed_replicates,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_frac": own_of(ROOT_SPAN) / total[ROOT_SPAN],
    }
    point_calls: dict[str, int] = {}
    for span, n in [*calls.items(), *(pool_calls.items() if pool is not tracer else ())]:
        point_calls[_point_of(span)] = point_calls.get(_point_of(span), 0) + int(n)
    layer_s = {layer: sum(v for s, v in self_s.items() if s.split(".")[0] == layer)
               for layer in LAYERS}
    attributed = sum(layer_s.values())
    return {"values": values, "point_calls": point_calls,
            "layer_share": {k: v / attributed for k, v in layer_s.items()}}


def guard(workload, summary: dict, missing: set) -> tuple[dict, list[str]]:
    """Null every metric whose wrap point vanished or was never called when
    the workload must call it, so that no layer silently reads as 0."""
    problems = [f"wrap point {p} ({'.'.join(WRAP_POINTS[p])}) no longer exists"
                for p in sorted(missing)]
    for p in sorted(workload.wrap_points - missing):
        if summary["point_calls"].get(p, 0) == 0:
            problems.append(f"wrap point {p} was never called on {workload.name}")
    dead = missing | {p for p in workload.wrap_points if summary["point_calls"].get(p, 0) == 0}
    for k in workload.kinds:
        if summary["values"][f"statistics.rows.{k}"] == 0:
            problems.append(f"statistic {k} was never evaluated on {workload.name}")
            dead.add(f"kind.{k}")
    metrics = {}
    for metric, (unit, points) in METRICS.items():
        kind = metric.rsplit(".", 1)[1] if metric.startswith("statistics.") else None
        broken = (set(points) & dead) or (kind in KINDS and f"kind.{kind}" in dead)
        metrics[metric] = {"value": None if broken else summary["values"][metric], "unit": unit}
    return metrics, problems


def _arrays(tracer: Tracer) -> dict:
    return {"names": np.array(tracer.names), "name": np.frombuffer(tracer.name, dtype=np.int64),
            "parent": np.frombuffer(tracer.parent, dtype=np.int64),
            "start": np.frombuffer(tracer.start), "end": np.frombuffer(tracer.end)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", required=True, help="output .npz file of spans")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    import levygof.cli  # noqa: F401  (import cost is cli.import_s, measured apart)

    one_worker = wl.commands(args.seed, workers=1)
    passes = {}
    untraced_s, passes["untraced"] = run_pass(one_worker)
    missing: set[str] = set()
    pool = tracer = Tracer()
    if wl.workers > 1:
        pool = Tracer()
        with installed(pool, ["montecarlo.pool"], missing):
            _, passes["pool"] = run_pass(wl.commands(args.seed), pool, POOL_ROOT_SPAN)
    with installed(tracer, list(WRAP_POINTS), missing):
        traced_s, passes["traced"] = run_pass(one_worker, tracer)

    summary = summarize(tracer, pool, untraced_s, traced_s)
    metrics, problems = guard(wl, summary, missing)
    spans = _arrays(tracer)
    if pool is not tracer:
        spans.update({f"pool_{key}": arr for key, arr in _arrays(pool).items()})
    np.savez(args.spans, **spans)
    print(json.dumps({"metrics": metrics, "problems": problems,
                      "layer_share": summary["layer_share"],
                      "point_calls": summary["point_calls"],
                      "walls_s": {"untraced": untraced_s, "traced": traced_s},
                      "outputs": passes}))


if __name__ == "__main__":
    main()
