#!/usr/bin/env python3
"""levygof benchmark: end-to-end and per-layer metrics on fixed workloads.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

With --trace 0 the workload's commands run as separate processes, again and
again for --seconds, and the run reports medians of wall_s, cpu_s and
peak_rss_mb, the median cold start setup_s, and correct_frac. With --trace 1
it reports the per-layer metrics of layers.py instead. Every output is
checked (outputs.py). The last stdout line is the result object; the line
before it holds the provenance, and the full record goes to
.perfbench_out/. `--workload all` runs every workload in turn.

Exits 0 when the run completed (the result says whether outputs were
correct), and nonzero without a result when it could not run, e.g. when the
levygof sources are not next to this directory. A traced run whose wrap
points no longer measure a layer prints its result and exits 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from outputs import Verdict, check_setup, check_workload, load_reference, parse_lines
from workloads import (OUT_DIR, PYTHON, ROOT, SETUP_COMMAND, WORKLOADS, Workload,
                       provenance, spawn)

SETUP_STARTS = 7   # cold starts per run; setup_s is their median
IMPORT_STARTS = 5  # fresh imports per traced run; cli.import_s is their median
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import levygof.cli; "
                  "print(time.perf_counter() - t)")
REQUIRED = ("src/levygof/cli.py", "src/levygof/montecarlo.py", "scripts/power_table.py")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
                    "correct_frac": "ratio"}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_setup(verdict: Verdict) -> list[float]:
    """Cold starts of the trivial command, each checked."""
    ref = load_reference("setup")
    walls = []
    for _ in range(SETUP_STARTS):
        done = spawn(SETUP_COMMAND.argv(), OUT_DIR / "setup.out")
        verdict.add(check_setup(done.status, done.stdout, ref))
        walls.append(done.wall_s)
    return walls


def _differing(a: list[tuple[int, str]], b: list[tuple[int, str]]) -> int:
    """Records of b that differ from a's, command by command."""
    n = 0
    for (_, ta), (_, tb) in zip(a, b):
        ra, rb = parse_lines(ta), parse_lines(tb)
        n += sum(x != y for x, y in zip(ra, rb)) + abs(len(ra) - len(rb))
    return n


def timed_run(wl: Workload, seed: int, seconds: float, verdict: Verdict) -> tuple[dict, dict]:
    """Untraced run: repeat the workload for about `seconds`; every
    repetition must print what the first printed."""
    setup = measure_setup(verdict)
    ref = load_reference(wl.name)
    walls, cpus, rss = [], [], []
    first = None
    t0 = time.perf_counter()
    while True:
        done = [spawn(cmd.argv(), OUT_DIR / f"{wl.name}-{i}.out")
                for i, cmd in enumerate(wl.commands(seed))]
        outputs = [(d.status, d.stdout) for d in done]
        v = check_workload(wl.name, seed, outputs, ref)
        if first is None:
            first = outputs
        elif outputs != first:
            v.failed = min(v.attempted, v.failed + _differing(first, outputs))
            v.problems.append(f"{wl.name}: repetition {len(walls)} printed other records")
        verdict.add(v)
        for d in done:
            if d.status != 0:
                print(f"{wl.name}: command failed with {d.status}:\n{d.stderr}", file=sys.stderr)
        walls.append(sum(d.wall_s for d in done))
        cpus.append(sum(d.cpu_s for d in done))
        rss.append(max(d.peak_rss_mb for d in done))
        # Stop when another repetition would end past `seconds`, so that a
        # run never lasts much longer than `seconds` on any machine.
        if time.perf_counter() - t0 + statistics.median(walls) >= seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        "correct_frac": (verdict.attempted - verdict.failed) / verdict.attempted,
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss, "setup_s": setup}
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, samples


def traced_run(wl: Workload, seed: int, verdict: Verdict) -> tuple[dict, dict, list[str]]:
    imports = []
    for _ in range(IMPORT_STARTS):
        done = spawn([PYTHON, "-c", IMPORT_SNIPPET], OUT_DIR / "import.out")
        if done.status != 0:
            raise RuntimeError(f"importing levygof.cli failed:\n{done.stderr}")
        imports.append(float(done.stdout))
    spans = OUT_DIR / f"spans-{wl.name}.npz"
    done = spawn([PYTHON, str(ROOT / "perfbench" / "layers.py"), "--workload", wl.name,
                  "--seed", str(seed), "--spans", str(spans)], OUT_DIR / "layers.out")
    if done.status != 0:
        raise RuntimeError(f"traced pass failed with {done.status}:\n{done.stderr}")
    trace = json.loads(done.stdout.splitlines()[-1])
    ref = load_reference(wl.name)
    for name, outputs in trace["outputs"].items():
        v = check_workload(wl.name, seed, [tuple(o) for o in outputs], ref)
        v.problems = [f"{name} pass: {p}" for p in v.problems]
        verdict.add(v)
    metrics = {"cli.import_s": _metric(statistics.median(imports), "s"), **trace["metrics"]}
    details = {"cli.import_s": imports, "walls_s": trace["walls_s"],
               "layer_share": trace["layer_share"], "point_calls": trace["point_calls"],
               "spans_file": spans.name}
    return metrics, details, trace["problems"]


def run_one(name: str, seed: int, seconds: int, trace: bool) -> bool:
    """Run one workload and print its provenance and result lines."""
    wl = WORKLOADS[name]
    verdict = Verdict()
    prov = {**provenance(), "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "workers": wl.workers,
            "argv": [c.shown() for c in wl.commands(seed)],
            "setup_argv": SETUP_COMMAND.shown()}
    guard_problems: list[str] = []
    if trace:
        metrics, details, guard_problems = traced_run(wl, seed, verdict)
    else:
        metrics, details = timed_run(wl, seed, seconds, verdict)
    for p in verdict.problems + guard_problems:
        print(f"{name}: {p}", file=sys.stderr)
    if guard_problems:
        print(f"{name}: TRACED RUN FAILED: a layer is no longer measured; "
              "its metrics read null", file=sys.stderr)
    result = {"correct": verdict.failed == 0 and not guard_problems,
              "attempted": verdict.attempted, "failed": verdict.failed, "metrics": metrics}
    record = {"provenance": prov, "result": result, "details": details,
              "problems": verdict.problems + guard_problems}
    (OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for metric, m in metrics.items():
        print(f"{name:>12} {metric:<32} {m['value']!s:>24} {m['unit']}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result), flush=True)
    return not guard_problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a non-negative 64-bit integer")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: levygof sources not found under {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
