"""The per-layer trace of perfbench/layers.py wraps levygof functions by name.

A refactor that renames or removes one of them, or stops calling one through
the module where it is wrapped, would make the trace report a layer as
missing or never called; these tests make it fail here instead. The
perfbench modules are imported as they are, without changes.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from layers import (POOL_ROOT_SPAN, WRAP_POINTS, Tracer, guard, installed,  # noqa: E402
                    run_pass, summarize)
from workloads import WORKLOADS, Command  # noqa: E402


@pytest.mark.parametrize("point", sorted(WRAP_POINTS))
def test_wrap_point_resolves_to_a_callable(point):
    module, path = WRAP_POINTS[point]
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)  # AttributeError fails the test
    assert callable(owner)


def _commands(workload, workers=None, replicates=1024):
    """The workload's commands at a smaller replicate count."""
    out = []
    for cmd in workload.commands(0, workers):
        args = list(cmd.args)
        args[args.index("--replicates") + 1] = str(replicates)
        out.append(Command(tuple(args), cmd.script))
    return out


@pytest.mark.parametrize("name", ["battery", "kernel-n250"])
def test_workload_calls_every_wrap_point(name):
    workload = WORKLOADS[name]
    if workload.workers > 1 and (os.cpu_count() or 1) < 2:
        pytest.skip("the pool pass needs two CPU cores to start a pool")
    missing = set()
    pool = tracer = Tracer()
    outputs = []
    if workload.workers > 1:
        pool = Tracer()
        with installed(pool, ["montecarlo.pool"], missing):
            outputs += run_pass(_commands(workload), pool, POOL_ROOT_SPAN)[1]
    with installed(tracer, list(WRAP_POINTS), missing):
        traced_s, traced = run_pass(_commands(workload, workers=1), tracer)
    outputs += traced
    _, problems = guard(workload, summarize(tracer, pool, traced_s, traced_s), missing)
    assert problems == []
    assert [status for status, _ in outputs] == [0] * len(outputs)



# Prints the wrap points missing, the spans recorded, the open-span stack and
# whether the pool reported capacity, for one 2-worker simulation.
TRACED_SIMULATION = """\
import sys
sys.path.insert(0, sys.argv[1])
from layers import Tracer, installed
from levygof.montecarlo import ReplicationPlan, simulate_null
from levygof.statistics import StatisticSpec
tracer, missing = Tracer(), set()
with installed(tracer, ["montecarlo.pool"], missing):
    simulate_null((StatisticSpec("vn"),), 20, ReplicationPlan(0, 1024, 2))
print(sorted(missing), [tracer.names[i] for i in tracer.name], tracer.stack,
      tracer.pool_capacity_s > 0)
"""


def test_traced_pool_counts_the_one_pool_of_a_simulation():
    # In a fresh interpreter, where no pool has been opened (nor the executor
    # imported) before the wrap point is installed.
    if (os.cpu_count() or 1) < 2:
        pytest.skip("a 2-worker simulation needs two CPU cores to start a pool")
    done = subprocess.run([sys.executable, "-c", TRACED_SIMULATION, str(PERFBENCH)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.strip() == "[] ['montecarlo.pool'] [-1] True"
