"""Workload definitions and the capped subprocess runner shared by the
benchmark runner, the layer tracer and the reference recorder.

A workload is a list of levygof command lines built from the benchmark seed.
The program receives only those command lines.
"""
from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"  # captured output, results and span files
PYTHON = sys.executable

# What the `levygof` console script runs; spelled out because the checkout
# is used from source, without an installed entry point.
CLI_ENTRY = "from levygof.cli import main; raise SystemExit(main())"

# Address-space cap set on each workload process (and inherited by its pool
# workers), so that a kernel whose memory regresses fails as a counted error
# instead of exhausting the machine. kernel-n250 peaks at ~1.05 GiB of
# address space; diagnose at n = 1000 would need ~12 GiB and is excluded.
MEMORY_CAP_BYTES = 2 * 2**30

# Each command may run this long before its process group is killed.
COMMAND_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Command:
    """One program invocation: the levygof CLI, or a repo script when set."""

    args: tuple[str, ...]
    script: str | None = None

    def argv(self) -> list[str]:
        head = [PYTHON, str(ROOT / self.script)] if self.script else [PYTHON, "-c", CLI_ENTRY]
        return head + list(self.args)

    def shown(self) -> list[str]:
        """The command line as a user types it."""
        return [self.script or "levygof", *self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int                                   # worker count of the measured run
    replicates: int
    build: Callable[[int, int], list[Command]]     # (seed, workers) -> commands
    records_per_command: tuple[int, ...]
    # Wrap points (see layers.py) the traced pass must see called, and the
    # statistic kinds whose kernels it must see evaluated.
    wrap_points: frozenset[str]
    kinds: tuple[str, ...]

    def commands(self, seed: int, workers: int | None = None) -> list[Command]:
        return self.build(seed, self.workers if workers is None else workers)


def _battery(seed: int, workers: int) -> list[Command]:
    return [Command(("test", "--all", "--fixture", "rainfall", "--replicates", "100000",
                     "--workers", str(workers), "--seed", str(seed)))]


POWER_STATS = ("vn", "on", "tn", "cn")
POWER_N = ("20", "50")
POWER_ALTERNATIVES = 12  # rows of DEFAULT_ALTERNATIVES in scripts/power_table.py


def _power_grid(seed: int, workers: int) -> list[Command]:
    return [Command(("--stats", ",".join(POWER_STATS), "--n-grid", ",".join(POWER_N),
                     "--replicates", "2000", "--workers", str(workers), "--seed", str(seed)),
                    script="scripts/power_table.py")]


KERNEL_STATS = ("deltan", "ran")


def _kernel_n250(seed: int, workers: int) -> list[Command]:
    return [Command(("diagnose", "--stat", kind, "--n-grid", "100,250", "--replicates", "4096",
                     "--workers", str(workers), "--seed", str(seed)))
            for kind in KERNEL_STATS]


_COMMON = {"streams.generator", "distributions.sample_levy", "statistics.evaluate_batch",
           "montecarlo._simulate", "montecarlo.simulate_null"}

WORKLOADS = {
    w.name: w for w in (
        Workload("battery", 2, 100_000, _battery, (5,),
                 frozenset(_COMMON | {"condmoments.theoretical_qcm", "montecarlo.calibrate",
                                      "montecarlo.p_value", "montecarlo.run_test",
                                      "montecarlo.pool"}),
                 ("vn", "tn", "on", "deltan", "ran")),
        Workload("power-grid", 1, 2000, _power_grid,
                 (len(POWER_STATS) * POWER_ALTERNATIVES * len(POWER_N),),
                 frozenset(_COMMON | {"distributions.sample_alternative",
                                      "condmoments.theoretical_qcm", "condmoments.theoretical_qcv",
                                      "montecarlo.calibrate", "montecarlo.power_study"}),
                 POWER_STATS),
        Workload("kernel-n250", 1, 4096, _kernel_n250, (2, 2),
                 frozenset(_COMMON | {"montecarlo.normality_diagnostic"}),
                 KERNEL_STATS),
    )
}

# The trivial command whose cold start is `setup_s`; its output does not
# depend on the seed.
SETUP_COMMAND = Command(("estimate", "--method", "mle", "--fixture", "rainfall"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


@dataclass(frozen=True)
class Finished:
    status: int          # exit code, or -signal
    wall_s: float        # spawn to exit
    cpu_s: float         # user + system of the process and its reaped children
    peak_rss_mb: float   # largest RSS of the process or any reaped child, MiB
    stdout: str
    stderr: str


def spawn(argv: list[str], out_path: Path) -> Finished:
    """Run argv under the memory cap and wait for it and its process group.

    stdout and stderr go to files under `out_path`'s directory, so no pipe
    can fill while the process is waited on with wait4 (whose rusage covers
    the pool workers the process reaped).
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
                                preexec_fn=_cap_memory, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        _kill_group(proc.pid)  # stragglers of an abnormal exit
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text())


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def provenance() -> dict:
    """Which code, libraries and machine produced a result."""
    sources = sorted([*SRC.glob("levygof/*.py"), *ROOT.glob("scripts/*.py")])
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    init = (SRC / "levygof" / "__init__.py").read_text()
    version = re.search(r'__version__ = "([^"]+)"', init)
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "levygof": version.group(1) if version else None,
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_cap_bytes": MEMORY_CAP_BYTES,
    }


def _git_commit() -> str | None:
    """HEAD of the git work tree at ROOT, read from its .git directory; None
    elsewhere (a plain checkout has no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
