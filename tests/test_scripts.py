"""The study scripts under scripts/: a bad argument is a usage error, raised
before the first draw (a scale whose estimates leave the float range, before
the first record), and valid arguments give one finite JSON record per cell."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / name), *args],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


@pytest.mark.parametrize("name, args, needle", [
    ("estimator_boxplots.py", ["--replicates", "0"], "replicates"),
    ("estimator_boxplots.py", ["--n-grid", "20,x"], "'x'"),
    ("estimator_boxplots.py", ["--n-grid", "1"], "got 1"),
    # At c = 1e308 the upper whisker is above the largest float.
    ("estimator_boxplots.py", ["--c", "1e308", "--replicates", "50", "--n-grid", "20"],
     "outside the float range"),
    ("power_table.py", ["--replicates", "0"], "replicates"),
    ("power_table.py", ["--level", "2"], "level"),
], ids=["boxplots-replicates-0", "boxplots-n-grid-not-int", "boxplots-n-grid-1",
        "boxplots-c-1e308", "power-replicates-0", "power-level-2"])
def test_bad_argument_is_usage_error(name, args, needle):
    done = run_script(name, *args)
    assert done.returncode == 2
    assert done.stdout == ""
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and needle in errors[0]
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("name, args, records", [
    ("estimator_boxplots.py", ["--replicates", "50", "--n-grid", "10,20"], 8),
    # At c = 1e200 the squared window deviations of qcv would overflow.
    ("estimator_boxplots.py", ["--c", "1e200", "--replicates", "50", "--n-grid", "20"], 4),
    # At c = 1e300 a draw c / Z**2 overflows before replicate 2000; the study
    # is drawn at c = 1 and scaled.
    ("estimator_boxplots.py", ["--c", "1e300", "--replicates", "2000", "--n-grid", "20"], 4),
    ("power_table.py", ["--stats", "vn", "--n-grid", "20", "--replicates", "100"], 12),
])
def test_valid_arguments_print_records(name, args, records):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == records
    parsed = [json.loads(line) for line in lines]
    assert all(isinstance(r, dict) for r in parsed)
    assert all(math.isfinite(v) for r in parsed for v in r.values() if not isinstance(v, str))
