"""What perfbench/workloads.py expects of the program it runs.

The power-grid workload counts the records it should see from the paper's
alternatives, its statistics and its sizes. A later edit to the table of
alternatives would otherwise change that count without a failing test. The
setup command must print the record of its reference file. The perfbench
modules are imported as they are, without changes.
"""
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import (POWER_ALTERNATIVES, SETUP_COMMAND, WORKLOADS, Command,  # noqa: E402
                       child_env)

from levygof.cli import main  # noqa: E402
from levygof.distributions import PAPER_ALTERNATIVES  # noqa: E402


def test_power_grid_counts_the_paper_alternatives():
    assert len(PAPER_ALTERNATIVES) == POWER_ALTERNATIVES


def test_power_grid_prints_its_record_count():
    workload = WORKLOADS["power-grid"]
    commands = workload.commands(0)
    assert len(commands) == len(workload.records_per_command)
    for cmd, expected in zip(commands, workload.records_per_command):
        # The workload's statistics and sizes at a smaller replicate count.
        args = list(cmd.args)
        args[args.index("--replicates") + 1] = "100"
        done = subprocess.run(Command(tuple(args), cmd.script).argv(), capture_output=True,
                              text=True, env=child_env())
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == expected


def test_setup_command_prints_its_reference_record(capsys):
    reference = json.loads((PERFBENCH / "reference" / "setup.json").read_text())
    assert main(list(SETUP_COMMAND.args)) == 0
    out = capsys.readouterr().out
    assert [json.loads(line) for line in out.splitlines()] == reference["records"]
    assert out == '{"method": "MLE", "estimate": 11.829354185602652, "n": 31}\n'
