import json
import os
import subprocess
import sys

import numpy as np
import pytest

import levygof.montecarlo as mc
from levygof.cli import (EXIT_DATA, EXIT_ESTIMATION, EXIT_OK, EXIT_USAGE,
                         main, read_observations)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class TestSample:
    def test_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (f1, f2):
            code, _, _ = run(capsys, "--out", str(f), "sample", "--dist", "levy",
                             "--c", "2", "--n", "5", "--seed", "7")
            assert code == EXIT_OK
        assert f1.read_text() == f2.read_text()

    def test_pareto_support(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "pareto", "--params",
                           "0.75,1.0", "--n", "100", "--seed", "1")
        assert code == EXIT_OK
        # (alpha, sigma) = (0.75, 1.0): support starts at the scale 1.0.
        assert min(float(v) for v in out.split()) >= 1.0

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "sample", "--dist", "gamma", "--n", "5", "--seed", "1")
        assert code == EXIT_USAGE

    def test_levy_median(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "levy", "--c", "1",
                           "--n", "100000", "--seed", "3")
        vals = np.array([float(v) for v in out.split()])
        assert np.median(vals) == pytest.approx(2.198, rel=0.02)


class TestEstimate:
    def test_mle_constant(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("4.0\n# a comment\n4.0\n\n4.0\n")
        code, out, _ = run(capsys, "estimate", "--method", "mle", "--input", str(f))
        assert code == EXIT_OK
        assert records(out)[0]["estimate"] == pytest.approx(4.0)

    def test_round_trip_with_sample(self, tmp_path, capsys):
        f = tmp_path / "draws.txt"
        run(capsys, "--out", str(f), "sample", "--dist", "levy", "--c", "2",
            "--n", "200000", "--seed", "9")
        code, out, _ = run(capsys, "estimate", "--method", "qcm", "--split",
                           "0.02,0.48", "--input", str(f))
        assert code == EXIT_OK
        assert records(out)[0]["estimate"] == pytest.approx(2.0, abs=0.05)

    def test_estimation_error_exit(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\n-3.0\n2.0\n")
        code, _, err = run(capsys, "estimate", "--method", "mle", "--input", str(f))
        assert code == EXIT_ESTIMATION
        assert "positive" in err

    def test_parse_error_names_line(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\nhello\n")
        code, _, err = run(capsys, "estimate", "--method", "mle", "--input", str(f))
        assert code == EXIT_DATA
        assert ":2:" in err

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "estimate", "--method", "mle")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_nonfinite_line_is_data_error(self, tmp_path, capsys, token):
        f = tmp_path / "bad.txt"
        f.write_text(f"1.0\n2.0\n{token}\n")
        code, _, err = run(capsys, "estimate", "--method", "mle", "--input", str(f))
        assert code == EXIT_DATA
        assert ":3:" in err

    def test_csv_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,1.5\nb,2.5\n")
        vals = read_observations(str(f), column=1)
        assert np.array_equal(vals, [1.5, 2.5])


class TestTest:
    def test_single_stat_on_fixture(self, capsys):
        code, out, _ = run(capsys, "test", "--stat", "vn", "--fixture", "vessels",
                           "--replicates", "1000", "--seed", "11")
        assert code == EXIT_OK
        rec = records(out)[0]
        assert rec["stat"] == "vn"
        assert rec["value"] == pytest.approx(1.233, abs=0.001)
        assert 0.0 < rec["p_value"] <= 1.0
        assert isinstance(rec["reject"], bool)

    def test_all_battery(self, capsys):
        code, out, _ = run(capsys, "test", "--all", "--fixture", "rainfall",
                           "--replicates", "500", "--seed", "1")
        assert code == EXIT_OK
        kinds = [r["stat"] for r in records(out)]
        assert kinds == ["vn", "tn", "on", "deltan", "ran"]

    def test_cn_location_invariance_via_cli(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = rng.gamma(2.0, 1.0, size=40)
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        f1.write_text("\n".join(map(str, data)))
        f2.write_text("\n".join(str(v + 1000.0) for v in data))
        vals = []
        for f in (f1, f2):
            _, out, _ = run(capsys, "test", "--stat", "cn", "--input", str(f),
                            "--replicates", "200", "--seed", "4")
            vals.append(records(out)[0]["value"])
        assert vals[0] == pytest.approx(vals[1], rel=1e-9)

    def test_infeasible_kind_is_one_error_record(self, tmp_path, capsys, monkeypatch):
        # At n = 5 the second window of on, (0.8, 0.95), holds no order
        # statistic; the other kinds are tested on one draw of B replicates.
        real, streams = mc.sample_levy, []

        def draw(params, n, stream):
            streams.append(stream.stream_index)
            return real(params, n, stream)
        monkeypatch.setattr(mc, "sample_levy", draw)
        f = tmp_path / "d.txt"
        f.write_text("\n".join(str(v) for v in 1.0 / np.linspace(0.3, 2.0, 5) ** 2))
        code, out, _ = run(capsys, "test", "--all", "--input", str(f),
                           "--replicates", "300", "--seed", "1")
        assert code == EXIT_OK
        recs = records(out)
        assert [r["stat"] for r in recs] == ["vn", "tn", "on", "deltan", "ran"]
        for rec in recs:
            if rec["stat"] == "on":
                assert "window (0.8, 0.95) holds 0 order statistics" in rec["error"]
            else:
                assert 0.0 < rec["p_value"] <= 1.0 and rec["replicates"] == 300
        assert sorted(streams) == list(range(300))

    def test_requires_stat_or_all(self, capsys):
        code, _, _ = run(capsys, "test", "--fixture", "vessels")
        assert code == EXIT_USAGE


class TestOtherCommands:
    def test_calibrate_grid(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--stat", "vn", "--n-grid", "20,30",
                           "--replicates", "500", "--seed", "2")
        assert code == EXIT_OK
        recs = records(out)
        assert [r["n"] for r in recs] == [20, 30]
        assert all(r["lower"] < r["upper"] for r in recs)

    def test_power_record(self, capsys):
        code, out, _ = run(capsys, "power", "--stat", "vn", "--alt", "lognormal:0,1",
                           "--n", "30", "--replicates", "500", "--seed", "3")
        assert code == EXIT_OK
        rec = records(out)[0]
        assert 0.0 <= rec["power"] <= 1.0
        assert rec["alt"] == "lognormal(0,1)"

    def test_diagnose_record(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--stat", "tn", "--n", "50",
                           "--replicates", "1000", "--bins", "20", "--seed", "6")
        assert code == EXIT_OK
        rec = records(out)[0]
        assert sum(rec["counts"]) == 1000
        assert len(rec["bin_edges"]) == 21

    def test_ppplot_vessels_near_diagonal(self, capsys):
        code, out, _ = run(capsys, "ppplot", "--fixture", "vessels")
        assert code == EXIT_OK
        recs = records(out)
        dev = max(abs(r["empirical"] - r["fitted"]) for r in recs)
        assert dev < 0.2

    def test_ppplot_rainfall_worse_than_vessels(self, capsys):
        devs = {}
        for name in ("vessels", "rainfall"):
            _, out, _ = run(capsys, "ppplot", "--fixture", name)
            devs[name] = max(abs(r["empirical"] - r["fitted"]) for r in records(out))
        assert devs["rainfall"] > devs["vessels"]

    def test_ppplot_null_self_consistency(self, tmp_path, capsys):
        f = tmp_path / "levy.txt"
        run(capsys, "--out", str(f), "sample", "--dist", "levy", "--n", "100000",
            "--seed", "8")
        _, out, _ = run(capsys, "ppplot", "--input", str(f))
        dev = max(abs(r["empirical"] - r["fitted"]) for r in records(out))
        assert dev < 0.01

    def test_table_mode(self, capsys):
        code, out, _ = run(capsys, "--table", "estimate", "--method", "mle",
                           "--fixture", "rainfall")
        assert code == EXIT_OK
        assert "estimate" in out.splitlines()[0]

    def test_usage_exit_code(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, needle", [
        (("calibrate", "--stat", "vn", "--n", "20", "--replicates", "100", "--workers", "0"),
         "--workers"),
        (("calibrate", "--stat", "vn", "--n", "20", "--replicates", "0"), "--replicates"),
        (("power", "--stat", "vn", "--alt", "nope:1", "--n", "20", "--replicates", "100"),
         "--alt"),
        (("sample", "--dist", "gamma", "--params", "x,1", "--n", "5"), "--params"),
        (("calibrate", "--stat", "on", "--split", "0,0.3", "--n", "20", "--replicates", "100"),
         "takes 2 window(s), got 1"),
        (("calibrate", "--stat", "vn", "--split", "0.5,0.51", "--n", "20",
          "--replicates", "100"), "takes 0 window(s), got 1"),
        (("calibrate", "--n", "20", "--replicates", "100"), "--stat"),
        (("calibrate", "--stat", "vn", "--n-grid", "20,x", "--replicates", "100"), "--n-grid"),
        (("calibrate", "--stat", "vn", "--n", "20", "--level", "2", "--replicates", "100"),
         "level must be in (0, 1)"),
        (("power", "--stat", "vn", "--alt", "lognormal:0,1", "--n", "20", "--level", "0",
          "--replicates", "100"), "level must be in (0, 1)"),
        (("test", "--all", "--fixture", "rainfall", "--level", "2", "--replicates", "100"),
         "level must be in (0, 1)"),
        (("test", "--all", "--split", "0.1,0.2", "--fixture", "vessels", "--replicates", "100"),
         "--split"),
        (("diagnose", "--stat", "vn", "--n", "20", "--replicates", "10"), "1000 replicates"),
        (("diagnose", "--stat", "vn", "--n", "20", "--replicates", "1000", "--bins", "0"),
         "--bins"),
        (("sample", "--dist", "levy", "--c", "-1", "--n", "5"), "scale c"),
        (("sample", "--dist", "levy", "--n", "0"), "n must be >= 1"),
        (("sample", "--dist", "levy", "--n", "5", "--seed", "-1"), "--seed"),
        (("estimate", "--method", "qcm", "--split", "0,1", "--fixture", "vessels"), "b < 1"),
        (("estimate", "--method", "mle", "--split", "0,0.5", "--fixture", "vessels"),
         "--split"),
        (("estimate", "--method", "median", "--fixture", "vessels"), "--method"),
        (("test", "--all", "--stat", "vn", "--fixture", "rainfall", "--replicates", "100"),
         "--stat"),
        (("calibrate", "--stat", "vn", "--n", "20", "--n-grid", "50", "--replicates", "100"),
         "--n-grid"),
        (("power", "--stat", "vn", "--alt", "lognormal:0,1", "--n", "20", "--n-grid", "50",
          "--replicates", "100"), "--n-grid"),
        (("diagnose", "--stat", "vn", "--n", "20", "--n-grid", "50", "--replicates", "1000"),
         "--n-grid"),
        (("estimate", "--method", "mle", "--input", "data.txt", "--fixture", "rainfall"),
         "--fixture"),
        (("estimate", "--method", "mle", "--column", "1", "--fixture", "rainfall"), "--column"),
        (("estimate", "--method", "mle", "--input", "data.csv", "--column", "-1"), "--column"),
        (("sample", "--dist", "gamma", "--params", "2", "--n", "5"), "--params"),
        (("sample", "--dist", "levy", "--params", "1,2", "--n", "2"), "--params"),
        (("sample", "--dist", "gamma", "--params", "2,1", "--c", "5", "--mu", "3", "--n", "2"),
         "--c"),
        (("calibrate", "--stat", "nope", "--n", "20", "--replicates", "100"), "--stat"),
        (("calibrate", "--stat", "vn", "--n", "x", "--replicates", "100"), "--n"),
        (("nosuch",), "nosuch"),
        (("estimate", "--method", "mle", "--fixture", "nope"), "--fixture"),
        (("calibrate", "--stat", "vn", "--n", "20", "--frob", "1"), "--frob"),
        (("calibrate", "--stat", "on", "--split", "0.8,1", "--split2", "0,0.3", "--n", "50",
          "--replicates", "100"), "--split"),
        (("test", "--stat", "tn", "--split", "0.5,1", "--fixture", "rainfall"), "--split"),
    ], ids=["workers-0", "replicates-0", "unknown-alt", "bad-params", "on-one-window",
            "vn-with-window", "no-stat", "n-grid-not-int", "calibrate-level-2",
            "power-level-0", "test-all-level-2", "test-all-with-split",
            "diagnose-replicates-10", "diagnose-bins-0", "levy-c-negative", "levy-n-0",
            "sample-seed-negative",
            "qcm-split-to-1", "mle-with-split", "unknown-method", "test-all-with-stat",
            "calibrate-n-and-n-grid", "power-n-and-n-grid", "diagnose-n-and-n-grid",
            "input-and-fixture", "column-with-fixture", "column-negative",
            "gamma-one-param", "levy-with-params", "gamma-with-c-and-mu", "stat-not-a-choice",
            "n-not-int", "unknown-command", "unknown-fixture", "unrecognised-flag",
            "calibrate-on-split-to-1", "test-tn-split-to-1"])
    def test_bad_settings_are_usage_errors(self, capsys, monkeypatch, argv, needle):
        def no_draw(*args):
            raise AssertionError("a bad setting was found only after drawing replicates")
        monkeypatch.setattr(mc, "_simulate", no_draw)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert needle in lines[0]

    @pytest.mark.parametrize("argv", [
        ("calibrate", "--stat", "vn", "--n", "20", "--replicates", str(10**15)),
        ("sample", "--dist", "levy", "--n", str(10**15)),
    ], ids=["calibrate-replicates", "sample-n"])
    def test_impossible_allocation_is_usage_error(self, capsys, argv):
        # 8 PB: NumPy refuses the array at once, before any memory is touched.
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Unable to allocate" in lines[0]

    @pytest.mark.parametrize("argv", [("--help",), ("calibrate", "--help")])
    def test_help_exits_ok(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK
        assert out.startswith("usage: levygof") and err == ""

    def test_unwritable_out_is_data_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "--out", str(tmp_path / "missing" / "x.jsonl"),
                             "estimate", "--method", "mle", "--fixture", "rainfall")
        assert code == EXIT_DATA
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "x.jsonl" in lines[0]

    def test_method_in_any_case(self, capsys):
        code, out, _ = run(capsys, "estimate", "--method", "QcV", "--fixture", "vessels")
        assert code == EXIT_OK
        assert records(out)[0]["method"] == "QCV"

    def test_diagnose_has_no_level_flag(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--stat", "vn", "--n", "20",
                           "--replicates", "1000", "--level", "0.1")
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("cmd", ["calibrate", "power", "diagnose"])
    def test_infeasible_grid_size_fails_before_the_first(self, capsys, cmd):
        alt = ("--alt", "lognormal:0,1") if cmd == "power" else ()
        code, out, err = run(capsys, cmd, "--stat", "vn", *alt, "--n-grid", "20,1",
                             "--replicates", "1000")
        assert code == EXIT_ESTIMATION
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "got 1" in lines[0]

    def test_infeasible_window_is_one_error_line(self, capsys):
        # Feasible at n = 5, but the second window is empty at n = 7.
        code, out, err = run(capsys, "calibrate", "--stat", "on", "--split", "0,0.3",
                             "--split2", "0.3,0.4", "--n", "7", "--replicates", "100")
        assert code == EXIT_ESTIMATION
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "window (0.3, 0.4)" in lines[0]


def run_in_subprocess(code, *argv):
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          check=True)


# Runs the CLI on argv, then prints on stderr whether scipy.special was loaded.
CLI_THEN_SPECIAL = ("import sys; from levygof.cli import main; code = main(sys.argv[1:]); "
                    "print('scipy.special' in sys.modules, file=sys.stderr); sys.exit(code)")


class TestStartup:
    def test_import_leaves_out_scipy(self):
        code = ("import sys, levygof.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert run_in_subprocess(code).stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ("estimate", "--method", "mle", "--fixture", "rainfall"),
        ("diagnose", "--stat", "ran", "--n", "50", "--replicates", "1000"),
    ], ids=["estimate-mle", "diagnose-ran"])
    def test_runs_without_special_functions(self, argv):
        done = run_in_subprocess(CLI_THEN_SPECIAL, *argv)
        assert len(records(done.stdout)) == 1
        assert done.stderr.strip() == "False"

    def test_battery_loads_special_functions_on_use(self):
        done = run_in_subprocess(CLI_THEN_SPECIAL, "test", "--all", "--fixture", "rainfall",
                                 "--replicates", "200")
        recs = records(done.stdout)
        assert [r["stat"] for r in recs] == ["vn", "tn", "on", "deltan", "ran"]
        assert all(0.0 < r["p_value"] <= 1.0 for r in recs)
