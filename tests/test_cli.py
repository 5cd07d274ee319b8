import argparse
import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import levygof
import levygof.cli as cli
import levygof.montecarlo as mc
from levygof.cli import (EXIT_DATA, EXIT_ESTIMATION, EXIT_OK, EXIT_USAGE, _alt,
                         build_parser, main, read_observations)
from levygof.datasets import fixture_analysis
from levygof.distributions import PAPER_ALTERNATIVES, AlternativeSpec, QuantileSplit
from levygof.statistics import QCM_SPLIT_DEFAULT, QCV_SPLIT_DEFAULT, StatisticSpec

README = Path(__file__).resolve().parents[1] / "README.md"
POWER_TABLE = Path(__file__).resolve().parents[1] / "scripts" / "power_table.py"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


# sha256 of `sample --dist LAW --n 200 --seed 7`. Each digest was taken from
# the earlier spelling of the same law (`--dist levy --c 2 --mu 0.5`,
# `--dist gamma --params 2,3`), which these spellings replace byte for byte.
SAMPLE_SHA256 = {
    "levy": "d44a4654fea9e51b70e060b13b9055dad0c805a7d364b6b19f3c3e1663831cd7",
    "levy:2": "0e271864605efd1e284f5aef7db7877d701e2bebaa20c3e41edb7be61147891a",
    "levy:2,0.5": "7bcbf6434d2305425db48a64f1b838e5ecaf6b8464edcfdedd687cc23ffeb59e",
    "gamma:2,3": "9a4f015e418ea9fb73f80398b5a35bbb82ed57294aeff813b29b1f93e22210aa",
    "chisquared:3": "ebf3b3b77adfdf3c4cac5b60a3ad746213d6bf05a9ee386295018d88f342b7f7",
    "weibull:2,3": "078720ef41f05c110ace36de5159b47075315c895888245b4abdabc26eb39dc0",
    "lognormal:0,1": "91f0019ede7e54436da522ed8a285796dd678607eba71e1474c1cfb62c5e82a3",
    "pareto:0.75,1": "16b80d1c6214fea17c411824202b5297d3c40ec3f3f471cdeccf450fb9295cb9",
    "rayleigh:1": "7831a4f2c8a309f55407b2db3b83063a146ef8995544b9a707b0108f32c9132b",
    "halfnormal:1": "f263b0d755bd4b7d6db1eba84d8c6a9144769a5d26994276249ae239b67bd951",
    "frechet:0,0.5,1": "52ac4e4809e59e4d3745ce9bacb49c4b65ea680a5e18650af048c1780a5aa4cc",
    "absloggamma:2,3": "6b2459a0882c0c2ad1e3f1f410ea945c1fa44403c119ae5670a663066aaf2861",
    "invgaussian:1,2": "8c759ebe8170ce24ae206adb8da1af6a93a4bfb53484a583d3aed50828b35b8b",
    "burr:1.5,0.5,0.5": "c7a65a1890ae6560e672527618b5ff2eea3e7279cee12377b4adeaed1b7b3faf",
}


class TestSample:
    def test_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (f1, f2):
            code, _, _ = run(capsys, "--out", str(f), "sample", "--dist", "levy:2",
                             "--n", "5", "--seed", "7")
            assert code == EXIT_OK
        assert f1.read_text() == f2.read_text()

    def test_pareto_support(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "pareto:0.75,1.0",
                           "--n", "100", "--seed", "1")
        assert code == EXIT_OK
        # (alpha, sigma) = (0.75, 1.0): support starts at the scale 1.0.
        assert min(float(v) for v in out.split()) >= 1.0

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "sample", "--dist", "gamma", "--n", "5", "--seed", "1")
        assert code == EXIT_USAGE

    def test_levy_median(self, capsys):
        code, out, _ = run(capsys, "sample", "--dist", "levy:1",
                           "--n", "100000", "--seed", "3")
        vals = np.array([float(v) for v in out.split()])
        assert np.median(vals) == pytest.approx(2.198, rel=0.02)

    # A family name is folded by one rule for every law: case, `-` and `_`.
    @pytest.mark.parametrize("spelling, law",
                             [(law, law) for law in SAMPLE_SHA256] + [("Levy:2", "levy:2")],
                             ids=[*SAMPLE_SHA256, "Levy:2"])
    def test_draws_match_the_earlier_spelling(self, capsys, spelling, law):
        code, out, _ = run(capsys, "sample", "--dist", spelling, "--n", "200", "--seed", "7")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_SHA256[law]

    # These laws draw inf, which `--input` would reject when read back.
    @pytest.mark.parametrize("law", ["frechet:0,1,1e-300", "pareto:1e-300,1", "levy:1e308"])
    def test_non_finite_draw_is_a_usage_error(self, capsys, law):
        code, out, err = run(capsys, "sample", "--dist", law, "--n", "5")
        assert code == EXIT_USAGE
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--dist" in lines[0] and "inf" in lines[0]


class TestEstimate:
    def test_mle_constant(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("4.0\n# a comment\n4.0\n\n4.0\n")
        code, out, _ = run(capsys, "estimate", "--method", "mle", "--input", str(f))
        assert code == EXIT_OK
        assert records(out)[0]["estimate"] == pytest.approx(4.0)

    def test_round_trip_with_sample(self, tmp_path, capsys):
        f = tmp_path / "draws.txt"
        run(capsys, "--out", str(f), "sample", "--dist", "levy:2",
            "--n", "200000", "--seed", "9")
        code, out, _ = run(capsys, "estimate", "--method", "qcm", "--split",
                           "0.02,0.48", "--input", str(f))
        assert code == EXIT_OK
        assert records(out)[0]["estimate"] == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("method, flags, window", [
        ("mle", (), None), ("cov", (), None), ("qcm", (), QCM_SPLIT_DEFAULT),
        ("qcv", (), QCV_SPLIT_DEFAULT), ("qcv", ("--split", "0.1,0.6"), QuantileSplit(0.1, 0.6)),
    ], ids=["mle", "cov", "qcm-default", "qcv-default", "qcv-split"])
    def test_record_keys_and_window(self, capsys, method, flags, window):
        code, out, _ = run(capsys, "estimate", "--method", method, *flags, "--fixture", "vessels")
        assert code == EXIT_OK
        (rec,) = records(out)
        assert list(rec) == ["method", "estimate", "n"] + (["split"] if window else [])
        assert (rec["method"], rec["n"]) == (method.upper(), fixture_analysis("vessels").size)
        if window:
            assert rec["split"] == [window.a, window.b]

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

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_non_utf8_line_is_data_error(self, tmp_path, capsys, monkeypatch, stdin):
        # Line 1 is longer than any decoding chunk, so a reader that decodes
        # in chunks would not know the line of the bad bytes.
        text = b"1.0" + b" " * 10000 + b"\n" + b"2.0\n" * 5 + b"\xff\xfe2.0\n"
        f = tmp_path / "bad.txt"
        f.write_bytes(text)
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text)))
        path = "-" if stdin else str(f)
        code, out, err = run(capsys, "estimate", "--method", "mle", "--input", path)
        assert code == EXIT_DATA
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}:7: cannot parse")

    def test_non_utf8_comment_is_skipped(self, tmp_path):
        f = tmp_path / "latin1.csv"
        f.write_bytes(b"# caf\xe9\nna\xefve,1.5\r\nb,2.5\n")
        assert np.array_equal(read_observations(str(f), column=1), [1.5, 2.5])

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "estimate", "--method", "mle")
        assert code == EXIT_USAGE

    def test_comments_only_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("# header\n\n# no values\n")
        code, out, err = run(capsys, "estimate", "--method", "mle", "--input", str(f))
        assert code == EXIT_DATA
        assert out == ""
        assert "no observations found" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_nonfinite_line_is_data_error(self, tmp_path, capsys, token):
        f = tmp_path / "bad.txt"
        f.write_text(f"1.0\n2.0\n{token}\n")
        code, _, err = run(capsys, "estimate", "--method", "mle", "--input", str(f))
        assert code == EXIT_DATA
        assert ":3:" in err

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, monkeypatch, stdin):
        text = b"1.5\n2.5\n4.0\n"
        found = []
        for data in (text, b"\xef\xbb\xbf" + text):
            f = tmp_path / "d.txt"
            f.write_bytes(data)
            if stdin:
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            code, out, _ = run(capsys, "estimate", "--method", "mle",
                               "--input", "-" if stdin else str(f))
            assert code == EXIT_OK
            found.append(out)
        assert found[0] == found[1]

    def test_carriage_return_line_ends(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_bytes(b"1.5\r2.5\r4.0\r")
        assert np.array_equal(read_observations(str(f)), [1.5, 2.5, 4.0])
        f.write_bytes(b"1.5\rx\r")
        code, _, err = run(capsys, "estimate", "--method", "mle", "--input", str(f))
        assert code == EXIT_DATA and f"{f}:2: cannot parse 'x'" in err

    def test_read_allocates_about_8_bytes_per_value(self, tmp_path):
        # 10**5 values tell ~8 bytes per value from a whole-file read's ~84;
        # tracemalloc slows the read several-fold, so more would cost seconds.
        n = 100_000
        f = tmp_path / "big.txt"
        f.write_text("\n".join(map(str, range(n))))
        tracemalloc.start()
        try:
            vals = read_observations(str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.size == n and vals[-1] == n - 1
        assert peak <= 16 * n

    def test_column_past_a_row_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3\n")
        code, out, err = run(capsys, "estimate", "--method", "mle", "--input", str(f),
                             "--column", "1")
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"error: {f}:2: cannot parse '3'\n"

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

    @pytest.mark.parametrize("k", [-250, 250])
    def test_cn_and_qcv_at_extreme_magnitudes(self, tmp_path, capsys, k):
        # Squared window deviations overflow or underflow at 10**±250 unless
        # each row is scaled first.
        f = tmp_path / "d.txt"
        f.write_text("\n".join(map(repr, (fixture_analysis("rainfall") * 10.0**k).tolist())))
        found = []
        for data in (("--fixture", "rainfall"), ("--input", str(f))):
            _, out, _ = run(capsys, "estimate", "--method", "qcv", *data)
            (est,) = records(out)
            _, out, _ = run(capsys, "test", "--stat", "cn", *data, "--replicates", "200")
            (rec,) = records(out)
            found.append((est["estimate"], rec["value"]))
        (qcv, cn), (scaled_qcv, scaled_cn) = found
        assert scaled_qcv == pytest.approx(qcv * 10.0**k, rel=1e-12)
        assert scaled_cn == pytest.approx(cn, rel=1e-12)

    def test_infeasible_kind_is_one_error_record(self, tmp_path, capsys, monkeypatch):
        # At n = 5 the second window of on, (0.8, 0.95), holds no order
        # statistic; the other kinds are tested on one draw of B replicates.
        real, streams = mc.sample_levy, []

        def draw(params, n, stream, rows):
            streams.extend(range(stream.stream_index, stream.stream_index + rows))
            return real(params, n, stream, rows)
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

    def test_calibrate_at_an_explicit_level(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--stat", "vn", "--n-grid", "20",
                           "--level", "0.1", "--replicates", "500", "--seed", "2")
        assert code == EXIT_OK
        (rec,) = records(out)
        (nd,) = mc.simulate_null((StatisticSpec("vn"),), 20, mc.ReplicationPlan(2, 500))
        assert list(rec.items()) == list(mc.calibrate(nd, 0.1).items())

    def test_power_record(self, capsys):
        code, out, _ = run(capsys, "power", "--stat", "vn", "--alt", "lognormal:0,1",
                           "--n-grid", "30", "--replicates", "500", "--seed", "3")
        assert code == EXIT_OK
        rec = records(out)[0]
        assert 0.0 <= rec["power"] <= 1.0
        assert rec["alt"] == "lognormal(0,1)"

    def test_power_runs_the_paper_alternatives_without_alt(self, capsys):
        code, out, _ = run(capsys, "power", "--stat", "vn", "--stat", "tn", "--n-grid", "20,30",
                           "--replicates", "200", "--seed", "3")
        assert code == EXIT_OK
        labels = [alt.label() for alt in PAPER_ALTERNATIVES]
        assert [(r["stat"], r["alt"], r["n"]) for r in records(out)] == [
            (kind, label, n) for kind in ("vn", "tn") for label in labels for n in (20, 30)]

    def test_power_prints_the_records_of_the_power_table_script(self, capsys):
        # The script's records are power's, without `replicates` and `seed`.
        grid = ("--n-grid", "20,50", "--replicates", "300", "--seed", "5")
        code, out, _ = run(capsys, "power", "--stat", "vn", "--stat", "on", "--stat", "tn",
                           "--stat", "cn", *grid)
        assert code == EXIT_OK
        script = subprocess.run(
            [sys.executable, str(POWER_TABLE), "--stats", "vn,on,tn,cn", *grid],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        trimmed = []
        for rec in records(out):
            assert (rec.pop("replicates"), rec.pop("seed")) == (300, 5)
            trimmed.append(json.dumps(rec) + "\n")
        assert "".join(trimmed) == script.stdout

    def test_power_counts_non_finite_alternative_draws_as_failed(self, capsys):
        code, out, err = run(capsys, "power", "--stat", "vn", "--alt", "frechet:0,1,1e-300",
                             "--n-grid", "20", "--replicates", "100")
        assert (code, err) == (EXIT_OK, "")
        (rec,) = records(out)
        assert (rec["failed_replicates"], rec["power"]) == (100, 1.0)

    def test_paper_alternative_labels(self):
        assert [alt.label() for alt in PAPER_ALTERNATIVES] == [
            "gamma(2,3)", "chisquared(4)", "weibull(1.75,1)", "lognormal(0,1)",
            "pareto(0.75,1)", "pareto(1.5,0.5)", "rayleigh(1)", "halfnormal(1)",
            "frechet(0,0.5,1)", "absloggamma(3,2)", "invgaussian(1,1.5)", "burr(1.5,0.5,0.5)"]

    @pytest.mark.parametrize("alt", [*PAPER_ALTERNATIVES, AlternativeSpec("gamma", (2.0000001, 3)),
                                     AlternativeSpec("lognormal", (0.1 + 0.2, 1e-300))],
                             ids=lambda alt: alt.label())
    def test_label_parses_back_to_its_spec(self, alt):
        fam, params = alt.label().rstrip(")").split("(")
        assert _alt(f"{fam}:{params}") == alt

    def test_distinct_specs_get_distinct_labels(self):
        assert (AlternativeSpec("gamma", (2, 3)).label(),
                AlternativeSpec("gamma", (2.0000001, 3)).label()) == (
            "gamma(2,3)", "gamma(2.0000001,3)")

    def test_diagnose_record(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--stat", "tn", "--n-grid", "50",
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

    def test_table_mode_prints_array_cells(self, capsys):
        argv = ("diagnose", "--stat", "vn", "--n-grid", "20", "--replicates", "1000",
                "--bins", "4", "--seed", "6")
        _, out, _ = run(capsys, *argv)
        (rec,) = records(out)
        code, out, _ = run(capsys, "--table", *argv)
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header.split() == list(rec)
        # An array cell is its elements, space-separated.
        for key in ("bin_edges", "counts"):
            assert " ".join(format(x, "g") for x in rec[key]) in row

    def test_table_mode_prints_comments(self, capsys):
        code, out, _ = run(capsys, "--table", "ppplot", "--fixture", "vessels")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# fitted with MLE scale estimate c = ")
        assert lines[1].split() == ["empirical", "fitted"]
        assert len(lines) == 2 + 20

    def test_usage_exit_code(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, needle", [
        (("calibrate", "--stat", "vn", "--n-grid", "20", "--replicates", "100", "--workers", "0"),
         "--workers"),
        (("calibrate", "--stat", "vn", "--n-grid", "20", "--replicates", "0"), "--replicates"),
        (("power", "--stat", "vn", "--alt", "nope:1", "--n-grid", "20", "--replicates", "100"),
         "--alt"),
        (("power", "--stat", "vn", "--alt", "Levy", "--n-grid", "20", "--replicates", "100"),
         "unknown alternative family: 'levy'"),
        (("sample", "--dist", "gamma:x,1", "--n", "5"), "--dist"),
        (("calibrate", "--stat", "on", "--split", "0,0.3", "--n-grid", "20",
          "--replicates", "100"), "takes 2 window(s), got 1"),
        (("calibrate", "--stat", "vn", "--split", "0.5,0.51", "--n-grid", "20",
          "--replicates", "100"), "takes 0 window(s), got 1"),
        (("calibrate", "--n-grid", "20", "--replicates", "100"), "--stat"),
        (("calibrate", "--stat", "vn", "--n-grid", "20,x", "--replicates", "100"), "--n-grid"),
        (("calibrate", "--stat", "vn", "--n-grid", "-5", "--replicates", "100"),
         "argument --n-grid: bad value '-5': must be >= 1"),
        (("calibrate", "--stat", "vn", "--n-grid", "0", "--replicates", "100"),
         "argument --n-grid: bad value '0'"),
        (("calibrate", "--stat", "vn", "--n-grid", "20,-3", "--replicates", "100"),
         "argument --n-grid: bad value '-3': must be >= 1"),
        (("power", "--stat", "vn", "--alt", "lognormal:0,1", "--n-grid", "0",
          "--replicates", "100"), "argument --n-grid: bad value '0'"),
        (("diagnose", "--stat", "vn", "--n-grid", "0", "--replicates", "1000"),
         "argument --n-grid: bad value '0'"),
        (("calibrate", "--stat", "vn", "--n-grid", "20", "--level", "2", "--replicates", "100"),
         "level must be in (0, 1)"),
        (("power", "--stat", "vn", "--alt", "lognormal:0,1", "--n-grid", "20", "--level", "0",
          "--replicates", "100"), "level must be in (0, 1)"),
        (("test", "--all", "--fixture", "rainfall", "--level", "2", "--replicates", "100"),
         "level must be in (0, 1)"),
        (("test", "--all", "--split", "0.1,0.2", "--fixture", "vessels", "--replicates", "100"),
         "--split"),
        (("diagnose", "--stat", "vn", "--n-grid", "20", "--replicates", "10"), "1000 replicates"),
        (("diagnose", "--stat", "vn", "--n-grid", "20", "--replicates", "1000", "--bins", "0"),
         "--bins"),
        # It used to draw the null and then build 10**9 histogram edges.
        (("diagnose", "--stat", "cn", "--n-grid", "100", "--replicates", "1000", "--bins",
          "1000000000"), "bins must be <= replicates (1000)"),
        (("sample", "--dist", "levy:-1", "--n", "5"), "scale c"),
        (("sample", "--dist", "levy:nan,0", "--n", "5"), "scale c"),
        (("sample", "--dist", "levy", "--n", "0"), "--n"),
        (("sample", "--dist", "levy", "--n", "5", "--seed", "-1"), "--seed"),
        (("estimate", "--method", "qcm", "--split", "0,1", "--fixture", "vessels"),
         "bad --split for --method qcm: theoretical moments require b < 1"),
        (("estimate", "--method", "qcv", "--split", "0.5,1", "--fixture", "vessels"),
         "bad --split for --method qcv"),
        (("estimate", "--method", "mle", "--split", "0,0.5", "--fixture", "vessels"),
         "--split"),
        (("estimate", "--method", "median", "--fixture", "vessels"), "--method"),
        (("test", "--all", "--stat", "vn", "--fixture", "rainfall", "--replicates", "100"),
         "--stat"),
        (("estimate", "--method", "mle", "--input", "data.txt", "--fixture", "rainfall"),
         "--fixture"),
        (("estimate", "--method", "mle", "--column", "1", "--fixture", "rainfall"), "--column"),
        (("estimate", "--method", "mle", "--input", "data.csv", "--column", "-1"), "--column"),
        (("sample", "--dist", "gamma:2", "--n", "5"), "gamma takes 2 parameter(s), got 1"),
        (("sample", "--dist", "levy:1,2,3", "--n", "2"), "levy takes at most 2 parameters"),
        (("sample", "--dist", "gamma:2,1", "--c", "5", "--mu", "3", "--n", "2"), "--c"),
        (("calibrate", "--stat", "nope", "--n-grid", "20", "--replicates", "100"), "--stat"),
        (("calibrate", "--stat", "vn", "--n-grid", "x", "--replicates", "100"), "--n-grid"),
        (("nosuch",), "nosuch"),
        (("estimate", "--method", "mle", "--fixture", "nope"), "--fixture"),
        (("calibrate", "--stat", "vn", "--n-grid", "20", "--frob", "1"), "--frob"),
        (("calibrate", "--stat", "on", "--split", "0.8,1", "--split", "0,0.3", "--n-grid", "50",
          "--replicates", "100"), "--split"),
        (("test", "--stat", "tn", "--split", "0.5,1", "--fixture", "rainfall"), "--split"),
        (("test", "--stat", "tn", "--split2", "0.1,0.5", "--fixture", "vessels"), "--split2"),
        (("test", "--stat", "tn", "--split", "0.1,0.5", "--split", "0.2,0.3", "--fixture",
          "vessels"), "takes 1 window(s), got 2"),
        # A repeated flag used to keep its last value silently.
        (("estimate", "--method", "qcm", "--split", "0.1,0.2", "--split", "0.3,0.4",
          "--fixture", "vessels"), "argument --split: given more than once"),
        (("diagnose", "--stat", "vn", "--n-grid", "20", "--replicates", "1000", "--bins", "5",
          "--bins", "6"), "argument --bins: given more than once"),
        (("calibrate", "--stat", "vn", "--replicates", "100", "--n-grid", "20", "--n-grid", "50"),
         "argument --n-grid: given more than once"),
        (("test", "--stat", "vn", "--fixture", "vessels", "--replicates", "100", "--seed", "1",
          "--seed", "2"), "argument --seed: given more than once"),
        (("power", "--stat", "vn", "--stat", "on", "--split", "0,0.3", "--n-grid", "20",
          "--replicates", "100"), "--split applies to exactly one --stat"),
        # A prefix of a flag used to stand for the flag.
        (("calibrate", "--stat", "vn", "--n", "30", "--replicates", "100"), "--n-grid"),
        (("calibrate", "--stat", "vn", "--n-grid", "30", "--rep", "100"), "--rep"),
        (("calibrate", "--stat", "vn", "--n-grid", "30", "--replicates", "100", "--see", "3"),
         "--see"),
        (("calibrate", "--stat", "vn", "--n-grid", "30", "--replicates", "100", "--lev", "0.1"),
         "--lev"),
        (("--tab", "estimate", "--method", "mle", "--fixture", "rainfall"), "--tab"),
        (("estimate", "--method", "qcm", "--split", "nan,0.5", "--fixture", "rainfall"),
         "split bounds must be finite"),
        (("power", "--stat", "vn", "--alt", "gamma:2,nan", "--n-grid", "20",
          "--replicates", "100"), "gamma parameter 1 must be finite"),
    ], ids=["workers-0", "replicates-0", "unknown-alt", "power-alt-levy", "bad-params",
            "on-one-window", "vn-with-window", "no-stat", "n-grid-not-int", "calibrate-n-negative",
            "calibrate-n-0", "calibrate-n-grid-negative", "power-n-0", "diagnose-n-grid-0",
            "calibrate-level-2",
            "power-level-0", "test-all-level-2", "test-all-with-split",
            "diagnose-replicates-10", "diagnose-bins-0", "diagnose-bins-above-replicates",
            "levy-c-negative", "levy-c-nan",
            "levy-n-0", "sample-seed-negative", "qcm-split-to-1", "qcv-split-to-1",
            "mle-with-split", "unknown-method", "test-all-with-stat",
            "input-and-fixture", "column-with-fixture", "column-negative",
            "gamma-one-param", "levy-three-params", "gamma-with-c-and-mu", "stat-not-a-choice",
            "n-not-int", "unknown-command", "unknown-fixture", "unrecognised-flag",
            "calibrate-on-split-to-1", "test-tn-split-to-1", "test-tn-split2",
            "test-tn-two-windows", "estimate-split-twice", "diagnose-bins-twice",
            "calibrate-n-grid-twice", "test-seed-twice", "power-two-stats-with-split",
            "prefix-n", "prefix-rep", "prefix-see", "prefix-lev", "prefix-table",
            "split-nan", "alt-param-nan"])
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
        ("sample", "--dist", "nope:1", "--n", "5"),
        ("power", "--stat", "vn", "--alt", "nope:1", "--n-grid", "20", "--replicates", "100"),
    ], ids=["sample", "power"])
    def test_unknown_family_lists_the_families(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "unknown alternative family: 'nope'; choose from ['absloggamma', 'burr'" in err

    @pytest.mark.parametrize("argv", [
        ("calibrate", "--stat", "vn", "--n-grid", "20", "--replicates", str(10**15)),
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

    def test_memory_error_without_text_says_out_of_memory(self, capsys, monkeypatch):
        # A MemoryError usually carries no text; the error line must not be empty.
        def out_of_memory(path, column=None):
            raise MemoryError()
        monkeypatch.setattr(cli, "read_observations", out_of_memory)
        code, out, err = run(capsys, "estimate", "--method", "mle", "--input", "big.txt")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: out of memory\n"

    def test_memory_error_while_reading_names_the_input(self, tmp_path, capsys, monkeypatch):
        # The buffer of values runs out after 3 of the 5 lines.
        class ShortArray(cli.array):
            def append(self, value):
                if len(self) == 3:
                    raise MemoryError()
                super().append(value)
        monkeypatch.setattr(cli, "array", ShortArray)
        path = tmp_path / "big.txt"
        path.write_text("1\n2\n3\n4\n5\n")
        code, out, err = run(capsys, "estimate", "--method", "mle", "--input", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {path}: out of memory after 3 values\n"

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

    def test_stat_in_any_case(self, capsys):
        argv = ("--fixture", "vessels", "--replicates", "200", "--seed", "1")
        upper = run(capsys, "test", "--stat", "VN", "--stat", "Cn", *argv)
        lower = run(capsys, "test", "--stat", "vn", "--stat", "cn", *argv)
        assert upper[0] == EXIT_OK
        assert upper == lower

    def test_diagnose_has_no_level_flag(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--stat", "vn", "--n-grid", "20",
                           "--replicates", "1000", "--level", "0.1")
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("argv, needle", [
        (("calibrate", "--stat", "vn", "--n-grid", "20,1"), "got 1"),
        (("power", "--stat", "vn", "--alt", "lognormal:0,1", "--n-grid", "20,1"), "got 1"),
        (("diagnose", "--stat", "vn", "--n-grid", "20,1"), "got 1"),
        # vn is defined at both sizes; on needs n >= 7.
        (("power", "--stat", "vn", "--stat", "on", "--n-grid", "20,5"), "statistic on"),
    ], ids=["calibrate", "power", "diagnose", "power-two-stats"])
    def test_infeasible_grid_size_fails_before_the_first(self, capsys, argv, needle):
        code, out, err = run(capsys, *argv, "--replicates", "1000")
        assert code == EXIT_ESTIMATION
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert needle in lines[0]

    def test_infeasible_window_is_one_error_line(self, capsys):
        # Feasible at n = 5, but the second window is empty at n = 7.
        code, out, err = run(capsys, "calibrate", "--stat", "on", "--split", "0,0.3",
                             "--split", "0.3,0.4", "--n-grid", "7", "--replicates", "100")
        assert code == EXIT_ESTIMATION
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "window (0.3, 0.4)" in lines[0]

    @pytest.mark.parametrize("argv", [
        ("estimate", "--method", "qcm", "--split", "0,1e-320", "--fixture", "vessels"),
        ("calibrate", "--stat", "on", "--split", "0,1e-320", "--split", "0.5,0.9",
         "--n-grid", "20", "--replicates", "10"),
    ], ids=["estimate", "calibrate"])
    def test_subnormal_window_is_one_error_line(self, capsys, argv):
        # 1 / 1e-320 overflows a float; the bound the error names is exact.
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ESTIMATION
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: statistic ")
        assert "needs n >= 1000011" in lines[0]


class TestOutput:
    def test_failed_command_keeps_the_old_file(self, tmp_path, capsys):
        f = tmp_path / "f"
        f.write_text("keep me\n")
        code, _, _ = run(capsys, "--out", str(f), "calibrate", "--stat", "on",
                         "--n-grid", "5", "--replicates", "10")
        assert code == EXIT_ESTIMATION
        assert f.read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["f"]

    def test_input_may_be_the_out_file(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("4.0\n4.0\n4.0\n")
        code, _, _ = run(capsys, "--out", str(f), "estimate", "--method", "mle",
                         "--input", str(f))
        assert code == EXIT_OK
        assert records(f.read_text()) == [{"method": "MLE", "estimate": 4.0, "n": 3}]

    def test_error_records_of_test_are_output(self, tmp_path, capsys):
        # Exit 4 from `test` still prints its error records, so they replace the file.
        f = tmp_path / "f"
        f.write_text("old\n")
        code, _, _ = run(capsys, "--out", str(f), "test", "--stat", "on", "--split", "0,0.01",
                         "--split", "0.8,0.95", "--fixture", "vessels", "--replicates", "100")
        assert code == EXIT_ESTIMATION
        (rec,) = records(f.read_text())
        assert list(rec) == ["stat", "error"]

    def test_modes_and_symlinks(self, tmp_path, capsys):
        argv = ("estimate", "--method", "mle", "--fixture", "rainfall")
        old_mask = os.umask(0o027)
        try:
            new = tmp_path / "new"
            assert run(capsys, "--out", str(new), *argv)[0] == EXIT_OK
            assert new.stat().st_mode & 0o777 == 0o640
        finally:
            os.umask(old_mask)
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("old\n")
        target.chmod(0o604)
        link.symlink_to(target)
        assert run(capsys, "--out", str(link), *argv)[0] == EXIT_OK
        assert link.is_symlink() and target.stat().st_mode & 0o777 == 0o604
        assert records(target.read_text())[0]["method"] == "MLE"

    def test_fifo_is_written_directly(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, "--out", str(fifo), "estimate", "--method", "mle",
                         "--fixture", "rainfall")
        reader.join(timeout=30)
        assert code == EXIT_OK and not reader.is_alive()
        assert records(got[0])[0]["method"] == "MLE"
        assert os.listdir(tmp_path) == ["fifo"]

    def test_closed_pipe_exits_141_silently(self):
        cmd = [sys.executable, "-m", "levygof.cli", "sample", "--dist", "levy", "--n", "200000"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 141


def _no_draw(*args):
    raise AssertionError("a bad setting was found only after drawing replicates")


class TestStatGrid:
    """`--stat` is given once per statistic; one null draw per size serves all of them."""

    @pytest.mark.parametrize("argv, kinds", [
        # kernel-n250's pair of commands, at fewer replicates.
        (("diagnose", "--n-grid", "100,250", "--replicates", "1000", "--seed", "1"),
         ("deltan", "ran")),
        (("calibrate", "--n-grid", "20,30", "--replicates", "600", "--seed", "3", "--workers",
          "2"), ("vn", "on")),
        (("test", "--fixture", "vessels", "--replicates", "600", "--seed", "3"), ("ran", "vn")),
    ], ids=["diagnose-deltan-ran", "calibrate", "test"])
    def test_two_stats_print_the_single_stat_outputs_in_turn(self, capsys, argv, kinds):
        alone = ""
        for kind in kinds:
            code, out, _ = run(capsys, *argv, "--stat", kind)
            assert code == EXIT_OK
            alone += out
        code, out, _ = run(capsys, *argv, *(a for kind in kinds for a in ("--stat", kind)))
        assert code == EXIT_OK
        assert out == alone

    def test_diagnose_draws_one_null_per_size(self, capsys, monkeypatch):
        calls = []
        simulate_null = mc.simulate_null

        def counted(specs, n, plan):
            calls.append(([spec.kind for spec in specs], n))
            return simulate_null(specs, n, plan)
        monkeypatch.setattr(mc, "simulate_null", counted)
        code, out, _ = run(capsys, "diagnose", "--stat", "vn", "--stat", "tn", "--n-grid", "20,30",
                           "--replicates", "1000")
        assert code == EXIT_OK
        assert calls == [(["vn", "tn"], 20), (["vn", "tn"], 30)]
        assert [(r["stat"], r["n"]) for r in records(out)] == [
            ("vn", 20), ("vn", 30), ("tn", 20), ("tn", 30)]

    @pytest.mark.parametrize("argv, expected, needle", [
        (("--n-grid", "20", "--replicates", "999"), EXIT_USAGE, "1000 replicates"),
        # on needs n >= 7.
        (("--n-grid", "20,5", "--replicates", "1000"), EXIT_ESTIMATION, "statistic on"),
    ], ids=["replicates-999", "on-infeasible-at-the-second-size"])
    def test_diagnose_fails_before_any_draw(self, capsys, monkeypatch, argv, expected, needle):
        monkeypatch.setattr(mc, "_simulate", _no_draw)
        code, out, err = run(capsys, "diagnose", "--stat", "vn", "--stat", "on", *argv)
        assert (code, out) == (expected, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert needle in lines[0]


def option_sets() -> dict[str, list[str]]:
    """The option strings of the top-level parser (key "") and of each subcommand."""
    ap = build_parser()
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))

    def options(parser):
        return sorted(s for a in parser._actions for s in a.option_strings
                      if s not in ("-h", "--help"))
    return {"": options(ap), **{name: options(p) for name, p in sub.choices.items()}}


def test_option_sets():
    # Every option of every subcommand; a new flag has to be added here.
    found = option_sets()
    assert found == {
        "": ["--out", "--table"],
        "sample": ["--dist", "--n", "--seed"],
        "estimate": ["--column", "--fixture", "--input", "--method", "--split"],
        "test": ["--all", "--column", "--fixture", "--input", "--level", "--replicates",
                 "--seed", "--split", "--stat", "--workers"],
        "calibrate": ["--level", "--n-grid", "--replicates", "--seed", "--split",
                      "--stat", "--workers"],
        "power": ["--alt", "--level", "--n-grid", "--replicates", "--seed", "--split",
                  "--stat", "--workers"],
        "diagnose": ["--bins", "--n-grid", "--replicates", "--seed", "--split",
                     "--stat", "--workers"],
        "ppplot": ["--column", "--fixture", "--input"],
    }
    assert sum(map(len, found.values())) == 45


def test_readme_commands_use_exact_option_strings():
    # The parser refuses a prefix of an option, so a stale `--n` in the README
    # would fail when run; this finds it without running the command.
    found = option_sets()
    commands = [m.group(1).split()[1:] for line in README.read_text().splitlines()
                if (m := re.match(r"`?(levygof [^`]*)", line))]
    assert len(commands) >= 7
    for words in commands:
        sub = next(w for w in words if w in found)
        flags = {w for w in words if w.startswith("-")}
        assert flags <= set(found[sub] + found[""]), " ".join(words)


def run_in_subprocess(code, *argv, env=None):
    env = {**(os.environ if env is None else env), "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, check=True)


# Runs the CLI on argv under a 1 GiB address-space cap of its own process.
CLI_UNDER_1GIB = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                  "from levygof.cli import main; sys.exit(main(sys.argv[1:]))")


def test_chunk_memory_bounded_in_n():
    # A 512-row chunk at n = 200000 would need 781 MiB for the draws alone.
    done = run_in_subprocess(CLI_UNDER_1GIB, "calibrate", "--stat", "vn", "--n-grid", "200000",
                             "--replicates", "600")
    (rec,) = records(done.stdout)
    assert rec["n"] == 200000 and rec["lower"] < rec["upper"]


# Runs the CLI on argv, then prints on stderr the scipy modules it loaded.
CLI_THEN_SCIPY = ("import sys; from levygof.cli import main; code = main(sys.argv[1:]); "
                  "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], "
                  "file=sys.stderr); sys.exit(code)")


# Names whose call would reach BLAS, which cli.py's OPENBLAS_NUM_THREADS
# setting assumes no levygof module makes.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")
    return []


class TestStartup:
    def test_package_import_loads_no_numpy(self):
        # dir() lists the names no attribute access has loaded yet, and loads none.
        code = ("import sys, levygof; print('numpy' in sys.modules, "
                "set(levygof.__all__) <= set(dir(levygof)), 'numpy' in sys.modules)")
        assert run_in_subprocess(code).stdout.split() == ["False", "True", "False"]
        assert set(levygof.__all__) <= set(dir(levygof))  # __dir__ in this process too

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
    def test_cli_import_runs_openblas_on_one_thread_unless_set(self, given, expected):
        # Built here: this process imported levygof.cli, so os.environ carries
        # the setting already.
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        code = ("import os, levygof.cli; task = '/proc/self/task'; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], "
                "len(os.listdir(task)) if os.path.isdir(task) else 0)")
        value, threads = run_in_subprocess(code, env=env).stdout.split()
        assert value == expected
        if given is None and sys.platform.startswith("linux") and (os.cpu_count() or 1) >= 2:
            assert threads == "1"

    def test_package_calls_no_blas(self):
        src = Path(levygof.__file__).parent
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.MatMult)
                found = {"@"} if matmul else BLAS_NAMES & set(_names(node))
                assert not found, (f"{path.name} line {node.lineno} uses "
                                   f"{found}: BLAS would run on one thread, as cli.py sets "
                                   "OPENBLAS_NUM_THREADS=1; revisit that setting first")

    def test_import_leaves_out_scipy(self):
        code = ("import sys, levygof.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert run_in_subprocess(code).stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, nrecords", [
        (("estimate", "--method", "mle", "--fixture", "rainfall"), 1),
        (("diagnose", "--stat", "ran", "--n-grid", "50", "--replicates", "1000"), 1),
        (("test", "--all", "--fixture", "rainfall", "--replicates", "200", "--workers", "2"), 5),
        (("calibrate", "--stat", "cn", "--n-grid", "50", "--replicates", "200"), 1),
        (("estimate", "--method", "qcm", "--fixture", "rainfall"), 1),
        (("ppplot", "--fixture", "rainfall"), 31),
    ], ids=["estimate-mle", "diagnose-ran", "test-all-pool", "calibrate-cn", "estimate-qcm",
            "ppplot"])
    def test_runs_without_scipy(self, argv, nrecords):
        done = run_in_subprocess(CLI_THEN_SCIPY, *argv)
        assert len(records(done.stdout)) == nrecords
        assert done.stderr.strip() == "[]"

    def test_package_imports_no_scipy(self):
        src = Path(levygof.__file__).parent
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not [m for m in names if m.split(".")[0] == "scipy"], path.name
