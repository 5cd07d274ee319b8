import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp

import levygof.montecarlo as mc
from levygof.distributions import (PAPER_ALTERNATIVES, AlternativeSpec, LevyParams,
                                   sample_alternative, sample_levy)
from levygof.montecarlo import (CHUNK, MonteCarloError, ReplicationPlan, calibrate,
                                normality_diagnostic, null_grid, p_value, power_grid,
                                power_study, run_test, simulate_null)
from levygof.statistics import STATISTIC_KINDS, EstimationError, StatisticSpec, evaluate_batch
from levygof.streams import RandomStream
from oracles import on_asymptotic_sd, vn_asymptotic_sd


def plan(b, seed=100, workers=1):
    return ReplicationPlan(seed, b, workers)


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationPlan(-1, 10)

    @pytest.mark.parametrize("bad", [2.5, "10", 0], ids=["float", "str", "zero"])
    @pytest.mark.parametrize("field", ["replicates", "worker_hint"])
    def test_count_must_be_an_integer(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1$"):
            ReplicationPlan(1, **{"replicates": 10, "worker_hint": 1, field: bad})

    def test_numpy_integer_counts(self):
        p = ReplicationPlan(1, np.int64(10), np.uint8(2))
        assert (p.replicates, p.worker_hint) == (10, 2)


class TestSimulateNull:
    def test_sorted_and_sized(self):
        (nd,) = simulate_null((StatisticSpec("vn"),), 25, plan(300))
        assert nd.values.size == 300
        assert np.all(np.diff(nd.values) >= 0)

    def test_byte_identical_across_worker_hints(self):
        (a,) = simulate_null((StatisticSpec("tn"),), 30, plan(1200, workers=1))
        (b,) = simulate_null((StatisticSpec("tn"),), 30, plan(1200, workers=4))
        assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("hint, cores, opened", [
        (5000, 8, [3]),   # capped by the 3 chunks of 1200 replicates
        (5000, 2, [2]),   # capped by the cores
        (4, None, []),    # an unknown core count means 1: no pool
    ], ids=["chunks", "cores", "no-count"])
    def test_worker_count_is_capped(self, monkeypatch, hint, cores, opened):
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(mc, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cores)
        (a,) = simulate_null((StatisticSpec("tn"),), 30, plan(1200, workers=hint))
        (b,) = simulate_null((StatisticSpec("tn"),), 30, plan(1200, workers=1))
        assert seen == opened
        assert a.values.tobytes() == b.values.tobytes()

    def test_byte_identical_across_runs(self):
        (a,) = simulate_null((StatisticSpec("on"),), 40, plan(800))
        (b,) = simulate_null((StatisticSpec("on"),), 40, plan(800))
        assert a.values.tobytes() == b.values.tobytes()

    def test_seed_changes_output(self):
        (a,) = simulate_null((StatisticSpec("vn"),), 25, plan(300, seed=1))
        (b,) = simulate_null((StatisticSpec("vn"),), 25, plan(300, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_pivotality_in_c(self):
        spec = StatisticSpec("vn")
        (a,) = simulate_null((spec,), 50, plan(5000, seed=9), c=1.0)
        (b,) = simulate_null((spec,), 50, plan(5000, seed=10), c=7.0)
        assert ks_2samp(a.values, b.values).statistic < 0.03

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            simulate_null((StatisticSpec("on"),), 4, plan(100))

    def test_vn_sd_near_its_asymptotic_law(self):
        # The delta-method oracle shares no code with the kernels. At B = 4000
        # the sample sd spreads by about 0.01 around it.
        sd = vn_asymptotic_sd()
        assert sd == pytest.approx(1.21136, abs=1e-5)
        (nd,) = simulate_null((StatisticSpec("vn"),), 1000, plan(4000))
        assert abs(nd.values.std(ddof=1) - sd) < 0.05

    def test_on_sd_near_its_asymptotic_law(self):
        # The delta-method oracle takes its window means from quadrature, so
        # it shares no code with the kernels. At B = 4000 the sample sd
        # spreads by about 0.06 around it.
        sd = on_asymptotic_sd()
        assert sd == pytest.approx(5.94171, abs=1e-5)
        (nd,) = simulate_null((StatisticSpec("on"),), 1000, plan(4000))
        assert abs(nd.values.std(ddof=1) - sd) < 0.25


class TestDrawOnce:
    """The statistics of one call share one set of replicate samples."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_joint_null_equals_one_spec_nulls(self, workers):
        b = 1300
        assert b % CHUNK  # the last chunk is a short one
        specs = tuple(StatisticSpec(kind) for kind in STATISTIC_KINDS)
        joint = simulate_null(specs, 31, plan(b, workers=workers))
        assert [nd.spec for nd in joint] == list(specs)
        for spec, nd in zip(specs, joint):
            (alone,) = simulate_null((spec,), 31, plan(b, workers=workers))
            assert nd.values.tobytes() == alone.values.tobytes(), spec.kind

    def test_joint_power_equals_per_null_cells(self):
        specs = tuple(StatisticSpec(kind) for kind in ("vn", "on", "tn", "cn"))
        alt = AlternativeSpec("pareto", (0.75, 1.0))
        joint = power_study(simulate_null(specs, 20, plan(600, seed=7)), alt, 0.05)
        alone = tuple(power_study(simulate_null((spec,), 20, plan(600, seed=7)), alt, 0.05)[0]
                      for spec in specs)
        assert joint == alone

    def test_power_study_needs_one_n(self):
        (a,) = simulate_null((StatisticSpec("vn"),), 20, plan(100))
        (b,) = simulate_null((StatisticSpec("vn"),), 21, plan(100))
        with pytest.raises(ValueError):
            power_study((a, b), AlternativeSpec("lognormal", (0.0, 1.0)), 0.05)

    def test_failed_null_replicate_names_kind_and_index(self, monkeypatch):
        # Replicate 5 gets a negative value: vn is undefined on it, cn is not.
        real = mc.sample_levy

        def draw(params, n, stream, rows):
            x = real(params, n, stream, rows)
            k = 5 - stream.stream_index
            if 0 <= k < rows:
                x[k, 0] = -1.0
            return x
        monkeypatch.setattr(mc, "sample_levy", draw)
        with pytest.raises(MonteCarloError, match="statistic vn failed on null replicate 5"):
            simulate_null((StatisticSpec("cn"), StatisticSpec("vn")), 20, plan(50))


def _all_kinds_bytes(b, workers=1):
    """Null values of all six statistics at n = 31 and 100, their values
    under one alternative, and the power records, as bytes."""
    specs = tuple(StatisticSpec(kind) for kind in STATISTIC_KINDS)
    alt = AlternativeSpec("lognormal", (0.0, 1.0))
    out = []
    for n in (31, 100):
        p = plan(b, seed=11, workers=workers)
        nulls = simulate_null(specs, n, p)
        out += [nd.values.tobytes() for nd in nulls]
        out.append(mc._simulate(specs, n, p, b, sample_alternative, alt).tobytes())
        out.append(repr(power_study(nulls, alt, 0.05)))
    return out


class TestChunkBudget:
    """The chunk size moves no byte: each row draws from its own stream, and
    each kernel groups rows by n alone. n = 31 and 100 cover both `ran`
    kernels; at n = 100 a chunk of 2**15 or more values holds several
    `_exp_pairs` row groups."""

    B = 700  # leaves a short last chunk at every budget but 1

    @pytest.fixture(scope="class")
    def reference(self):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mc, "CHUNK_VALUES", 2**20)
            return _all_kinds_bytes(self.B)

    @pytest.mark.parametrize("budget, workers", [(1, 1), (2**12, 1), (2**15, 1), (2**12, 2)],
                             ids=["1", "2^12", "2^15", "2^12-2-workers"])
    def test_bytes_do_not_depend_on_the_budget(self, monkeypatch, reference, budget, workers):
        monkeypatch.setattr(mc, "CHUNK_VALUES", budget)
        assert mc._chunk_rows(100) < 512
        assert _all_kinds_bytes(self.B, workers) == reference

    @pytest.mark.parametrize("n", [250, 1000])
    def test_one_chunk_peaks_below_3_mib(self, n):
        # At 2**20 values per chunk this read 5.9 and 23.5 MiB.
        specs = tuple(StatisticSpec(kind) for kind in STATISTIC_KINDS)
        task = (specs, n, 1, 0, mc._chunk_rows(n), sample_levy, LevyParams())
        mc._chunk_task(task)  # fill the caches of the closed forms
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mc._chunk_task(task)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


@pytest.fixture(scope="module")
def nd():
    (nd,) = simulate_null((StatisticSpec("vn"),), 30, plan(4000))
    return nd


class TestCalibrationAndP:
    def test_thresholds_are_equal_tail_quantiles(self, nd):
        rec = calibrate(nd, 0.05)
        lower, upper = rec["lower"], rec["upper"]
        inside = np.mean((nd.values >= lower) & (nd.values <= upper))
        assert inside == pytest.approx(0.95, abs=0.01)
        assert lower < upper

    def test_record_keys(self):
        (nd,) = simulate_null((StatisticSpec("vn"),), 20, plan(50, seed=3))
        rec = calibrate(nd, 0.1)
        assert list(rec) == ["stat", "n", "level", "lower", "upper", "replicates", "seed"]
        assert (rec["stat"], rec["n"], rec["level"], rec["replicates"], rec["seed"]) == (
            "vn", 20, 0.1, 50, 3)
        assert (rec["lower"], rec["upper"]) == (float(np.quantile(nd.values, 0.05)),
                                                float(np.quantile(nd.values, 0.95)))

    def test_level_domain(self, nd):
        with pytest.raises(ValueError):
            calibrate(nd, 0.0)

    def test_p_at_median_near_one(self, nd):
        med = float(np.median(nd.values))
        assert p_value(nd, med) > 0.95

    def test_p_never_zero(self, nd):
        assert p_value(nd, 1e9) == pytest.approx(2.0 / (nd.replicates + 1))
        assert p_value(nd, -1e9) == pytest.approx(2.0 / (nd.replicates + 1))

    def test_p_monotone_in_tail(self, nd):
        assert p_value(nd, 3.0) <= p_value(nd, 1.0)

    def test_size_equals_level(self, nd):
        rec = calibrate(nd, 0.05)
        lower, upper = rec["lower"], rec["upper"]
        (fresh,) = simulate_null((StatisticSpec("vn"),), 30, plan(4000, seed=555))
        rate = np.mean((fresh.values < lower) | (fresh.values > upper))
        se = np.sqrt(0.05 * 0.95 / 4000)
        assert abs(rate - 0.05) < 3 * se


class TestRunTest:
    def test_report_fields_consistent(self):
        data = 1.0 / np.linspace(0.21, 3.0, 25) ** 2
        (rep,) = run_test((StatisticSpec("vn"),), data, 0.05, plan(2000))
        assert 0.0 < rep["p_value"] <= 1.0
        assert rep["reject"] == (not rep["lower"] <= rep["value"] <= rep["upper"])


    def test_record_keys_and_error_record(self):
        # One record per statistic, in the key order `levygof test` prints;
        # `on` is undefined at n = 5 and gets an error record in its place.
        data = np.array([1.0, 2.0, 3.0, 5.0, 9.0])
        rep, err = run_test((StatisticSpec("vn"), StatisticSpec("on")), data, 0.05,
                            plan(50, seed=3))
        assert list(rep) == ["stat", "value", "p_value", "p_bound", "level", "reject",
                             "lower", "upper", "replicates", "seed"]
        assert (rep["stat"], rep["replicates"], rep["seed"]) == ("vn", 50, 3)
        assert list(err) == ["stat", "error"]
        assert err["stat"] == "on" and "needs n >= 7" in err["error"]

    def test_p_bound_at_the_smallest_p_value(self):
        # Evenly spread data are far out in vn's null tail: p = 2/(B+1), a bound.
        data = np.linspace(1.0, 2.0, 20)
        (rep,) = run_test((StatisticSpec("vn"),), data, 0.05, plan(99))
        assert rep["p_value"] == 2.0 / 100
        assert rep["p_bound"] == "<0.02"


class TestPower:
    def test_record_keys(self):
        alt = AlternativeSpec("halfnormal", (1.0,))
        (cell,) = power_study(simulate_null((StatisticSpec("vn"),), 20, plan(50, seed=3)),
                              alt, 0.05)
        assert list(cell) == ["stat", "alt", "n", "level", "power", "std_error", "replicates",
                              "failed_replicates", "seed"]
        assert (cell["stat"], cell["alt"], cell["n"], cell["replicates"], cell["seed"]) == (
            "vn", alt.label(), 20, 50, 3)

    def test_far_alternative_high_power(self):
        (cell,) = power_study(simulate_null((StatisticSpec("on"),), 50, plan(2000)),
                              AlternativeSpec("halfnormal", (1.0,)), 0.05)
        assert cell["power"] > 0.95

    def test_null_alternative_is_level(self):
        # Feeding a Levy-like inverse-gamma-(1/2)-free proxy is not available;
        # instead check the power against a close alternative stays in [0, 1].
        (cell,) = power_study(simulate_null((StatisticSpec("vn"),), 30, plan(2000)),
                              AlternativeSpec("lognormal", (0.0, 1.0)), 0.05)
        assert 0.0 <= cell["power"] <= 1.0
        assert cell["std_error"] < 0.02

    def test_power_monotone_in_n(self):
        spec = StatisticSpec("vn")
        alt = AlternativeSpec("lognormal", (0.0, 1.0))
        (p20,) = power_study(simulate_null((spec,), 20, plan(3000)), alt, 0.05)
        (p250,) = power_study(simulate_null((spec,), 250, plan(3000)), alt, 0.05)
        combined_se = 2 * (p20["std_error"] + p250["std_error"])
        assert p250["power"] >= p20["power"] - combined_se

    def test_alternative_draws_the_streams_after_the_null(self):
        # Replicate i of the alternative is drawn from stream (seed, B + i).
        spec, alt, n, b, level = (StatisticSpec("tn"), AlternativeSpec("pareto", (0.75, 1.0)),
                                  20, 600, 0.05)
        (null,) = simulate_null((spec,), n, plan(b, seed=7, workers=2))
        (cell,) = power_study((null,), alt, level)
        x = np.stack([sample_alternative(alt, n, RandomStream(7, b + i)) for i in range(b)])
        vals = evaluate_batch(spec, x)
        rec = calibrate(null, level)
        lower, upper = rec["lower"], rec["upper"]
        with np.errstate(invalid="ignore"):
            reject = ~((vals >= lower) & (vals <= upper))
        assert cell["power"] == float(np.mean(reject))
        assert cell["failed_replicates"] == int(np.sum(~np.isfinite(vals)))
        assert (cell["stat"], cell["n"], cell["replicates"]) == ("tn", n, b)


class TestPowerGrid:
    def test_cells_in_stat_alt_n_order(self):
        specs = (StatisticSpec("vn"), StatisticSpec("tn"))
        alts = PAPER_ALTERNATIVES[3:5]
        cells = power_grid(specs, alts, [20, 30], plan(300, seed=9), 0.05)
        assert [(c["stat"], c["alt"], c["n"]) for c in cells] == [
            (spec.kind, alt.label(), n) for spec in specs for alt in alts for n in (20, 30)]
        # Each cell is the one power_study gives on the same null.
        nulls = {n: simulate_null(specs, n, plan(300, seed=9)) for n in (20, 30)}
        kinds = [spec.kind for spec in specs]
        by_label = {alt.label(): alt for alt in alts}
        assert cells == [
            power_study(nulls[c["n"]], by_label[c["alt"]], 0.05)[kinds.index(c["stat"])]
            for c in cells]

    @pytest.mark.parametrize("level, n_grid, error, match", [
        (0.0, [20], ValueError, "level must be in"),
        (0.05, [20, 5], EstimationError, "statistic on needs n >= 7, got 5"),
        (0.05, [1, 20], EstimationError, "statistic vn needs n >= 2, got 1"),
    ], ids=["level-0", "on-at-5", "vn-at-1"])
    def test_checks_before_the_first_draw(self, monkeypatch, level, n_grid, error, match):
        def no_draw(*args):
            raise AssertionError("a bad setting was found only after drawing replicates")
        monkeypatch.setattr(mc, "_simulate", no_draw)
        specs = (StatisticSpec("vn"), StatisticSpec("on"))
        with pytest.raises(error, match=match):
            power_grid(specs, PAPER_ALTERNATIVES, n_grid, plan(100), level)


class TestNullGrid:
    def test_records_in_stat_record_n_order(self):
        specs = (StatisticSpec("vn"), StatisticSpec("tn"))

        def reduce(nulls):  # two records per statistic
            return [[(nd.spec.kind, "min", nd.n, nd.values[0]),
                     (nd.spec.kind, "max", nd.n, nd.values[-1])] for nd in nulls]
        recs = null_grid(specs, [20, 30], plan(300), reduce)
        nulls = {n: simulate_null(specs, n, plan(300)) for n in (20, 30)}
        assert recs == [(spec.kind, end, n, nulls[n][k].values[0 if end == "min" else -1])
                        for k, spec in enumerate(specs) for end in ("min", "max")
                        for n in (20, 30)]

    def test_checks_every_size_before_the_first_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a bad setting was found only after drawing replicates")
        monkeypatch.setattr(mc, "_simulate", no_draw)
        with pytest.raises(EstimationError, match="statistic on needs n >= 7, got 5"):
            null_grid((StatisticSpec("vn"), StatisticSpec("on")), [20, 5], plan(100),
                      lambda nulls: [[nd.n] for nd in nulls])


def _no_draw(monkeypatch, *names):
    def no_draw(*args, **kwargs):
        raise AssertionError("an empty statistic tuple was found only after drawing replicates")
    for name in names:
        monkeypatch.setattr(mc, name, no_draw)


class TestNoStatistic:
    """An empty statistic tuple is refused before the first draw."""

    def test_simulate_null(self, monkeypatch):
        # The check runs in _simulate, before any chunk is drawn or a pool starts.
        _no_draw(monkeypatch, "_chunk_task", "ProcessPoolExecutor")
        with pytest.raises(ValueError, match="no statistic to simulate"):
            simulate_null((), 20, plan(1000, workers=2))

    @pytest.mark.parametrize("call, match", [
        (lambda: null_grid((), [20], plan(100), lambda nulls: []), "no statistic to simulate"),
        (lambda: power_grid((), PAPER_ALTERNATIVES, [20], plan(100), 0.05),
         "no statistic to simulate"),
        (lambda: power_study((), AlternativeSpec("lognormal", (0.0, 1.0)), 0.05),
         "power_study needs nulls of one sample size and plan"),
    ], ids=["null_grid", "power_grid", "power_study"])
    def test_grids_and_power(self, monkeypatch, call, match):
        _no_draw(monkeypatch, "_simulate")
        with pytest.raises(ValueError, match=match):
            call()

    def test_run_test_draws_nothing(self, monkeypatch):
        _no_draw(monkeypatch, "_simulate")
        assert run_test((), [1.0, 2.0, 3.0], 0.05, plan(100)) == ()


class TestDiagnostics:
    def test_record_keys(self):
        (nd,) = simulate_null((StatisticSpec("vn"),), 20, plan(1000, seed=3))
        rep = normality_diagnostic(nd, bins=5)
        assert list(rep) == ["stat", "n", "fitted_mean", "fitted_std", "ks_distance",
                             "replicates", "bin_edges", "counts", "seed"]
        assert (rep["stat"], rep["n"], rep["replicates"], rep["seed"]) == ("vn", 20, 1000, 3)

    def test_counts_sum_to_replicates(self):
        rep = normality_diagnostic(*simulate_null((StatisticSpec("vn"),), 100, plan(2000)),
                                   bins=40)
        assert rep["counts"].sum() == 2000
        assert rep["bin_edges"].size == 41

    def test_ks_improves_with_n(self):
        small = normality_diagnostic(*simulate_null((StatisticSpec("vn"),), 20, plan(3000)))
        large = normality_diagnostic(*simulate_null((StatisticSpec("vn"),), 1000, plan(3000)))
        assert large["ks_distance"] < small["ks_distance"]

    def test_takes_a_null_and_draws_nothing(self, monkeypatch):
        (nd,) = simulate_null((StatisticSpec("vn"),), 40, plan(1000))

        def no_draw(*args):
            raise AssertionError("the diagnostic drew its own null")
        monkeypatch.setattr(mc, "_simulate", no_draw)
        rep = normality_diagnostic(nd, bins=10)
        assert (rep["stat"], rep["n"], rep["replicates"], int(rep["counts"].sum())) == (
            "vn", 40, 1000, 1000)

    def test_minimum_replicates(self):
        (nd,) = simulate_null((StatisticSpec("vn"),), 100, plan(500))
        with pytest.raises(ValueError):
            normality_diagnostic(nd)

    def test_at_least_one_bin(self, nd):
        with pytest.raises(ValueError, match="bins must be >= 1"):
            normality_diagnostic(nd, bins=0)

    def test_at_most_one_bin_per_replicate(self, nd):
        with pytest.raises(ValueError, match=r"bins must be <= replicates \(4000\)"):
            normality_diagnostic(nd, bins=4001)

    def test_normal_cdf_matches_ndtr(self):
        # scipy.special.ndtr is the reference the scipy-free CDF replaced.
        z = np.linspace(-40.0, 40.0, 160001)
        assert np.max(np.abs(mc._normal_cdf(z) - ndtr(z))) <= 2.3e-16

    def test_ks_distance_matches_ndtr_reference(self):
        spec, p = StatisticSpec("ran"), plan(1500, seed=6)
        (nd,) = simulate_null((spec,), 50, p)
        rep = normality_diagnostic(nd)
        z = np.sort((nd.values - nd.values.mean()) / nd.values.std())
        cdf = ndtr(z)
        i = np.arange(1, z.size + 1)
        ks = np.max(np.maximum(i / z.size - cdf, cdf - (i - 1) / z.size))
        assert abs(rep["ks_distance"] - ks) <= 1e-15
