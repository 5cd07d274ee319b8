import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp

import levygof.montecarlo as mc
from levygof.distributions import AlternativeSpec, sample_alternative
from levygof.montecarlo import (CHUNK, MonteCarloError, ReplicationPlan, calibrate,
                                normality_diagnostic, p_value, power_study,
                                run_test, simulate_null)
from levygof.statistics import STATISTIC_KINDS, StatisticSpec, evaluate_batch
from levygof.streams import RandomStream


def plan(b, seed=100, workers=1):
    return ReplicationPlan(seed, b, workers)


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationPlan(1, 0)
        with pytest.raises(ValueError):
            ReplicationPlan(1, 10, 0)
        with pytest.raises(ValueError):
            ReplicationPlan(-1, 10)


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

        def draw(params, n, stream):
            x = real(params, n, stream)
            if stream.stream_index == 5:
                x[0] = -1.0
            return x
        monkeypatch.setattr(mc, "sample_levy", draw)
        with pytest.raises(MonteCarloError, match="statistic vn failed on null replicate 5"):
            simulate_null((StatisticSpec("cn"), StatisticSpec("vn")), 20, plan(50))


@pytest.fixture(scope="module")
def nd():
    (nd,) = simulate_null((StatisticSpec("vn"),), 30, plan(4000))
    return nd


class TestCalibrationAndP:
    def test_thresholds_are_equal_tail_quantiles(self, nd):
        lower, upper = calibrate(nd, 0.05)
        inside = np.mean((nd.values >= lower) & (nd.values <= upper))
        assert inside == pytest.approx(0.95, abs=0.01)
        assert lower < upper

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
        lower, upper = calibrate(nd, 0.05)
        (fresh,) = simulate_null((StatisticSpec("vn"),), 30, plan(4000, seed=555))
        rate = np.mean((fresh.values < lower) | (fresh.values > upper))
        se = np.sqrt(0.05 * 0.95 / 4000)
        assert abs(rate - 0.05) < 3 * se


class TestRunTest:
    def test_report_fields_consistent(self):
        data = 1.0 / np.linspace(0.21, 3.0, 25) ** 2
        (rep,) = run_test((StatisticSpec("vn"),), data, 0.05, plan(2000))
        assert 0.0 < rep.p <= 1.0
        assert rep.reject == (not rep.lower <= rep.value <= rep.upper)


class TestPower:
    def test_far_alternative_high_power(self):
        (cell,) = power_study(simulate_null((StatisticSpec("on"),), 50, plan(2000)),
                              AlternativeSpec("halfnormal", (1.0,)), 0.05)
        assert cell.power > 0.95

    def test_null_alternative_is_level(self):
        # Feeding a Levy-like inverse-gamma-(1/2)-free proxy is not available;
        # instead check the power against a close alternative stays in [0, 1].
        (cell,) = power_study(simulate_null((StatisticSpec("vn"),), 30, plan(2000)),
                              AlternativeSpec("lognormal", (0.0, 1.0)), 0.05)
        assert 0.0 <= cell.power <= 1.0
        assert cell.std_error < 0.02

    def test_power_monotone_in_n(self):
        spec = StatisticSpec("vn")
        alt = AlternativeSpec("lognormal", (0.0, 1.0))
        (p20,) = power_study(simulate_null((spec,), 20, plan(3000)), alt, 0.05)
        (p250,) = power_study(simulate_null((spec,), 250, plan(3000)), alt, 0.05)
        combined_se = 2 * (p20.std_error + p250.std_error)
        assert p250.power >= p20.power - combined_se

    def test_alternative_draws_the_streams_after_the_null(self):
        # Replicate i of the alternative is drawn from stream (seed, B + i).
        spec, alt, n, b, level = (StatisticSpec("tn"), AlternativeSpec("pareto", (0.75, 1.0)),
                                  20, 600, 0.05)
        (null,) = simulate_null((spec,), n, plan(b, seed=7, workers=2))
        (cell,) = power_study((null,), alt, level)
        x = np.stack([sample_alternative(alt, n, RandomStream(7, b + i)) for i in range(b)])
        vals = evaluate_batch(spec, x)
        lower, upper = calibrate(null, level)
        with np.errstate(invalid="ignore"):
            reject = ~((vals >= lower) & (vals <= upper))
        assert cell.power == float(np.mean(reject))
        assert cell.failed_replicates == int(np.sum(~np.isfinite(vals)))
        assert (cell.kind, cell.n, cell.replicates) == ("tn", n, b)


class TestDiagnostics:
    def test_counts_sum_to_replicates(self):
        rep = normality_diagnostic(StatisticSpec("vn"), 100, plan(2000), bins=40)
        assert rep.counts.sum() == 2000
        assert rep.bin_edges.size == 41

    def test_ks_improves_with_n(self):
        small = normality_diagnostic(StatisticSpec("vn"), 20, plan(3000))
        large = normality_diagnostic(StatisticSpec("vn"), 1000, plan(3000))
        assert large.ks_distance < small.ks_distance

    def test_minimum_replicates(self):
        with pytest.raises(ValueError):
            normality_diagnostic(StatisticSpec("vn"), 100, plan(500))

    def test_normal_cdf_matches_ndtr(self):
        # scipy.special.ndtr is the reference the scipy-free CDF replaced.
        z = np.linspace(-40.0, 40.0, 160001)
        assert np.max(np.abs(mc._normal_cdf(z) - ndtr(z))) <= 2.3e-16

    def test_ks_distance_matches_ndtr_reference(self):
        spec, p = StatisticSpec("ran"), plan(1500, seed=6)
        rep = normality_diagnostic(spec, 50, p)
        (nd,) = simulate_null((spec,), 50, p)
        z = np.sort((nd.values - nd.values.mean()) / nd.values.std())
        cdf = ndtr(z)
        i = np.arange(1, z.size + 1)
        ks = np.max(np.maximum(i / z.size - cdf, cdf - (i - 1) / z.size))
        assert abs(rep.ks_distance - ks) <= 1e-15
