import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levygof.distributions import LevyParams, QuantileSplit, sample_levy
from levygof.montecarlo import ReplicationPlan, simulate_null
from levygof.statistics import (METHODS, QCM_SPLIT_DEFAULT, EstimationError, StatisticSpec,
                                evaluate, evaluate_batch)
from levygof.streams import RandomStream


@pytest.fixture(scope="module")
def big_levy2():
    return sample_levy(LevyParams(c=2.0), 10**6, RandomStream(2024))


class TestConsistency:
    def test_qcm(self, big_levy2):
        est = evaluate(StatisticSpec("qcm", (QuantileSplit(0.02, 0.48),)), big_levy2)
        assert est == pytest.approx(2.0, abs=0.02)

    def test_qcv(self, big_levy2):
        est = evaluate(StatisticSpec("qcv", (QuantileSplit(0.0, 0.7),)), big_levy2)
        assert est == pytest.approx(2.0, abs=0.05)

    def test_mle(self, big_levy2):
        assert evaluate(StatisticSpec("mle"), big_levy2) == pytest.approx(2.0, abs=0.01)

    def test_cov(self, big_levy2):
        assert evaluate(StatisticSpec("cov"), big_levy2) == pytest.approx(2.0, abs=0.05)


SAMPLE = np.array([0.7, 2.3, 0.4, 9.1, 1.6, 5.5, 0.9, 3.2, 12.4, 0.2,
                   1.1, 4.4, 0.6, 2.9, 7.7, 1.9, 0.3, 6.1, 2.2, 3.8])


class TestEquivariance:
    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance_all(self, lam):
        for method in METHODS:
            spec = StatisticSpec(method)
            assert evaluate(spec, lam * SAMPLE) == pytest.approx(lam * evaluate(spec, SAMPLE),
                                                                 rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(mu=st.floats(min_value=-100.0, max_value=100.0))
    def test_qcv_location_invariance(self, mu):
        base = evaluate(StatisticSpec("qcv"), SAMPLE)
        assert evaluate(StatisticSpec("qcv"), SAMPLE + mu) == pytest.approx(base, rel=1e-10)


class TestEdgeCases:
    def test_mle_of_constant_sample(self):
        assert evaluate(StatisticSpec("mle"), [4.0] * 8) == pytest.approx(4.0)

    def test_positive_data_required(self):
        for method in ("mle", "cov"):
            with pytest.raises(EstimationError):
                evaluate(StatisticSpec(method), [1.0, -2.0, 3.0])

    def test_tiny_values_rejected(self):
        for method in ("mle", "cov"):
            with pytest.raises(EstimationError):
                evaluate(StatisticSpec(method), [1.0, 1e-310])

    def test_qcv_degenerate(self):
        with pytest.raises(EstimationError, match=f"^{re.escape(METHODS['qcv'])}$"):
            evaluate(StatisticSpec("qcv", (QuantileSplit(0.0, 0.5),)), [5.0] * 20)

    def test_cov_needs_two(self):
        with pytest.raises(EstimationError):
            evaluate(StatisticSpec("cov"), [1.0])

    def test_mle_of_one_observation(self):
        assert evaluate(StatisticSpec("mle"), [3.5]) == 3.5

    def test_short_window_is_an_estimation_error(self):
        with pytest.raises(EstimationError, match="statistic qcv needs n >= 3, got 2"):
            evaluate(StatisticSpec("qcv"), [1.0, 2.0])

    def test_estimates_positive(self):
        for method in METHODS:
            assert evaluate(StatisticSpec(method), SAMPLE) > 0.0

    def test_bad_method_or_window_is_not_an_estimation_error(self):
        for method, splits in (("median", ()), ("mle", (QuantileSplit(0.1, 0.6),)),
                               ("cov", (QCM_SPLIT_DEFAULT,))):
            with pytest.raises(ValueError) as info:
                evaluate(StatisticSpec(method, splits), SAMPLE)
            assert not isinstance(info.value, EstimationError)

    def test_unknown_method_names_the_kind(self):
        with pytest.raises(ValueError, match="unknown statistic kind: 'median'"):
            StatisticSpec("median")

    def test_method_in_any_case(self):
        assert StatisticSpec("QCM") == StatisticSpec("qcm")
        assert evaluate(StatisticSpec("QCM"), SAMPLE) == evaluate(StatisticSpec("qcm"), SAMPLE)


class TestRowKernels:
    """The scalar path is the one-row case of the row-wise kernels, exactly."""

    ROWS = np.vstack([sample_levy(LevyParams(c=1.5), 37, RandomStream(41, i))
                      for i in range(8)])

    def test_estimates_equal_one_row_kernels(self):
        for method in METHODS:
            spec = StatisticSpec(method)
            batch = evaluate_batch(spec, self.ROWS)
            for i, row in enumerate(self.ROWS):
                assert evaluate(spec, row) == batch[i]

    def test_cov_nan_where_covariance_not_positive(self):
        rows = np.vstack([self.ROWS[0], np.full(37, 2.0)])
        out = evaluate_batch(StatisticSpec("cov"), rows)
        assert np.isfinite(out[0]) and np.isnan(out[1])


class TestEngine:
    """The estimators are rows of the statistic table, so the Monte Carlo
    engine simulates them like any statistic."""

    def test_simulate_null_equals_per_replicate_estimates(self):
        specs = tuple(StatisticSpec(m) for m in METHODS)
        n, b, seed = 20, 600, 7  # two chunks, the second a short one
        nulls = simulate_null(specs, n, ReplicationPlan(seed, b), c=2.0)
        rows = [sample_levy(LevyParams(c=2.0), n, RandomStream(seed, i)) for i in range(b)]
        for spec, nd in zip(specs, nulls):
            expected = np.sort([evaluate(spec, row) for row in rows])
            assert nd.spec == spec
            assert np.array_equal(nd.values, expected)
