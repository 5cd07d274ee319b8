import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levygof.condmoments import QuantileSplit, window_indices
from levygof.distributions import LevyParams, sample_levy
from levygof.estimators import EstimationError
from levygof.statistics import (StatisticSpec, evaluate, evaluate_batch,
                                stat_cn, stat_deltan, stat_on, stat_ran,
                                stat_tn, stat_vn)
from levygof.streams import RandomStream

SAMPLE = sample_levy(LevyParams(c=3.0), 60, RandomStream(17))

ALL_STATS = [stat_vn, stat_on, stat_tn, stat_cn, stat_ran, stat_deltan]


class TestSpec:
    def test_defaults(self):
        assert StatisticSpec("on").splits == (QuantileSplit(0.0, 0.3), QuantileSplit(0.8, 0.95))
        assert StatisticSpec("tn").splits == (QuantileSplit(0.02, 0.48),)
        assert StatisticSpec("cn").splits == (QuantileSplit(0.0, 0.4), QuantileSplit(0.8, 0.95))
        assert StatisticSpec("ran").tuning == 0.2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StatisticSpec("zn")

    def test_bad_tuning(self):
        with pytest.raises(ValueError):
            StatisticSpec("ran", tuning=0.0)

    def test_min_n_enforced(self):
        with pytest.raises(ValueError, match="needs n >="):
            evaluate(StatisticSpec("on"), [1.0, 2.0, 3.0])


# Windows at least 0.02 wide, so that n up to 150 reaches the bound.
SPLITS = st.tuples(st.floats(min_value=0.0, max_value=0.97),
                   st.floats(min_value=0.02, max_value=1.0)).map(
    lambda t: QuantileSplit(t[0], min(1.0, t[0] + t[1])))


class TestFeasibility:
    # floor(nb) - floor(na) is not monotone in n: this spec is feasible at
    # n = 5 but its second window is empty at n = 7.
    SPEC = StatisticSpec("on", (QuantileSplit(0.0, 0.3), QuantileSplit(0.3, 0.4)))

    def test_checked_at_the_actual_n(self):
        assert np.isfinite(evaluate(self.SPEC, [1.0, 2.0, 3.0, 4.0, 5.0]))
        with pytest.raises(ValueError, match=r"needs n >= 10, got 7; window \(0.3, 0.4\)"):
            evaluate(self.SPEC, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])

    def test_default_on_at_n6(self):
        StatisticSpec("on").check_n(6)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["on", "cn"]),
           splits=st.lists(SPLITS, min_size=2, max_size=2),
           n=st.integers(min_value=1, max_value=150))
    def test_accepts_exactly_the_feasible_n(self, kind, splits, n):
        spec = StatisticSpec(kind, tuple(splits))
        width = 2 if kind == "cn" else 1
        sizes = [j - i for i, j in (window_indices(n, s) for s in spec.splits)]
        feasible = n >= 2 and min(sizes) >= width
        try:
            spec.check_n(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == feasible
        bound = max(math.ceil(width / (s.b - s.a)) for s in spec.splits)
        for m in range(max(bound, 2), max(bound, 2) + 5):
            spec.check_n(m)


class TestInvariance:
    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, lam):
        for stat in ALL_STATS:
            assert stat(lam * SAMPLE) == pytest.approx(stat(SAMPLE), rel=1e-10, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(min_value=-1e3, max_value=1e3))
    def test_cn_location_invariance(self, mu):
        assert stat_cn(SAMPLE + mu) == pytest.approx(stat_cn(SAMPLE), rel=1e-10, abs=1e-10)

    def test_cn_accepts_nonpositive_data(self):
        # Location invariance means negative observations are legitimate.
        shifted = SAMPLE - SAMPLE.max()
        assert np.isfinite(stat_cn(shifted))


class TestScalarVsBatch:
    def test_batch_agrees_with_scalar(self):
        rows = np.vstack([sample_levy(LevyParams(), 40, RandomStream(5, i)) for i in range(6)])
        for kind in ("vn", "on", "tn", "cn", "ran", "deltan"):
            spec = StatisticSpec(kind)
            batch = evaluate_batch(spec, rows)
            for i in range(rows.shape[0]):
                assert batch[i] == pytest.approx(evaluate(spec, rows[i]), rel=1e-12)

    def test_batch_marks_bad_rows_nan(self):
        rows = np.vstack([SAMPLE[:40], SAMPLE[:40]])
        rows[1, 3] = -1.0
        out = evaluate_batch(StatisticSpec("vn"), rows)
        assert np.isfinite(out[0]) and np.isnan(out[1])

    def test_scalar_raises_on_bad_sample(self):
        bad = SAMPLE[:40].copy()
        bad[0] = -2.0
        for stat in (stat_vn, stat_on, stat_tn, stat_ran, stat_deltan):
            with pytest.raises(EstimationError):
                stat(bad)


class TestNullBehaviour:
    def test_null_centering_large_n(self):
        # Scale-ratio statistics concentrate near 0 under the null.
        b, n = 200, 1000
        rows = np.vstack([sample_levy(LevyParams(), n, RandomStream(31, i)) for i in range(b)])
        for kind in ("vn", "on", "tn"):
            vals = evaluate_batch(StatisticSpec(kind), rows)
            se = vals.std() / np.sqrt(b)
            assert abs(vals.mean()) < 4.0 * se + 0.1

    def test_deltan_small_under_null(self):
        rows = np.vstack([sample_levy(LevyParams(), 200, RandomStream(77, i)) for i in range(100)])
        vals = evaluate_batch(StatisticSpec("deltan"), rows)
        assert abs(np.median(vals)) < 0.1

    def test_constant_sample_fails_cn(self):
        with pytest.raises(EstimationError):
            stat_cn([1.0] * 30)
