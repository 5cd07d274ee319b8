import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levygof.condmoments import QuantileSplit, window_indices
from levygof.distributions import LevyParams, sample_levy
from levygof.estimators import EstimationError, mle
from levygof.statistics import STATISTIC_KINDS, StatisticSpec, evaluate, evaluate_batch
from levygof.streams import RandomStream

SAMPLE = sample_levy(LevyParams(c=3.0), 60, RandomStream(17))

ALL_SPECS = [StatisticSpec(kind) for kind in STATISTIC_KINDS]
CN = StatisticSpec("cn")


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

    def test_window_count(self):
        with pytest.raises(ValueError, match="takes 2 window"):
            StatisticSpec("on", (QuantileSplit(0.0, 0.3),))
        with pytest.raises(ValueError, match="takes 0 window"):
            StatisticSpec("vn", (QuantileSplit(0.5, 0.51),))

    def test_window_to_1_rejected(self):
        # Each window is scaled by its theoretical moment, which needs b < 1.
        with pytest.raises(ValueError, match="b < 1"):
            StatisticSpec("cn", (QuantileSplit(0.0, 0.4), QuantileSplit(0.8, 1.0)))

    def test_min_n_enforced(self):
        with pytest.raises(ValueError, match="needs n >="):
            evaluate(StatisticSpec("on"), [1.0, 2.0, 3.0])


# Windows at least 0.02 wide, so that n up to 150 reaches the bound, and
# below b = 1, which a statistic's window may not reach.
SPLITS = st.tuples(st.floats(min_value=0.0, max_value=0.97),
                   st.floats(min_value=0.02, max_value=1.0)).map(
    lambda t: QuantileSplit(t[0], min(0.99, t[0] + t[1])))


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
        for spec in ALL_SPECS:
            assert evaluate(spec, lam * SAMPLE) == pytest.approx(evaluate(spec, SAMPLE),
                                                                 rel=1e-10, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(min_value=-1e3, max_value=1e3))
    def test_cn_location_invariance(self, mu):
        assert evaluate(CN, SAMPLE + mu) == pytest.approx(evaluate(CN, SAMPLE),
                                                          rel=1e-10, abs=1e-10)

    def test_cn_accepts_nonpositive_data(self):
        # Location invariance means negative observations are legitimate.
        shifted = SAMPLE - SAMPLE.max()
        assert np.isfinite(evaluate(CN, shifted))


class TestScalarVsBatch:
    # Row k of a batch equals the one-row evaluation bit for bit, so Monte
    # Carlo results do not depend on chunking. At n = 250 the ran pair sum
    # runs in several row blocks and row groups.
    def test_batch_agrees_with_scalar(self):
        for n in (40, 250):
            rows = np.vstack([sample_levy(LevyParams(), n, RandomStream(5, i))
                              for i in range(40)])
            for kind in ("vn", "on", "tn", "cn", "ran", "deltan"):
                spec = StatisticSpec(kind)
                batch = evaluate_batch(spec, rows)
                for i in range(rows.shape[0]):
                    assert batch[i] == evaluate(spec, rows[i])

    def test_batch_marks_bad_rows_nan(self):
        rows = np.vstack([SAMPLE[:40], SAMPLE[:40]])
        rows[1, 3] = -1.0
        out = evaluate_batch(StatisticSpec("vn"), rows)
        assert np.isfinite(out[0]) and np.isnan(out[1])

    def test_scalar_raises_on_bad_sample(self):
        bad = SAMPLE[:40].copy()
        bad[0] = -2.0
        for kind in ("vn", "on", "tn", "ran", "deltan"):
            with pytest.raises(EstimationError):
                evaluate(StatisticSpec(kind), bad)


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
            evaluate(CN, [1.0] * 30)


# Dense O(B n^2) forms of the ran and deltan kernels: reference oracles for
# the blocked and sorted-prefix-sum kernels of levygof.statistics.

def _ran_dense(x, a):
    n = x.shape[1]
    s = x / mle(x)[:, None]
    pair = (a + (s[:, :, None] + s[:, None, :]) / 4.0) ** -2.5
    single = 0.5 * (a + s) ** -2.5
    ker = pair - single[:, :, None] - single[:, None, :]
    return 3.0 * np.sqrt(np.pi) / (4.0 * n * n) * ker.sum(axis=(1, 2))


def _deltan_dense(x):
    n = x.shape[1]
    c = mle(x)
    mn = np.minimum(x[:, :, None], x[:, None, :])
    k1 = mn / x[:, :, None]
    k2 = mn / x[:, :, None] ** 2
    idx = np.arange(n)
    k1[:, idx, idx] = 0.0
    k2[:, idx, idx] = 0.0
    u1 = k1.sum(axis=(1, 2)) / (n * (n - 1))
    u2 = k2.sum(axis=(1, 2)) / (n * (n - 1))
    return 1.5 * u1 - 0.5 * c * u2 - 0.5


def _dense(spec, x):
    """The oracle under evaluate_batch's failure policy."""
    with np.errstate(all="ignore"):
        out = _ran_dense(x, spec.tuning) if spec.kind == "ran" else _deltan_dense(x)
    out[(x <= 0.0).any(axis=1) | ~np.isfinite(out)] = np.nan
    return out


@st.composite
def _rows(draw):
    b = draw(st.integers(min_value=1, max_value=20))
    n = draw(st.integers(min_value=2, max_value=80))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    family = draw(st.sampled_from(["levy", "ties", "decades"]))
    if family == "levy":
        x = 1.0 / rng.standard_normal((b, n)) ** 2
    elif family == "ties":
        x = rng.integers(1, 4, size=(b, n)).astype(float)
    else:
        x = 10.0 ** rng.uniform(-100.0, 100.0, size=(b, n))
    if draw(st.booleans()):
        x[rng.integers(b), rng.integers(n)] = draw(st.sampled_from([0.0, -1.0, -1e-3]))
    return x


class TestPairKernels:
    @settings(max_examples=150, deadline=None)
    @given(x=_rows(), kind=st.sampled_from(["ran", "deltan"]),
           tuning=st.sampled_from([0.2, 0.05, 3.0]))
    def test_matches_dense_oracle(self, x, kind, tuning):
        spec = StatisticSpec(kind, tuning=tuning)
        fast, dense = evaluate_batch(spec, x), _dense(spec, x)
        bad = (x <= 0.0).any(axis=1)
        assert np.isnan(fast[bad]).all() and np.isnan(dense[bad]).all()
        np.testing.assert_array_equal(np.isnan(fast), np.isnan(dense))
        ok = ~np.isnan(dense)
        assert (np.abs(fast[ok] - dense[ok]) <= 1e-12 * (1.0 + np.abs(dense[ok]))).all()
        for k in range(x.shape[0]):
            assert np.array_equal(fast[k:k + 1], evaluate_batch(spec, x[k:k + 1]), equal_nan=True)

    @pytest.mark.parametrize("kind", ["ran", "deltan"])
    def test_memory_bounded(self, kind):
        # The dense forms held (B, n, n) arrays: ~1.5 GB for this matrix.
        rows = np.vstack([sample_levy(LevyParams(), 1000, RandomStream(9, i)) for i in range(64)])
        tracemalloc.start()
        try:
            out = evaluate_batch(StatisticSpec(kind), rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(out).all()
        assert peak <= 32 * 2**20
