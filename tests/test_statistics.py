import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levygof import statistics
from levygof.distributions import LevyParams, QuantileSplit, sample_levy
from levygof.statistics import (_EXP_SUM_N, _EXP_TAU, _EXP_W, _KERNELS, METHODS, STATISTIC_KINDS,
                                Batch, EstimationError, StatisticSpec, _shift_pairs, evaluate,
                                evaluate_batch, window_bound, window_indices)
from levygof.streams import RandomStream
from oracles import cn_unscaled, exp_pairs_77, qcv_unscaled, shift_pairs_in_blocks

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

    @pytest.mark.parametrize("tuning", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tuning(self, tuning):
        with pytest.raises(ValueError, match="tuning"):
            StatisticSpec("ran", tuning=tuning)

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

    def test_bound_of_a_subnormal_window_is_exact(self):
        # width / (b - a) overflows a float here.
        expected = math.ceil(Fraction(2) / Fraction(5e-324))
        assert window_bound(QuantileSplit(0.0, 5e-324), 2) == expected

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


class TestMagnitude:
    # Squared deviations overflow above ~1e154 and underflow below ~1e-154,
    # so cn and qcv scale each row by a power of two before their window
    # variances. At x * 10**k every statistic equals its value at x, and every
    # estimator is 10**k times its value.
    ROWS = sample_levy(LevyParams(), 50, RandomStream(23), 200)

    @pytest.mark.parametrize("k", [-300, -200, -100, 100, 200, 290])
    @pytest.mark.parametrize("kind", list(_KERNELS))
    def test_every_kind_at_any_magnitude(self, kind, k):
        spec = StatisticSpec(kind)
        base = evaluate_batch(spec, self.ROWS)
        scaled = evaluate_batch(spec, self.ROWS * 10.0**k)
        if kind in METHODS:
            scaled /= 10.0**k
        assert np.all(np.isfinite(base))
        assert np.all(np.abs(scaled - base) <= 1e-9 * (1.0 + np.abs(base)))

    def test_values_outside_the_windows_are_not_scaled(self):
        # Only the window is scaled: the tail above qcv's (0, 0.7) window and
        # the head below a high window stay as they are, so neither overflows
        # (the suite turns a RuntimeWarning into a failure).
        low, high = QuantileSplit(0.0, 0.7), QuantileSplit(0.2, 0.99)
        xs = np.array([[1e-300, 2e-300, 3e-300, 1e10]])
        assert np.allclose(evaluate_batch(StatisticSpec("qcv", (low,)), xs),
                           qcv_unscaled(np.array([[1.0, 2.0, 3.0, 4.0]]), low) * 1e-300)
        ys = np.array([[-1e300, 1e-300, 2e-300, 3e-300, 4e-300]])
        assert np.allclose(evaluate_batch(StatisticSpec("qcv", (high,)), ys),
                           qcv_unscaled(np.array([[0.0, 1.0, 2.0, 3.0, 4.0]]), high) * 1e-300)
        spread = np.concatenate([[1e-300], np.linspace(1.0, 2.0, 48), [1e300]])
        rows = np.stack([spread, spread * 1e-250])
        cn = evaluate_batch(StatisticSpec("cn"), rows)
        assert np.all(np.isfinite(cn)) and np.isclose(cn[0], cn[1], rtol=1e-12)

    def test_cn_and_qcv_equal_the_unscaled_forms(self):
        # Scaling by a power of two is exact, so at ordinary magnitudes no
        # value moves.
        rows = np.sort(sample_levy(LevyParams(), 50, RandomStream(29), 4000), axis=1)
        qcv, cn = StatisticSpec("qcv"), StatisticSpec("cn")
        assert np.array_equal(evaluate_batch(qcv, rows), qcv_unscaled(rows, *qcv.splits))
        assert np.array_equal(evaluate_batch(cn, rows), cn_unscaled(rows, *cn.splits))


class TestScalarVsBatch:
    # Row k of a batch equals the one-row evaluation bit for bit, so Monte
    # Carlo results do not depend on chunking. At n = 100 and 250 the ran pair
    # sum runs in several shift blocks and row groups; odd n = 31 has no half
    # shift.
    def test_batch_agrees_with_scalar(self):
        for n in (31, 40, 100, 250):
            rows = np.vstack([sample_levy(LevyParams(), n, RandomStream(5, i))
                              for i in range(40)])
            for kind in ("vn", "on", "tn", "cn", "ran", "deltan"):
                spec = StatisticSpec(kind)
                batch = evaluate_batch(spec, rows)
                for i in range(rows.shape[0]):
                    assert batch[i] == evaluate(spec, rows[i])

    def test_shared_batch_changes_no_value(self):
        # Every kind in turn reads one Batch, an estimator first, so each finds
        # the intermediates of the kinds before it. Each result must equal the
        # kind evaluated alone, and be the caller's own to overwrite.
        rows = sample_levy(LevyParams(), 60, RandomStream(3, 1), 12)
        rows[1, 4] = -0.5
        rows[2] = 2.0
        shared = Batch(rows)
        for kind in ["mle", *(k for k in (*METHODS, *STATISTIC_KINDS) if k != "mle")]:
            spec = StatisticSpec(kind)
            out = evaluate_batch(spec, rows, shared)
            alone = evaluate_batch(spec, rows.copy())
            assert np.array_equal(out, alone, equal_nan=True), kind
            out[:] = -7.0

    def test_batch_of_other_rows_is_refused(self):
        rows = np.vstack([SAMPLE[:40], SAMPLE[20:]])
        with pytest.raises(ValueError, match="other rows"):
            evaluate_batch(StatisticSpec("vn"), rows, Batch(rows.copy()))

    def test_batch_needs_a_matrix(self):
        with pytest.raises(ValueError, match=r"expected a \(B, n\) matrix"):
            Batch(np.ones(3))

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
# the cyclic-shift and sorted-prefix-sum kernels of levygof.statistics. They
# compute the MLE inline, so they share no code with the kernels.

def _ran_dense(x, a):
    n = x.shape[1]
    s = x / (1 / (1 / x).mean(axis=1))[:, None]
    pair = (a + (s[:, :, None] + s[:, None, :]) / 4.0) ** -2.5
    single = 0.5 * (a + s) ** -2.5
    ker = pair - single[:, :, None] - single[:, None, :]
    return 3.0 * np.sqrt(np.pi) / (4.0 * n * n) * ker.sum(axis=(1, 2))


def _deltan_dense(x):
    n = x.shape[1]
    c = 1 / (1 / x).mean(axis=1)
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


def _family_rows(family, rng, b, n):
    if family == "levy":
        return 1.0 / rng.standard_normal((b, n)) ** 2
    if family == "ties":
        return rng.integers(1, 4, size=(b, n)).astype(float)
    # Spans 200 decades, so (q_i + q_j) ** 2.5 overflows for some pairs.
    return 10.0 ** rng.uniform(-100.0, 100.0, size=(b, n))


def _pair_q(x, tuning):
    """The q of `ran`'s pair term: a / 2 + s / 4 on the MLE-scaled rows."""
    return x / (1 / (1 / x).mean(axis=1))[:, None] / 4.0 + tuning / 2.0


@st.composite
def _rows(draw):
    b = draw(st.integers(min_value=1, max_value=20))
    n = draw(st.integers(min_value=2, max_value=80))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = _family_rows(draw(st.sampled_from(["levy", "ties", "decades"])), rng, b, n)
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

    @pytest.mark.parametrize("family", ["levy", "ties", "decades"])
    @pytest.mark.parametrize("tuning", [1e-200, 0.05, 0.2, 3.0, 1e3])
    @pytest.mark.parametrize("n", [_EXP_SUM_N - 1, _EXP_SUM_N, 250, 251, 1000])
    def test_ran_matches_dense_oracle_in_several_blocks(self, n, tuning, family):
        # The strategy above draws n up to 80. These cases reach further: at
        # _EXP_SUM_N - 1, the largest n of the shift kernel, all n // 2
        # shifts of the rows are one block; from _EXP_SUM_N on the pair term
        # is the exponential sum, most of whose node generations are squares
        # of the one before.
        x = _family_rows(family, np.random.default_rng(n), 3 if n == 1000 else 8, n)
        spec = StatisticSpec("ran", tuning=tuning)
        fast, dense = evaluate_batch(spec, x), _dense(spec, x)
        assert np.isfinite(dense).all()
        assert (np.abs(fast - dense) <= 1e-12 * (1.0 + np.abs(dense))).all()

    @pytest.mark.parametrize("n", [_EXP_SUM_N, 251, 1000])
    def test_ran_exp_sum_is_the_same_in_any_batch(self, n):
        rows = sample_levy(LevyParams(), n, RandomStream(4, 0), 512)
        rows[3, 5] = 0.0
        rows[9, 0] = -1.0
        out = evaluate_batch(StatisticSpec("ran"), rows)
        assert np.isnan(out[[3, 9]]).all()
        assert np.isfinite(np.delete(out, [3, 9])).all()
        for size in (1, 7):
            for r0 in (0, 3, 505):
                part = evaluate_batch(StatisticSpec("ran"), rows[r0:r0 + size].copy())
                assert np.array_equal(part, out[r0:r0 + size], equal_nan=True)

    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_shift_kernel_equals_the_block_reference(self, rows):
        # All shifts of a row group in one block give the bytes of the earlier
        # kernel, which summed blocks of shifts into a zeroed vector.
        rng = np.random.default_rng(rows)
        for family in ("levy", "ties", "decades"):
            for n in range(2, _EXP_SUM_N):
                q = _pair_q(_family_rows(family, rng, rows, n), 0.2)
                with np.errstate(all="ignore"):
                    assert np.array_equal(_shift_pairs(q), shift_pairs_in_blocks(q)), (family, n)

    @pytest.mark.parametrize("family", ["levy", "ties", "decades"])
    @pytest.mark.parametrize("tuning", [1e-200, 0.2, 1e3])
    @pytest.mark.parametrize("n", [64, 100, 127, 128, 250, 1000])
    def test_ran_stays_near_the_77_node_reference(self, monkeypatch, n, tuning, family):
        x = _family_rows(family, np.random.default_rng(n), 3 if n == 1000 else 8, n)
        spec = StatisticSpec("ran", tuning=tuning)
        fast = evaluate_batch(spec, x)
        # The reference takes the exponential sum at every n.
        monkeypatch.setattr(statistics, "_EXP_SUM_N", 2)
        monkeypatch.setattr(statistics, "_exp_pairs", exp_pairs_77)
        ref = evaluate_batch(spec, x)
        assert np.isfinite(ref).all()
        assert (np.abs(fast - ref) <= 1e-13 * (1.0 + np.abs(ref))).all()

    def test_exp_nodes_double_every_third(self):
        assert np.array_equal(_EXP_TAU[3:], 2.0 * _EXP_TAU[:-3])

    @pytest.mark.parametrize("family", ["levy", "ties", "decades"])
    @pytest.mark.parametrize("tuning", [1e-200, 0.2, 1e3])
    @pytest.mark.parametrize("n", [_EXP_SUM_N, 250, 1000])
    def test_squares_match_an_exp_per_node(self, monkeypatch, n, tuning, family):
        # Each generation squared from the one before, against an exp for
        # every generation.
        q = _pair_q(_family_rows(family, np.random.default_rng(n + 1), 40, n), tuning)
        with np.errstate(all="ignore"):
            chained = statistics._exp_pairs(q)
            monkeypatch.setattr(statistics, "_EXP_REFRESH", 1)
            direct = statistics._exp_pairs(q)
        assert (np.abs(chained - direct) <= 1e-14 * direct).all()

    def test_exp_sum_nodes(self):
        # sum_k w_k exp(-V tau_k) against V^-2.5 for pair sums V >= 1. The cut
        # at t = -15 leaves an error floor near 1.2e-17: the bound is relative
        # where V^-2.5 >= 1e-3 (V <= 15.8), absolute beyond.
        v = np.logspace(0.0, 8.0, 961)
        approx = (_EXP_W * np.exp(-v[:, None] * _EXP_TAU)).sum(axis=1)
        exact = v ** -2.5
        err = np.abs(approx - exact)
        big = exact >= 1e-3
        assert (err[big] <= 3e-14 * exact[big]).all()
        assert (err[~big] <= 3e-17).all()

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
