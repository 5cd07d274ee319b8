import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfcinv

from levygof.distributions import (LevyParams, QuantileSplit, _erfcinv, levy_quantile,
                                   sample_levy, theoretical_qcm, theoretical_qcv,
                                   theoretical_second_moment)
from levygof.statistics import StatisticSpec, evaluate, evaluate_batch, window_indices
from levygof.streams import RandomStream
from oracles import qcmoment_quadrature_oracle


# Window mean and variance of one unsorted sample: the QCM and QCV rows of the
# kernel table times their Lv(1) window constants.
def wmean(x, split):
    return evaluate_batch(StatisticSpec("qcm", (split,)), [x])[0] * theoretical_qcm(split, 1.0)


def wvar(x, split):
    return evaluate_batch(StatisticSpec("qcv", (split,)), [x])[0] ** 2 * theoretical_qcv(split, 1.0)


# A grid of splits spanning tail, bulk, and boundary-touching windows.
SPLIT_GRID = [
    QuantileSplit(a, b)
    for a, b in [(0.0, 0.1), (0.0, 0.3), (0.0, 0.4), (0.0, 0.7), (0.0, 0.95),
                 (0.02, 0.48), (0.05, 0.2), (0.1, 0.5), (0.1, 0.9),
                 (0.2, 0.48), (0.2, 0.5), (0.25, 0.75), (0.3, 0.6),
                 (0.4, 0.9), (0.5, 0.95), (0.6, 0.8), (0.7, 0.99),
                 (0.8, 0.95), (0.9, 0.99), (0.01, 0.99)]
]


class TestSplit:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSplit(0.5, 0.5)
        with pytest.raises(ValueError):
            QuantileSplit(-0.1, 0.5)
        with pytest.raises(ValueError):
            QuantileSplit(0.2, 1.1)

    def test_open_top_required_for_theory(self):
        with pytest.raises(ValueError):
            theoretical_qcm(QuantileSplit(0.2, 1.0))


class TestErfcinv:
    # scipy.special.erfcinv is the reference the stdlib form replaced.
    @pytest.mark.parametrize("q", [0.02, 0.3, 0.4, 0.48, 0.7, 0.8, 0.95])
    def test_default_window_ends(self, q):
        assert _erfcinv(q) == pytest.approx(erfcinv(q), rel=2e-15)

    def test_grid(self):
        grid = np.concatenate([np.logspace(-300, -1, 300), np.linspace(0.0, 1.0, 1001)[1:-1]])
        ours = np.array([_erfcinv(q) for q in grid])
        assert np.max(np.abs(ours / erfcinv(grid) - 1.0)) < 2e-15

    @pytest.mark.parametrize("q", [0.0, 5e-324])
    def test_infinite_where_half_underflows(self, q):
        assert _erfcinv(q) == np.inf == erfcinv(q)


class TestTheoretical:
    def test_qcm_linear_in_c(self):
        s = QuantileSplit(0.1, 0.6)
        assert theoretical_qcm(s, 5.0) == pytest.approx(5.0 * theoretical_qcm(s, 1.0), rel=1e-14)

    def test_qcv_quadratic_in_c(self):
        s = QuantileSplit(0.1, 0.6)
        assert theoretical_qcv(s, 3.0) == pytest.approx(9.0 * theoretical_qcv(s, 1.0), rel=1e-13)

    @pytest.mark.parametrize("fn", [theoretical_qcm, theoretical_qcv], ids=["qcm", "qcv"])
    @pytest.mark.parametrize("c", [np.nan, np.inf, 0.0, -1.0, 1e-310])
    def test_scale_must_be_finite_and_positive(self, fn, c):
        with pytest.raises(ValueError, match=r"^scale c must be finite and >= 2\.225\d*e-308, "):
            fn(QuantileSplit(0.1, 0.6), c)

    def test_qcm_inside_window(self):
        s = QuantileSplit(0.1, 0.9)
        m = theoretical_qcm(s, 1.0)
        assert levy_quantile(0.1, LevyParams()) < m < levy_quantile(0.9, LevyParams())

    def test_qcv_positive_on_tail_window(self):
        assert theoretical_qcv(QuantileSplit(0.8, 0.95), 1.0) > 0.0

    @pytest.mark.parametrize("split", SPLIT_GRID, ids=lambda s: f"{s.a}-{s.b}")
    def test_closed_forms_match_quadrature(self, split):
        # The authoritative guard for both closed forms.
        assert theoretical_qcm(split, 1.0) == pytest.approx(
            qcmoment_quadrature_oracle(split, 1.0, order=1), abs=1e-8)
        m2 = qcmoment_quadrature_oracle(split, 1.0, order=2)
        assert theoretical_second_moment(split, 1.0) == pytest.approx(m2, abs=1e-8)

    def test_oracle_variance_nonnegative(self):
        for split in SPLIT_GRID:
            m1 = qcmoment_quadrature_oracle(split, 1.0, 1)
            m2 = qcmoment_quadrature_oracle(split, 1.0, 2)
            assert m2 >= m1 * m1 - 1e-12

    def test_oracle_narrow_window_is_quantile(self):
        a = 0.37
        val = qcmoment_quadrature_oracle(QuantileSplit(a, a + 1e-6), 1.0, 1)
        assert val == pytest.approx(levy_quantile(a, LevyParams()), rel=1e-4)


class TestSampleMoments:
    def test_qcm_hand_value(self):
        # n=10, window (0.2, 0.5): order statistics with index 3..5.
        assert wmean(list(range(1, 11)), QuantileSplit(0.2, 0.5)) == pytest.approx(4.0, rel=1e-15)

    def test_qcv_hand_value(self):
        assert wvar(list(range(1, 11)), QuantileSplit(0.2, 0.5)) == pytest.approx(2.0 / 3.0)

    def test_qcv_constant_sample(self):
        assert wvar([3.0] * 10, QuantileSplit(0.0, 0.9)) == 0.0

    def test_window_indices(self):
        assert window_indices(10, QuantileSplit(0.2, 0.5)) == (2, 5)
        assert window_indices(20, QuantileSplit(0.0, 0.3)) == (0, 6)

    def test_empty_window_error_names_min_n(self):
        with pytest.raises(ValueError, match="needs n >= 7"):
            wmean([1.0, 2.0], QuantileSplit(0.8, 0.95))

    def test_small_variance_window_error(self):
        with pytest.raises(ValueError):
            wvar([1.0, 2.0, 3.0], QuantileSplit(0.0, 0.4))

    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(min_value=0.01, max_value=100.0),
           mu=st.floats(min_value=-50.0, max_value=50.0))
    def test_affine_equivariance(self, lam, mu):
        x = np.array([0.3, 1.1, 2.7, 0.9, 5.4, 3.3, 0.1, 8.8, 2.2, 1.5])
        s = QuantileSplit(0.1, 0.8)
        base_m = wmean(x, s)
        base_v = wvar(x, s)
        assert wmean(lam * x + mu, s) == pytest.approx(lam * base_m + mu, rel=1e-9, abs=1e-9)
        assert wvar(lam * x + mu, s) == pytest.approx(lam**2 * base_v, rel=1e-9, abs=1e-12)

    def test_monotone_in_observations(self):
        x = np.array([0.3, 1.1, 2.7, 0.9, 5.4, 3.3, 0.1, 8.8, 2.2, 1.5])
        s = QuantileSplit(0.2, 0.7)
        bumped = x.copy()
        bumped[2] += 0.1  # preserves the ordering
        assert wmean(bumped, s) >= wmean(x, s)

    def test_consistency_large_sample(self):
        c = 2.0
        x = np.sort(sample_levy(LevyParams(c=c), 10**6, RandomStream(123)))
        s1 = QuantileSplit(0.02, 0.48)
        assert abs(wmean(x, s1) - theoretical_qcm(s1, c)) / theoretical_qcm(s1, c) < 0.01
        s2 = QuantileSplit(0.0, 0.7)
        assert abs(wvar(x, s2) - theoretical_qcv(s2, c)) / theoretical_qcv(s2, c) < 0.01


class TestValues:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="at least one observation"):
            evaluate(StatisticSpec("mle"), [])
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(StatisticSpec("mle"), [1.0, np.nan])
