import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levygof.condmoments import (QuantileSplit, theoretical_qcm, theoretical_qcv,
                                 window_mean, window_var)
from levygof.distributions import LevyParams, sample_levy
from levygof.estimators import (METHODS, QCM_SPLIT_DEFAULT, QCV_SPLIT_DEFAULT,
                                EstimationError, cov, estimate, mle, qcm, qcv)
from levygof.streams import RandomStream


@pytest.fixture(scope="module")
def big_levy2():
    return sample_levy(LevyParams(c=2.0), 10**6, RandomStream(2024))


class TestConsistency:
    def test_qcm(self, big_levy2):
        est = estimate("qcm", big_levy2, QuantileSplit(0.02, 0.48))
        assert est.value == pytest.approx(2.0, abs=0.02)

    def test_qcv(self, big_levy2):
        est = estimate("qcv", big_levy2, QuantileSplit(0.0, 0.7))
        assert est.value == pytest.approx(2.0, abs=0.05)

    def test_mle(self, big_levy2):
        assert estimate("mle", big_levy2).value == pytest.approx(2.0, abs=0.01)

    def test_cov(self, big_levy2):
        assert estimate("cov", big_levy2).value == pytest.approx(2.0, abs=0.05)


SAMPLE = np.array([0.7, 2.3, 0.4, 9.1, 1.6, 5.5, 0.9, 3.2, 12.4, 0.2,
                   1.1, 4.4, 0.6, 2.9, 7.7, 1.9, 0.3, 6.1, 2.2, 3.8])


class TestEquivariance:
    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance_all(self, lam):
        for method in METHODS:
            base = estimate(method, SAMPLE).value
            assert estimate(method, lam * SAMPLE).value == pytest.approx(lam * base, rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(mu=st.floats(min_value=-100.0, max_value=100.0))
    def test_qcv_location_invariance(self, mu):
        base = estimate("qcv", SAMPLE).value
        assert estimate("qcv", SAMPLE + mu).value == pytest.approx(base, rel=1e-10)


class TestEdgeCases:
    def test_mle_of_constant_sample(self):
        assert estimate("mle", [4.0] * 8).value == pytest.approx(4.0)

    def test_positive_data_required(self):
        for method in ("mle", "cov"):
            with pytest.raises(EstimationError):
                estimate(method, [1.0, -2.0, 3.0])

    def test_tiny_values_rejected(self):
        for method in ("mle", "cov"):
            with pytest.raises(EstimationError):
                estimate(method, [1.0, 1e-310])

    def test_qcv_degenerate(self):
        with pytest.raises(EstimationError):
            estimate("qcv", [5.0] * 20, QuantileSplit(0.0, 0.5))

    def test_cov_needs_two(self):
        with pytest.raises(EstimationError):
            estimate("cov", [1.0])

    def test_estimates_positive(self):
        for method in METHODS:
            assert estimate(method, SAMPLE).value > 0.0

    def test_bad_method_or_window_is_not_an_estimation_error(self):
        for method, split in (("median", None), ("mle", QuantileSplit(0.1, 0.6)),
                              ("cov", QCM_SPLIT_DEFAULT)):
            with pytest.raises(ValueError) as info:
                estimate(method, SAMPLE, split)
            assert not isinstance(info.value, EstimationError)

    def test_method_in_any_case(self):
        assert estimate("QCM", SAMPLE) == estimate("qcm", SAMPLE)

    def test_split_recorded(self):
        s = QuantileSplit(0.1, 0.6)
        assert estimate("qcm", SAMPLE, s).split == s
        assert estimate("mle", SAMPLE).split is None


class TestRowKernels:
    """The scalar path is the one-row case of the row-wise kernels, exactly."""

    ROWS = np.vstack([sample_levy(LevyParams(c=1.5), 37, RandomStream(41, i))
                      for i in range(8)])

    def test_rows_equal_one_dimensional_calls(self):
        xs = np.sort(self.ROWS, axis=1)
        split = QuantileSplit(0.1, 0.65)
        for kernel, data in ((mle, self.ROWS), (cov, self.ROWS),
                             (lambda v: window_mean(v, split), xs),
                             (lambda v: window_var(v, split), xs),
                             (lambda v: qcm(v, split), xs), (lambda v: qcv(v, split), xs)):
            batch = kernel(data)
            assert batch.shape == (data.shape[0],)
            for i, row in enumerate(data):
                assert batch[i] == kernel(row)

    def test_estimates_equal_one_row_kernels(self):
        for row in self.ROWS:
            xs = np.sort(row)[None, :]
            assert estimate("mle", row).value == mle(row[None, :])[0]
            assert estimate("cov", row).value == cov(row[None, :])[0]
            assert estimate("qcm", row).value == (window_mean(xs, QCM_SPLIT_DEFAULT)[0]
                                                  / theoretical_qcm(QCM_SPLIT_DEFAULT, 1.0))
            assert estimate("qcv", row).value == np.sqrt(window_var(xs, QCV_SPLIT_DEFAULT)[0]
                                                         / theoretical_qcv(QCV_SPLIT_DEFAULT, 1.0))

    def test_cov_nan_where_covariance_not_positive(self):
        rows = np.vstack([self.ROWS[0], np.full(37, 2.0)])
        out = cov(rows)
        assert np.isfinite(out[0]) and np.isnan(out[1])
