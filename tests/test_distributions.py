import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc
from scipy.stats import kstest, ks_2samp, pareto

from levygof.distributions import (ALTERNATIVE_FAMILIES, AlternativeSpec,
                                   LevyParams, levy_cdf, levy_pdf, levy_quantile,
                                   sample_alternative, sample_levy)
from levygof.streams import RandomStream
from oracles import alternative_cdf, sample_levy_inverse


class TestLevyKernel:
    def test_cdf_at_support_boundary(self):
        p = LevyParams(c=1.0, mu=3.0)
        assert levy_cdf(3.0, p) == 0.0
        assert levy_cdf(2.0, p) == 0.0

    def test_cdf_median(self):
        # Median of Lv(1) is 1/(0.75-quantile of N(0,1))^2.
        assert levy_cdf(2.198109, LevyParams()) == pytest.approx(0.5, abs=1e-6)

    def test_cdf_matches_scipy_erfc(self):
        # scipy.special.erfc is the reference the math.erfc form replaced;
        # erfc arguments run from 6 (x - mu = c/72) down to 1e-3.
        p = LevyParams(c=2.5, mu=-1.0)
        x = p.mu + p.c * np.logspace(np.log10(1.0 / 72.0), 5.7, 500)
        ref = erfc(np.sqrt(p.c / (2.0 * (x - p.mu))))
        assert np.max(np.abs(levy_cdf(x, p) / ref - 1.0)) < 1e-14

    def test_quantile_roundtrip(self):
        p = LevyParams(c=2.5, mu=-1.0)
        for prob in (0.1, 0.5, 0.9):
            assert levy_cdf(levy_quantile(prob, p), p) == pytest.approx(prob, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_quantile_roundtrip_relative(self, c):
        # Relative, not absolute: the CDF is tiny in the lower tail, so only a
        # relative bound sees a cancelling form such as 2 - 2*Phi(sqrt(c/t)).
        p = LevyParams(c=c)
        prob = np.concatenate([np.logspace(-15, -1, 57), np.linspace(0.1, 0.999, 50)])
        back = levy_cdf(levy_quantile(prob, p), p)
        assert np.max(np.abs(back - prob) / prob) < 1e-13

    def test_quantile_median(self):
        assert levy_quantile(0.5, LevyParams()) == pytest.approx(2.198109, abs=1e-6)

    def test_quantile_scale_and_shift(self):
        for prob in (0.05, 0.4, 0.95):
            base = levy_quantile(prob, LevyParams())
            assert levy_quantile(prob, LevyParams(c=3.0)) == pytest.approx(3.0 * base, rel=1e-14)
            assert levy_quantile(prob, LevyParams(mu=5.0)) == pytest.approx(5.0 + base, rel=1e-14)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                levy_quantile(bad, LevyParams())

    @pytest.mark.parametrize("x", [np.nan, np.array([0.25, np.nan, 0.75])],
                             ids=["scalar", "array"])
    def test_nan_is_propagated_or_rejected(self, x):
        # NaN is not below the support: the CDF and density are NaN there, and
        # a NaN probability is outside (0, 1).
        p = LevyParams()
        assert np.array_equal(np.isnan(levy_cdf(x, p)), np.isnan(x))
        assert np.array_equal(np.isnan(levy_pdf(x, p)), np.isnan(x))
        with pytest.raises(ValueError, match="0 < prob < 1"):
            levy_quantile(x, p)

    def test_pdf_outside_support(self):
        assert levy_pdf(-1.0, LevyParams()) == 0.0

    def test_pdf_is_zero_next_to_the_support_edge(self):
        # t**-1.5 overflows below t = 3.1e-206 while exp(-c/(2t)) underflows;
        # the density there is 0, not inf * 0 (a RuntimeWarning fails the test).
        out = levy_pdf(np.array([1e-300, 1e-210, 1e-3]), LevyParams())
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(np.sqrt(0.5 / np.pi) * 1e-3**-1.5 * np.exp(-500.0),
                                       rel=1e-13)

    def test_pdf_integrates_to_cdf(self):
        p = LevyParams(c=1.3)
        t = levy_quantile(0.99, p)
        val, _ = quad(lambda x: levy_pdf(x, p), 0.0, t, limit=200)
        assert val == pytest.approx(levy_cdf(t, p), abs=1e-8)

    def test_pdf_scale_family(self):
        x = np.linspace(0.1, 50, 200)
        c = 4.2
        left = levy_pdf(x, LevyParams(c=c))
        right = levy_pdf(x / c, LevyParams()) / c
        assert np.allclose(left, right, rtol=1e-13)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LevyParams(c=0.0)
        with pytest.raises(ValueError, match="2.2250738585072014e-308"):
            LevyParams(c=1e-310)  # subnormal
        with pytest.raises(ValueError):
            LevyParams(c=1.0, mu=np.inf)


class TestLevySampler:
    def test_determinism(self):
        s = RandomStream(42, 3)
        a = sample_levy(LevyParams(), 100, s)
        b = sample_levy(LevyParams(), 100, RandomStream(42, 3))
        assert a.tobytes() == b.tobytes()

    def test_large_sample_kolmogorov(self):
        x = sample_levy(LevyParams(), 10**6, RandomStream(7))
        d = kstest(x, lambda v: levy_cdf(v, LevyParams())).statistic
        assert d < 0.002

    def test_fast_vs_inverse_paths(self):
        a = sample_levy(LevyParams(c=2.0), 10**5, RandomStream(1, 0))
        b = sample_levy_inverse(LevyParams(c=2.0), 10**5, RandomStream(1, 1))
        assert ks_2samp(a, b).statistic < 0.01

    def test_bad_method_and_n(self):
        with pytest.raises(ValueError):
            sample_levy(LevyParams(), 0, RandomStream(0))
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_alternative(AlternativeSpec("gamma", (2.0, 3.0)), 0, RandomStream(0))


SPECS = [
    AlternativeSpec("gamma", (2.0, 3.0)),
    AlternativeSpec("chisquared", (4.0,)),
    AlternativeSpec("weibull", (1.75, 1.0)),
    AlternativeSpec("lognormal", (0.0, 1.0)),
    AlternativeSpec("pareto", (0.75, 1.0)),
    AlternativeSpec("pareto", (1.5, 0.5)),
    AlternativeSpec("rayleigh", (1.0,)),
    AlternativeSpec("halfnormal", (1.0,)),
    AlternativeSpec("frechet", (0.0, 0.5, 1.0)),
    AlternativeSpec("absloggamma", (3.0, 2.0)),
    AlternativeSpec("invgaussian", (1.0, 1.5)),
    AlternativeSpec("burr", (1.5, 0.5, 0.5)),
]


LAWS = [LevyParams(), LevyParams(2.0, 0.5), *SPECS]


def _draw(law, *args):
    return (sample_levy if isinstance(law, LevyParams) else sample_alternative)(law, *args)


class TestBlockDraws:
    def test_laws_cover_every_family(self):
        assert {spec.family for spec in SPECS} == set(ALTERNATIVE_FAMILIES)

    # Row k of a block is the one-stream draw of stream first + k, bit for bit.
    @pytest.mark.parametrize("rows", [1, 3, 513])
    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_block_equals_the_one_stream_draws(self, law, rows):
        n, first = 31, 7
        block = _draw(law, n, RandomStream(11, first), rows)
        alone = np.vstack([_draw(law, n, RandomStream(11, first + k)) for k in range(rows)])
        assert block.shape == (rows, n)
        assert np.array_equal(block, alone)


class TestAlternatives:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    def test_sampler_matches_cdf(self, spec):
        x = sample_alternative(spec, 10**5, RandomStream(11))
        d = kstest(x, lambda v: alternative_cdf(spec, v)).statistic
        assert d < 0.01

    def test_pareto_support(self):
        # (alpha, sigma) = (0.75, 1.0): support starts at the scale 1.0.
        x = sample_alternative(AlternativeSpec("pareto", (0.75, 1.0)), 1000, RandomStream(2))
        assert x.min() >= 1.0

    def test_pareto_parameter_order(self):
        # Checked against scipy directly, not through the alternative_cdf
        # oracle of tests/oracles.py, so a swap made in both the sampler and
        # that CDF is still caught.
        x = sample_alternative(AlternativeSpec("pareto", (0.75, 1.0)), 10**5, RandomStream(13))
        assert kstest(x, pareto(b=0.75, scale=1.0).cdf).statistic < 0.01

    def test_gamma_mean(self):
        x = sample_alternative(AlternativeSpec("gamma", (2.0, 3.0)), 10**6, RandomStream(3))
        assert x.mean() == pytest.approx(6.0, abs=0.02)

    def test_all_supports_nonnegative(self):
        for spec in SPECS:
            x = sample_alternative(spec, 2000, RandomStream(5))
            assert x.min() >= 0.0, spec.label()

    def test_non_finite_draws_stand_without_a_warning(self):
        # Frechet with a tiny shape draws Weibull zeros, so 1/0 = inf.
        spec = AlternativeSpec("frechet", (0.0, 1.0, 1e-300))
        x = sample_alternative(spec, 50, RandomStream(4))
        with np.errstate(all="ignore"):
            expected = RandomStream(4).generator().weibull(1e-300, size=50) ** -1.0
        assert np.isinf(x).any()
        assert np.array_equal(x, expected)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            AlternativeSpec("cauchy", (1.0,))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            AlternativeSpec("gamma", (2.0,))

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ValueError):
            AlternativeSpec("frechet", (0.0, 0.5, 0.0))

    def test_name_normalization(self):
        assert AlternativeSpec("Half-Normal", (1.0,)).family == "halfnormal"


@settings(max_examples=25, deadline=None)
@given(prob=st.floats(min_value=1e-6, max_value=1 - 1e-6),
       c=st.floats(min_value=1e-3, max_value=1e3))
def test_cdf_quantile_identity_property(prob, c):
    p = LevyParams(c=c)
    assert abs(levy_cdf(levy_quantile(prob, p), p) - prob) < 1e-12
