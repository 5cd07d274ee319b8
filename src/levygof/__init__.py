"""Scale estimation and goodness-of-fit testing for the one-sided Levy law."""

from .condmoments import (QuantileSplit, Sample, qcmoment_quadrature_oracle,
                          sample_qcm, sample_qcv, theoretical_qcm, theoretical_qcv)
from .datasets import fixture_analysis, fixture_raw
from .distributions import (AlternativeSpec, LevyParams, levy_cdf, levy_pdf,
                            levy_quantile, sample_alternative, sample_levy)
from .estimators import (EstimationError, ScaleEstimate, estimate_cov,
                         estimate_mle, estimate_qcm, estimate_qcv)
from .montecarlo import (DiagnosticReport, NullDistribution, PowerCell,
                         ReplicationPlan, TestReport, calibrate,
                         normality_diagnostic, p_value, power_study, run_test,
                         simulate_null)
from .statistics import (StatisticSpec, stat_cn, stat_deltan, stat_on,
                         stat_ran, stat_tn, stat_vn)
from .streams import RandomStream

__version__ = "0.1.0"

__all__ = [
    "QuantileSplit", "Sample", "qcmoment_quadrature_oracle", "sample_qcm",
    "sample_qcv", "theoretical_qcm", "theoretical_qcv",
    "fixture_analysis", "fixture_raw",
    "AlternativeSpec", "LevyParams", "levy_cdf", "levy_pdf", "levy_quantile",
    "sample_alternative", "sample_levy",
    "EstimationError", "ScaleEstimate", "estimate_cov", "estimate_mle",
    "estimate_qcm", "estimate_qcv",
    "DiagnosticReport", "NullDistribution", "PowerCell", "ReplicationPlan",
    "TestReport", "calibrate", "normality_diagnostic", "p_value",
    "power_study", "run_test", "simulate_null",
    "StatisticSpec", "stat_cn", "stat_deltan", "stat_on", "stat_ran",
    "stat_tn", "stat_vn",
    "RandomStream",
]
