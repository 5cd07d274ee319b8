"""Scale estimation and goodness-of-fit testing for the one-sided Levy law."""

from .condmoments import EstimationError, QuantileSplit, theoretical_qcm, theoretical_qcv
from .datasets import fixture_analysis, fixture_raw
from .distributions import (PAPER_ALTERNATIVES, AlternativeSpec, LevyParams, levy_cdf, levy_pdf,
                            levy_quantile, sample_alternative, sample_levy)
from .montecarlo import (DiagnosticReport, NullDistribution, PowerCell,
                         ReplicationPlan, TestReport, calibrate,
                         normality_diagnostic, p_value, power_study, run_test,
                         power_grid, simulate_null)
from .statistics import ScaleEstimate, StatisticSpec, estimate, evaluate
from .streams import RandomStream

__version__ = "0.1.0"

__all__ = [
    "QuantileSplit", "theoretical_qcm", "theoretical_qcv",
    "fixture_analysis", "fixture_raw",
    "AlternativeSpec", "LevyParams", "levy_cdf", "levy_pdf", "levy_quantile",
    "PAPER_ALTERNATIVES", "sample_alternative", "sample_levy",
    "EstimationError", "ScaleEstimate", "estimate",
    "DiagnosticReport", "NullDistribution", "PowerCell", "ReplicationPlan",
    "TestReport", "calibrate", "normality_diagnostic", "p_value",
    "power_grid", "power_study", "run_test", "simulate_null",
    "StatisticSpec", "evaluate",
    "RandomStream",
]
