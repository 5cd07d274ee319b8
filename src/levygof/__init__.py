"""Scale estimation and goodness-of-fit testing for the one-sided Levy law."""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it. A name is imported on
# first use (PEP 562), so `import levygof` alone loads no submodule and no
# NumPy, and changes no setting of the process.
_SUBMODULE = {name: module for module, names in [
    ("condmoments", "QuantileSplit theoretical_qcm theoretical_qcv"),
    ("datasets", "fixture_analysis fixture_raw"),
    ("distributions", "AlternativeSpec LevyParams levy_cdf levy_pdf levy_quantile "
                      "PAPER_ALTERNATIVES sample_alternative sample_levy"),
    ("condmoments", "EstimationError"),
    ("montecarlo", "NullDistribution ReplicationPlan calibrate normality_diagnostic "
                   "p_value null_grid power_grid power_study run_test simulate_null"),
    ("statistics", "StatisticSpec evaluate"),
    ("streams", "RandomStream"),
] for name in names.split()}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
