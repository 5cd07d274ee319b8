"""Every name a levygof module exports in `__all__` must exist, each
module's `__all__` is a fixed set, and so are the private names one module
imports from another.

A stale entry makes `from levygof import *` (or from the module) raise, so a
removal that forgets `__all__` fails here. A name added to or removed from a
public surface fails `test_public_surface` until `PUBLIC_NAMES` is edited, and
a new private import between modules fails `test_private_cross_module_imports`
until its set is edited.
"""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import levygof

MODULES = ["levygof"] + [f"levygof.{m.name}" for m in pkgutil.iter_modules(levygof.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)  # noqa: S102
    assert set(module.__all__) <= set(namespace)


PUBLIC_NAMES = {
    "levygof": {
        "QuantileSplit", "theoretical_qcm", "theoretical_qcv", "fixture_analysis", "fixture_raw",
        "AlternativeSpec", "LevyParams", "levy_cdf", "levy_pdf", "levy_quantile",
        "PAPER_ALTERNATIVES", "sample_alternative", "sample_levy", "EstimationError",
        "NullDistribution", "ReplicationPlan", "calibrate", "normality_diagnostic", "p_value",
        "null_grid", "power_grid", "power_study", "run_test", "simulate_null", "StatisticSpec",
        "evaluate", "RandomStream",
    },
    "levygof.cli": {"main"},
    "levygof.datasets": {"FIXTURES", "fixture_raw", "fixture_analysis"},
    "levygof.distributions": {
        "QuantileSplit", "theoretical_qcm", "theoretical_qcv", "LevyParams", "AlternativeSpec",
        "ALTERNATIVE_FAMILIES", "PAPER_ALTERNATIVES", "family_name", "levy_cdf", "levy_pdf",
        "levy_quantile", "sample_levy", "sample_alternative",
    },
    "levygof.montecarlo": {
        "ReplicationPlan", "NullDistribution", "MonteCarloError", "check_grid", "simulate_null",
        "calibrate", "p_value", "run_test", "power_study", "null_grid", "power_grid",
        "normality_diagnostic",
    },
    "levygof.statistics": {
        "EstimationError", "window_indices", "window_bound", "METHODS", "QCM_SPLIT_DEFAULT",
        "QCV_SPLIT_DEFAULT", "StatisticSpec", "STATISTIC_KINDS", "Batch", "evaluate",
        "evaluate_batch",
    },
    "levygof.streams": {"RandomStream"},
}


def test_public_surface():
    assert set(PUBLIC_NAMES) == set(MODULES)
    for name, expected in PUBLIC_NAMES.items():
        exported = importlib.import_module(name).__all__
        assert len(exported) == len(set(exported)), name
        assert set(exported) == expected, name


# (importing module, module imported from, private name)
PRIVATE_IMPORTS = {
    ("cli", "montecarlo", "_check_diagnostic"),
    ("cli", "montecarlo", "_check_level"),
}


def test_private_cross_module_imports():
    found = set()
    for path in Path(levygof.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found |= {(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS
