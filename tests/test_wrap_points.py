"""The per-layer trace of perfbench/layers.py wraps levygof functions by name.

A refactor that renames or removes one of them would make the trace report a
layer as missing; this test makes it fail here instead. The perfbench module
is imported as it is, without changes.
"""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from layers import WRAP_POINTS  # noqa: E402


@pytest.mark.parametrize("point", sorted(WRAP_POINTS))
def test_wrap_point_resolves_to_a_callable(point):
    module, path = WRAP_POINTS[point]
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)  # AttributeError fails the test
    assert callable(owner)
