import numpy as np
import pytest

from levygof.datasets import fixture_analysis, fixture_raw
from oracles import fixture_sha256

# Digests of the canonical two-decimal rendering, pinned at transcription time.
VESSELS_SHA = "35ffda7ba1d10b0dd93d45e9e775e1365199e1d70bcb7aae0faf0ec96b4c510b"
RAINFALL_SHA = "531a40fca4adacafc5d753de5115c124dcfba90c1d96722599bedc2e780e8ef0"


def test_sizes():
    assert fixture_raw("vessels").size == 20
    assert fixture_raw("rainfall").size == 31


def test_fixture_integrity_hashes():
    assert fixture_sha256("vessels") == VESSELS_SHA
    assert fixture_sha256("rainfall") == RAINFALL_SHA


def test_vessels_analysis_is_reciprocal():
    assert np.allclose(fixture_analysis("vessels"), 1.0 / fixture_raw("vessels"))


def test_rainfall_analysis_is_raw():
    assert np.array_equal(fixture_analysis("rainfall"), fixture_raw("rainfall"))


def test_unknown_fixture():
    with pytest.raises(ValueError):
        fixture_raw("nonsense")


def test_all_positive():
    for name in ("vessels", "rainfall"):
        assert fixture_raw(name).min() > 0.0
