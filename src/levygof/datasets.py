"""Embedded case-study datasets.

Two classical reliability/environmental datasets used to exercise the tests
on real data:

* ``vessels`` — failure times (hours) of 20 pressure vessels. Failure times
  themselves are not Levy-like; the working hypothesis is that their
  RECIPROCALS follow a one-sided Levy law, so the analysis-ready view is
  1/x. The raw values are kept verbatim for integrity checks.
* ``rainfall`` — average rainfall (mm) over 31 observations, analyzed as-is.
"""
from __future__ import annotations

import numpy as np

__all__ = ["FIXTURES", "fixture_raw", "fixture_analysis"]

_VESSELS = (
    274.00, 1.70, 871.00, 1311.00, 236.00, 458.00, 54.90, 1787.00, 0.75,
    776.00, 28.50, 20.80, 363.00, 1661.00, 828.00, 290.00, 175.00, 970.00,
    1278.00, 126.00,
)

_RAINFALL = (
    29.30, 23.80, 18.50, 19.00, 23.20, 15.50, 13.20, 10.40, 15.40, 16.00,
    14.30, 16.00, 18.20, 25.00, 31.30, 22.90, 14.30, 16.40, 13.70, 18.40,
    7.30, 15.70, 7.60, 25.70, 28.10, 17.70, 1.70, 18.40, 12.00, 7.50, 6.80,
)

# name -> (raw values, whether the analysis view inverts the observations)
FIXTURES = {
    "vessels": (_VESSELS, True),
    "rainfall": (_RAINFALL, False),
}


def fixture_raw(name: str) -> np.ndarray:
    """Values exactly as recorded in the source tables."""
    try:
        raw, _ = FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture: {name!r}; choose from {sorted(FIXTURES)}")
    return np.array(raw)


def fixture_analysis(name: str) -> np.ndarray:
    """The view of the fixture the Levy hypothesis applies to."""
    raw, invert = FIXTURES[name]
    arr = np.array(raw)
    return 1.0 / arr if invert else arr

