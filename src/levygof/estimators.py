"""Scale estimators for the one-sided Levy law.

Four routes: windowed conditional mean (QCM), windowed conditional variance
(QCV, location invariant), maximum likelihood (reciprocal mean of inverses),
and the covariance of the inverse and log-inverse series (COV). `mle` and
`cov` work row-wise along the last axis; the `estimate_*` entry points check
one sample and call them or the window kernels of `condmoments`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condmoments import (QuantileSplit, _as_sample, sample_qcm, sample_qcv,
                          theoretical_qcm, theoretical_qcv)

__all__ = [
    "EstimationError",
    "ScaleEstimate",
    "estimate_qcm",
    "estimate_qcv",
    "estimate_mle",
    "estimate_cov",
    "mle",
    "cov",
    "QCM_SPLIT_DEFAULT",
    "QCV_SPLIT_DEFAULT",
]

# Empirical defaults: QCM window minimizing the estimator's spread, QCV window
# used for the estimator comparison study.
QCM_SPLIT_DEFAULT = QuantileSplit(0.02, 0.48)
QCV_SPLIT_DEFAULT = QuantileSplit(0.0, 0.7)

_TINY = 1e-300


class EstimationError(ValueError):
    """Data violate a precondition of the estimator (non-Levy-like input)."""


@dataclass(frozen=True)
class ScaleEstimate:
    method: str
    value: float
    split: QuantileSplit | None = None


def mle(x: np.ndarray) -> np.ndarray:
    """Maximum-likelihood scale along the last axis: reciprocal mean of the inverses."""
    return 1.0 / (1.0 / x).mean(axis=-1)


def cov(x: np.ndarray) -> np.ndarray:
    """COV scale along the last axis; NaN where the inverse/log-inverse
    covariance is not positive."""
    y = 1.0 / x
    z = np.log(y)
    w = y - y.mean(axis=-1, keepdims=True)
    v = z - z.mean(axis=-1, keepdims=True)
    denom = np.sum(w * v, axis=-1)
    return 2.0 * x.shape[-1] / np.where(denom > 0.0, denom, np.nan)


def _positive_values(s) -> np.ndarray:
    x = _as_sample(s).values
    if np.any(x < _TINY):
        raise EstimationError("all observations must be positive (and above 1e-300)")
    return x


def estimate_qcm(s, split: QuantileSplit = QCM_SPLIT_DEFAULT) -> ScaleEstimate:
    """Windowed sample mean over the Lv(1) window constant."""
    m = sample_qcm(s, split)
    if m <= 0.0:
        raise EstimationError("windowed mean is nonpositive; data cannot be Levy with c > 0")
    return ScaleEstimate("QCM", m / theoretical_qcm(split, 1.0), split)


def estimate_qcv(s, split: QuantileSplit = QCV_SPLIT_DEFAULT) -> ScaleEstimate:
    """Square root of the windowed variance over the Lv(1) window constant."""
    v = sample_qcv(s, split)
    if v <= 0.0:
        raise EstimationError("windowed variance is zero; degenerate sample")
    return ScaleEstimate("QCV", float(np.sqrt(v / theoretical_qcv(split, 1.0))), split)


def estimate_mle(s) -> ScaleEstimate:
    return ScaleEstimate("MLE", float(mle(_positive_values(s))))


def estimate_cov(s) -> ScaleEstimate:
    x = _positive_values(s)
    if x.size < 2:
        raise EstimationError("COV estimator needs n >= 2")
    value = float(cov(x))
    if np.isnan(value):
        raise EstimationError("nonpositive inverse/log-inverse covariance; data cannot be Levy")
    return ScaleEstimate("COV", value)
