"""Scale estimators for the one-sided Levy law.

Four row-wise kernels along the last axis: windowed conditional mean (`qcm`),
windowed conditional variance (`qcv`, location invariant), maximum
likelihood (`mle`, reciprocal mean of the inverses) and the covariance of the
inverse and log-inverse series (`cov`). `METHODS` tables them; `estimate`
checks one sample and evaluates its method's kernel on it as a one-row batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .condmoments import (EstimationError, QuantileSplit, _values, theoretical_qcm,
                          theoretical_qcv, window_mean, window_var)

__all__ = [
    "EstimationError",
    "ScaleEstimate",
    "METHODS",
    "estimate",
    "qcm",
    "qcv",
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


@dataclass(frozen=True)
class ScaleEstimate:
    method: str
    value: float
    split: QuantileSplit | None = None


def qcm(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    """QCM scale of sorted rows: windowed mean over the Lv(1) window constant."""
    return window_mean(xs, split) / theoretical_qcm(split, 1.0)


def qcv(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    """QCV scale of sorted rows: root of the windowed variance over the Lv(1) constant."""
    return np.sqrt(window_var(xs, split) / theoretical_qcv(split, 1.0))


def mle(x: np.ndarray) -> np.ndarray:
    """Maximum-likelihood scale along the last axis: reciprocal mean of the inverses."""
    return 1.0 / (1.0 / x).mean(axis=-1)


def cov(x: np.ndarray) -> np.ndarray:
    """COV scale along the last axis; NaN where the inverse/log-inverse
    covariance is not positive (so at n = 1)."""
    y = 1.0 / x
    z = np.log(y)
    w = y - y.mean(axis=-1, keepdims=True)
    v = z - z.mean(axis=-1, keepdims=True)
    denom = np.sum(w * v, axis=-1)
    return 2.0 * x.shape[-1] / np.where(denom > 0.0, denom, np.nan)


class _Method(NamedTuple):
    fn: Callable                # kernel(sorted rows, split), or kernel(rows) if unwindowed
    split: QuantileSplit | None  # default window; None: the method takes no window
    positive: bool              # needs every value >= 1e-300
    failure: str                # why a nonpositive or NaN estimate means non-Levy data


METHODS = {
    "qcm": _Method(qcm, QCM_SPLIT_DEFAULT, False,
                   "windowed mean is nonpositive; data cannot be Levy with c > 0"),
    "qcv": _Method(qcv, QCV_SPLIT_DEFAULT, False, "windowed variance is zero; degenerate sample"),
    "mle": _Method(mle, None, True, "reciprocal mean of the inverses is not positive"),
    "cov": _Method(cov, None, True, "nonpositive inverse/log-inverse covariance "
                   "(or n < 2); data cannot be Levy"),
}


def estimate(method: str, sample, split: QuantileSplit | None = None) -> ScaleEstimate:
    """Scale estimate of one sample by `method` (any case), on `split` or its default window.

    Raises ValueError for an unknown method or a window given to `mle`/`cov`,
    and EstimationError when the data violate the method's preconditions.
    """
    name = method.lower()
    if name not in METHODS:
        raise ValueError(f"unknown estimation method {method!r}; "
                         f"expected one of {', '.join(METHODS)}")
    m = METHODS[name]
    if split is not None and m.split is None:
        raise ValueError(f"method {name} takes no window")
    x = _values(sample)
    if m.positive and np.any(x < _TINY):
        raise EstimationError("all observations must be positive (and above 1e-300)")
    if m.split is None:
        value = float(m.fn(x[None, :])[0])
    else:
        split = m.split if split is None else split
        value = float(m.fn(np.sort(x)[None, :], split)[0])
    if not value > 0.0:
        raise EstimationError(m.failure)
    return ScaleEstimate(name.upper(), value, split)
