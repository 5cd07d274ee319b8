"""Quantile conditional moments of the one-sided Levy law.

Closed forms for the conditional mean and variance on a quantile window,
and row-wise order-statistic window kernels on sorted rows (one sample or a
(B, n) batch). The scale estimators and statistics built on the kernels live
in `estimators` and `statistics`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EstimationError",
    "QuantileSplit",
    "theoretical_qcm",
    "theoretical_qcv",
    "window_bound",
    "window_indices",
    "window_mean",
    "window_var",
]

_SQRT_PI = np.sqrt(np.pi)


class EstimationError(ValueError):
    """Data violate a precondition of an estimator or statistic (non-Levy-like
    input, or too few order statistics in a window)."""


@dataclass(frozen=True)
class QuantileSplit:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("split bounds must be finite")
        if not 0.0 <= self.a < self.b <= 1.0:
            raise ValueError("split requires 0 <= a < b <= 1")

    def require_open_top(self):
        # The closed forms diverge at b = 1 (the unconditional mean is infinite).
        if self.b >= 1.0:
            raise ValueError("theoretical moments require b < 1")


def _values(sample) -> np.ndarray:
    """One sample as a flat float array; it must be nonempty and finite."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 1:
        raise ValueError("sample must contain at least one observation")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return x


def _check_scale(c: float) -> None:
    if not np.isfinite(c) or c <= 0.0:
        raise ValueError("scale c must be finite and > 0")


def _exp_over(u: float, power: int) -> float:
    """exp(-u^2) / u^power with the u -> inf limit handled (a = 0 windows)."""
    if not np.isfinite(u):
        return 0.0
    return float(np.exp(-u * u) / u**power)


@lru_cache
def theoretical_qcm(split: QuantileSplit, c: float = 1.0) -> float:
    """Conditional mean of Lv(c) between its a- and b-quantiles; linear in c.

    Cached: the statistics divide every batch by the same few constants.
    """
    # scipy is imported where it is used: importing levygof loads no scipy
    # module, and scipy.special alone would double the CLI's start-up time.
    from scipy.special import erfcinv

    split.require_open_top()
    _check_scale(c)
    ga = erfcinv(split.a)
    gb = erfcinv(split.b)
    return c * ((_exp_over(gb, 1) - _exp_over(ga, 1)) / (_SQRT_PI * (split.b - split.a)) - 1.0)


def _second_moment_antiderivative(u: float) -> float:
    # Antiderivative of exp(-u^2)/u^4 scaled into the second-moment substitution.
    from scipy.special import erf

    if not np.isfinite(u):
        return 2.0 * _SQRT_PI / 3.0
    e = float(np.exp(-u * u))
    return -e / (3.0 * u**3) + (2.0 / 3.0) * e / u + (2.0 * _SQRT_PI / 3.0) * float(erf(u))


def theoretical_second_moment(split: QuantileSplit, c: float = 1.0) -> float:
    """Conditional second moment of Lv(c) on the window; quadratic in c."""
    from scipy.special import erfcinv

    split.require_open_top()
    _check_scale(c)
    ga = erfcinv(split.a)
    gb = erfcinv(split.b)
    num = _second_moment_antiderivative(ga) - _second_moment_antiderivative(gb)
    return c * c * num / (2.0 * _SQRT_PI * (split.b - split.a))


@lru_cache
def theoretical_qcv(split: QuantileSplit, c: float = 1.0) -> float:
    """Conditional variance of Lv(c) on the window; scales as c^2."""
    m1 = theoretical_qcm(split, c)
    return theoretical_second_moment(split, c) - m1 * m1


def window_indices(n: int, split: QuantileSplit) -> tuple[int, int]:
    """Half-open index range [floor(n*a), floor(n*b)) into the order statistics."""
    return int(np.floor(n * split.a)), int(np.floor(n * split.b))


def window_bound(split: QuantileSplit, width: int) -> int:
    """Sample size from which the window holds >= `width` order statistics at every n.

    floor(nb) - floor(na) > n(b - a) - 1, so n >= width / (b - a) suffices.
    The window size is not monotone in n, so below this bound a size must be
    checked at the actual n.
    """
    return math.ceil(width / (split.b - split.a))


def _window(xs: np.ndarray, split: QuantileSplit, width: int) -> np.ndarray:
    n = xs.shape[-1]
    i, j = window_indices(n, split)
    if j - i < width:
        raise EstimationError(
            f"window ({split.a}, {split.b}) holds {j - i} order statistics at n={n}, "
            f"fewer than {width}; need n >= {window_bound(split, width)}")
    return xs[..., i:j]


def window_mean(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    """Mean of the order statistics with 1-based index in (floor(na), floor(nb)].

    `xs` holds sorted rows along its last axis: one sample or a (B, n) batch.
    """
    return _window(xs, split, 1).mean(axis=-1)


def window_var(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    """Windowed variance of sorted rows, with divisor equal to the window size."""
    return _window(xs, split, 2).var(axis=-1)

