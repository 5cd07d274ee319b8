"""Goodness-of-fit statistics for the one-sided Levy null hypothesis.

Six scale-ratio / characterization statistics:

* ``vn``  — covariance-to-MLE scale ratio.
* ``on``  — ratio of two windowed-conditional-mean scale estimates.
* ``tn``  — ensemble of COV and QCM scale estimates against MLE.
* ``cn``  — ratio of two windowed-conditional-variance scale estimates
            (scale AND location invariant).
* ``ran`` — sum-stability kernel statistic on the MLE-scaled sample; O(n^2)
            time per row, summed in blocks under a fixed memory budget.
* ``deltan`` — pairwise-minimum characterization statistic; O(n log n) per
            row from prefix sums of the sorted row.

``evaluate(spec, sample)`` is the scalar path: the one-row case of
``evaluate_batch``, raising on precondition violations. ``evaluate_batch``
marks failed replicates as NaN so Monte Carlo callers can apply their own
failure policy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .condmoments import (EstimationError, QuantileSplit, _values, theoretical_qcm,
                          theoretical_qcv, window_bound, window_indices, window_mean, window_var)
from .estimators import cov, mle

__all__ = [
    "StatisticSpec",
    "STATISTIC_KINDS",
    "evaluate",
    "evaluate_batch",
]

RAN_TUNING_DEFAULT = 0.2

# Elements in one temporary of the blocked `ran` pair sum (512 KiB of float64).
_PAIR_BUDGET = 2**16


# --- row-wise kernels -------------------------------------------------------
# Every statistic is evaluated row-wise on a (B, n) matrix; the scalar path is
# the one-row case. Row-local reductions make results independent of how the
# batch is chunked. A kernel takes the spec, the rows, and the sorted rows
# (None unless its table entry asks for them).

def _vn(spec, x, xs):
    return np.sqrt(x.shape[1]) * (cov(x) / mle(x) - 1.0)


def _on(spec, x, xs):
    s1, s2 = spec.splits
    c1 = window_mean(xs, s1) / theoretical_qcm(s1, 1.0)
    c2 = window_mean(xs, s2) / theoretical_qcm(s2, 1.0)
    return np.sqrt(x.shape[1]) * (c1 / c2 - 1.0)


def _tn(spec, x, xs):
    (s1,) = spec.splits
    cq = window_mean(xs, s1) / theoretical_qcm(s1, 1.0)
    return np.sqrt(x.shape[1]) * ((cov(x) + cq) / (2.0 * mle(x)) - 1.0)


def _cn(spec, x, xs):
    s1, s2 = spec.splits
    v1 = window_var(xs, s1) / theoretical_qcv(s1, 1.0)
    v2 = window_var(xs, s2) / theoretical_qcv(s2, 1.0)
    out = np.sqrt(x.shape[1]) * (np.sqrt(v1 / v2) - 1.0)
    out[(v1 <= 0.0) | (v2 <= 0.0)] = np.nan
    return out


def _ran(spec, x, xs):
    # The pair term sums (q_i + q_j)^-2.5 with q = a/2 + s/4 over all (i, j).
    # A block of rows i0 <= i < i0 + h meets the columns j >= i0 only: its
    # square part counts once, the part right of it twice, by symmetry. The
    # block height depends on n alone, so each row is summed in the same
    # order whatever the batch; it leaves room for at least 16 rows in one
    # temporary of _PAIR_BUDGET elements.
    b, n = x.shape
    a = spec.tuning
    s = x / mle(x)[:, None]
    q = a / 2.0 + s / 4.0
    height = max(1, min(n, _PAIR_BUDGET // (16 * n)))
    group = max(1, _PAIR_BUDGET // (height * n))
    by_i = np.empty_like(q)
    for r0 in range(0, b, group):
        qr = q[r0:r0 + group]
        for i0 in range(0, n, height):
            h = min(height, n - i0)
            t = (qr[:, i0:i0 + h, None] + qr[:, None, i0:]) ** -2.5
            by_i[r0:r0 + group, i0:i0 + h] = (t[:, :, :h].sum(axis=2)
                                              + 2.0 * t[:, :, h:].sum(axis=2))
    # The single-point terms -single_i - single_j summed over all pairs.
    single = n * ((a + s) ** -2.5).sum(axis=1)
    return 3.0 * np.sqrt(np.pi) / (4.0 * n * n) * (by_i.sum(axis=1) - single)


def _deltan(spec, x, xs):
    # For x_i = x_(r): sum_{j != i} min(x_i, x_j) = sum_{k<r} x_(k) + (n-1-r) x_(r).
    n = x.shape[1]
    m = np.zeros_like(xs)
    np.cumsum(xs[:, :-1], axis=1, out=m[:, 1:])
    m += (n - 1 - np.arange(n)) * xs
    k1 = m / xs
    u1 = k1.sum(axis=1) / (n * (n - 1))
    u2 = (k1 / xs).sum(axis=1) / (n * (n - 1))
    return 1.5 * u1 - 0.5 * mle(x) * u2 - 0.5


class _Kernel(NamedTuple):
    fn: Callable
    sorted_rows: bool   # reads windows of the order statistics
    positive: bool      # undefined on rows with a nonpositive value
    window: int         # order statistics each window must hold (0: reads none)
    splits: tuple = ()  # default windows


_KERNELS = {
    "vn": _Kernel(_vn, False, True, 0),
    "on": _Kernel(_on, True, True, 1, (QuantileSplit(0.0, 0.3), QuantileSplit(0.8, 0.95))),
    "tn": _Kernel(_tn, True, True, 1, (QuantileSplit(0.02, 0.48),)),
    # location invariant, so nonpositive data are legitimate
    "cn": _Kernel(_cn, True, False, 2, (QuantileSplit(0.0, 0.4), QuantileSplit(0.8, 0.95))),
    "ran": _Kernel(_ran, False, True, 0),
    "deltan": _Kernel(_deltan, True, True, 0),
}
STATISTIC_KINDS = tuple(_KERNELS)


@dataclass(frozen=True)
class StatisticSpec:
    kind: str
    splits: tuple = ()
    tuning: float = RAN_TUNING_DEFAULT

    def __post_init__(self):
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        if kind not in STATISTIC_KINDS:
            raise ValueError(f"unknown statistic kind: {self.kind!r}")
        default = _KERNELS[kind].splits
        if not self.splits:
            object.__setattr__(self, "splits", default)
        elif len(self.splits) != len(default):
            raise ValueError(f"statistic {kind} takes {len(default)} window(s), "
                             f"got {len(self.splits)}")
        for s in self.splits:
            s.require_open_top()  # every window is scaled by its theoretical moment
        if kind == "ran" and self.tuning <= 0.0:
            raise ValueError("ran tuning parameter must be > 0")

    def check_n(self, n: int) -> None:
        """Raise EstimationError unless the statistic is defined at sample size n.

        n >= 2, and every window holds enough order statistics at this n.
        """
        width = _KERNELS[self.kind].window
        short = []
        for s in self.splits:
            i, j = window_indices(n, s)
            if j - i < width:
                short.append(f"; window ({s.a}, {s.b}) holds {j - i} order statistics, "
                             f"fewer than {width}")
        if n < 2 or short:
            need = max([2] + [window_bound(s, width) for s in self.splits])
            raise EstimationError(f"statistic {self.kind} needs n >= {need}, got {n}"
                                  + "".join(short))


def evaluate_batch(spec: StatisticSpec, x: np.ndarray) -> np.ndarray:
    """Statistic values for each row of ``x``; NaN marks failed preconditions."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a (B, n) matrix")
    spec.check_n(x.shape[1])
    kernel = _KERNELS[spec.kind]
    with np.errstate(all="ignore"):
        out = kernel.fn(spec, x, np.sort(x, axis=1) if kernel.sorted_rows else None)
    if kernel.positive:
        out[(x <= 0.0).any(axis=1)] = np.nan
    out[~np.isfinite(out)] = np.nan
    return out


def evaluate(spec: StatisticSpec, sample) -> float:
    """Scalar statistic; raises EstimationError on precondition failure."""
    val = evaluate_batch(spec, _values(sample)[None, :])[0]
    if not np.isfinite(val):
        raise EstimationError(
            f"statistic {spec.kind} undefined on this sample "
            "(nonpositive data, degenerate window, or bad covariance)")
    return float(val)

