"""Scale estimators and goodness-of-fit statistics for the one-sided Levy law.

One table of row-wise kernels, reached through ``evaluate_batch`` and
``evaluate``. Four scale estimators (``METHODS``):

* ``qcm`` — windowed conditional mean of the sorted rows over its Lv(1) constant.
* ``qcv`` — root of the windowed conditional variance over its Lv(1)
            constant (location invariant).
* ``mle`` — maximum likelihood: reciprocal mean of the inverses.
* ``cov`` — from the covariance of the inverse and log-inverse series.

Six scale-ratio / characterization test statistics (``STATISTIC_KINDS``):

* ``vn``  — covariance-to-MLE scale ratio.
* ``on``  — ratio of two windowed-conditional-mean scale estimates.
* ``tn``  — ensemble of COV and QCM scale estimates against MLE.
* ``cn``  — ratio of two windowed-conditional-variance scale estimates
            (scale AND location invariant).
* ``ran`` — sum-stability kernel statistic on the MLE-scaled sample. Below
            ``_EXP_SUM_N`` its n(n-1)/2 pair terms per row are evaluated once
            each, by cyclic shifts in one block per row group; from there on
            the pair term is an exponential sum of K = 84 terms, O(n K) per
            row, whose nodes double every third term, so most of its
            exponentials are squares. Both run under a fixed memory budget.
* ``deltan`` — pairwise-minimum characterization statistic; O(n log n) per
            row from prefix sums of the sorted row.

``evaluate(spec, sample)`` is the scalar path of every row: the one-row case
of ``evaluate_batch``, raising on precondition violations, with the row's
``METHODS`` text for an estimator. ``evaluate_batch`` first checks the sample
size by ``StatisticSpec.check_n``, the one feasibility check, and marks failed
replicates as NaN so Monte Carlo callers can apply their own failure policy.
Statistics evaluated on the same rows may share one ``Batch``, which defines
the MLE and COV and computes them, the sorted rows and the nonpositive-row
mask once for all of them.

The module also owns the window convention, ``window_indices`` (which order
statistics a window holds at n) and ``window_bound`` (from which n it holds
enough), and ``EstimationError``. The Lv(1) window constants are the closed
forms of ``distributions``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .distributions import QuantileSplit, theoretical_qcm, theoretical_qcv

__all__ = [
    "EstimationError",
    "window_indices",
    "window_bound",
    "METHODS",
    "QCM_SPLIT_DEFAULT",
    "QCV_SPLIT_DEFAULT",
    "StatisticSpec",
    "STATISTIC_KINDS",
    "Batch",
    "evaluate",
    "evaluate_batch",
]

# Empirical defaults: QCM window minimizing the estimator's spread, QCV window
# used for the estimator comparison study.
QCM_SPLIT_DEFAULT = QuantileSplit(0.02, 0.48)
QCV_SPLIT_DEFAULT = QuantileSplit(0.0, 0.7)

RAN_TUNING_DEFAULT = 0.2

_TINY = 1e-300

# Elements in each of the two reused buffers of the `ran` shift kernel (2**15
# float64 each, 512 KiB together); the exponential sum has one buffer of
# twice this.
_PAIR_BUDGET = 2**15

# `ran` evaluates its pair term as an exponential sum from this n on; below
# it the O(n^2) shift kernel is faster (at n = 64, 5.4 against 4.9 ms per
# 512 rows), and all n // 2 shifts of a row group fit one block.
_EXP_SUM_N = 64

# Trapezoid rule for u^-2.5 = Gamma(2.5)^-1 int exp(2.5 t - u e^t) dt at step
# h = ln 2 / 3 from t = -15 (Beylkin & Monzon, ACHA 2010): u^-2.5 ~ sum_k w_k
# exp(-tau_k u), tau_k = e^t_k, w_k = h e^(2.5 t_k) / Gamma(2.5), K = 84
# nodes in 28 generations of 3 up to t = 4.18. Each generation is exactly
# twice the one before, so exp(-tau_(k+3) u) is the square of exp(-tau_k u).
# For u >= 1 the error is below 1.3e-14 u^-2.5 + 1.5e-17; the second term is
# the cut at t = -15.
_EXP_TAU = (np.exp(-15.0 + math.log(2.0) / 3.0 * np.arange(3))
            * 2.0 ** np.arange(28)[:, None]).ravel()
_EXP_W = math.log(2.0) / 3.0 * _EXP_TAU ** 2.5 / math.gamma(2.5)
# Every _EXP_REFRESH-th generation of the exponential sum calls exp; the
# others square the generation before, so a term is at most 4 squarings
# from an exp and keeps its relative error below ~5e-15.
_EXP_REFRESH = 5


class EstimationError(ValueError):
    """Data violate a precondition of an estimator or statistic (non-Levy-like
    input, or too few order statistics in a window)."""


# --- row-wise kernels -------------------------------------------------------
# Every estimator and statistic is evaluated row-wise on a (B, n) matrix; the
# scalar path is the one-row case. Row-local reductions make results
# independent of how the batch is chunked. A table kernel takes the spec and
# the Batch of the rows. Every window of order statistics is cut by `_window`,
# on the convention of `window_indices`, after `StatisticSpec.check_n` has
# checked that it holds enough of them.

def window_indices(n: int, split: QuantileSplit) -> tuple[int, int]:
    """Half-open index range [floor(n*a), floor(n*b)) into the order statistics."""
    return int(np.floor(n * split.a)), int(np.floor(n * split.b))


def window_bound(split: QuantileSplit, width: int) -> int:
    """Sample size from which the window holds >= `width` order statistics at every n.

    floor(nb) - floor(na) > n(b - a) - 1, so n >= width / (b - a) suffices.
    The window size is not monotone in n, so below this bound a size must be
    checked at the actual n. The quotient is exact: as a float it overflows
    on a window narrower than about 1e-308.
    """
    from fractions import Fraction  # loaded on first use; only error messages need it
    return math.ceil(width / (Fraction(split.b) - Fraction(split.a)))


def _window(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    i, j = window_indices(xs.shape[1], split)
    return xs[:, i:j]


def _qcm(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    """QCM scale of sorted rows: mean of the order statistics with 1-based
    index in (floor(na), floor(nb)] over the Lv(1) window constant."""
    return _window(xs, split).mean(axis=1) / theoretical_qcm(split, 1.0)


def _unit_var(xs: np.ndarray, split: QuantileSplit) -> tuple[np.ndarray, np.ndarray]:
    """Windowed variance of sorted rows over 4**e, and the exponent e of each
    row, where 2**e is just above the largest |x| of the window (its first or
    last value).

    Only the window is scaled, so the scaled variance neither overflows nor
    underflows at any magnitude. Scaling by a power of two is exact, so a
    value at ordinary magnitudes does not move.
    """
    w = _window(xs, split)
    _, e = np.frexp(np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])))
    return np.ldexp(w, -e[:, None]).var(axis=1), e


def _qcv(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    """QCV scale of sorted rows: root of the windowed variance over the Lv(1) constant."""
    v, e = _unit_var(xs, split)
    return np.ldexp(np.sqrt(v / theoretical_qcv(split, 1.0)), e)


class Batch:
    """A (B, n) matrix of rows and the intermediates its kernels share.

    Defines the MLE and COV scale estimates of the rows. They, the sorted
    rows and the mask of rows holding a nonpositive value are each computed
    on first use, so sharing them changes no value. Only row vectors and the
    sorted matrix are kept. A Monte Carlo chunk builds one Batch for all its
    statistics; a kernel never writes into what it reads.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("expected a (B, n) matrix")
        self.x = x

    @cached_property
    def sorted(self) -> np.ndarray:
        return np.sort(self.x, axis=1)

    @cached_property
    def mle(self) -> np.ndarray:
        """Maximum-likelihood scale: reciprocal mean of the inverses."""
        return 1.0 / (1.0 / self.x).mean(axis=1)

    @cached_property
    def cov(self) -> np.ndarray:
        """COV scale; NaN where the inverse/log-inverse covariance is not
        positive (so at n = 1)."""
        y = 1.0 / self.x
        z = np.log(y)
        w = y - y.mean(axis=1, keepdims=True)
        v = z - z.mean(axis=1, keepdims=True)
        denom = np.sum(w * v, axis=1)
        return 2.0 * self.x.shape[1] / np.where(denom > 0.0, denom, np.nan)

    @cached_property
    def nonpositive(self) -> np.ndarray:
        return (self.x <= 0.0).any(axis=1)


def _vn(spec, batch):
    return np.sqrt(batch.x.shape[1]) * (batch.cov / batch.mle - 1.0)


def _on(spec, batch):
    s1, s2 = spec.splits
    xs = batch.sorted
    return np.sqrt(xs.shape[1]) * (_qcm(xs, s1) / _qcm(xs, s2) - 1.0)


def _tn(spec, batch):
    (s1,) = spec.splits
    xs = batch.sorted
    return np.sqrt(xs.shape[1]) * ((batch.cov + _qcm(xs, s1)) / (2.0 * batch.mle) - 1.0)


def _cn(spec, batch):
    s1, s2 = spec.splits
    xs = batch.sorted
    v1, e1 = _unit_var(xs, s1)
    v2, e2 = _unit_var(xs, s2)
    v1 /= theoretical_qcv(s1, 1.0)
    v2 /= theoretical_qcv(s2, 1.0)
    out = np.sqrt(xs.shape[1]) * (np.ldexp(np.sqrt(v1 / v2), e1 - e2) - 1.0)
    out[(v1 <= 0.0) | (v2 <= 0.0)] = np.nan
    return out


def _shift_pairs(q):
    # The diagonal (2 q_i)^-2.5 plus twice the sum over unordered pairs.
    # Each unordered pair {i, j} is (i, i + d mod n) for one cyclic shift d
    # in 1..n//2, except that at d = n/2 (n even) every pair appears twice, so
    # that shift is halved. Shift d is window d of q followed by its first
    # half, a strided view. All shifts of a group of rows are one block,
    # evaluated in place in two reused buffers of _PAIR_BUDGET elements (for
    # n < _EXP_SUM_N a group holds at least 16 rows), as 1 / (u * u *
    # sqrt(u)), which is faster than u ** -2.5 and also gives 0 where u ** 2.5
    # overflows; then it is summed per row. The group size depends on n
    # alone, so each row is summed in the same order whatever the batch.
    b, n = q.shape
    half = n // 2
    wrapped = np.concatenate([q, q[:, :half]], axis=1)
    shifted = np.lib.stride_tricks.sliding_window_view(wrapped, n, axis=1)[:, 1:]
    group = max(1, _PAIR_BUDGET // (half * n))
    buf = np.empty((2, min(group, b), half, n))
    pairs = np.empty(b)
    for r0 in range(0, b, group):
        t, w = buf[:, :min(group, b - r0)]
        np.add(q[r0:r0 + group, None, :], shifted[r0:r0 + group], out=t)
        np.sqrt(t, out=w)
        w *= t
        w *= t
        np.divide(1.0, w, out=t)
        if 2 * half == n:
            t[:, -1] *= 0.5
        t.reshape(len(t), half * n).sum(axis=1, out=pairs[r0:r0 + group])
    return ((2.0 * q) ** -2.5).sum(axis=1) + 2.0 * pairs


def _exp_pairs(q):
    # With v = 2 min q every pair sum of q / v is >= 1, and by the nodes of
    # _EXP_TAU sum_ij (q_i + q_j)^-2.5 = v^-2.5 sum_k w_k (sum_i exp(-tau_k
    # q_i / v))^2; p holds -q / v. A group of rows runs the 28 generations
    # of 3 nodes in one (g, 3, n) buffer of 2 * _PAIR_BUDGET elements (3 n
    # when n is larger). Every _EXP_REFRESH-th generation is exp(p tau),
    # with the exponents clipped at -700, where exp is still a normal number
    # (a subnormal result costs ~100x the time); every row sum holds
    # exp(-tau_k / 2) > 6e-15, so the clip moves no digit. The generations
    # in between square the buffer in place: a value that underflows reaches
    # 0 through at most one subnormal. The group size depends on n alone,
    # so each row is summed in the same order whatever the batch.
    b, n = q.shape
    v = 2.0 * q.min(axis=1)
    p = q / -v[:, None]
    group = max(1, 2 * _PAIR_BUDGET // (3 * n))
    buf = np.empty((min(group, b), 3, n))
    sums = np.empty((b, _EXP_TAU.size))
    for r0 in range(0, b, group):
        t = buf[:min(group, b - r0)]
        for k0 in range(0, _EXP_TAU.size, 3):
            if k0 % (3 * _EXP_REFRESH):
                t *= t
            else:
                np.multiply(p[r0:r0 + group, None, :], _EXP_TAU[k0:k0 + 3, None], out=t)
                np.maximum(t, -700.0, out=t)
                np.exp(t, out=t)
            t.sum(axis=2, out=sums[r0:r0 + group, k0:k0 + 3])
    sums *= sums
    sums *= _EXP_W
    return v ** -2.5 * sums.sum(axis=1)


def _ran(spec, batch):
    # The pair term sums (q_i + q_j)^-2.5 with q = a/2 + s/4 over all (i, j):
    # by cyclic shifts below _EXP_SUM_N, where it is O(n^2) per row, and by
    # the O(n K) exponential sum of squared exponentials from there on.
    # Dispatch is on n alone, so a row gives the same value in any batch.
    x = batch.x
    n = x.shape[1]
    a = spec.tuning
    s = x / batch.mle[:, None]
    q = s / 4.0
    q += a / 2.0
    pairs = (_shift_pairs if n < _EXP_SUM_N else _exp_pairs)(q)
    # The single-point terms -single_i - single_j summed over all pairs.
    single = n * ((a + s) ** -2.5).sum(axis=1)
    return 3.0 * np.sqrt(np.pi) / (4.0 * n * n) * (pairs - single)


def _deltan(spec, batch):
    # For x_i = x_(r): sum_{j != i} min(x_i, x_j) = sum_{k<r} x_(k) + (n-1-r) x_(r).
    xs = batch.sorted
    n = xs.shape[1]
    m = np.zeros_like(xs)
    np.cumsum(xs[:, :-1], axis=1, out=m[:, 1:])
    m += (n - 1 - np.arange(n)) * xs
    k1 = m / xs
    u1 = k1.sum(axis=1) / (n * (n - 1))
    u2 = (k1 / xs).sum(axis=1) / (n * (n - 1))
    return 1.5 * u1 - 0.5 * batch.mle * u2 - 0.5


class _Kernel(NamedTuple):
    fn: Callable        # (spec, Batch) -> a new array of one value per row
    positive: bool      # undefined on rows with a nonpositive value
    window: int         # order statistics each window must hold (0: reads none)
    splits: tuple = ()  # default windows
    min_n: int = 2      # smallest sample size


# The estimator rows copy the shared vector: evaluate_batch masks its result
# in place.
_KERNELS = {
    "qcm": _Kernel(lambda spec, batch: _qcm(batch.sorted, *spec.splits), False, 1,
                   (QCM_SPLIT_DEFAULT,)),
    "qcv": _Kernel(lambda spec, batch: _qcv(batch.sorted, *spec.splits), False, 2,
                   (QCV_SPLIT_DEFAULT,)),
    "mle": _Kernel(lambda spec, batch: batch.mle.copy(), True, 0, min_n=1),
    "cov": _Kernel(lambda spec, batch: batch.cov.copy(), True, 0),
    "vn": _Kernel(_vn, True, 0),
    "on": _Kernel(_on, True, 1, (QuantileSplit(0.0, 0.3), QuantileSplit(0.8, 0.95))),
    "tn": _Kernel(_tn, True, 1, (QCM_SPLIT_DEFAULT,)),
    # location invariant, so nonpositive data are legitimate
    "cn": _Kernel(_cn, False, 2, (QuantileSplit(0.0, 0.4), QuantileSplit(0.8, 0.95))),
    "ran": _Kernel(_ran, True, 0),
    "deltan": _Kernel(_deltan, True, 0),
}
# The scale estimators, each with why a nonpositive or undefined estimate
# means non-Levy data; the other rows are the test statistics.
METHODS = {
    "qcm": "windowed mean is nonpositive; data cannot be Levy with c > 0",
    "qcv": "windowed variance is zero; degenerate sample",
    "mle": "reciprocal mean of the inverses is not positive",
    "cov": "nonpositive inverse/log-inverse covariance; data cannot be Levy",
}
STATISTIC_KINDS = tuple(kind for kind in _KERNELS if kind not in METHODS)


@dataclass(frozen=True)
class StatisticSpec:
    kind: str
    splits: tuple = ()
    tuning: float = RAN_TUNING_DEFAULT

    def __post_init__(self):
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        if kind not in _KERNELS:
            raise ValueError(f"unknown statistic kind: {self.kind!r}")
        default = _KERNELS[kind].splits
        if not self.splits:
            object.__setattr__(self, "splits", default)
        elif len(self.splits) != len(default):
            raise ValueError(f"statistic {kind} takes {len(default)} window(s), "
                             f"got {len(self.splits)}")
        for s in self.splits:
            s.require_open_top()  # every window is scaled by its theoretical moment
        if kind == "ran" and not 0.0 < self.tuning < math.inf:
            raise ValueError("ran tuning parameter must be finite and > 0")

    def check_n(self, n: int) -> None:
        """Raise EstimationError unless the statistic is defined at sample size n.

        n >= 2 (n >= 1 for mle), and every window holds enough order
        statistics at this n.
        """
        kernel = _KERNELS[self.kind]
        width = kernel.window
        short = [f"window ({s.a}, {s.b}) holds {j - i} order statistics, fewer than {width}"
                 for s in self.splits for i, j in [window_indices(n, s)] if j - i < width]
        if n < kernel.min_n or short:
            need = max([kernel.min_n] + [window_bound(s, width) for s in self.splits])
            raise EstimationError("; ".join([f"statistic {self.kind} needs n >= {need}, got {n}",
                                             *short]))


def evaluate_batch(spec: StatisticSpec, x: np.ndarray,
                   batch: Batch | None = None) -> np.ndarray:
    """Statistic values for each row of ``x``; NaN marks failed preconditions.

    ``batch``, the ``Batch(x)`` of the caller, lets statistics evaluated on
    the same rows share their intermediates; without it the call builds its
    own. The result is a new array either way.
    """
    if batch is None:
        batch = Batch(x)
    elif batch.x is not x:
        raise ValueError("batch was built from other rows than x")
    spec.check_n(batch.x.shape[1])
    kernel = _KERNELS[spec.kind]
    with np.errstate(all="ignore"):
        out = kernel.fn(spec, batch)
    if kernel.positive:
        out[batch.nonpositive] = np.nan
    out[~np.isfinite(out)] = np.nan
    return out


def evaluate(spec: StatisticSpec, sample) -> float:
    """Value of the estimator or statistic on one sample; raises ValueError on
    an empty or non-finite sample, and EstimationError on precondition failure.

    An estimator (a row of METHODS) must come out > 0, else the error gives the
    row's failure text; `mle` and `cov` first refuse observations below 1e-300.
    A statistic must come out finite.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 1:
        raise ValueError("sample must contain at least one observation")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    reason = METHODS.get(spec.kind)
    if reason and _KERNELS[spec.kind].positive and np.any(x < _TINY):
        raise EstimationError("all observations must be positive (and above 1e-300)")
    val = float(evaluate_batch(spec, x[None, :])[0])
    if reason and not val > 0.0:
        raise EstimationError(reason)
    if not math.isfinite(val):
        raise EstimationError(
            f"statistic {spec.kind} undefined on this sample "
            "(nonpositive data, degenerate window, or bad covariance)")
    return val
