"""Deterministic parallel Monte Carlo engine.

Null-distribution simulation, two-sided threshold calibration, simulated
p-values, power studies against the benchmark alternatives, and normality
diagnostics of the null laws.

Determinism contract: every replicate draws from its own random stream keyed
by (master seed, replicate index), and replicates are processed in fixed-size
chunks, so output is byte-identical for a given plan regardless of worker
count or scheduling.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .condmoments import EstimationError
from .distributions import AlternativeSpec, LevyParams, sample_alternative, sample_levy
from .statistics import StatisticSpec, evaluate, evaluate_batch
from .streams import RandomStream

__all__ = [
    "ReplicationPlan",
    "NullDistribution",
    "TestReport",
    "PowerCell",
    "DiagnosticReport",
    "MonteCarloError",
    "simulate_null",
    "calibrate",
    "p_value",
    "run_test",
    "power_study",
    "normality_diagnostic",
]

# Replicates are processed in fixed chunks so that results do not depend on
# how the chunk list is split across workers.
CHUNK = 512


class MonteCarloError(RuntimeError):
    pass


@dataclass(frozen=True)
class ReplicationPlan:
    """Master seed, replicate count B and advisory worker count.

    The worker count is an upper bound: a simulation runs at most one worker
    per chunk of replicates and per CPU core.

    Replicate i draws from stream (master_seed, i). A null simulation uses
    streams 0 ... B-1; a power study on that null draws its alternative
    samples from streams B ... 2B-1, so the two never share a stream.
    """

    master_seed: int
    replicates: int
    worker_hint: int = 1

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.worker_hint < 1:
            raise ValueError("worker_hint must be >= 1")
        # Validate the seed eagerly through the stream type.
        RandomStream(self.master_seed)


@dataclass(frozen=True)
class NullDistribution:
    spec: StatisticSpec
    n: int
    values: np.ndarray  # sorted ascending, length = plan.replicates
    plan: ReplicationPlan

    @property
    def replicates(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class TestReport:
    kind: str
    value: float
    p: float
    level: float
    reject: bool
    lower: float
    upper: float
    replicates: int
    seed: int


@dataclass(frozen=True)
class PowerCell:
    kind: str
    alternative: AlternativeSpec
    n: int
    level: float
    power: float
    replicates: int
    std_error: float
    failed_replicates: int = 0


@dataclass(frozen=True)
class DiagnosticReport:
    kind: str
    n: int
    bin_edges: np.ndarray
    counts: np.ndarray
    fitted_mean: float
    fitted_std: float
    ks_distance: float
    replicates: int


def _draw_chunk(draw, params, n: int, master_seed: int, start: int, stop: int) -> np.ndarray:
    rows = np.empty((stop - start, n))
    for k, stream in enumerate(RandomStream.block(master_seed, start, stop)):
        rows[k] = draw(params, n, stream)
    return rows


def _chunk_task(args):
    specs, n, master_seed, start, stop, draw, params = args
    rows = _draw_chunk(draw, params, n, master_seed, start, stop)
    return np.stack([evaluate_batch(spec, rows) for spec in specs])


def _simulate(specs: tuple[StatisticSpec, ...], n: int, plan: ReplicationPlan, first: int,
              draw, params) -> np.ndarray:
    """Values of each statistic on the same `draw(params, n, stream)` samples
    from streams first ... first + B - 1: a (len(specs), B) array in replicate
    order; NaN marks failed replicates."""
    for spec in specs:
        spec.check_n(n)
    b = plan.replicates
    out = np.empty((len(specs), b))
    starts = range(0, b, CHUNK)
    tasks = [(specs, n, plan.master_seed, first + s, first + min(s + CHUNK, b), draw, params)
             for s in starts]
    # The pool may start every worker on the first submit, so more workers
    # than chunks or cores would only cost forks.
    workers = min(plan.worker_hint, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        if any(spec.splits for spec in specs):
            # The window constants evaluate scipy.special. Loaded here, before
            # the fork, it is imported once instead of once in every worker.
            import scipy.special  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for s, vals in zip(starts, pool.map(_chunk_task, tasks)):
                out[:, s:s + CHUNK] = vals
    else:
        for s, task in zip(starts, tasks):
            out[:, s:s + CHUNK] = _chunk_task(task)
    return out


def simulate_null(specs: tuple[StatisticSpec, ...], n: int, plan: ReplicationPlan,
                  c: float = 1.0) -> tuple[NullDistribution, ...]:
    """Simulate the null law of each statistic on the same Lv(c) samples of size n.

    By pivotality c = 1 suffices; the override exists for pivotality checks.
    A failed replicate under the null signals a bug or an infeasible window,
    so it aborts with the replicate index rather than being absorbed.
    """
    vals = _simulate(specs, n, plan, 0, sample_levy, LevyParams(c=c))
    for spec, row in zip(specs, vals):
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise MonteCarloError(
                f"statistic {spec.kind} failed on null replicate {int(bad[0])} "
                f"(n={n}, seed={plan.master_seed})")
    vals.sort(axis=1)
    return tuple(NullDistribution(spec, n, row, plan) for spec, row in zip(specs, vals))


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")


def calibrate(nd: NullDistribution, level: float) -> tuple[float, float]:
    """Equal-tail empirical (level/2, 1 - level/2) quantiles of the null draws."""
    _check_level(level)
    lower = float(np.quantile(nd.values, level / 2.0))
    upper = float(np.quantile(nd.values, 1.0 - level / 2.0))
    return lower, upper


def p_value(nd: NullDistribution, observed: float) -> float:
    """Two-sided equal-tail simulated p-value with the +1 rank correction.

    Never returns 0; the smallest attainable value is 2/(B+1), so results
    below 1/(B+1) should be reported as bounds.
    """
    b = nd.replicates
    r_low = int(np.searchsorted(nd.values, observed, side="right"))
    r_high = b - int(np.searchsorted(nd.values, observed, side="left"))
    return min(1.0, 2.0 * min(r_low + 1, r_high + 1) / (b + 1))


def run_test(specs: tuple[StatisticSpec, ...], sample, level: float,
             plan: ReplicationPlan) -> tuple[TestReport | EstimationError, ...]:
    """Evaluate each statistic on data and test it against its simulated null.

    A statistic undefined on the data (e.g. a window too small at its n) gets
    its EstimationError in place of a report; the others share one null draw.
    """
    _check_level(level)
    s = np.asarray(sample, dtype=float).ravel()
    results = []
    for spec in specs:
        try:
            results.append(evaluate(spec, s))
        except EstimationError as e:
            results.append(e)
    ok = [i for i, r in enumerate(results) if not isinstance(r, EstimationError)]
    if ok:
        nulls = simulate_null(tuple(specs[i] for i in ok), s.size, plan)
        for i, nd in zip(ok, nulls):
            value = results[i]
            lower, upper = calibrate(nd, level)
            results[i] = TestReport(nd.spec.kind, value, p_value(nd, value), level,
                                    not lower <= value <= upper, lower, upper,
                                    plan.replicates, plan.master_seed)
    return tuple(results)


def power_study(nulls: tuple[NullDistribution, ...], alt: AlternativeSpec,
                level: float) -> tuple[PowerCell, ...]:
    """Rejection frequency under the alternative with each null's thresholds.

    The nulls share n, seed, B and worker count; their replicates used streams
    0 ... B-1 of the seed. The alternative's B samples use streams B ... 2B-1
    and are drawn once for every statistic, so one set of nulls serves every
    alternative.

    A replicate on which the statistic is undefined (e.g. a nonpositive COV
    denominator under a far alternative) counts as a rejection: such samples
    are maximally inconsistent with the null, and discarding them would bias
    the power estimate downward.
    """
    n, plan = nulls[0].n, nulls[0].plan
    if any((nd.n, nd.plan) != (n, plan) for nd in nulls):
        raise ValueError("power_study needs nulls of one sample size and plan")
    bounds = [calibrate(nd, level) for nd in nulls]
    b = plan.replicates
    vals = _simulate(tuple(nd.spec for nd in nulls), n, plan, b, sample_alternative, alt)
    cells = []
    for nd, (lower, upper), v in zip(nulls, bounds, vals):
        with np.errstate(invalid="ignore"):
            reject = ~((v >= lower) & (v <= upper))  # NaN compares False -> reject
        power = float(np.mean(reject))
        se = float(np.sqrt(power * (1.0 - power) / b))
        cells.append(PowerCell(nd.spec.kind, alt, n, level, power, b, se,
                               int(np.sum(~np.isfinite(v)))))
    return tuple(cells)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF erfc(-z / sqrt(2)) / 2, element by element.

    Within 2.3e-16 of scipy.special.ndtr, whose argument scaling it copies,
    without loading scipy.
    """
    root_half = math.sqrt(0.5)
    return np.array([0.5 * math.erfc(-v * root_half) for v in z.tolist()])


def normality_diagnostic(spec: StatisticSpec, n: int, plan: ReplicationPlan,
                         bins: int = 50) -> DiagnosticReport:
    """Histogram of the null law, moment-fitted normal, and KS distance.

    The KS distance compares the standardized null draws with the standard
    normal law; small values support the asymptotic-normality claims.
    """
    if plan.replicates < 1000:
        raise ValueError("diagnostic needs at least 1000 replicates")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    (nd,) = simulate_null((spec,), n, plan)
    mean = float(nd.values.mean())
    std = float(nd.values.std())
    counts, edges = np.histogram(nd.values, bins=bins)
    z = np.sort((nd.values - mean) / std)
    cdf = _normal_cdf(z)
    b = z.size
    i = np.arange(1, b + 1)
    ks = float(np.max(np.maximum(i / b - cdf, cdf - (i - 1) / b)))
    return DiagnosticReport(spec.kind, n, edges, counts, mean, std, ks, nd.replicates)
