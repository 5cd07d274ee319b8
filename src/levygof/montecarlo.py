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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import AlternativeSpec, LevyParams, sample_alternative, sample_levy
from .special import normal_cdf
from .statistics import StatisticSpec, evaluate_batch
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
    for k, idx in enumerate(range(start, stop)):
        rows[k] = draw(params, n, RandomStream(master_seed, idx))
    return rows


def _chunk_task(args):
    spec, n, master_seed, start, stop, draw, params = args
    return evaluate_batch(spec, _draw_chunk(draw, params, n, master_seed, start, stop))


def _simulate(spec: StatisticSpec, n: int, plan: ReplicationPlan, first: int,
              draw, params) -> np.ndarray:
    """Statistic values on `draw(params, n, stream)` samples from streams
    first ... first + B - 1, in replicate order; NaN marks failed replicates."""
    spec.check_n(n)
    hi = first + plan.replicates
    tasks = [(spec, n, plan.master_seed, s, min(s + CHUNK, hi), draw, params)
             for s in range(first, hi, CHUNK)]
    if plan.worker_hint > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=plan.worker_hint) as pool:
            chunks = list(pool.map(_chunk_task, tasks))
    else:
        chunks = [_chunk_task(t) for t in tasks]
    return np.concatenate(chunks)


def simulate_null(spec: StatisticSpec, n: int, plan: ReplicationPlan,
                  c: float = 1.0) -> NullDistribution:
    """Simulate the null law of the statistic on Lv(c) samples of size n.

    By pivotality c = 1 suffices; the override exists for pivotality checks.
    A failed replicate under the null signals a bug or an infeasible window,
    so it aborts with the replicate index rather than being absorbed.
    """
    vals = _simulate(spec, n, plan, 0, sample_levy, LevyParams(c=c))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise MonteCarloError(
            f"statistic {spec.kind} failed on null replicate {int(bad[0])} "
            f"(n={n}, seed={plan.master_seed})")
    return NullDistribution(spec, n, np.sort(vals), plan)


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


def run_test(spec: StatisticSpec, sample, level: float, plan: ReplicationPlan) -> TestReport:
    """Evaluate the statistic on data and test it against its simulated null."""
    from .statistics import evaluate

    _check_level(level)
    value = evaluate(spec, sample)
    s = np.asarray(sample, dtype=float).ravel()
    nd = simulate_null(spec, s.size, plan)
    lower, upper = calibrate(nd, level)
    p = p_value(nd, value)
    return TestReport(spec.kind, value, p, level, not lower <= value <= upper,
                      lower, upper, plan.replicates, plan.master_seed)


def power_study(null: NullDistribution, alt: AlternativeSpec, level: float) -> PowerCell:
    """Rejection frequency under the alternative with the null's thresholds.

    The statistic, n, seed, B and worker count come from `null`. Its
    replicates used streams 0 ... B-1 of the seed; the alternative's B samples
    use streams B ... 2B-1, so one null serves every alternative.

    A replicate on which the statistic is undefined (e.g. a nonpositive COV
    denominator under a far alternative) counts as a rejection: such samples
    are maximally inconsistent with the null, and discarding them would bias
    the power estimate downward.
    """
    lower, upper = calibrate(null, level)
    b = null.plan.replicates
    vals = _simulate(null.spec, null.n, null.plan, b, sample_alternative, alt)
    failed = int(np.sum(~np.isfinite(vals)))
    with np.errstate(invalid="ignore"):
        reject = ~((vals >= lower) & (vals <= upper))  # NaN compares False -> reject
    power = float(np.mean(reject))
    se = float(np.sqrt(power * (1.0 - power) / b))
    return PowerCell(null.spec.kind, alt, null.n, level, power, b, se, failed)


def normality_diagnostic(spec: StatisticSpec, n: int, plan: ReplicationPlan,
                         bins: int = 50) -> DiagnosticReport:
    """Histogram of the null law, moment-fitted normal, and KS distance.

    The KS distance compares the standardized null draws with the standard
    normal law; small values support the asymptotic-normality claims.
    """
    if plan.replicates < 1000:
        raise ValueError("diagnostic needs at least 1000 replicates")
    nd = simulate_null(spec, n, plan)
    mean = float(nd.values.mean())
    std = float(nd.values.std())
    counts, edges = np.histogram(nd.values, bins=bins)
    z = np.sort((nd.values - mean) / std)
    cdf = normal_cdf(z)
    b = z.size
    i = np.arange(1, b + 1)
    ks = float(np.max(np.maximum(i / b - cdf, cdf - (i - 1) / b)))
    return DiagnosticReport(spec.kind, n, edges, counts, mean, std, ks, nd.replicates)
