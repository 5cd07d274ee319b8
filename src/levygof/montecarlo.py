"""Deterministic parallel Monte Carlo engine.

Null-distribution simulation, two-sided threshold calibration, simulated
p-values, power studies against the benchmark alternatives, and normality
diagnostics of the null laws. A grid of statistics x sample sizes is one
`null_grid` call: one null draw per size serves every statistic, and a
reducer (thresholds, a diagnostic, or power against each alternative, as in
`power_grid`) turns it into records.

Determinism contract: every replicate draws from its own random stream keyed
by (master seed, replicate index), and replicates are processed in chunks
whose size depends on n alone, so output is byte-identical for a given plan
regardless of worker count or scheduling.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .distributions import AlternativeSpec, LevyParams, sample_alternative, sample_levy
from .statistics import Batch, EstimationError, StatisticSpec, evaluate, evaluate_batch
from .streams import RandomStream

__all__ = [
    "ReplicationPlan",
    "NullDistribution",
    "MonteCarloError",
    "check_grid",
    "simulate_null",
    "calibrate",
    "p_value",
    "run_test",
    "power_study",
    "null_grid",
    "power_grid",
    "normality_diagnostic",
]

# Replicates are processed in chunks of `_chunk_rows(n)` rows, a size that
# depends on n alone, so that results do not depend on how the chunk list is
# split across workers. Up to n = CHUNK_VALUES a chunk holds
# at most CHUNK_VALUES drawn values (256 KiB of float64); above it a chunk is
# one row of n values (8n bytes), so its memory grows with n. The size moves
# no byte, since each row has its own stream and every kernel groups rows by
# n alone. 2**15 values, the element count of `statistics._PAIR_BUDGET`, was
# chosen by measured peak RSS: chunks shrink only above n = 64, and at n = 250
# a chunk's kernels peak at ~2 MiB traced against ~6 MiB at 2**20.
CHUNK = 512
CHUNK_VALUES = 2**15


def _chunk_rows(n: int) -> int:
    """Replicates per chunk at sample size n."""
    return min(CHUNK, max(1, CHUNK_VALUES // n))


class MonteCarloError(RuntimeError):
    pass


@dataclass(frozen=True)
class ReplicationPlan:
    """Master seed, replicate count B and advisory worker count.

    The worker count is an upper bound: a simulation runs at most one worker
    per chunk of replicates (sized by n alone; see CHUNK) and per CPU core.

    Replicate i draws from stream (master_seed, i). A null simulation uses
    streams 0 ... B-1; a power study on that null draws its alternative
    samples from streams B ... 2B-1, so the two never share a stream.
    """

    master_seed: int
    replicates: int
    worker_hint: int = 1

    def __post_init__(self):
        for name in ("replicates", "worker_hint"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1")
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


def _chunk_task(args):
    specs, n, master_seed, start, stop, draw, params = args
    rows = draw(params, n, RandomStream(master_seed, start), stop - start)
    batch = Batch(rows)
    return np.stack([evaluate_batch(spec, rows, batch) for spec in specs])


def check_grid(specs, n_grid) -> None:
    """Raise EstimationError unless every statistic is defined at every n, and
    ValueError when there is no statistic.

    Callers run it before the first draw, so that a grid's output is all
    or nothing.
    """
    if not specs:
        raise ValueError("no statistic to simulate")
    for spec in specs:
        for n in n_grid:
            spec.check_n(n)


def _simulate(specs: tuple[StatisticSpec, ...], n: int, plan: ReplicationPlan, first: int,
              draw, params) -> np.ndarray:
    """Values of each statistic on the same samples from streams first ...
    first + B - 1: a (len(specs), B) array in replicate order; NaN marks
    failed replicates.

    Each chunk of replicates is one `draw(params, n, stream, rows)` block,
    whose row k comes from stream index + k, and its statistics share one
    `Batch` of those rows.
    """
    check_grid(specs, (n,))
    b = plan.replicates
    chunk = _chunk_rows(n)
    out = np.empty((len(specs), b))
    starts = range(0, b, chunk)
    tasks = [(specs, n, plan.master_seed, first + s, first + min(s + chunk, b), draw, params)
             for s in starts]
    # The pool may start every worker on the first submit, so more workers
    # than chunks or cores would only cost forks.
    workers = min(plan.worker_hint, len(tasks), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for s, vals in zip(starts, (pool.map if pool else map)(_chunk_task, tasks)):
            out[:, s:s + chunk] = vals
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


def calibrate(nd: NullDistribution, level: float) -> dict:
    """Equal-tail empirical (level/2, 1 - level/2) quantiles of the null draws,
    `lower` and `upper`: the `levygof calibrate` record."""
    _check_level(level)
    return {"stat": nd.spec.kind, "n": nd.n, "level": level,
            "lower": float(np.quantile(nd.values, level / 2.0)),
            "upper": float(np.quantile(nd.values, 1.0 - level / 2.0)),
            "replicates": nd.plan.replicates, "seed": nd.plan.master_seed}


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
             plan: ReplicationPlan) -> tuple[dict, ...]:
    """Evaluate each statistic on data and test it against its simulated null.

    Each statistic gets the record `levygof test` prints. `p_bound` is
    "<2/(B+1)" when the p-value is that smallest attainable value, else None.
    A statistic undefined on the data (e.g. a window too small at its n) gets
    an error record {"stat", "error"} in its place; the others share one null
    draw.
    """
    _check_level(level)
    s = np.asarray(sample, dtype=float).ravel()
    results = []
    for spec in specs:
        try:
            results.append(evaluate(spec, s))
        except EstimationError as e:
            results.append({"stat": spec.kind, "error": str(e)})
    ok = [i for i, r in enumerate(results) if not isinstance(r, dict)]
    if ok:
        nulls = simulate_null(tuple(specs[i] for i in ok), s.size, plan)
        bound = 2.0 / (plan.replicates + 1)
        for i, nd in zip(ok, nulls):
            value = results[i]
            p = p_value(nd, value)
            th = calibrate(nd, level)
            results[i] = {"stat": nd.spec.kind, "value": value, "p_value": p,
                          "p_bound": f"<{bound:.2g}" if p <= bound else None,
                          "level": level, "reject": not th["lower"] <= value <= th["upper"],
                          "lower": th["lower"], "upper": th["upper"],
                          "replicates": plan.replicates, "seed": plan.master_seed}
    return tuple(results)


def power_study(nulls: tuple[NullDistribution, ...], alt: AlternativeSpec,
                level: float) -> tuple[dict, ...]:
    """Rejection frequency under the alternative with each null's thresholds:
    one `levygof power` record per null.

    The nulls share n, seed, B and worker count; their replicates used streams
    0 ... B-1 of the seed. The alternative's B samples use streams B ... 2B-1
    and are drawn once for every statistic, so one set of nulls serves every
    alternative.

    A replicate on which the statistic is undefined (e.g. a nonpositive COV
    denominator under a far alternative) counts as a rejection: such samples
    are maximally inconsistent with the null, and discarding them would bias
    the power estimate downward. `failed_replicates` counts them.
    """
    if not nulls or any((nd.n, nd.plan) != (nulls[0].n, nulls[0].plan) for nd in nulls):
        raise ValueError("power_study needs nulls of one sample size and plan")
    n, plan = nulls[0].n, nulls[0].plan
    thresholds = [calibrate(nd, level) for nd in nulls]
    b = plan.replicates
    vals = _simulate(tuple(nd.spec for nd in nulls), n, plan, b, sample_alternative, alt)
    cells = []
    for nd, th, v in zip(nulls, thresholds, vals):
        with np.errstate(invalid="ignore"):
            reject = ~((v >= th["lower"]) & (v <= th["upper"]))  # NaN compares False -> reject
        power = float(np.mean(reject))
        cells.append({"stat": nd.spec.kind, "alt": alt.label(), "n": n, "level": level,
                      "power": power, "std_error": float(np.sqrt(power * (1.0 - power) / b)),
                      "replicates": b, "failed_replicates": int(np.sum(~np.isfinite(v))),
                      "seed": plan.master_seed})
    return tuple(cells)


def null_grid(specs: tuple[StatisticSpec, ...], n_grid, plan: ReplicationPlan, reduce) -> list:
    """The records of each statistic at each n, in (statistic, record, n) order.

    Every statistic is checked at every n before the first draw. One
    `simulate_null` per n serves every statistic: `reduce(nulls)` turns that
    size's nulls into one list of records per statistic, and the nulls are
    dropped before the next size is drawn.
    """
    check_grid(specs, n_grid)
    by_n = [reduce(simulate_null(specs, n, plan)) for n in n_grid]
    return [rec for by_stat in zip(*by_n) for recs in zip(*by_stat) for rec in recs]


def power_grid(specs: tuple[StatisticSpec, ...], alts, n_grid, plan: ReplicationPlan,
               level: float) -> list[dict]:
    """The power of each statistic against each alternative at each n, in
    (statistic, alternative, n) order.

    The level, and every statistic at every n, are checked before the first
    draw. Each size's nulls serve every alternative (see power_study and
    null_grid).
    """
    _check_level(level)
    return null_grid(specs, n_grid, plan,
                     lambda nulls: zip(*(power_study(nulls, alt, level) for alt in alts)))


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF erfc(-z / sqrt(2)) / 2, element by element.

    Within 2.3e-16 of scipy.special.ndtr, whose argument scaling it copies,
    without loading scipy.
    """
    root_half = math.sqrt(0.5)
    return np.array([0.5 * math.erfc(-v * root_half) for v in z.tolist()])


def _check_diagnostic(replicates: int, bins: int) -> None:
    """Raise ValueError unless `replicates` null draws in `bins` bins make a
    diagnostic; `levygof diagnose` runs it before the first draw."""
    if replicates < 1000:
        raise ValueError("diagnostic needs at least 1000 replicates")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if bins > replicates:
        raise ValueError(f"bins must be <= replicates ({replicates})")


def normality_diagnostic(nd: NullDistribution, bins: int = 50) -> dict:
    """Histogram of a simulated null law, moment-fitted normal, and KS distance:
    the `levygof diagnose` record, whose `bin_edges` and `counts` are arrays.

    The KS distance compares the standardized null draws with the standard
    normal law; small values support the asymptotic-normality claims.
    """
    _check_diagnostic(nd.replicates, bins)
    mean, std = float(nd.values.mean()), float(nd.values.std())
    counts, edges = np.histogram(nd.values, bins=bins)
    z = (nd.values - mean) / std  # sorted, as nd.values is
    cdf = _normal_cdf(z)
    b = z.size
    i = np.arange(1, b + 1)
    ks = float(np.max(np.maximum(i / b - cdf, cdf - (i - 1) / b)))
    return {"stat": nd.spec.kind, "n": nd.n, "fitted_mean": mean, "fitted_std": std,
            "ks_distance": ks, "replicates": nd.replicates, "bin_edges": edges,
            "counts": counts, "seed": nd.plan.master_seed}
