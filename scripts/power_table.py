#!/usr/bin/env python3
"""Run the full power grid: statistics x alternative families x sample sizes.

Emits one JSON record per cell. At the default desk-scale replicate count
(2000) a full grid takes a few minutes; use --replicates 10000 for
publication-quality numbers.

Example:
    python scripts/power_table.py --stats vn,on,tn --n-grid 20,50,100 \
        --replicates 2000 > power.jsonl
"""
import argparse
import json

from levygof.distributions import AlternativeSpec
from levygof.montecarlo import ReplicationPlan, power_study, simulate_null
from levygof.statistics import StatisticSpec

DEFAULT_ALTERNATIVES = [
    ("gamma", (2.0, 3.0)),
    ("chisquared", (4.0,)),
    ("weibull", (1.75, 1.0)),
    ("lognormal", (0.0, 1.0)),
    ("pareto", (0.75, 1.0)),
    ("pareto", (1.5, 0.5)),
    ("rayleigh", (1.0,)),
    ("halfnormal", (1.0,)),
    ("frechet", (0.0, 0.5, 1.0)),
    ("absloggamma", (3.0, 2.0)),
    ("invgaussian", (1.0, 1.5)),
    ("burr", (1.5, 0.5, 0.5)),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stats", default="vn,on,tn,cn,ran,deltan")
    ap.add_argument("--n-grid", default="20,50,100,250")
    ap.add_argument("--level", type=float, default=0.05)
    ap.add_argument("--replicates", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    try:
        if not 0.0 < args.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        plan = ReplicationPlan(args.seed, args.replicates, args.workers)
        n_grid = [int(v) for v in args.n_grid.split(",")]
        specs = tuple(StatisticSpec(kind.strip()) for kind in args.stats.split(","))
        for spec in specs:
            for n in n_grid:
                spec.check_n(n)
    except ValueError as e:
        ap.error(str(e))
    alts = [AlternativeSpec(fam, params) for fam, params in DEFAULT_ALTERNATIVES]
    # One draw per n serves every statistic, and its nulls serve every
    # alternative (see power_study); cells[alt][n] holds one cell per statistic.
    nulls = [simulate_null(specs, n, plan) for n in n_grid]
    cells = [[power_study(null, alt, args.level) for null in nulls] for alt in alts]
    for k in range(len(specs)):
        for by_n in cells:
            for cell in (by_stat[k] for by_stat in by_n):
                print(json.dumps({
                    "stat": cell.kind, "alt": cell.alternative.label(), "n": cell.n,
                    "level": args.level, "power": cell.power,
                    "std_error": cell.std_error,
                    "failed_replicates": cell.failed_replicates,
                }))


if __name__ == "__main__":
    main()
