#!/usr/bin/env python3
"""Sweep of the normal-fit quality of null laws across sample sizes.

For each statistic and each n, simulates the null distribution and reports
the moment-fitted normal parameters together with the Kolmogorov distance of
the standardized draws from the standard normal. The distance shrinking with
n is the empirical signature of asymptotic normality.
"""
import argparse
import json

from levygof.montecarlo import ReplicationPlan, normality_diagnostic
from levygof.statistics import StatisticSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stats", default="vn,on,tn")
    ap.add_argument("--n-grid", default="20,100,1000")
    ap.add_argument("--replicates", type=int, default=10000)
    ap.add_argument("--bins", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    try:
        plan = ReplicationPlan(args.seed, args.replicates, args.workers)
        specs = [StatisticSpec(kind.strip()) for kind in args.stats.split(",")]
        n_grid = [int(v) for v in args.n_grid.split(",")]
        for spec in specs:
            for n in n_grid:
                spec.check_n(n)
    except ValueError as e:
        ap.error(str(e))

    for spec in specs:
        for n in n_grid:
            try:
                # Checks the replicate count and the bins before it draws, so
                # a bad value fails the first call with nothing printed.
                rep = normality_diagnostic(spec, n, plan, bins=args.bins)
            except ValueError as e:
                ap.error(str(e))
            print(json.dumps({
                "stat": rep.kind, "n": rep.n,
                "fitted_mean": rep.fitted_mean, "fitted_std": rep.fitted_std,
                "ks_distance": rep.ks_distance, "replicates": rep.replicates,
            }))


if __name__ == "__main__":
    main()
