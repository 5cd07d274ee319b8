#!/usr/bin/env python3
"""Boxplot data for the four scale estimators over replicated Levy samples.

For each sample size, emits the Monte Carlo quartiles and whisker bounds of
the QCM, QCV, MLE and COV estimates at a fixed true scale, as one JSON record
per (estimator, n). Feed the output to any plotting tool.

All four estimators are scale-equivariant, so the study is drawn at c = 1
and each printed number is scaled by c; a draw at an extreme c would
overflow or underflow. A c that puts a number outside the float range is a
usage error: a nonzero number below the smallest normal float counts as
outside, since it has lost significant digits.
"""
import argparse
import json
import math
import sys

import numpy as np

from levygof.distributions import LevyParams, QuantileSplit
from levygof.montecarlo import ReplicationPlan, check_grid, simulate_null
from levygof.statistics import StatisticSpec

# The estimators of the comparison study; QCV on its default window (0, 0.7).
SPECS = (StatisticSpec("qcm", (QuantileSplit(0.2, 0.48),)), StatisticSpec("qcv"),
         StatisticSpec("mle"), StatisticSpec("cov"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--n-grid", default="20,50,100,200")
    ap.add_argument("--replicates", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # Every argument is checked before the first draw.
    try:
        LevyParams(c=args.c)
        plan = ReplicationPlan(args.seed, args.replicates)
        n_grid = [int(v) for v in args.n_grid.split(",")]
        check_grid(SPECS, n_grid)
    except ValueError as e:
        ap.error(str(e))

    records = []
    for n in n_grid:
        for nd in simulate_null(SPECS, n, plan):
            with np.errstate(over="ignore"):
                lo, q1, med, q3, hi = args.c * np.percentile(nd.values, [2.5, 25, 50, 75, 97.5])
            records.append({
                "method": nd.spec.kind.upper(), "n": n, "c": args.c,
                "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
                "whisker_low": lo, "whisker_high": hi,
            })
    if not all(math.isfinite(v) and (v == 0 or abs(v) >= sys.float_info.min)
               for r in records for k, v in r.items() if k != "method"):
        ap.error(f"--c {args.c} puts the estimates outside the float range")
    for r in records:
        print(json.dumps(r))


if __name__ == "__main__":
    main()
