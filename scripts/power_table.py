#!/usr/bin/env python3
"""Run the full power grid: statistics x alternative families x sample sizes.

Emits one JSON record per cell, from `levygof.montecarlo.power_grid` against
the paper's alternatives, as `levygof power` does with repeated `--stat` and
no `--alt` (whose records also carry `replicates` and `seed`). At the default
desk-scale replicate count (2000) a full grid takes a few minutes; use
--replicates 10000 for publication-quality numbers.

Example:
    python scripts/power_table.py --stats vn,on,tn --n-grid 20,50,100 \
        --replicates 2000 > power.jsonl
"""
import argparse
import json

from levygof.distributions import PAPER_ALTERNATIVES
from levygof.montecarlo import ReplicationPlan, power_grid
from levygof.statistics import StatisticSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stats", default="vn,on,tn,cn,ran,deltan")
    ap.add_argument("--n-grid", default="20,50,100,250")
    ap.add_argument("--level", type=float, default=0.05)
    ap.add_argument("--replicates", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    # Every argument is checked before the first draw.
    try:
        cells = power_grid(tuple(StatisticSpec(kind.strip()) for kind in args.stats.split(",")),
                           PAPER_ALTERNATIVES, [int(v) for v in args.n_grid.split(",")],
                           ReplicationPlan(args.seed, args.replicates, args.workers), args.level)
    except ValueError as e:
        ap.error(str(e))
    for cell in cells:
        print(json.dumps({k: v for k, v in cell.items() if k not in ("replicates", "seed")}))


if __name__ == "__main__":
    main()
