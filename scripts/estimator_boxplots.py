#!/usr/bin/env python3
"""Boxplot data for the four scale estimators over replicated Levy samples.

For each sample size, emits the Monte Carlo quartiles and whisker bounds of
the QCM, QCV, MLE and COV estimates at a fixed true scale, as one JSON record
per (estimator, n). Feed the output to any plotting tool.
"""
import argparse
import json

import numpy as np

from levygof.condmoments import (QuantileSplit, theoretical_qcm, theoretical_qcv,
                                 window_mean, window_var)
from levygof.distributions import LevyParams, sample_levy
from levygof.estimators import cov, mle
from levygof.streams import RandomStream

# Windows used for the estimator comparison study.
QCM_SPLIT = QuantileSplit(0.2, 0.48)
QCV_SPLIT = QuantileSplit(0.0, 0.7)


def estimates(x):
    """The four scale estimates of each row of x, keyed by method."""
    xs = np.sort(x, axis=1)
    return {
        "QCM": window_mean(xs, QCM_SPLIT) / theoretical_qcm(QCM_SPLIT, 1.0),
        "QCV": np.sqrt(window_var(xs, QCV_SPLIT) / theoretical_qcv(QCV_SPLIT, 1.0)),
        "MLE": mle(x),
        "COV": cov(x),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--n-grid", default="20,50,100,200")
    ap.add_argument("--replicates", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # Every argument is checked before the first draw: the window kernels
    # check each n on an empty (0, n) batch.
    try:
        params = LevyParams(c=args.c)
        if args.replicates < 1:
            raise ValueError("replicates must be >= 1")
        streams = RandomStream.block(args.seed, 0, args.replicates)
        n_grid = [int(v) for v in args.n_grid.split(",")]
        for n in n_grid:
            if n < 1:
                raise ValueError(f"--n-grid sizes must be >= 1, got {n}")
            estimates(np.empty((0, n)))
    except ValueError as e:
        ap.error(str(e))

    for n in n_grid:
        x = np.vstack([sample_levy(params, n, stream) for stream in streams])
        for name, v in estimates(x).items():
            q1, med, q3 = np.percentile(v, [25, 50, 75])
            print(json.dumps({
                "method": name, "n": n, "c": args.c,
                "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
                "whisker_low": float(np.percentile(v, 2.5)),
                "whisker_high": float(np.percentile(v, 97.5)),
            }))


if __name__ == "__main__":
    main()
