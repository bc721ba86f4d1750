#!/usr/bin/env python3
"""Sweep every CF backend against every other and dump the residual CSVs.

One CSV per sigma; the summary block at the bottom of each file lists the
max/mean residual per backend pair and the truncation parameters used.

Usage:
    python scripts/cross_check_sweep.py --sigmas 0.75 1 2 3 --k-zeros 10000
"""

import argparse
import sys
import time

import numpy as np

from xidist.harness import CrossCheckConfig, run_cross_check
from xidist.levy import PrimeCutoff
from xidist.zeros import ensure_cache, gamma_ceiling


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigmas", type=float, nargs="+", default=[0.75, 1.0, 2.0])
    ap.add_argument("--t-max", type=float, default=10.0)
    ap.add_argument("--t-step", type=float, default=0.5)
    ap.add_argument("--k-zeros", type=int, default=10_000)
    ap.add_argument("--p-max", type=int, default=100_000)
    ap.add_argument("--cache", default=None)
    ap.add_argument("--prefix", default="cross_check")
    args = ap.parse_args()

    zl = ensure_cache(gamma_ceiling(args.k_zeros), args.cache, progress=sys.stderr)
    config = CrossCheckConfig(
        zero_list=zl, k_zeros=args.k_zeros, cut=PrimeCutoff(args.p_max, 40)
    )
    grid = np.arange(-args.t_max, args.t_max + args.t_step / 2, args.t_step)
    failures = 0
    for sigma in args.sigmas:
        t0 = time.time()
        report = run_cross_check(sigma, grid, config)
        path = f"{args.prefix}_sigma{sigma:g}.csv"
        with open(path, "w") as fh:
            fh.write(report.to_csv())
        pair, (worst, _) = report.worst_pair()
        status = "ok" if report.passed() else "OVER BUDGET"
        print(
            f"sigma={sigma:g}: backends {report.backend_set}, "
            f"worst pair {pair} at {worst:.3e} [{status}] "
            f"({time.time() - t0:.1f} s) -> {path}"
        )
        failures += 0 if report.passed() else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
