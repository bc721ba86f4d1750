#!/usr/bin/env python3
"""Build (or extend) the critical-line zero cache.

Usage:
    python scripts/build_zero_cache.py --tmax 10000 --out xidist_zeros.txt
"""

import argparse
import sys
import time

from xidist.zeros import counting_estimate, find_zeros, save_cache


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmax", type=float, default=10_000.0)
    ap.add_argument("--out", default="xidist_zeros.txt")
    args = ap.parse_args()

    print(f"expecting ~{counting_estimate(args.tmax):.0f} zeros below t = {args.tmax:g}")
    t0 = time.time()
    zl = find_zeros(args.tmax)
    print(f"found {len(zl)} zeros in {time.time() - t0:.1f} s")
    save_cache(zl, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
