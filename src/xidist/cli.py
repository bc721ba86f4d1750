"""Command-line surface: evaluation, density tables, sampling, zero-cache
management, and verification sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
or data failure (a tolerance that cannot be met, a CF value that underflows
to 0 or is not finite, an incomplete zero list, a malformed cache, an I/O
error); errors are one ``error:`` line on standard error.  All numeric
output uses 15 significant digits, so identical invocations over identical
caches are byte-identical.  The zero cache location defaults to
$XIDIST_ZERO_CACHE (falling back to ./xidist_zeros.txt) and is built on
demand, with a progress line on standard error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .accuracy import AccuracyError, CacheChecksumError, CacheParseError, DomainError, MissedZeroError
from .distribution import _Y_UNDERFLOW, XiDistribution
from .harness import (
    CrossCheckConfig,
    VerificationFailure,
    run_cross_check,
    run_inequality_scan,
    run_zero_convergence,
)
from .levy import PrimeCutoff, cf_from_triplet, cf_from_zeros, cf_xi_star, xi_triplet
from .zeros import ensure_cache, gamma_ceiling

_BACKENDS = ("direct", "density", "zeros", "primes", "xi_star")

# panels of at most 0.05 over the density's support [-Y, Y], with a node at its kink y = 0:
# fine enough for ``panel_cdf``'s 5-point rule to meet the certified ``cdf`` to ~1e-15
_HALF_MESH = np.linspace(0.0, _Y_UNDERFLOW, math.ceil(_Y_UNDERFLOW / 0.05) + 1)
_CDF_MESH = np.concatenate([-_HALF_MESH[:0:-1], _HALF_MESH])


def _fmt(x: float) -> str:
    out = f"{x:.15g}"
    if "e" not in out and "." not in out and "n" not in out:
        out += ".0"
    return out


def _cmd_eval(args) -> int:
    dist = XiDistribution(args.sigma)
    if args.backend == "direct":
        v = dist.cf_direct(args.t)
    elif args.backend == "density":
        v = dist.cf_from_density(args.t)
    elif args.backend == "zeros":
        zl = ensure_cache(gamma_ceiling(args.K), args.cache, progress=sys.stderr)
        v = cf_from_zeros(args.sigma, args.t, zl, args.K).value
    elif args.backend == "primes":
        v = cf_from_triplet(xi_triplet(args.sigma, PrimeCutoff(args.p_max, args.r_max)), args.t)
    else:  # xi_star
        v = cf_xi_star(args.sigma, args.t)
    # Xi_sigma(t) vanishes only at zeta zeros, which no double hits: an exact 0 is an underflow
    if args.t != 0.0 and not (v != 0.0 and np.isfinite(v)):
        what = "underflows to 0" if v == 0.0 else "is not finite"
        raise AccuracyError(f"the CF at sigma={args.sigma:g}, t={args.t:g} {what} in float64")
    print(_fmt(v.real), _fmt(v.imag))
    return 0


def _cmd_density(args) -> int:
    try:
        lo_s, hi_s, n_s = args.range.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise DomainError(f"bad --range {args.range!r}; expected A:B:N")
    if not (lo < hi and n >= 2):
        raise DomainError("--range requires A < B and N >= 2")
    dist = XiDistribution(args.sigma)
    ys = np.linspace(lo, hi, n)
    pdf = dist.density(ys)
    fine = np.union1d(ys, _CDF_MESH[(_CDF_MESH > lo) & (_CDF_MESH < hi)])
    cdf = dist.cdf(lo) + dist.panel_cdf(fine)[np.searchsorted(fine, ys)]
    out = args.output if args.output else sys.stdout
    close = False
    if isinstance(out, str):
        out, close = open(out, "w"), True
    out.write("y,pdf,cdf\n")
    for y, p, c in zip(ys, pdf, cdf):
        out.write(f"{_fmt(y)},{_fmt(p)},{_fmt(c)}\n")
    if close:
        out.close()
    return 0


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    draws = XiDistribution(args.sigma).sample(args.n, args.seed)
    chunk = 1 << 14  # lines per write
    for s in range(0, args.n, chunk):
        sys.stdout.write("".join(f"{_fmt(v)}\n" for v in draws[s : s + chunk].tolist()))
    return 0


def _cmd_zeros(args) -> int:
    zl = ensure_cache(args.tmax, args.cache, progress=sys.stderr)
    print(f"{zl.count_below(args.tmax)} zeros")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "inequality":
        report = run_inequality_scan([max(args.sigma, 0.5)], np.arange(-50.0, 50.5, 1.0))
        sys.stdout.write(report.to_csv())
        return 0 if report.passed() else 1
    if args.suite == "cross":
        zl = None
        if args.sigma > 0.5:
            zl = ensure_cache(gamma_ceiling(args.K), args.cache, progress=sys.stderr)
        config = CrossCheckConfig(zero_list=zl, k_zeros=args.K, cut=PrimeCutoff(args.p_max, args.r_max))
        report = run_cross_check(args.sigma, np.arange(-10.0, 10.25, 0.5), config)
        sys.stdout.write(report.to_csv())
        return 0 if report.passed() else 1
    # convergence
    zl = ensure_cache(gamma_ceiling(args.K), args.cache, progress=sys.stderr)
    k_list = [k for k in (100, 1000, args.K) if k <= len(zl)]
    try:
        rows = run_zero_convergence(args.sigma, args.t, k_list, zl)
    except VerificationFailure as exc:
        print(f"# FAILED: {exc}")
        return 1
    print("K,abs_residual")
    for k, r in rows:
        print(f"{k},{_fmt(r)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xidist",
        description="Completed-zeta distribution: evaluate, tabulate, sample, verify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print Re and Im of the CF at one point")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--backend", choices=_BACKENDS, default="direct")
    p.add_argument("--K", type=int, default=1000, help="zeros used by the zeros backend")
    p.add_argument("--p-max", type=int, default=100_000)
    p.add_argument("--r-max", type=int, default=40)
    p.add_argument("--cache", default=None, help="zero cache path")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("density", help="CSV table y,pdf,cdf over a range A:B:N")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--range", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("sample", help="deterministic draws, one per line")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("zeros", help="build/load the zero cache; print the count")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--cache", default=None)
    p.set_defaults(fn=_cmd_zeros)

    p = sub.add_parser("verify", help="run a verification suite; CSV to stdout")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--suite", choices=("cross", "inequality", "convergence"), required=True)
    p.add_argument("--t", type=float, default=3.0, help="ordinate for the convergence suite")
    p.add_argument("--K", type=int, default=10_000)
    p.add_argument("--p-max", type=int, default=100_000)
    p.add_argument("--r-max", type=int, default=40)
    p.add_argument("--cache", default=None)
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # let "--range -1:1:5" through even though the value starts with a dash
    for i, token in enumerate(argv[:-1]):
        if token == "--range" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--range={argv[i + 1]}"]
            break
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (AccuracyError, MissedZeroError, CacheParseError, CacheChecksumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
