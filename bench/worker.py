"""One benchmark process: builds the zero cache, times a set-up, or runs a workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS/OpenMP pinned to one thread; it writes one JSON document to --out.

  build-cache  find_zeros(10020) and save_cache, the warm cache the CLI loads
  setup        import xidist.cli, load the cache, one warm-up op; then exit
  measure      set-up, then the closed loop for --seconds, then the checks
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter

MAX_LISTED_FAILURES = 20
TAIL_FLOOR_PCT = 75.0  # the tail percentile never reads below the upper quartile


def latency_stats(lat) -> dict:
    """Median and tail latency (ms).

    The tail is the highest percentile that leaves >= 10 samples beyond it,
    but at least p75: with fewer than 40 ops that rule would sink below the
    upper quartile (p9.1 of 11 ops, below the median).  Percentiles
    interpolate between order statistics, as
    ``statistics.quantiles(method="inclusive")`` does.
    """
    xs = sorted(lat)
    n = len(xs)
    pct = max(TAIL_FLOOR_PCT, 100.0 * (n - 10) / n)
    h = (n - 1) * pct / 100.0
    lo = int(h)
    tail = xs[lo] + (xs[min(lo + 1, n - 1)] - xs[lo]) * (h - lo)
    return {"n": n, "p50_ms": statistics.median(xs) * 1e3, "tail_ms": tail * 1e3,
            "tail_pct": pct, "beyond": sum(x > tail for x in xs)}


def _setup(args):
    """Import, load and warm up; returns (workload, tracer, import_s, setup_s from process start).

    xidist.cli is imported before anything of the benchmark's own, so that its
    import time includes numpy and scipy as it does for a CLI user; mpmath,
    which only the checks need, is imported after set-up.
    """
    t0 = time.monotonic()
    import xidist.cli  # noqa: F401

    import_s = time.monotonic() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.work, args.cache)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            tracer.root("setup", wl.setup)
        finally:
            tracer.uninstall()
    else:
        wl.setup()
    return wl, tracer, import_s, time.monotonic() - args.spawned


def _run_loop(wl, seconds, round_ops, tracer=None):
    """Closed loop: op k+1 starts when op k returns.  With a tracer, every second op is traced.

    The loop stops at the end of a round of ``round_ops`` ops: the run holds
    the whole number of rounds, at least one, whose duration comes closest to
    ``seconds``.  Returns per phase (untraced, traced) the ops' (start, end)
    times, the speed track sampled between ops, the item count, the ops that
    raised, the checks and the number of ops attempted.
    """
    from calibrate import SpeedTrack  # after set-up: it imports numpy and scipy

    phases = {False: [], True: []}
    speed = SpeedTrack()
    items = 0
    raised = {}
    checks = []
    k = 0
    start = perf_counter()
    while True:
        if k and k % round_ops == 0:
            elapsed = perf_counter() - start
            if elapsed + 0.5 * elapsed / (k // round_ops) >= seconds:
                break
        traced = tracer is not None and k % 2 == 1
        inp = wl.input(k)
        speed.maybe_sample()
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            out = tracer.op(wl.op, inp) if traced else wl.op(inp)
        except Exception:
            out = None
            raised[k] = (repr(inp), traceback.format_exc(limit=4))
        t1 = perf_counter()
        if traced:
            tracer.uninstall()
        phases[traced].append((t0, t1))
        if out is not None:
            items += wl.items(out)
            checks += wl.keep(k, inp, out)
        k += 1
    return phases, speed, items, raised, checks, k


def _metadata() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned_threads": int(os.environ.get("OMP_NUM_THREADS", "0")),
    }


def build_cache(args) -> dict:
    from workloads import CACHE_T_MAX
    from xidist import zeros

    zeros.save_cache(zeros.find_zeros(CACHE_T_MAX), args.cache)
    return {"cache": args.cache}


def setup_only(args) -> dict:
    _, _, import_s, setup_s = _setup(args)
    return {"setup_s": setup_s, "import_s": import_s}


def measure(args) -> dict:
    wl, tracer, import_s, setup_s = _setup(args)
    import calibrate
    from reference import Reference
    from workloads import ROUND

    wl.ref = Reference(perturb=args.inject_wrong_reference)
    # whole stratified rounds, and with a tracer as many traced ops as untraced
    round_ops = (1 if args.smoke else ROUND) * (2 if tracer is not None else 1)
    phases, speed, items, raised, checks, attempted = _run_loop(wl, args.seconds, round_ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks += wl.final_checks()
    notes = wl.notes()

    failed_ops = set(raised)
    failures = [f"op {k}: raised on input {inp}: {tb.strip().splitlines()[-1]}" for k, (inp, tb) in raised.items()]
    for c in checks:
        if not c.ok:
            failed_ops.add(c.op)
            detail = "" if c.residual is None else f" (residual {c.residual:.3e} > budget {c.budget:.3e})"
            failures.append(f"op {c.op}: {c.what}{detail}")
    numeric = [c for c in checks if c.residual is not None]
    worst = max(numeric, key=lambda c: c.use) if numeric else None

    scale = speed.factor()
    lat = {key: [(t1 - t0) * scale for t0, t1 in v] for key, v in phases.items()}
    untraced = latency_stats(lat[False])
    raw = latency_stats([t1 - t0 for t0, t1 in phases[False]])
    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "scale": scale,
        "latency": untraced,
        "raw_p50_ms": raw["p50_ms"],
        "calibration_ms": speed.median_s() * 1e3,
        "reference_ms": calibrate.REFERENCE_S * 1e3,
        "exponent": calibrate.EXPONENT,
        "throughput_per_s": items / (sum(lat[False]) + sum(lat[True])),
        "attempted": attempted,
        "failed": len(failed_ops),
        "failures": failures[:MAX_LISTED_FAILURES],
        "failures_total": len(failures),
        "checks": len(checks),
        "max_budget_use": worst.use if worst else 0.0,
        "worst_check": worst.what if worst else "",
        "notes": notes,
        "peak_rss_mb": peak_rss_mb,
        "meta": _metadata(),
    }
    if tracer is not None:
        from tracing import layer_metrics

        traced = latency_stats(lat[True])
        result["traced_latency"] = traced
        overhead = traced["p50_ms"] / untraced["p50_ms"] - 1.0
        import_s = args.import_s if args.import_s is not None else import_s
        result["layers"] = layer_metrics(tracer, len(phases[True]), scale, import_s * scale, overhead)
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.spans_dropped
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("build-cache", "setup", "measure"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True, help="scratch directory for this run")
    ap.add_argument("--cache", help="zero cache path")
    ap.add_argument("--spawned", type=float, required=True, help="monotonic time the parent started this process")
    ap.add_argument("--import-s", type=float, default=None, help="median unscaled import time of the set-up samples")
    ap.add_argument("--spans", help="write the kept raw spans here (traced runs)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-wrong-reference", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    fn = {"build-cache": build_cache, "setup": setup_only, "measure": measure}[args.mode]
    result = fn(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
