#!/usr/bin/env python3
"""xidist benchmark: one closed-loop workload per invocation, checked against mpmath.

Run from the root of a checkout (the benchmark imports ``src/xidist`` from it):

    python3 bench/run.py --workload cross_sweep --seed 1 --seconds 15 --trace 0

Workloads (one process, one client, closed loop; BLAS/OpenMP pinned to one thread):

  cross_sweep  `xidist verify --suite cross`: run_cross_check on the 41-point CLI grid
               at one seeded (sigma_hi, sigma_lo) pair per op; item = one CF value
  zero_build   `xidist zeros --tmax 10020` cold: find_zeros(10020), save_cache,
               load_cache; item = one certified zero
  point_eval   `xidist eval`: blocks of 1024 single-point CF calls (cf_direct,
               cf_xi_star, cf_from_zeros); item = one evaluation
  dist_table   a sample/quantile/cdf/density session on a fresh sigma; item = one session

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
setup_s, throughput_per_s, op_p50_ms, op_tail_ms, pass_ratio, max_budget_use
and peak_rss_mb.  With ``--trace 1`` every second op runs under the span
tracer (tracing.py) and the last line holds the per-layer metrics instead.
The lines before it are a readable report, the run metadata and any failing
inputs.  The zero cache the warm workloads load is built from the checkout
under test once per invocation, untimed.  Set-up is timed in several fresh
processes and the median reported.  Files are written only below
``.bench_work/`` in the checkout.

Exit status: 0 with a result line; 2 without one when the checkout holds no
``src/xidist`` or a benchmark process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cross_sweep", "zero_build", "point_eval", "dist_table")
NEEDS_CACHE = ("cross_sweep", "point_eval")
SETUP_SAMPLES = 5  # fresh processes timed per run, the measuring one included
HELD_OUT_SEED = 7919  # never used while the benchmark was tuned; later claims must also hold on it
WORKER_TIMEOUT_S = 150
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "items/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pass_ratio": "ratio",
    "max_budget_use": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _worker(mode: str, args, work: str, env: dict, *extra: str) -> dict:
    out = os.path.join(work, f"{mode}-{time.monotonic_ns()}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", work, "--out", out,
        "--spawned", repr(time.monotonic()), *extra,
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    with open(out) as fh:
        return json.load(fh)


def _source_identity(root: str) -> dict:
    """git SHA when the checkout is a repository, and a digest of src/ either way."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run(args, root: str) -> tuple[dict, list[str]]:
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    extra = []
    if args.smoke:
        extra.append("--smoke")
    try:
        if args.workload in NEEDS_CACHE:
            extra += ["--cache", os.path.join(work, "xidist_zeros.txt")]
            _worker("build-cache", args, work, env, *extra)
        samples = 1 if args.smoke else SETUP_SAMPLES - 1
        setups = [_worker("setup", args, work, env, *extra) for _ in range(samples)]
        import_s = statistics.median(s["import_s"] for s in setups)
        if args.trace:
            extra += ["--import-s", repr(import_s),
                      "--spans", os.path.join(base, f"spans-{args.workload}-seed{args.seed}.jsonl")]
        if args.inject_wrong_reference:
            extra.append("--inject-wrong-reference")
        res = _worker("measure", args, work, env, *extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # set-up runs just before the measured loop; the loop's machine-speed factor scales it too
    raw_setup = [s["setup_s"] for s in setups] + [res["setup_s"]]
    setup_values = [v * res["scale"] for v in raw_setup]
    lat = res["latency"]
    e2e = {
        "setup_s": statistics.median(setup_values),
        "throughput_per_s": res["throughput_per_s"],
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "pass_ratio": 1.0 - res["failed"] / res["attempted"],
        "max_budget_use": res["max_budget_use"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    meta = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, **_source_identity(root), **res["meta"],
        "setup_samples": len(setup_values), "calibration_ms": res["calibration_ms"],
        "raw_op_p50_ms": res["raw_p50_ms"], "raw_setup_s": statistics.median(raw_setup),
        "op_samples": lat["n"], "tail_percentile": lat["tail_pct"], "tail_beyond": lat["beyond"],
    }
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    for name, value in e2e.items():
        lines.append(f"  {name:<18} {value:.6g} {E2E_UNITS[name]}")
    lines.append(f"  op_tail_ms is p{lat['tail_pct']:.4g} of {lat['n']} ops ({lat['beyond']} beyond); "
                 f"setup_s is the median of {len(setup_values)} processes")
    lines.append(f"  times are scaled to the reference machine by {res['scale']:.4g}: calibration kernel "
                 f"{res['calibration_ms']:.4g} ms here vs {res['reference_ms']:g} ms, to the power "
                 f"{res['exponent']:g}; unscaled op p50 {res['raw_p50_ms']:.6g} ms, "
                 f"set-up {statistics.median(raw_setup):.6g} s")
    lines.append(f"  fail_ratio {res['failed']}/{res['attempted']} ops; {res['checks']} checks; "
                 f"worst budget use: {res['worst_check']}")
    lines += [f"  {note}" for note in res["notes"]]
    if res["failures_total"]:
        lines.append(f"  FAILING ({res['failures_total']} failed checks or raised ops, first listed):")
        lines += [f"    {f}" for f in res["failures"]]
    if args.trace:
        traced = res["traced_latency"]
        lines.append(f"  traced ops {traced['n']}, p50 {traced['p50_ms']:.6g} ms; untraced p50 {lat['p50_ms']:.6g} ms; "
                     f"spans kept {res['spans_kept']}, dropped {res['spans_dropped']}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        for name, m in metrics.items():
            lines.append(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test size: one set-up sample and rounds of one op")
    ap.add_argument("--inject-wrong-reference", action="store_true",
                    help="self-test: make every reference wrong; failures must be counted")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xidist", "__init__.py")):
        print("error: no src/xidist below the current directory; run from the root of an xidist checkout",
              file=sys.stderr)
        return 2
    try:
        result, lines = run(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
