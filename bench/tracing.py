"""Span tracing of xidist from outside the program, for the benchmark's traced run.

While a traced op runs, the public names that each xidist module imported
from another module (``xidist.harness.cf_from_triplet``,
``xidist.distribution.fourier_quad``, ``xidist.zeros.z_values``, ...) and the
public methods of the classes the workloads use (``XiDistribution.cf_direct``,
``.cdf``, ...) are replaced by wrappers that record one span per call: name,
layer, start, end and parent.  Integrand calls are counted by wrapping the
``f`` handed to the quadrature entry points.  Spans are aggregated in memory
as they close and the first ``span_cap`` raw spans are kept for writing out
when the run ends.

A span's self time is its duration minus the durations of its child spans.
Calls are synchronous and single-threaded, so children never overlap and the
self times of all spans under an op add up to the op's traced duration.

If a wrapped name no longer exists, building the tracer raises
``TraceSymbolError`` naming it: a refactor must surface as an error, not as a
silent zero count.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter

import numpy as np

# Z points are split at t = 1000, the exact-phase / Riemann-Siegel switch of
# the commit this benchmark was written against.  The split stays fixed so
# that a change of the switch shows up as points moving between the sides.
Z_SPLIT = 1000.0


class TraceSymbolError(RuntimeError):
    """A name the tracer wraps is missing from xidist."""


def _layer_of(fn) -> str:
    module = getattr(fn, "__module__", None) or ""
    return module.split(".")[1] if module.startswith("xidist.") else "bench"


class Tracer:
    """Records spans around the wrapped xidist names while installed."""

    def __init__(self, span_cap: int = 50_000):
        self.stack: list = []
        # (root, parent, name, layer) -> [calls, total_s, self_s, units, errors]
        self.agg: dict = {}
        self.spans: list = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._next_id = 0
        self._star_triplets: dict = {}
        self._sampled_sigmas: set = set()
        self._patches = [_resolve(module, path) + (make,) for module, path, make in TARGETS]
        for i, (owner, attr, original, make) in enumerate(self._patches):
            self._patches[i] = (owner, attr, original, make(self, original))

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -------------------------------------------------------------- spans

    def call(self, name, layer, units, units_of, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span; ``units_of(result)`` overrides ``units``."""
        parent = self.stack[-1] if self.stack else None
        frame = [name, layer, 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, parent, start, perf_counter(), units, 1)
            raise
        end = perf_counter()
        if units_of is not None:
            units = units_of(result)
        self._close(frame, parent, start, end, units, 0)
        return result

    def op(self, fn, arg):
        """One workload op as a root span; per-op tags start empty."""
        self._star_triplets.clear()
        self._sampled_sigmas.clear()
        return self.call("op", "bench", 0, None, fn, (arg,), {})

    def root(self, name, fn):
        return self.call(name, "bench", 0, None, fn, (), {})

    def _close(self, frame, parent, start, end, units, failed):
        self.stack.pop()
        dur = end - start
        if parent is not None:
            parent[2] += dur
        root = self.stack[0][0] if self.stack else frame[0]
        key = (root, parent[0] if parent is not None else None, frame[0], frame[1])
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        rec[3] += units
        rec[4] += failed
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[3], parent[3] if parent is not None else None, frame[0], start, end))
        else:
            self.spans_dropped += 1

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    # ------------------------------------------------------------ queries

    def total(self, field: int, name=None, parent=None, layer=None, root="op", prefix=None) -> float:
        """Sum of one aggregate field over the spans matching every given filter."""
        out = 0.0
        for (r, p, n, lay), rec in self.agg.items():
            if root is not None and r != root:
                continue
            if name is not None and n != name:
                continue
            if prefix is not None and not n.startswith(prefix):
                continue
            if parent is not None and p != parent:
                continue
            if layer is not None and lay != layer:
                continue
            out += rec[field]
        return out


CALLS, TOTAL_S, SELF_S, UNITS, ERRORS = range(5)


def _resolve(module: str, path: str):
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise TraceSymbolError(f"traced module {module} cannot be imported: {exc}") from exc
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceSymbolError(f"traced name {module}.{path} no longer exists")
    # class attributes come from __dict__ so that a method is patched unbound
    table = owner.__dict__ if isinstance(owner, type) else vars(owner)
    if attr not in table:
        raise TraceSymbolError(f"traced name {module}.{path} no longer exists")
    return owner, attr, table[attr]


# --------------------------------------------------------------- wrappers

def _plain(name, units_of=None):
    layer = name.split(".")[0]

    def make(tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, layer, 0, units_of, fn, args, kwargs)

        return wrapper

    return make


def _z_split(tracer, fn):
    """z_values, called once per side of Z_SPLIT; each side is elementwise in the callee."""

    @functools.wraps(fn)
    def wrapper(ts):
        shape = np.shape(ts)
        flat = np.atleast_1d(np.asarray(ts, dtype=float))
        low = flat <= Z_SPLIT
        n_low = int(np.count_nonzero(low))
        if n_low in (0, flat.size):
            name = "specfun.z_values.low" if n_low else "specfun.z_values.high"
            return tracer.call(name, "specfun", flat.size, None, fn, (ts,), {})
        out = np.empty_like(flat)
        out[low] = tracer.call("specfun.z_values.low", "specfun", n_low, None, fn, (flat[low],), {})
        out[~low] = tracer.call(
            "specfun.z_values.high", "specfun", flat.size - n_low, None, fn, (flat[~low],), {}
        )
        return out.reshape(shape)

    return wrapper


def _quad(entry):
    name = f"quadrature.{entry}"
    integrand_name = f"{name}.integrand"

    def make(tracer, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            layer = _layer_of(f)

            def integrand(x):
                return tracer.call(integrand_name, layer, 0, None, f, (x,), {})

            return tracer.call(name, "quadrature", 0, None, fn, (integrand,) + args, kwargs)

        return wrapper

    return make


def _cache_io(name, path_index):
    def make(tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = args[path_index] if len(args) > path_index else kwargs["path"]
            return tracer.call(name, "zeros", 0, lambda _: os.path.getsize(path), fn, args, kwargs)

        return wrapper

    return make


def _xi_star_triplet(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = tracer.call("levy.xi_star_triplet", "levy", 0, None, fn, args, kwargs)
        tracer._star_triplets[id(tr)] = tr
        return tr

    return wrapper


def _cf_from_triplet(tracer, fn):
    """Names the span after the backend whose triplet is evaluated."""

    @functools.wraps(fn)
    def wrapper(tr, *args, **kwargs):
        kind = "star" if id(tr) in tracer._star_triplets else "primes"
        return tracer.call(f"levy.cf_from_triplet.{kind}", "levy", 0, None, fn, (tr,) + args, kwargs)

    return wrapper


def _sample(tracer, fn):
    """The first sample of a sigma in an op builds its table (cold); later ones reuse it."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        kind = "warm" if self.sigma in tracer._sampled_sigmas else "cold"
        tracer._sampled_sigmas.add(self.sigma)
        return tracer.call(f"distribution.sample.{kind}", "distribution", 0, None, fn, (self,) + args, kwargs)

    return wrapper


# (module, attribute path, wrapper factory).  Names are patched where their
# caller looks them up: a function imported by another module is patched in
# that module, a method on its class.
TARGETS = (
    ("xidist.distribution", "xi", _plain("specfun.xi")),
    ("xidist.levy", "xi", _plain("specfun.xi")),
    ("xidist.distribution", "theta_kernel", _plain("specfun.theta_kernel")),
    ("xidist.specfun", "theta_kernel", _plain("specfun.theta_kernel")),
    ("xidist.zeros", "z_values", _z_split),
    ("xidist.zeros", "find_zeros", _plain("zeros.find_zeros", units_of=len)),
    ("xidist.zeros", "save_cache", _cache_io("zeros.save_cache", 1)),
    ("xidist.zeros", "load_cache", _cache_io("zeros.load_cache", 0)),
    ("xidist.distribution", "fourier_quad", _quad("fourier_quad")),
    ("xidist.distribution", "quad_checked", _quad("quad_checked")),
    ("xidist.levy", "quad_checked", _quad("quad_checked")),
    ("xidist.levy", "quad_complex", _quad("quad_complex")),
    ("xidist.distribution", "XiDistribution.__post_init__", _plain("distribution.init")),
    ("xidist.distribution", "XiDistribution.density", _plain("distribution.density")),
    ("xidist.distribution", "XiDistribution.density_array", _plain("distribution.density_array")),
    ("xidist.distribution", "XiDistribution.cf_direct", _plain("distribution.cf_direct")),
    ("xidist.distribution", "XiDistribution.cf_from_density", _plain("distribution.cf_from_density")),
    ("xidist.distribution", "XiDistribution.cdf", _plain("distribution.cdf")),
    ("xidist.distribution", "XiDistribution.quantile", _plain("distribution.quantile")),
    ("xidist.distribution", "XiDistribution.sample", _sample),
    ("xidist.harness", "xi_triplet", _plain("levy.xi_triplet")),
    ("xidist.harness", "xi_star_triplet", _xi_star_triplet),
    ("xidist.harness", "cf_from_triplet", _cf_from_triplet),
    ("xidist.harness", "cf_from_zeros", _plain("levy.cf_from_zeros")),
    ("xidist.levy", "cf_from_zeros", _plain("levy.cf_from_zeros")),
    ("xidist.levy", "cf_xi_star", _plain("levy.cf_xi_star")),
    ("xidist.levy", "SignedMeasure.continuous_density", _plain("levy.continuous_density")),
    ("xidist.harness", "run_cross_check", _plain("harness.run_cross_check")),
    ("xidist.cli", "main", _plain("cli.main")),
)

QUAD_ENTRIES = ("fourier_quad", "quad_complex", "quad_checked")
BACKENDS = ("direct", "density_ft", "zeros", "primes_triplet", "xi_star_composed")


# ------------------------------------------------------ per-layer metrics

TIME_UNITS = ("s", "s/op", "ms", "us")


def layer_metrics(tr: Tracer, n_ops: int, scale: float, import_s: float, overhead_ratio: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}; a layer an op never enters reads 0.

    Span times are multiplied by ``scale``, the run's machine-speed factor
    (calibrate.py); ``import_s`` comes scaled already.
    """
    per_op = 1.0 / max(n_ops, 1)

    def calls(**kw):
        return tr.total(CALLS, **kw)

    def dur(**kw):
        return tr.total(TOTAL_S, **kw)

    def self_s(**kw):
        return tr.total(SELF_S, **kw)

    def units(**kw):
        return tr.total(UNITS, **kw)

    def mean(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    m = {}
    xi_n = calls(name="specfun.xi")
    m["specfun.xi_calls"] = (xi_n * per_op, "count/op")
    m["specfun.xi_us"] = (mean(dur(name="specfun.xi"), xi_n, 1e6), "us")
    for side in ("low", "high"):
        name = f"specfun.z_values.{side}"
        pts = units(name=name)
        m[f"specfun.z_points_{side}"] = (pts * per_op, "count/op")
        m[f"specfun.z_{side}_us_per_point"] = (mean(dur(name=name), pts, 1e6), "us")
    m["specfun.theta_kernel_calls"] = (calls(name="specfun.theta_kernel") * per_op, "count/op")
    m["specfun.theta_kernel_s"] = (dur(name="specfun.theta_kernel") * per_op, "s/op")
    m["specfun.self_s"] = (self_s(layer="specfun") * per_op, "s/op")

    found = units(name="zeros.find_zeros")
    z_in_find = units(prefix="specfun.z_values.", parent="zeros.find_zeros")
    m["zeros.find_s"] = (dur(name="zeros.find_zeros") * per_op, "s/op")
    m["zeros.self_s"] = (self_s(name="zeros.find_zeros") * per_op, "s/op")
    m["zeros.z_points_per_zero"] = (mean(z_in_find, found), "count")
    m["zeros.zeros_found"] = (found * per_op, "count/op")
    m["zeros.save_ms"] = (mean(dur(name="zeros.save_cache"), calls(name="zeros.save_cache"), 1e3), "ms")
    loads = calls(name="zeros.load_cache", root=None)
    m["zeros.load_ms"] = (mean(dur(name="zeros.load_cache", root=None), loads, 1e3), "ms")
    io_calls = loads + calls(name="zeros.save_cache", root=None)
    io_bytes = units(name="zeros.load_cache", root=None) + units(name="zeros.save_cache", root=None)
    m["zeros.cache_bytes"] = (mean(io_bytes, io_calls), "bytes")

    for entry in QUAD_ENTRIES:
        name = f"quadrature.{entry}"
        n_calls = calls(name=name)
        evals = calls(name=f"{name}.integrand")
        m[f"{name}.calls"] = (n_calls * per_op, "count/op")
        m[f"{name}.integrand_evals"] = (evals * per_op, "count/op")
        m[f"{name}.evals_per_call"] = (mean(evals, n_calls), "count")
        m[f"{name}.self_s"] = (self_s(name=name) * per_op, "s/op")
        m[f"{name}.integrand_s"] = (dur(name=f"{name}.integrand") * per_op, "s/op")
        m[f"{name}.errors"] = (tr.total(ERRORS, name=name) * per_op, "count/op")

    n_cfd = calls(name="distribution.cf_from_density")
    m["distribution.cf_from_density_ms"] = (mean(dur(name="distribution.cf_from_density"), n_cfd, 1e3), "ms")
    density_calls = calls(name="distribution.density") + calls(name="distribution.density_array")
    m["distribution.density_calls"] = (density_calls * per_op, "count/op")
    for kind in ("cold", "warm"):
        name = f"distribution.sample.{kind}"
        m[f"distribution.sample_{kind}_ms"] = (mean(dur(name=name), calls(name=name), 1e3), "ms")
    n_q = calls(name="distribution.quantile")
    m["distribution.quantile_ms"] = (mean(dur(name="distribution.quantile"), n_q, 1e3), "ms")
    m["distribution.cdf_calls_per_quantile"] = (
        mean(calls(name="distribution.cdf", parent="distribution.quantile"), n_q), "count")
    m["distribution.self_s"] = (self_s(layer="distribution") * per_op, "s/op")

    builds = calls(name="levy.xi_triplet") + calls(name="levy.xi_star_triplet")
    build_s = dur(name="levy.xi_triplet") + dur(name="levy.xi_star_triplet")
    m["levy.triplet_build_ms"] = (mean(build_s, builds, 1e3), "ms")
    m["levy.cf_from_triplet_ms"] = (
        mean(dur(prefix="levy.cf_from_triplet."), calls(prefix="levy.cf_from_triplet."), 1e3), "ms")
    m["levy.measure_evals"] = (calls(name="levy.continuous_density") * per_op, "count/op")
    m["levy.self_s"] = (self_s(layer="levy") * per_op, "s/op")
    m["levy.cf_from_zeros_us"] = (
        mean(dur(name="levy.cf_from_zeros"), calls(name="levy.cf_from_zeros"), 1e6), "us")

    in_sweep = "harness.run_cross_check"
    m["harness.run_cross_check_s"] = (mean(dur(name=in_sweep), calls(name=in_sweep)), "s")
    m["harness.self_s"] = (self_s(layer="harness") * per_op, "s/op")
    backend = {
        "direct": dur(name="distribution.cf_direct", parent=in_sweep),
        "density_ft": dur(name="distribution.cf_from_density", parent=in_sweep),
        "zeros": dur(name="levy.cf_from_zeros", parent=in_sweep),
        "primes_triplet": dur(name="levy.xi_triplet", parent=in_sweep)
        + dur(name="levy.cf_from_triplet.primes", parent=in_sweep),
        "xi_star_composed": dur(name="levy.xi_star_triplet", parent=in_sweep)
        + dur(name="levy.cf_from_triplet.star", parent=in_sweep),
    }
    for key in BACKENDS:
        m[f"harness.backend_s.{key}"] = (backend[key] * per_op, "s/op")

    m["cli.density_ms"] = (mean(dur(name="cli.main"), calls(name="cli.main"), 1e3), "ms")
    m["cli.self_s"] = (self_s(layer="cli") * per_op, "s/op")

    op_s = dur(name="op")
    attributed = op_s - self_s(layer="bench")
    m = {name: (v * scale if unit in TIME_UNITS else v, unit) for name, (v, unit) in m.items()}
    m["cli.import_s"] = (import_s, "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.attributed_ratio"] = (mean(attributed, op_s), "ratio")
    m["trace.spans_per_op"] = (sum(rec[CALLS] for key, rec in tr.agg.items() if key[0] == "op") * per_op,
                               "count/op")
    return m
