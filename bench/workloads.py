"""The four workloads: seeded inputs, the op each runs, and the checks on its outputs.

Every workload draws its inputs from the seed alone.  The parameter an op's
cost depends on (sigma) is stratified: each round of ROUND ops visits the
ROUND equal strata of its range once, in a seeded order, at the same offset
inside every stratum: the midpoint in the first round, then moved by the
golden ratio each round.  A run makes at least one round, so every seed
runs the same op costs and run-to-run medians stay steady.  (A seeded offset
moved the median op of a one-round cross_sweep run across its whole stratum,
about 7% of its cost.)
Ops are timed by the caller; ``keep`` runs after each op, outside the timed
region, and ``final_checks`` runs after the loop.  A check never raises: a
wrong output, or a reference that cannot be evaluated, is a failed check.
``notes`` returns report lines that are not checks, such as the state of a
known program defect.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np
from xidist import XiDistribution, cli, harness, levy, specfun, zeros
from xidist.accuracy import MissedZeroError

_R1 = 0.6180339887498949  # golden-ratio conjugate: the in-stratum offset moves by it each round
ROUND = 11  # ops per stratified round, and the fewest ops a run makes

K_ZEROS = 10_000
CACHE_T_MAX = 10_020.0  # `xidist zeros --tmax 10020`: 10,166 zeros, enough for K = 10^4
DEFECT_T = 415.4619125  # 213 zeros lie below, the smooth count says 211.91: |S(T)| = 1.09 > 1
NEAR_PAIR = (7005.0, 7005.2)  # the closest pair of zeros below t = 1e4 (gap ~0.0377)
CLI_GRID = np.arange(-10.0, 10.25, 0.5)  # `xidist verify --suite cross`
Z_ERR_LOW, Z_ERR_HIGH = 1e-12, 3e-3  # stated |Z| error: exact phase (t <= 1000), Riemann-Siegel
QUANTILE_Y_TOL, CDF_TOL = 1e-9, 1e-11  # stated accuracies of quantile (in y) and cdf
DENSITY_TOL = 1e-12  # the package's default absolute tolerance
DIRECT_TOL = 1e-9  # the harness budget of the direct CF backend


@dataclass
class Check:
    op: int
    what: str
    residual: float | None = None
    budget: float | None = None
    ok: bool = True

    @property
    def use(self) -> float | None:
        return None if self.residual is None else self.residual / self.budget


def numeric(op: int, what: str, residual: float, budget: float) -> Check:
    residual = float(residual)
    return Check(op, what, residual, float(budget), bool(math.isfinite(residual) and residual <= budget))


def boolean(op: int, what: str, ok) -> Check:
    return Check(op, what, ok=bool(ok))


def guarded(op: int, what: str, fn) -> list[Check]:
    """Run a check function; an exception inside it is itself a failed check."""
    try:
        return fn()
    except Exception:
        last = traceback.format_exc().strip().splitlines()[-1]
        return [boolean(op, f"{what}: check raised {last}", False)]


class Strata:
    """Stratified draws on [0, 1): op k gets one point of stratum order[k % ROUND]."""

    def __init__(self, rng: np.random.Generator):
        self.order = rng.permutation(ROUND)

    def stratum(self, k: int) -> int:
        return int(self.order[k % ROUND])

    def point(self, stratum: int, k: int) -> float:
        jitter = (0.5 + _R1 * (k // ROUND)) % 1.0
        return float((stratum + jitter) / ROUND)


def _op_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


class Workload:
    """One closed-loop workload; subclasses define the op and its checks."""

    name = ""

    def __init__(self, seed: int, work_dir: str, cache_path: str | None):
        self.seed = seed
        self.ref = None  # a reference.Reference, attached after set-up
        self.work_dir = work_dir
        self.cache_path = cache_path
        self.strata = Strata(np.random.default_rng([seed, 0x5EED]))

    def setup(self) -> None:
        """Load what a warm CLI process has loaded, then run one untimed warm-up op."""

    def input(self, k: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def items(self, out) -> int:
        return 1

    def keep(self, k: int, inp, out) -> list[Check]:
        return []

    def final_checks(self) -> list[Check]:
        return []

    def notes(self) -> list[str]:
        return []


# ---------------------------------------------------------------- cross_sweep

def _pair_budgets(report):
    """(a, b, max residual, allowed) per backend pair, by the rule of CfBackendReport.passed."""
    for (a, b), (mx, _) in sorted(report.residual_matrix.items()):
        if "zeros" in (a, b):
            other = b if a == "zeros" else a
            allowed = report.params["zero_budget"] + report.budgets.get(other, 1e-9)
        else:
            allowed = report.budgets.get(a, 1e-9) + report.budgets.get(b, 1e-9)
        yield a, b, mx, allowed


class CrossSweep(Workload):
    """`xidist verify --suite cross`: run_cross_check at one (sigma_hi, sigma_lo) pair per op."""

    name = "cross_sweep"

    def setup(self):
        zl = zeros.load_cache(self.cache_path)
        self.config = harness.CrossCheckConfig(
            zero_list=zl, k_zeros=K_ZEROS, cut=levy.PrimeCutoff(100_000, 40)
        )
        levy.primes_up_to(100_000)
        self.kept = []

    def input(self, k):
        i = self.strata.stratum(k)
        # a fixed pairing of the two strata, so that every seed runs the same mix of op costs
        sigma_hi = 1.25 + 1.75 * self.strata.point(i, k)
        sigma_lo = 0.55 + 0.45 * self.strata.point((4 * i + 7) % ROUND, k)
        t_index = int(_op_rng(self.seed, k).integers(len(CLI_GRID)))
        return sigma_hi, sigma_lo, t_index

    def op(self, inp):
        sigma_hi, sigma_lo, _ = inp
        return (
            harness.run_cross_check(sigma_hi, CLI_GRID, self.config),
            harness.run_cross_check(sigma_lo, CLI_GRID, self.config),
        )

    def items(self, out):
        return sum(len(r.values) * len(r.t_grid) for r in out)

    def keep(self, k, inp, out):
        checks = []
        t_index = inp[2]
        for report in out:
            pairs = list(_pair_budgets(report))
            for a, b, mx, allowed in pairs:
                checks.append(numeric(k, f"sigma={report.sigma:.6g} {a}/{b} max residual", mx, allowed))
            within = all(mx <= allowed for *_, mx, allowed in pairs)
            checks.append(boolean(k, f"sigma={report.sigma:.6g} report.passed()", report.passed() and within))
            self.kept.append((k, report.sigma, float(CLI_GRID[t_index]), complex(report.values["direct"][t_index])))
        return checks

    def final_checks(self):
        ref = self.ref
        checks = []
        for k, sigma, t, value in self.kept:
            what = f"sigma={sigma:.6g} t={t:g} direct vs mpmath"
            checks += guarded(k, what, lambda: [numeric(k, what, abs(value - ref.cf(sigma, t)), DIRECT_TOL)])
        return checks


# ----------------------------------------------------------------- zero_build

def _quantum(gamma: np.ndarray) -> np.ndarray:
    """Largest error of writing gamma with 15 significant digits and reading it back."""
    return 0.5 * 10.0 ** (np.floor(np.log10(gamma)) - 14.0) + np.spacing(gamma)


class ZeroBuild(Workload):
    """`xidist zeros --tmax 10020` cold: find_zeros(10020), then save_cache and load_cache through a fresh file.

    Every op builds the same table, and the seed picks the ordinates checked
    against mpmath.  T is not drawn from [7100, 10020]: on about 1% of that
    range find_zeros raises MissedZeroError on a complete list, because its
    final certificate allows no room for S(T).  ``notes`` reports that defect
    at DEFECT_T in every run instead of letting it fail a random op.
    """

    name = "zero_build"
    n_low, n_high = 48, 12  # ordinates checked against mpmath per run, below and above t = 1000

    def setup(self):
        specfun.z_values(np.array([100.0, 2000.0]))
        self.kept = []

    def input(self, k):
        return CACHE_T_MAX, k

    def op(self, inp):
        t_max, k = inp
        zl = zeros.find_zeros(t_max)
        path = os.path.join(self.work_dir, f"zeros-op{k}.txt")
        zeros.save_cache(zl, path)
        return zl, zeros.load_cache(path), path

    def items(self, out):
        return len(out[0])

    def keep(self, k, inp, out):
        return guarded(k, "cache round trip", lambda: self._keep(k, inp[0], *out))

    def _keep(self, k, t_max, zl, loaded, path):
        again = path + ".again"
        zeros.save_cache(loaded, again)
        with open(path, "rb") as fh_a, open(again, "rb") as fh_b:
            same_bytes = fh_a.read() == fh_b.read()
        os.remove(path)
        os.remove(again)
        checks = [
            boolean(k, f"T={t_max:.6f} save(load(file)) is byte-identical", same_bytes),
            boolean(k, f"T={t_max:.6f} reloaded indices and t_max",
                    len(loaded) == len(zl) and loaded.t_max == float(f"{zl.t_max:.15g}")
                    and [r.index for r in loaded.records] == list(range(1, len(zl) + 1))),
        ]
        if len(loaded) == len(zl):
            ratio = np.abs(loaded.gammas - zl.gammas) / _quantum(zl.gammas)
            i = int(np.argmax(ratio))
            checks.append(numeric(k, f"T={t_max:.6f} reloaded gamma #{i + 1} vs found",
                                  abs(loaded.gammas[i] - zl.gammas[i]), _quantum(zl.gammas[i])))
        g = loaded.gammas
        near = np.flatnonzero((g > NEAR_PAIR[0]) & (g < NEAR_PAIR[1]))
        checks.append(boolean(k, f"T={t_max:.6f} both zeros of the t~7005 pair present", len(near) == 2))
        halfwidths = np.array([r.bracket_halfwidth for r in loaded.records])
        self.kept.append((k, t_max, g, halfwidths))
        return checks

    def final_checks(self):
        ref = self.ref
        checks = []
        for k, t_max, g, _ in self.kept:
            what = f"T={t_max:.6f} zero count vs mpmath nzeros"
            checks += guarded(k, what, lambda: [self._count_check(k, what, t_max, g, ref)])
        if not self.kept:
            return checks
        rng = np.random.default_rng([self.seed, 0xC4EC])
        picks = []
        for n, low in ((self.n_low, True), (self.n_high, False)):
            for _ in range(n):
                k, t_max, g, hw = self.kept[int(rng.integers(len(self.kept)))]
                pool = np.flatnonzero(g <= 1000.0) if low else np.flatnonzero(g > 1000.0)
                picks.append((k, g, hw, int(rng.choice(pool))))
        k, t_max, g, hw = self.kept[0]
        picks += [(k, g, hw, int(i)) for i in np.flatnonzero((g > NEAR_PAIR[0]) & (g < NEAR_PAIR[1]))]
        for k, g, hw, i in picks:
            what = f"zero #{i + 1} gamma={g[i]:.12f} vs mpmath Z root"
            checks += guarded(k, what, lambda: [self._ordinate_check(k, what, g[i], hw[i], ref)])
        return checks

    @staticmethod
    def _count_check(k, what, t_max, g, ref):
        have = int(np.searchsorted(g, t_max, side="right"))
        want = ref.zero_count(t_max)
        # a zero within its ordinate error of T may land on either side of it
        ok = have == want or (abs(have - want) == 1 and float(np.min(np.abs(g - t_max))) < 1e-2)
        return boolean(k, f"{what}: {have} vs {want}", ok)

    @staticmethod
    def _ordinate_check(k, what, gamma, halfwidth, ref):
        offset, slope = ref.zero_offset(float(gamma))
        z_err = Z_ERR_LOW if gamma <= 1000.0 else Z_ERR_HIGH
        return numeric(k, what, offset, halfwidth + float(_quantum(gamma)) + z_err / slope)

    def notes(self):
        want = self.ref.zero_count(DEFECT_T)
        try:
            have = len(zeros.find_zeros(DEFECT_T))
        except MissedZeroError as exc:
            return [f"known defect, not counted as a failure: find_zeros({DEFECT_T}) raises MissedZeroError "
                    f"({exc}) although mpmath.nzeros counts {want} zeros below T"]
        except Exception as exc:
            return [f"known defect changed: find_zeros({DEFECT_T}) raises {exc!r}; mpmath.nzeros counts {want}"]
        return [f"known defect no longer reproduces: find_zeros({DEFECT_T}) returns {have} zeros, "
                f"mpmath.nzeros counts {want}"]


# ----------------------------------------------------------------- point_eval

DIRECT, XI_STAR, ZEROS = 0, 1, 2
KIND_NAMES = ("cf_direct", "cf_xi_star", "cf_from_zeros")


class PointEval(Workload):
    """`xidist eval`: single-point CF values, mostly cf_direct, with fixed shares of xi_star and zeros.

    An op is a block of ``block`` separate single-point calls.  One call takes
    ~0.2 ms, less than the host's scheduling hiccups (2-10 ms, about two a
    second), so a tail over single calls, or small blocks, times the host.
    """

    name = "point_eval"
    block = 1024
    k_point = 1000  # `xidist eval --backend zeros` default K
    n_checks = {DIRECT: 24, XI_STAR: 12, ZEROS: 24}

    def setup(self):
        self.zl = zeros.load_cache(self.cache_path)
        XiDistribution(2.0).cf_direct(3.0)
        levy.cf_xi_star(2.0, 3.0)
        levy.cf_from_zeros(2.0, 3.0, self.zl, self.k_point)
        self.kept = []

    def input(self, k):
        # fixed shares: every 10th call goes through cf_xi_star, every 10th (offset 5) through zeros
        kind = np.full(self.block, DIRECT)
        kind[np.arange(self.block) % 10 == 0] = XI_STAR
        kind[np.arange(self.block) % 10 == 5] = ZEROS
        u_sigma, u_t, u_sign = _op_rng(self.seed, k).random((3, self.block))
        sigma = np.where(kind == ZEROS, 0.55 + 2.45 * u_sigma, -3.0 + 6.0 * u_sigma)
        # the K = 1000 product is only meaningful (and finite) for |t| well below gamma_1000
        log_t = np.where(kind == ZEROS, -1.0 + 2.0 * u_t, -1.0 + 5.0 * u_t)
        t = np.where(u_sign < 0.5, -1.0, 1.0) * 10.0**log_t
        return kind.tolist(), sigma.tolist(), t.tolist()

    def op(self, inp):
        out = []
        for kind, sigma, t in zip(*inp):
            if kind == DIRECT:
                out.append(XiDistribution(sigma).cf_direct(t))
            elif kind == XI_STAR:
                out.append(levy.cf_xi_star(sigma, t))
            else:
                out.append(levy.cf_from_zeros(sigma, t, self.zl, self.k_point))
        return out

    def items(self, out):
        return len(out)

    def keep(self, k, inp, out):
        self.kept.append((k, inp, out))
        return []

    def final_checks(self):
        calls = [(k, kind, sigma, t, value)
                 for k, inp, out in self.kept for kind, sigma, t, value in zip(*inp, out)]
        rng = np.random.default_rng([self.seed, 0xC4EC])
        checks = []
        for kd, count in self.n_checks.items():
            pool = [c for c in calls if c[1] == kd]
            for j in rng.choice(len(pool), size=min(count, len(pool)), replace=False):
                k, kind, sigma, t, value = pool[int(j)]
                what = f"{KIND_NAMES[kind]} sigma={sigma:.6g} t={t:.6g} vs mpmath"
                checks += guarded(k, what, lambda: [self._check(k, what, kind, sigma, t, value)])
        return checks

    def _check(self, k, what, kind, sigma, t, value):
        if kind == XI_STAR:
            return numeric(k, what, abs(value - self.ref.cf_xi_star(sigma, t)), DIRECT_TOL)
        exact = self.ref.cf(sigma, t)
        if kind == DIRECT:
            return numeric(k, what, abs(value - exact), DIRECT_TOL)
        # dropped zeros change the exponent by at most the stated tail estimate
        return numeric(k, what, abs(value.value - exact), abs(exact) * math.expm1(value.tail_estimate) + 1e-12)


# ----------------------------------------------------------------- dist_table

class DistTable(Workload):
    """`xidist sample` + `xidist density` session: cold and warm sample, 3 quantiles, 3 cdfs, a density table."""

    name = "dist_table"
    n_draws = 200_000
    n_deep = 6  # ops whose density and CLI output are also checked point by point

    def setup(self):
        XiDistribution(2.0).cdf(0.0)
        self.kept = []

    def input(self, k):
        sigma = -2.0 + 5.0 * self.strata.point(self.strata.stratum(k), k)
        # one u in each third of (0, 1): quantile cost depends on how far out u is
        u = 0.005 + 0.99 * (np.arange(3) + _op_rng(self.seed, k).random(3)) / 3.0
        return sigma, tuple(float(x) for x in u), self.seed * 100_003 + k

    def op(self, inp):
        sigma, us, sample_seed = inp
        dist = XiDistribution(sigma)
        cold = dist.sample(self.n_draws, sample_seed)
        warm = dist.sample(self.n_draws, sample_seed)
        q = [dist.quantile(u) for u in us]
        c = [dist.cdf(y) for y in q]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["density", f"--sigma={sigma!r}", "--range", "-3:3:121"])
        return cold, warm, q, c, rc, buf.getvalue()

    def keep(self, k, inp, out):
        return guarded(k, "session", lambda: self._keep(k, inp, *out))

    def _keep(self, k, inp, cold, warm, q, c, rc, text):
        sigma, us, _ = inp
        ref = self.ref
        checks = [boolean(k, f"sigma={sigma:.6g} sample: {self.n_draws} finite draws, warm equals cold",
                          len(cold) == self.n_draws and np.all(np.isfinite(cold)) and np.array_equal(cold, warm))]
        # quantile is stated to 1e-9 in y, so cdf(quantile(u)) may miss u by pdf * 1e-9,
        # plus the cdf tolerance of the evaluation at q and of the bisection's comparisons
        for u, y, cdf_y, pdf_y in zip(us, q, c, ref.density(sigma, np.array(q))):
            checks.append(numeric(k, f"sigma={sigma:.6g} cdf(quantile({u:.9f}))",
                                  abs(cdf_y - u * ref.scale), QUANTILE_Y_TOL * pdf_y + 2 * CDF_TOL))
        lines = text.splitlines()
        checks.append(boolean(k, f"sigma={sigma:.6g} density CLI exits 0 with 121 rows",
                              rc == 0 and len(lines) == 122 and lines[0] == "y,pdf,cdf"))
        self.kept.append((k, sigma, text))
        return checks

    def final_checks(self):
        rng = np.random.default_rng([self.seed, 0xC4EC])
        checks = []
        for j in rng.choice(len(self.kept), size=min(self.n_deep, len(self.kept)), replace=False):
            k, sigma, text = self.kept[int(j)]
            checks += guarded(k, f"sigma={sigma:.6g} deep checks", lambda: self._deep(k, sigma, text, rng))
        return checks

    def _deep(self, k, sigma, text, rng):
        ref = self.ref
        checks = []
        ys = -3.0 + 6.0 * rng.random(4)
        for y, value in zip(ys, XiDistribution(sigma).density_array(ys)):
            exact = ref.density_mp(sigma, y)
            checks.append(numeric(k, f"sigma={sigma:.6g} density_array({y:.6f}) vs mpmath",
                                  abs(value - exact), DENSITY_TOL * max(1.0, abs(exact))))
        rows = [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
        for r in rng.choice(len(rows), size=2, replace=False):
            y, pdf, _ = rows[int(r)]
            exact = ref.density_mp(sigma, y)
            checks.append(numeric(k, f"sigma={sigma:.6g} density CLI pdf at y={y:g} vs mpmath",
                                  abs(pdf - exact), DENSITY_TOL * max(1.0, abs(exact))))
        y, _, cdf = rows[int(rng.integers(len(rows)))]
        # the left-edge cdf carries the quadrature tolerance; the panel sums add rounding only
        checks.append(numeric(k, f"sigma={sigma:.6g} density CLI cdf at y={y:g} vs reference",
                              abs(cdf - ref.cdf(sigma, y)), 2 * CDF_TOL))
        return checks


WORKLOADS = {w.name: w for w in (CrossSweep, ZeroBuild, PointEval, DistTable)}
