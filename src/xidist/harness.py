r"""Orchestrated cross-verification: every representation against every other.

The representations are exact identities, so all slack is numerical and must
be attributed: each backend carries its own error budget (quadrature
tolerance, prime-tail bound, zero-truncation estimate), and a backend pair is
allowed the sum of its two budgets.  Reports are plain data, reproducible
bit-for-bit for a fixed configuration and zero cache, and serializable to a
simple CSV (one row per grid point and backend pair, summary in '#' comments).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .accuracy import DomainError, EvalAccuracy
from .distribution import XiDistribution
from .levy import (
    PrimeCutoff,
    cf_from_triplet,
    cf_from_zeros,
    prime_atom_tail_bound,
    xi_star_triplet,
    xi_triplet,
)
from .zeros import ZeroList

__all__ = [
    "CrossCheckConfig",
    "CfBackendReport",
    "InequalityReport",
    "run_cross_check",
    "run_inequality_scan",
    "run_zero_convergence",
    "VerificationFailure",
]


class VerificationFailure(AssertionError):
    """A harness check that is expected to hold numerically did not."""


@dataclass(frozen=True)
class CrossCheckConfig:
    """Backends, truncation parameters, and per-backend error budgets."""

    zero_list: ZeroList | None = None
    k_zeros: int = 10_000
    cut: PrimeCutoff = PrimeCutoff(100_000, 40)
    acc: EvalAccuracy = field(default_factory=lambda: EvalAccuracy(abs_tol=1e-9))
    base_budget: float = 1e-6  # quadrature/normalization budget per derived backend
    zero_budget: float = 5e-3  # absolute budget for the K-truncated zero product

    def budgets(self, sigma: float) -> dict[str, float]:
        out = {"direct": 1e-9, "density_ft": self.base_budget, "zeros": self.zero_budget}
        if sigma > 1.0:
            tail = prime_atom_tail_bound(sigma, self.cut)
            out["primes_triplet"] = self.base_budget + tail
            out["xi_star_composed"] = self.base_budget + tail
        return out


@dataclass(frozen=True, eq=False)
class CfBackendReport:
    """Pairwise residuals of CF backends on a t-grid at one sigma."""

    sigma: float
    t_grid: np.ndarray
    backend_set: tuple[str, ...]
    values: dict  # backend -> complex ndarray over t_grid
    residuals: dict  # (a, b) -> float ndarray over t_grid
    params: dict
    budgets: dict

    @property
    def residual_matrix(self) -> dict:
        return {
            pair: (float(np.max(r)), float(np.mean(r))) for pair, r in self.residuals.items()
        }

    def worst_pair(self):
        return max(self.residual_matrix.items(), key=lambda kv: kv[1][0])

    def passed(self) -> bool:
        return not any(
            mx > self.budgets[a] + self.budgets[b] for (a, b), (mx, _) in self.residual_matrix.items()
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("sigma,t,backend_a,backend_b,abs_residual\n")
        for (a, b), res in sorted(self.residuals.items()):
            for t, r in zip(self.t_grid, res):
                buf.write(f"{self.sigma:.15g},{t:.15g},{a},{b},{r:.15g}\n")
        for (a, b), (mx, mean) in sorted(self.residual_matrix.items()):
            buf.write(f"# max {a}/{b} = {mx:.15g}  mean = {mean:.15g}\n")
        for key, val in sorted(self.params.items()):
            buf.write(f"# param {key} = {val}\n")
        return buf.getvalue()

    @staticmethod
    def parse_csv(text: str):
        """Round-trip helper: point rows back into (sigma, t_grid, residuals)."""
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        header, body = rows[0], rows[1:]
        if header != "sigma,t,backend_a,backend_b,abs_residual":
            raise ValueError("unexpected CSV header")
        sigma = None
        grid: list[float] = []
        residuals: dict[tuple[str, str], list[float]] = {}
        for ln in body:
            s_s, t_s, a, b, r_s = ln.split(",")
            sigma = float(s_s)
            t = float(t_s)
            residuals.setdefault((a, b), []).append(float(r_s))
            if (a, b) == next(iter(residuals.keys())):
                grid.append(t)
        return sigma, np.array(grid), {k: np.array(v) for k, v in residuals.items()}


def _backend_values(sigma: float, t_grid: np.ndarray, config: CrossCheckConfig) -> dict:
    dist = XiDistribution(sigma, acc=config.acc)
    out = {"direct": np.array([dist.cf_direct(t) for t in t_grid])}
    if np.max(np.abs(t_grid)) <= 50.0:
        out["density_ft"] = dist.cf_from_density(t_grid)
    if sigma > 0.5 and config.zero_list is not None and config.k_zeros <= len(config.zero_list):
        out["zeros"] = cf_from_zeros(sigma, t_grid, config.zero_list, config.k_zeros).value
    if sigma > 1.0:
        tr = xi_triplet(sigma, config.cut)
        out["primes_triplet"] = cf_from_triplet(tr, t_grid, config.acc)
        # independent composition: smoothed-law triplet un-smoothed afterwards
        trs = xi_star_triplet(sigma, config.cut)
        unsmooth = (sigma - 1.0 - 1j * t_grid) / (sigma - 1.0)
        out["xi_star_composed"] = cf_from_triplet(trs, t_grid, config.acc) * unsmooth
    return out


def run_cross_check(sigma: float, t_grid, config: CrossCheckConfig) -> CfBackendReport:
    """Pairwise residual sweep of every backend applicable at this sigma."""
    t_grid = np.asarray(t_grid, dtype=float)
    values = _backend_values(sigma, t_grid, config)
    names = tuple(sorted(values.keys()))
    residuals = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            residuals[(a, b)] = np.abs(values[a] - values[b])
    params = {
        "k_zeros": config.k_zeros if "zeros" in names else 0,
        "p_max": config.cut.p_max if sigma > 1.0 else 0,
        "r_max": config.cut.r_max if sigma > 1.0 else 0,
        "quad_abs_tol": config.acc.abs_tol,
        "zero_budget": config.zero_budget,
    }
    return CfBackendReport(
        sigma=sigma,
        t_grid=t_grid,
        backend_set=names,
        values=values,
        residuals=residuals,
        params=params,
        budgets=config.budgets(sigma),
    )


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """|Xi_sigma(t)| <= 1 scan over a (sigma, t) grid."""

    sigma_grid: np.ndarray
    t_grid: np.ndarray
    max_cf_modulus: float
    violations: tuple
    rows: tuple = ()
    tolerance: float = 1e-12

    def passed(self) -> bool:
        return not self.violations

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("sigma,t,cf_modulus\n")
        for sig, t, v in self.rows:
            buf.write(f"{sig:.15g},{t:.15g},{v:.15g}\n")
        buf.write(f"# max_cf_modulus = {self.max_cf_modulus:.15g}\n")
        buf.write(f"# violations = {len(self.violations)}\n")
        return buf.getvalue()


def run_inequality_scan(sigma_grid, t_grid, tolerance: float = 1e-12) -> InequalityReport:
    """Verify the CF-modulus bound |Xi_sigma(t)| <= 1 for sigma >= 1/2."""
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(sigma_grid < 0.5):
        raise DomainError("the modulus bound is asserted for sigma >= 1/2")
    rows = []
    violations = []
    worst = 0.0
    for sig in sigma_grid:
        dist = XiDistribution(float(sig))
        for t in t_grid:
            v = abs(dist.cf_direct(float(t)))
            rows.append((float(sig), float(t), v))
            worst = max(worst, v)
            if v > 1.0 + tolerance:
                violations.append((float(sig), float(t), v))
    return InequalityReport(
        sigma_grid=sigma_grid,
        t_grid=t_grid,
        max_cf_modulus=worst,
        violations=tuple(violations),
        rows=tuple(rows),
        tolerance=tolerance,
    )


def run_zero_convergence(sigma: float, t: float, k_list, zl: ZeroList):
    """Residual of the K-zero product against the direct CF, per K.

    Returns [(K, residual)] and raises VerificationFailure if the residual
    fails to shrink from the first K to the last.
    """
    k_list = sorted(int(k) for k in k_list)
    if k_list[-1] > len(zl):
        raise DomainError(f"need {k_list[-1]} zeros, cache has {len(zl)}")
    dist = XiDistribution(sigma)
    ref = dist.cf_direct(t)
    out = [(k, abs(cf_from_zeros(sigma, t, zl, k).value - ref)) for k in k_list]
    if out[-1][1] > out[0][1] + 1e-15:
        raise VerificationFailure(
            f"zero-product residual grew from K={out[0][0]} ({out[0][1]:.3e}) "
            f"to K={out[-1][0]} ({out[-1][1]:.3e})"
        )
    return out
