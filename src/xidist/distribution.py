r"""The completed-zeta probability distribution.

For any real sigma the normalized function Xi_sigma(t) = xi(sigma - it)/xi(sigma)
is a characteristic function; its density has the two-branch theta-series form

    P_sigma(y) = (2/xi(sigma)) * sum_n f(n e^{-y}) e^{-sigma y},   y <= 0,
    P_sigma(y) = (2/xi(sigma)) * sum_n f(n e^{y})  e^{(1-sigma) y}, y > 0,

with f the theta kernel.  Both branches meet at y = 0 (each equals
(2/xi(sigma)) sum_n f(n)), every term is positive, and the Gaussian decay of f
confines essentially all mass to |y| < 3.

This module provides the density, two characteristic-function backends
(direct xi ratio, and Fourier quadrature of the density over a whole t
array), the CDF/quantile pair, and a deterministic inverse-CDF sampler on a
tabulated grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .accuracy import (
    DEFAULT_ACCURACY,
    AccuracyError,
    DomainError,
    EvalAccuracy,
    ensure_finite,
)
from .quadrature import fourier_quad, quad_checked
# theta_kernel is not called here; bench/tracing.py wraps it under this module's name
from .specfun import theta_kernel, theta_sum, xi  # noqa: F401

__all__ = ["XiDistribution", "DensityTable"]

# beyond this |y| (pi e^{2|y|} > 800) every series term underflows to 0 in float64
_Y_UNDERFLOW = 0.5 * math.log(800.0 / math.pi)
_TABLE_NODES = 4001


@dataclass(frozen=True)
class DensityTable:
    """Tabulated pdf/cdf on a strictly increasing grid (dense near 0)."""

    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.pdf < 0.0):
            raise ValueError("pdf must be nonnegative")
        if np.any(np.diff(self.cdf) < 0.0):
            raise ValueError("cdf must be nondecreasing")
        if self.cdf[0] > 1e-8 or abs(self.cdf[-1] - 1.0) > 1e-8:
            raise ValueError("cdf endpoints must be within 1e-8 of 0 and 1")


# 5-point Gauss-Legendre on [-1, 1]; enough for machine-accurate panel masses
_GL_X = np.array([-0.906179845938664, -0.538469310105683, 0.0,
                  0.538469310105683, 0.906179845938664])
_GL_W = np.array([0.236926885056189, 0.478628670499366, 0.568888888888889,
                  0.478628670499366, 0.236926885056189])


@dataclass(frozen=True)
class XiDistribution:
    """Law with characteristic function xi(sigma - it)/xi(sigma), sigma real."""

    sigma: float
    acc: EvalAccuracy = DEFAULT_ACCURACY
    xi_sigma: float = field(init=False)

    def __post_init__(self):
        v = xi(complex(self.sigma, 0.0))
        if abs(v.imag) > 1e-12 * (1.0 + abs(v)):
            raise AccuracyError("xi(sigma) not real", achieved=abs(v.imag))
        # the sign is not assumed: the theta-series positivity argument makes
        # the normalizer positive for every real sigma, and the density
        # nonnegativity tests would catch a sign error immediately
        object.__setattr__(self, "xi_sigma", v.real)

    # ------------------------------------------------------------- density

    def density(self, y):
        """Two-branch theta-series density P_sigma(y), elementwise.

        A scalar y gives a float, an array an array of its shape; beyond
        |y| = ``_Y_UNDERFLOW`` the value is exactly 0.  The theta series is
        one ``theta_sum`` call over the whole array.
        """
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        alive = np.abs(y) <= _Y_UNDERFLOW
        ya = y[alive]
        s = theta_sum(np.exp(np.abs(ya)), min(self.acc.abs_tol, 1e-15))
        w = np.exp(np.where(ya <= 0.0, -self.sigma, 1.0 - self.sigma) * ya)
        out[alive] = 2.0 * (s * w) / self.xi_sigma
        return float(out) if out.ndim == 0 else out

    # bench/tracing.py wraps this name
    density_array = density

    def panel_cdf(self, grid: np.ndarray) -> np.ndarray:
        """Mass between grid[0] and each grid point, by 5-point Gauss-Legendre panels."""
        a, b = grid[:-1], grid[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
        masses = (self.density(nodes.ravel()).reshape(nodes.shape) * _GL_W[None, :]).sum(axis=1) * half
        return np.concatenate([[0.0], np.cumsum(masses)])

    def _quad_tol_rate(self) -> tuple[float, float]:
        # tolerance and rate of every integral of the density: the theta series needs
        # panels no wider than ~1 (rate 4), and e^{-sigma y}, e^{(1-sigma) y} add theirs
        return max(self.acc.abs_tol, 1e-11), 4.0 + max(abs(self.sigma), abs(1.0 - self.sigma))

    # ---------------------------------------------- characteristic function

    def cf_direct(self, t: float) -> complex:
        """Xi_sigma(t) = xi(sigma - it) / xi(sigma); exactly 1 at t = 0."""
        t = float(ensure_finite(t, "t").real)
        if t == 0.0:
            return 1.0 + 0.0j
        return xi(complex(self.sigma, -t)) / self.xi_sigma

    def cf_from_density(self, t):
        """Fourier transform of the density; independent of ``cf_direct``.

        t is a scalar (complex result) or an array (complex array of its
        shape), every |t| <= 50.  The support is [-Y, Y] with Y =
        ``_Y_UNDERFLOW``, beyond which the density is exactly 0 in float64,
        split at the derivative kink at y = 0.  Each side is one
        ``fourier_quad`` panel rule for the whole array, certified to
        max(abs_tol, 1e-11) by the difference of its n- and 2n-panel values
        (AccuracyError above that).
        """
        t = np.asarray(t, dtype=float)
        if not np.all(np.abs(t) <= 50.0):
            raise DomainError("cf_from_density is calibrated for |t| <= 50")
        tol, rate = self._quad_tol_rate()
        left = fourier_quad(self.density, -_Y_UNDERFLOW, 0.0, t, abs_tol=tol, rate=rate)
        right = fourier_quad(self.density, 0.0, _Y_UNDERFLOW, t, abs_tol=tol, rate=rate)
        return left + right

    # ------------------------------------------------------- cdf / quantile

    def cdf(self, y: float) -> float:
        """P(Y <= y): the density integrated over [-Y, min(y, Y)], Y = ``_Y_UNDERFLOW``.

        Split at the derivative kink at 0, each piece is one ``quad_checked``
        panel rule at ``cf_from_density``'s rate and tolerance.  The density
        is exactly 0 beyond Y, so y >= Y integrates the whole support.
        """
        y = min(float(y), _Y_UNDERFLOW)
        if y <= -_Y_UNDERFLOW:
            return 0.0
        tol, rate = self._quad_tol_rate()
        if y <= 0.0:
            return quad_checked(self.density, -_Y_UNDERFLOW, y, abs_tol=tol, rate=rate)
        left = quad_checked(self.density, -_Y_UNDERFLOW, 0.0, abs_tol=tol, rate=rate)
        return left + quad_checked(self.density, 0.0, y, abs_tol=tol, rate=rate)

    def quantile(self, u: float) -> float:
        """Inverse CDF by monotone bracketing + bisection to 1e-9 in y."""
        if not 0.0 < u < 1.0:
            raise DomainError("quantile needs 0 < u < 1")
        lo, hi = -_Y_UNDERFLOW, _Y_UNDERFLOW
        # table lookup narrows the bracket before resorting to quadrature
        table = self._table()
        i = int(np.searchsorted(table.cdf, u))
        if 0 < i < len(table.grid):
            lo, hi = float(table.grid[max(0, i - 2)]), float(table.grid[min(len(table.grid) - 1, i + 1)])
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < u:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # ------------------------------------------------------------- sampling

    def _table(self) -> DensityTable:
        return _build_table(self.sigma)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse-CDF on the tabulated grid; deterministic per seed."""
        if n < 1:
            raise DomainError("sample needs n >= 1")
        table = self._table()
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        cdf, grid = _strictly_increasing(table.cdf, table.grid)
        return np.interp(u, cdf, grid)


def _strictly_increasing(cdf: np.ndarray, grid: np.ndarray):
    """Trim flat tail segments (underflowed pdf) so interpolation is monotone."""
    eps = 1e-15
    first = int(np.searchsorted(cdf, eps))
    last = int(np.searchsorted(cdf, 1.0 - eps, side="right"))
    first = max(0, first - 1)
    last = min(len(cdf), last + 1)
    c, g = cdf[first:last], grid[first:last]
    keep = np.concatenate([[True], np.diff(c) > 0.0])
    return c[keep], g[keep]


@lru_cache(maxsize=8)
def _build_table(sigma: float) -> DensityTable:
    # sinh-warped grid on [-40, 40]: spacing ~6e-4 near 0, ~0.12 at the edges
    u = np.linspace(-1.0, 1.0, _TABLE_NODES)
    grid = 40.0 * np.sinh(6.0 * u) / math.sinh(6.0)
    grid[_TABLE_NODES // 2] = 0.0
    dist = XiDistribution(sigma)
    return DensityTable(grid=grid, pdf=dist.density(grid), cdf=dist.panel_cdf(grid))
