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
# half the width of the bracket quantile closes around its result
_QUANTILE_HALFWIDTH = 5e-10
# Newton or bisection steps before quantile gives up: bisection alone closes [-Y, Y] in 33,
# and a rejected Newton step costs one more step per halving
_QUANTILE_STEPS = 100
# draws per pass of the sampler, and the most guide-table buckets it builds
_CHUNK = 1 << 14
_MAX_BUCKETS = 1 << 15


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
        """Inverse CDF to 1e-9 in y, by safeguarded Newton.

        Newton steps on cdf(y) - u, with the density as its derivative, start
        from the table's linear interpolation at u inside the table's bracket
        of u.  A step that leaves the bracket, does not halve the last move,
        meets a zero density, or follows a converged point whose bracket did
        not close bisects instead.  The result q is returned once points
        below >= q - 5e-10 and above <= q + 5e-10 with cdf(below) < u <=
        cdf(above) are known, each evaluated or a support end -Y, Y (cdf(-Y)
        = 0; u above cdf(Y) gives q within 5e-10 of Y), as near Newton's point
        as that allows; AccuracyError if they are not found within
        ``_QUANTILE_STEPS`` steps.  Where pdf * 1e-9 is below the rounding of
        the cdf (u within ~1e-9 of 1), the bracket holds for the rounded,
        evaluated cdf only, which is weaker than 1e-9 in y: there q moves by
        up to ~1e-6 with the cdf's rounding.
        """
        if not 0.0 < u < 1.0:
            raise DomainError("quantile needs 0 < u < 1")
        # search bracket [lo, hi]; [below, above] holds only evaluated points and the support's ends
        lo = below = -_Y_UNDERFLOW
        hi = above = y = _Y_UNDERFLOW
        table = self._table()
        c, g = table.cdf, table.grid
        # start inside the table's bracket of u, c[i - 1] < u <= c[i] (i >= 1: c[0] = 0), or at Y past its end
        i = int(np.searchsorted(c, u))
        if i < len(c):
            lo, hi = max(float(g[max(0, i - 2)]), lo), min(float(g[min(len(c) - 1, i + 1)]), hi)
            y = min(max(float(g[i - 1] + (g[i] - g[i - 1]) * (u - c[i - 1]) / (c[i] - c[i - 1])), lo), hi)
        h = _QUANTILE_HALFWIDTH
        f = self.cdf(y) - u
        closing_failed, last = False, math.inf
        for _ in range(_QUANTILE_STEPS):
            if f < 0.0:
                lo = below = y
            else:
                hi = above = y
            d = 0.0 if closing_failed else self.density(y)
            step = y - f / d if d > 0.0 else y
            if above - below <= 2.0 * h:
                # closed, also where the evaluated cdf is flat or not monotone: every q in [above - h, below + h]
                # has cdf(q - h) < u <= cdf(q + h).  Return the nearest to Newton's point, unless that point lies
                # in the bracket but outside this range: closing around it costs two cdfs and is more accurate
                q = min(max(step, above - h), below + h)
                if q == step or d == 0.0 or not lo < step <= hi:
                    return q
            if hi - lo <= 2.0 * h:
                # the table's bracket missed u for the evaluated cdf (u above cdf(Y), say): search the rest
                lo, hi = below, above
            # a zero density, a Newton point that did not close, a step out of the bracket or one not
            # below half the last move (slow convergence) bisects; f = 0 steps onto hi, inside
            if not (d > 0.0 and lo < step <= hi and abs(step - y) < 0.5 * last):
                step = 0.5 * (lo + hi)
            if abs(step - y) > h:
                last = abs(step - y)
                y, f, closing_failed = step, self.cdf(step) - u, False
                continue
            # converged: close the bracket to [step - h, step + h]
            y, f, closing_failed = step - h, self.cdf(step - h) - u, True
            if f < 0.0:
                y, f = step + h, self.cdf(step + h) - u
                if f >= 0.0:
                    return step
        raise AccuracyError(f"quantile({u!r}) did not close its bracket to 1e-9", achieved=above - below)

    # ------------------------------------------------------------- sampling

    def _table(self) -> DensityTable:
        return _build_table(self.sigma)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse CDF on the tabulated grid; deterministic per seed.

        Each draw u of ``default_rng(seed).random(n)`` maps to the linear
        interpolation of the trimmed table (``_strictly_increasing``), bit for
        bit ``np.interp``'s; ``_interp_guided`` finds its segment through a
        guide table instead of a binary search.
        """
        if n < 1:
            raise DomainError("sample needs n >= 1")
        table = self._table()
        u = np.random.default_rng(seed).random(n)
        return _interp_guided(u, *_strictly_increasing(table.cdf, table.grid))


def _interp_guided(u: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """np.interp(u, c, g), bit for bit, for 0 <= u <= 1 and strictly increasing c >= 0.

    u may be overwritten.  A guide table (Chen & Asau 1974) over M equal
    buckets of [0, 1], M a power of two growing with len(u) up to
    ``_MAX_BUCKETS``, holds the segment of each bucket's left end; only a draw
    whose bucket holds a knot is looked up by ``np.searchsorted``.  The value
    is np.interp's slope[j] (u - c[j]) + g[j], with slope 0 past either end
    for its default left and right values g[0] and g[-1].  The draws are
    taken ``_CHUNK`` at a time.
    """
    # about four buckets a draw: the guide's set-up, linear in the buckets, stays below the draws' cost
    buckets = min(_MAX_BUCKETS, 1 << (4 * len(u) - 1).bit_length())
    # segment j = searchsorted(c, u, "right") - 1 runs from -1 to len(c) - 1; slope[-1] and slope[len(c) - 1] are 0,
    # the flat ends, and take(mode="clip") reads c[0], g[0] at j = -1
    slope = np.zeros(len(c) + 1)
    np.divide(g[1:] - g[:-1], c[1:] - c[:-1], out=slope[:-2])
    # guide[b] + 1 = #{c <= b/M} = #{ceil(c M) <= b}: c M is exact, M being a power of two
    guide = np.cumsum(np.bincount(np.ceil(c * buckets).astype(np.intp), minlength=buckets + 2)[: buckets + 2]) - 1
    # a bucket holds a knot when its two ends lie in different segments; bucket M holds u = 1 only, where guide is exact
    mixed = guide[1:] != guide[:-1]
    for s in range(0, len(u), _CHUNK):
        v = u[s : s + _CHUNK]
        b = (v * buckets).astype(np.intp)
        j = guide[b]
        hard = np.flatnonzero(mixed[b])
        j[hard] = np.searchsorted(c, v[hard], side="right") - 1
        v -= c.take(j, mode="clip")
        v *= slope[j]
        v += g.take(j, mode="clip")
    return u


def _strictly_increasing(cdf: np.ndarray, grid: np.ndarray):
    """Trim flat tail segments (underflowed pdf) so interpolation is monotone."""
    eps = 1e-15
    first = int(np.searchsorted(cdf, eps))
    last = int(np.searchsorted(cdf, 1.0 - eps, side="right"))
    first = max(0, first - 1)
    last = min(len(cdf), last + 1)
    c, g = cdf[first:last], grid[first:last]
    keep = np.concatenate(([True], c[1:] > c[:-1]))
    return c[keep], g[keep]


@lru_cache(maxsize=8)
def _build_table(sigma: float) -> DensityTable:
    # sinh-warped grid on [-40, 40]: spacing ~6e-4 near 0, ~0.12 at the edges
    u = np.linspace(-1.0, 1.0, _TABLE_NODES)
    grid = 40.0 * np.sinh(6.0 * u) / math.sinh(6.0)
    grid[_TABLE_NODES // 2] = 0.0
    dist = XiDistribution(sigma)
    return DensityTable(grid=grid, pdf=dist.density(grid), cdf=dist.panel_cdf(grid))
