"""Independent references the benchmark checks xidist's outputs against.

Nothing here imports xidist.  The CF and density references are evaluated in
mpmath; the zero references use mpmath's own Riemann-Siegel Z and zero count;
the CDF reference integrates a float64 theta series written out below with a
Gauss-Legendre rule of its own.

``Reference(perturb=True)`` shifts every reference value by a relative 1e-3.
The benchmark's self-test uses it to show that a wrong reference is counted
as failed checks instead of crashing the run.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 25

_PERTURB = 1e-3
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _mp_xi(s):
    """xi(s) = s (s-1) pi^(-s/2) Gamma(s/2) zeta(s), using xi(s) = xi(1-s) on the left."""
    s = mp.mpc(s)
    if mp.re(s) < 0.5:
        s = 1 - s
    if s == 1:
        return mp.mpf(1)
    return s * (s - 1) * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def _theta_kernel(x):
    x2 = x * x
    return 2.0 * math.pi * (2.0 * math.pi * x2 * x2 - 3.0 * x2) * np.exp(-math.pi * x2)


class Reference:
    """mpmath / float64 references; ``perturb`` makes every one of them wrong."""

    def __init__(self, perturb: bool = False):
        self.scale = 1.0 + _PERTURB if perturb else 1.0
        self._xi_real = {}
        self._zero_count = {}

    def xi_real(self, sigma: float) -> float:
        if sigma not in self._xi_real:
            self._xi_real[sigma] = mp.re(_mp_xi(sigma))
        return self._xi_real[sigma]

    def cf(self, sigma: float, t: float) -> complex:
        """Xi_sigma(t) = xi(sigma - i t) / xi(sigma) in mpmath."""
        if t == 0.0:
            return complex(self.scale)
        return complex(_mp_xi(mp.mpc(sigma, -t)) / self.xi_real(sigma)) * self.scale

    def cf_xi_star(self, sigma: float, t: float) -> complex:
        ratio = mp.mpf(sigma - 1.0) / mp.mpc(sigma - 1.0, -t)
        return complex(ratio * _mp_xi(mp.mpc(sigma, -t)) / self.xi_real(sigma)) * self.scale

    def density_mp(self, sigma: float, y: float) -> float:
        """Two-branch theta-series density, summed in mpmath until terms vanish."""
        y = mp.mpf(y)
        x = mp.exp(abs(y))
        total = mp.mpf(0)
        n = 1
        while True:
            u = n * x
            term = 2 * mp.pi * (2 * mp.pi * u**4 - 3 * u**2) * mp.exp(-mp.pi * u**2)
            total += term
            if mp.pi * u**2 > 200:
                break
            n += 1
        weight = mp.exp(-sigma * y) if y <= 0 else mp.exp((1 - sigma) * y)
        return float(2 * total * weight / self.xi_real(sigma)) * self.scale

    def density(self, sigma: float, y) -> np.ndarray:
        """The same density in float64, vectorized; underflows to 0 in the far tails."""
        y = np.asarray(y, dtype=float)
        x = np.exp(np.minimum(np.abs(y), 30.0))
        n = np.arange(1, 12, dtype=float)
        sums = _theta_kernel(np.multiply.outer(x, n)).sum(axis=-1)
        weight = np.where(y <= 0.0, np.exp(-sigma * y), np.exp((1.0 - sigma) * y))
        return 2.0 * sums * weight / float(self.xi_real(sigma)) * self.scale

    def cdf(self, sigma: float, y: float) -> float:
        """Mass below y: 20-point Gauss-Legendre on 0.02-wide panels of [-12, y], split at 0."""
        edges = [-12.0] + ([0.0] if y > 0.0 else []) + [y]
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            n_panels = max(1, int(math.ceil((b - a) / 0.02)))
            knots = np.linspace(a, b, n_panels + 1)
            mid = 0.5 * (knots[:-1] + knots[1:])
            half = 0.5 * (knots[1:] - knots[:-1])
            nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
            total += float((self.density(sigma, nodes) * _GL_W[None, :]).sum(axis=1) @ half)
        return total

    def zero_offset(self, gamma: float) -> tuple[float, float]:
        """(distance from gamma to the nearest true zero, |Z'| there) by one Newton step."""
        z = mp.siegelz(gamma)
        dz = mp.siegelz(gamma, derivative=1)
        target = (mp.mpf(gamma) - z / dz) * self.scale
        return float(abs(gamma - target)), abs(float(dz))

    def zero_count(self, t: float) -> int:
        """Number of zeros with 0 < gamma <= t (mpmath's Gram/Rosser count)."""
        if t not in self._zero_count:
            self._zero_count[t] = int(mp.nzeros(t))
        return self._zero_count[t]
