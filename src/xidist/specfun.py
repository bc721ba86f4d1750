r"""Complex-plane evaluators: log Gamma, zeta, the completed zeta function xi,
the theta kernel, and the Riemann-Siegel Z function.

Everything downstream (the distribution, the signed Levy-type representations,
the zero finder) is built on the routines in this module, so each evaluator is
held to a stated accuracy and cross-checkable against an independent path:

* ``xi`` multiplies s(s-1) pi^{-s/2} Gamma(s/2) zeta(s) out of log-gamma and
  zeta evaluators, while ``xi_theta`` reaches the same entire function through
  the absolutely convergent theta-kernel integral
      xi(s) = 2 \int_1^inf  sum_n f(nx) (x^{s-1/2} + x^{1/2-s}) x^{-1/2} dx,
  f(x) = 2 pi (2 pi x^4 - 3 x^2) e^{-pi x^2}.
* ``z_values`` is the one Z(t) evaluator, over arrays (``riemann_siegel_Z`` is
  its 0-d call): exact-phase (e^{i theta(t)} zeta(1/2+it)) below t = 1000 and
  the Riemann-Siegel main sum plus its first correction term above, which is
  ample for locating sign changes.

Method selection for zeta:
  Re s > 0 : the Stieltjes-constant series of (s-1) zeta(s) within 0.1 of
             the pole; Euler-Maclaurin everywhere else.  One Euler-Maclaurin
             routine serves ``zeta`` and ``z_values``, with one head-length
             rule (about 0.55 |Im s| terms); each caller chooses the tail stop
             (``z_values`` groups its ordinates so that each group shares the
             head length of its upper edge).
  Re s <= 0: reflection through the functional equation, assembled in log
             space so that the Gamma/sin factors cannot overflow.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .accuracy import (
    DEFAULT_ACCURACY,
    AccuracyError,
    DomainError,
    EvalAccuracy,
    PoleError,
    ensure_finite,
)
from .quadrature import quad_checked

__all__ = [
    "log_gamma",
    "zeta",
    "xi",
    "theta_kernel",
    "theta_sum",
    "xi_theta",
    "riemann_siegel_theta",
    "riemann_siegel_Z",
    "z_values",
]

_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# Switch point between the exact-phase Z evaluation and the Riemann-Siegel
# formula.  Below this the Euler-Maclaurin zeta is cheap and machine-accurate;
# above it the RS main sum + first correction is within ~3e-3, enough for
# bracketing (the tightest known dip of |Z| between neighbouring zeros under
# t = 1e4, near t ~ 7005, is ~4e-3).
_Z_SWITCH = 1000.0

# ----------------------------------------------------------------- log Gamma

def _bernoulli_numbers(n: int) -> list[float]:
    """B_0..B_n (B_1 = -1/2), exact by sum_{k<=m} C(m+1, k) B_k = 0, each rounded once."""
    b = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
    for m in range(2, n + 1, 2):  # odd B_m beyond B_1 vanish
        b[m] = -(1 - Fraction(m + 1, 2) + sum(math.comb(m + 1, k) * b[k] for k in range(2, m, 2))) / (m + 1)
    return [float(v) for v in b]


# Stirling tail coefficients B_{2k} / (2k (2k-1)).
_B = _bernoulli_numbers(60)
_STIRLING = [_B[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, 15)]
_STIRLING_SHIFT = 9.0  # recurrence target: Re z >= 9 puts us in the Stirling region


def log_gamma(s: complex) -> complex:
    """Principal-branch log Gamma via argument-shift recurrence + Stirling.

    Relative accuracy ~1e-13 for -50 <= Re s <= 50, |Im s| <= 200 (and
    degrades gracefully outside).  Raises PoleError at non-positive integers.
    """
    z = ensure_finite(s, "log_gamma argument")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"log_gamma pole at non-positive integer {z.real:g}")
    shift = 0
    if z.real < _STIRLING_SHIFT:
        shift = int(math.ceil(_STIRLING_SHIFT - z.real))
    w = z + shift
    rec = 0.0 + 0.0j
    for j in range(shift):
        rec += cmath.log(z + j)
    winv2 = 1.0 / (w * w)
    tail = 0.0 + 0.0j
    p = 1.0 / w
    for c in _STIRLING:
        tail += c * p
        p *= winv2
    out = (w - 0.5) * cmath.log(w) - w + _LN_SQRT_2PI + tail - rec
    if not cmath.isfinite(out):
        raise AccuracyError("log_gamma overflowed", achieved=math.inf)
    return out


# ---------------------------------------------------------------------- zeta

# (s-1) * zeta(s) as a power series around s = 1 (Stieltjes constants),
# used whenever s is within 0.1 of the pole.
_STIELTJES = [
    0.5772156649015328606,
    -0.0728158454836767249,
    -0.0096903631928723184,
    0.0020538344203033459,
    0.0023253700654673000,
    0.0007933238173010627,
    -0.0002387693454301996,
    -0.0005272895670577510,
    -0.0003521233538030395,
    -0.0000343947744180880,
]
_W_COEFF = [(-1) ** n * g / math.factorial(n) for n, g in enumerate(_STIELTJES)]


def _pole_free_zeta(s: complex) -> complex:
    """(s-1) zeta(s), analytic at s = 1; valid for |s-1| <= 0.1."""
    d = s - 1.0
    acc = 0.0 + 0.0j
    for c in reversed(_W_COEFF):
        acc = (acc + c) * d
    return 1.0 + acc


# Euler-Maclaurin tail: coefficients B_{2k}/(2k)! and their successive ratios.
_EM_KMAX = 28
_BF = [_B[2 * k] / math.factorial(2 * k) for k in range(1, _EM_KMAX + 1)]
_EM_RATIO = np.array([_BF[k] / _BF[k - 1] for k in range(1, _EM_KMAX)])
_EM_TWO_K = 2.0 * np.arange(1, _EM_KMAX)


def _zeta_em(s, n_cut: int, stop: float):
    """Euler-Maclaurin zeta(s) for an array of s that share the head length n_cut.

    All tail terms are formed at once; the sum stops at the first term whose
    magnitude is at most ``stop`` for every s, and raises if none is.
    """
    s = np.asarray(s, dtype=complex)
    head = np.exp(-s[..., None] * np.log(np.arange(1.0, n_cut))).sum(axis=-1)
    ncs = np.exp(-s * math.log(n_cut))
    val = head + 0.5 * ncs + ncs * n_cut / (s - 1.0)
    # tail terms T_k = B_{2k+2}/(2k+2)! s(s+1)...(s+2k) n^{-s-2k-1}, built by their ratios
    s2k = s[..., None] + _EM_TWO_K
    ratios = _EM_RATIO * (s2k - 1.0) * s2k * (1.0 / (n_cut * n_cut))
    first = _BF[0] * s * ncs / n_cut
    terms = np.concatenate([first[..., None], ratios], axis=-1).cumprod(axis=-1)
    small = (abs(terms) <= stop).reshape(-1, _EM_KMAX).all(axis=0)
    if not small.any():
        raise AccuracyError("Euler-Maclaurin tail did not converge", achieved=float(abs(terms[..., -1]).max()))
    return val + terms[..., : small.argmax() + 1].cumsum(axis=-1)[..., -1]


def _log_sin(w: complex) -> complex:
    # branch is irrelevant: the caller exponentiates the total
    if abs(w.imag) <= 30.0:
        return cmath.log(cmath.sin(w))
    # |e^{-+2iw}| < e^{-60}: the subdominant exponential is below double precision
    if w.imag < 0:
        return 1j * w - cmath.log(2j)
    return -1j * w + cmath.log(0.5j)


def _em_head_length(t_abs: float) -> int:
    """Euler-Maclaurin head length for ordinates |Im s| <= t_abs."""
    return max(18, int(0.55 * t_abs) + 8)


def _zeta_rhs(s: complex, acc: EvalAccuracy) -> complex:
    # Re s > 0 dispatcher
    if abs(s - 1.0) <= 0.1:
        return _pole_free_zeta(s) / (s - 1.0)
    n_cut = _em_head_length(abs(s.imag))
    if n_cut > acc.max_terms:
        raise AccuracyError(f"Euler-Maclaurin needs {n_cut} head terms, max_terms is {acc.max_terms}")
    return complex(_zeta_em(s, n_cut, 0.02 * acc.abs_tol))


def zeta(s: complex, acc: EvalAccuracy = DEFAULT_ACCURACY) -> complex:
    """Riemann zeta on the full plane (simple pole at s = 1 raises)."""
    z = ensure_finite(s, "zeta argument")
    if z == 1.0:
        raise PoleError("zeta pole at s = 1")
    if z.real > 0.0:
        return _zeta_rhs(z, acc)
    # reflection:  zeta(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s) zeta(1-s)
    u = 1.0 - z
    if abs(z) < 0.1:
        # zeta(1-s) has its pole at s = 0; pair it with the sin zero explicitly
        w = _pole_free_zeta(u)  # (u-1) zeta(u) -> 1
        half = 0.5 * math.pi * z
        # sin(pi s/2)/s = pi/2 (1 - O(s^2)); below |s| = 1e-150 sin(pi s/2) is subnormal and inexact
        sin_over_s = 0.5 * math.pi if abs(z) < 1e-150 else cmath.sin(half) / z
        pref = cmath.exp(z * _LN_2 + (z - 1.0) * _LN_PI + log_gamma(u))
        return -pref * sin_over_s * w
    logv = (
        z * _LN_2
        + (z - 1.0) * _LN_PI
        + _log_sin(0.5 * math.pi * z)
        + log_gamma(u)
        + cmath.log(_zeta_rhs(u, acc))
    )
    return cmath.exp(logv)


# ----------------------------------------------------------------------- xi

def xi(s: complex) -> complex:
    """Completed zeta function s(s-1) pi^{-s/2} Gamma(s/2) zeta(s).

    Entire: the zeta pole at s=1 is removed by the (s-1) zeta(s) series, and
    s Gamma(s/2) is evaluated as 2 Gamma(s/2+1) so s=0 needs no special case.
    Exactly at the trivial zeros s = -2, -4, ... the Gamma pole meets the
    zeta zero; there the functional equation value xi(1-s) is returned.
    """
    z = ensure_finite(s, "xi argument")
    if abs(z.imag) < 1e-6:
        m = round(z.real)
        if m <= -2 and m % 2 == 0 and abs(z - m) < 1e-6:
            return xi(1.0 - z)
    w = _pole_free_zeta(z) if abs(z - 1.0) <= 0.05 else (z - 1.0) * zeta(z)
    return 2.0 * w * cmath.exp(log_gamma(0.5 * z + 1.0) - 0.5 * z * _LN_PI)


# ------------------------------------------------------------- theta kernel

def theta_kernel(x):
    """f(x) = 2 pi (2 pi x^4 - 3 x^2) e^{-pi x^2}; positive for all x >= 1."""
    xa = np.asarray(x, dtype=float)
    x2 = xa * xa
    out = _TWO_PI * (_TWO_PI * x2 * x2 - 3.0 * x2) * np.exp(-math.pi * x2)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _kernel_cutoff(abs_tol: float) -> float:
    # smallest u with 4 pi^2 u^4 e^{-pi u^2} < abs_tol/10 (Gaussian tail rule)
    big = math.log(40.0 * math.pi**2 / abs_tol)
    u = math.sqrt(big / math.pi)
    for _ in range(3):
        u = math.sqrt((big + 4.0 * math.log(max(u, 1.0))) / math.pi)
    return u


def theta_sum(x, abs_tol: float = 1e-16):
    """sum_{n>=1} f(n x) with the Gaussian-decay truncation rule, elementwise.

    x < 1 is evaluated through the reflection S(x) = S(1/x)/x (Riemann's
    Phi(u) = Phi(-u)): summed directly, the O(1) terms cancel to rounding
    noise far above the true value (S(0.1) ~ 1.4e-130).  For x >= 1 the
    terms n <= ceil(u/x) + 1, u = ``_kernel_cutoff(abs_tol)``, are added in
    order of n; the first term dropped, at n x >= u + 2, is below abs_tol/10
    by a factor e^{-4 pi u} or less, which the reflection's factor 1/x does
    not undo.  An array is summed to the bound of its smallest x (after
    reflection), so its other elements carry extra terms below abs_tol/10
    each; where every term is positive (x >= sqrt(3/(2 pi))) these are below
    half an ulp and each element equals its scalar call exactly.
    """
    x = np.asarray(x, dtype=float)
    x_min = x.min(initial=math.inf)
    if x_min <= 0.0:
        raise DomainError("theta_sum needs x > 0")
    if x_min < 1.0:
        reflect = x < 1.0
        xs = np.where(reflect, 1.0 / x, x)
        s = theta_sum(xs, abs_tol)
        total = np.where(reflect, s * xs, s)
    else:
        n = np.arange(1.0, math.ceil(_kernel_cutoff(abs_tol) / x_min) + 2.0)
        total = np.add.accumulate(theta_kernel(n.reshape(n.shape + (1,) * x.ndim) * x), axis=0)[-1]
    return float(total) if total.ndim == 0 else total


def xi_theta(s: complex, acc: EvalAccuracy = DEFAULT_ACCURACY) -> complex:
    """xi(s) by the theta-kernel integral; an independent route to ``xi``.

    The integrand (one ``theta_sum`` call over the panel nodes) is integrated
    over [1, X] by ``quad_checked``, certified to max(abs_tol, 1e-13); beyond
    X = 8 it is below 1e-180 for |Re s| <= 10, far inside any tolerance.
    """
    z = ensure_finite(s, "xi_theta argument")
    tol = max(acc.abs_tol, 1e-13)

    def integrand(x):
        log_x = np.log(x)
        return theta_sum(x, abs_tol=tol) * (np.exp((z - 1.0) * log_x) + np.exp(-z * log_x))

    x_hi = 8.0 + 0.1 * max(0.0, abs(z.real) - 10.0)
    # x^{+-i Im s} turns at rate |Im s| near x = 1; the theta series varies on the unit scale
    rate = abs(z.imag) + 4.0
    return 2.0 * quad_checked(integrand, 1.0, x_hi, abs_tol=tol, rate=rate)


# ------------------------------------------------------- Riemann-Siegel Z(t)

def _theta_asymptotic(t):
    t = np.asarray(t, dtype=float)
    return (
        0.5 * t * np.log(t / _TWO_PI)
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
        + 31.0 / (80640.0 * t**5)
    )


def riemann_siegel_theta(t):
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi (continuous branch), elementwise."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.array(_theta_asymptotic(np.maximum(a, 20.0)))
    for i in np.flatnonzero(a < 20.0):
        out.flat[i] = log_gamma(0.25 + 0.5j * a.flat[i]).imag - 0.5 * a.flat[i] * _LN_PI
    out = np.where(t < 0.0, -out, out)
    return float(out) if out.ndim == 0 else out


def _rs_psi(p: np.ndarray) -> np.ndarray:
    # Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), entire; the removable
    # points p = 1/4, 3/4 get the local expansion Psi ~ 1/2 -+ (p - p0)
    den = np.cos(_TWO_PI * p)
    num = np.cos(_TWO_PI * (p * p - p - 0.0625))
    out = np.empty_like(p)
    safe = np.abs(den) > 1e-4
    out[safe] = num[safe] / den[safe]
    if not np.all(safe):
        q = p[~safe]
        near_quarter = np.abs(q - 0.25) < np.abs(q - 0.75)
        out[~safe] = np.where(near_quarter, 0.5 - (q - 0.25), 0.5 + (q - 0.75))
    return out


def _z_riemann_siegel(ts: np.ndarray) -> np.ndarray:
    tau = ts / _TWO_PI
    a = np.sqrt(tau)
    cut = a.astype(np.int64)
    p = a - cut
    theta = _theta_asymptotic(ts)
    z = np.zeros_like(ts)
    for n_terms in np.unique(cut):
        m = cut == n_terms
        n = np.arange(1, n_terms + 1, dtype=float)
        phases = theta[m, None] - ts[m, None] * np.log(n)[None, :]
        z[m] = 2.0 * (np.cos(phases) / np.sqrt(n)[None, :]).sum(axis=1)
    sign = np.where(cut % 2 == 1, 1.0, -1.0)
    return z + sign * tau**-0.25 * _rs_psi(p)


# z_values groups the exact-phase ordinates by these edges; each group shares
# the Euler-Maclaurin head length of its upper edge
_EM_CHUNK_EDGES = np.array(
    [0.0, 50, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900, _Z_SWITCH]
)


def z_values(ts) -> np.ndarray:
    """Z(t) with |Z(t)| = |zeta(1/2 + it)| over an array of ordinates t >= 0.

    Exact-phase e^{i theta(t)} zeta(1/2+it) up to t = 1000 (error ~1e-12);
    Riemann-Siegel main sum + first correction term above (absolute error
    <= ~3e-3, decreasing like t^{-3/4}, which keeps every bracketing decision
    safe at desk scale).  Sign changes bracket zeros.
    """
    ts = np.asarray(ts, dtype=float)
    flat = np.atleast_1d(ts).astype(float)
    if np.any(flat < 0.0):
        raise DomainError("z_values needs t >= 0")
    out = np.empty_like(flat)
    low = flat <= _Z_SWITCH
    if np.any(low):
        tl = flat[low]
        zeta_half = np.empty(tl.shape, dtype=complex)
        bins = np.digitize(tl, _EM_CHUNK_EDGES[1:-1])
        for b in np.unique(bins):
            sel = bins == b
            zeta_half[sel] = _zeta_em(0.5 + 1j * tl[sel], _em_head_length(_EM_CHUNK_EDGES[b + 1]), 1e-15)
        rotated = np.exp(1j * riemann_siegel_theta(tl)) * zeta_half
        # the rotated value is real analytically; a large residue flags a bug
        if np.any(np.abs(rotated.imag) > 1e-6 * (1.0 + np.abs(rotated))):
            raise AccuracyError("phase-rotated zeta not real", achieved=float(np.max(np.abs(rotated.imag))))
        out[low] = rotated.real
    if np.any(~low):
        out[~low] = _z_riemann_siegel(flat[~low])
    return out.reshape(ts.shape)


def riemann_siegel_Z(t: float) -> float:
    """Z(t) at one ordinate: ``z_values`` on a 0-d input."""
    return float(z_values(t))
