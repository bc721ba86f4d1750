r"""Signed Levy-Khintchine machinery for the completed-zeta law.

The characteristic function Xi_sigma(t) = xi(sigma-it)/xi(sigma) admits several
exponent representations, each realized here and cross-checkable against the
direct xi ratio:

* prime/Gamma route (sigma > 1): exponent it*lambda_sigma +
  int (e^{itx}-1-itx 1_{[0,1/2]}) nu(dx) with the signed density
  1/(x e^{sigma x}(1-e^{-2x})) - (1+e^x)/(x e^{sigma x}) plus prime-power
  atoms of mass p^{-r sigma}/r at r log p  (``xi_triplet``);
* zero route (sigma > 1/2): product over paired critical zeros of
  (A - i gamma - it)(A + i gamma - it) / ((A - i gamma)(A + i gamma)),
  A = sigma - 1/2, one log per pair in ``cf_from_zeros``;
* Gamma-law route: Malmsten-type exponent reproducing
  log Gamma(sigma-it) - log Gamma(sigma)  (``gamma_levy_log``);
* exponential smoothing: Xi*_sigma(t) = (sigma-1)/(sigma-1-it) Xi_sigma(t),
  whose triplet has the everywhere-positive continuous density
  1/(x e^{sigma x}(1-e^{-2x})) - 1/(x e^{sigma x})  (``xi_star_triplet``).

Numerical conventions: exponents are accumulated per conjugate zero pair,
never as the log of a finished product.  The principal log of one pair
factor 1 + w is safe: only exp of the summed exponent is returned, so a
branch jump of 2 pi i could not change a value, and none occurs for real t
because Im w = -2At/(A^2 + gamma^2) keeps 1 + w off the negative real axis.
e^{iu}-1 and e^{iu}-1-iu are evaluated in cancellation-free form.  Prime
sums are truncated at an explicit cutoff whose tail bound is exposed for
error budgeting.  The exponent and CF evaluators (``gamma_levy_log``,
``cf_from_zeros``, ``cf_from_triplet``, ``log_cf_from_triplet``) take a scalar
or an array t; an array is evaluated in one call, in row blocks of at most
2^14 entries per temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .accuracy import (
    DEFAULT_ACCURACY,
    AccuracyError,
    DomainError,
    EvalAccuracy,
    InsufficientZerosError,
    MeasureDivergenceError,
)
from .quadrature import fourier_quad, kernel_sum, quad_checked, row_blocks
# not called here; bench/tracing.py wraps it under this module's name
from .quadrature import quad_checked as quad_complex  # noqa: F401
from .specfun import xi
from .zeros import ZeroList

__all__ = [
    "GammaPart",
    "LinearPart",
    "ExpPart",
    "ZeroCosPart",
    "SignedMeasure",
    "QuasiLevyTriplet",
    "PrimeCutoff",
    "primes_up_to",
    "prime_atoms",
    "prime_atom_tail_bound",
    "cf_from_zeros",
    "zero_tail_estimate",
    "gamma_drift",
    "gamma_levy_log",
    "xi_triplet",
    "xi_star_triplet",
    "cf_xi_star",
    "cf_from_triplet",
    "log_cf_from_triplet",
    "total_variation_integral",
    "ZeroProductResult",
]


# ------------------------------------------------------- stable primitives

def _eiu_m1(u: np.ndarray) -> np.ndarray:
    """e^{iu} - 1 for a real array u, without cancellation: (-2 sin^2(u/2), sin u)."""
    out = np.empty(u.shape, dtype=complex)
    half = np.sin(0.5 * u)
    np.multiply(-2.0 * half, half, out=out.real)
    np.sin(u, out=out.imag)
    return out


def _eiu_m1_miu(u: np.ndarray) -> np.ndarray:
    """e^{iu} - 1 - iu; the imaginary part sin(u) - u is series-expanded near 0."""
    out = np.empty(u.shape, dtype=complex)
    half = np.sin(0.5 * u)
    np.multiply(-2.0 * half, half, out=out.real)
    u2 = u * u
    series = -(u * u2) / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0))
    np.copyto(out.imag, np.where(np.abs(u) < 1e-2, series, np.sin(u) - u))
    return out


def _finite_t(t) -> np.ndarray:
    """t as a float array (0-d for a scalar); NaN or inf raises like ``ensure_finite``."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"non-finite t: {t!r}")
    return t


# ------------------------------------------------------------- measure model

@dataclass(frozen=True)
class GammaPart:
    """coeff / (x e^{sigma x} (1 - e^{-2x})); ~ 1/(2x^2) at the origin."""

    sigma: float
    coeff: float = 1.0
    pole_order = 2

    @property
    def decay(self) -> float:
        return self.sigma

    def density(self, x):
        return self.coeff * np.exp(-self.sigma * x) / (x * (-np.expm1(-2.0 * x)))


@dataclass(frozen=True)
class LinearPart:
    """coeff (1+e^x)/(x e^{sigma x}), evaluated overflow-free."""

    sigma: float
    coeff: float = -1.0
    pole_order = 1

    @property
    def decay(self) -> float:
        return self.sigma - 1.0

    def density(self, x):
        return self.coeff * (np.exp(-self.sigma * x) + np.exp((1.0 - self.sigma) * x)) / x


@dataclass(frozen=True)
class ExpPart:
    """coeff e^{-rate x}/x."""

    rate: float
    coeff: float = 1.0
    pole_order = 1

    @property
    def decay(self) -> float:
        return self.rate

    def density(self, x):
        return self.coeff * np.exp(-self.rate * x) / x


@dataclass(frozen=True)
class ZeroCosPart:
    """coeff * (-2 cos(gamma x) e^{-offset x}/x): one paired-zero term."""

    gamma: float
    offset: float
    coeff: float = 1.0
    pole_order = 1

    @property
    def decay(self) -> float:
        return self.offset

    def density(self, x):
        return -2.0 * self.coeff * np.cos(self.gamma * x) * np.exp(-self.offset * x) / x


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """Signed measure on (0, inf): tagged continuous terms plus atoms."""

    continuous: tuple = ()
    atom_locations: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_masses: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        locs = np.asarray(self.atom_locations, dtype=float)
        masses = np.asarray(self.atom_masses, dtype=float)
        if locs.shape != masses.shape:
            raise ValueError("atom locations/masses length mismatch")
        if np.any(locs <= 0.0):
            raise ValueError("atom locations must be strictly positive")
        object.__setattr__(self, "atom_locations", locs)
        object.__setattr__(self, "atom_masses", masses)

    def continuous_density(self, x):
        if not self.continuous:
            return np.zeros_like(np.asarray(x, dtype=float))
        total = self.continuous[0].density(x)
        for term in self.continuous[1:]:
            total = total + term.density(x)
        return total

    @property
    def min_decay(self) -> float:
        if not self.continuous:
            return math.inf
        return min(term.decay for term in self.continuous)

    @property
    def max_pole_order(self) -> int:
        return max((term.pole_order for term in self.continuous), default=0)

    @property
    def max_frequency(self) -> float:
        return max((t.gamma for t in self.continuous if isinstance(t, ZeroCosPart)), default=0.0)


@dataclass(frozen=True, eq=False)
class QuasiLevyTriplet:
    """(a, drift, nu) with compensator indicator 1_{[-b, b]}; ``cf_from_triplet`` evaluates it."""

    a: float
    drift: float
    measure: SignedMeasure
    truncation_halfwidth: float = 0.0

    def __post_init__(self):
        if self.truncation_halfwidth < 0.0:
            raise ValueError("truncation halfwidth must be >= 0")


@dataclass(frozen=True)
class PrimeCutoff:
    p_max: int = 100_000
    r_max: int = 40

    def __post_init__(self):
        if self.p_max < 2 or self.r_max < 1:
            raise ValueError("need p_max >= 2 and r_max >= 1")


# ------------------------------------------------------------------- primes

@lru_cache(maxsize=4)
def primes_up_to(n: int) -> np.ndarray:
    """numpy sieve, inclusive."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


@lru_cache(maxsize=16)
def _atom_arrays(sigma: float, p_max: int, r_max: int):
    primes = primes_up_to(p_max).astype(float)
    logs = np.log(primes)
    locs = [logs]
    masses = [primes**-sigma]
    for r in range(2, r_max + 1):
        # masses below 1e-20 cannot move any double-precision exponent
        cap = math.exp(20.0 * math.log(10.0) / (r * sigma))
        sub = primes[primes <= cap]
        if len(sub) == 0:
            break
        locs.append(r * np.log(sub))
        masses.append(sub ** (-r * sigma) / r)
    out = np.concatenate(locs), np.concatenate(masses)
    # shared by every caller at this (sigma, cutoff), and the identity key of
    # ``_atom_sum``: read-only, so the same object always holds the same atoms
    for arr in out:
        arr.flags.writeable = False
    return out


def prime_atoms(sigma: float, cut: PrimeCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Atoms (r log p, p^{-r sigma}/r) for p <= p_max, r <= r_max; sigma > 1."""
    if not sigma > 1.0:
        raise DomainError("prime atoms converge only for sigma > 1")
    return _atom_arrays(float(sigma), cut.p_max, cut.r_max)


def prime_atom_tail_bound(sigma: float, cut: PrimeCutoff) -> float:
    """Bound on the exponent error from primes beyond p_max.

    |sum_{p>P} sum_r (p^{-r sigma}/r)(e^{irt log p}-1)| <= 2 sum_{p>P} p^{-sigma}
    plus a geometric r>=2 remainder; the prime sum is bounded through the
    prime-counting density 1.3/log u (checked against direct sums in tests).
    """
    if not sigma > 1.0:
        raise DomainError("tail bound needs sigma > 1")
    p, lg = float(cut.p_max), math.log(cut.p_max)
    single = 1.3 * p ** (1.0 - sigma) / ((sigma - 1.0) * lg)
    squares = 1.5 * p ** (1.0 - 2.0 * sigma) / ((2.0 * sigma - 1.0) * lg)
    return 2.0 * (single + squares)


# ------------------------------------------------------------- zero product

class ZeroProductResult(NamedTuple):
    """Scalars for a scalar t; arrays of t's shape for an array t."""

    value: complex
    tail_estimate: float


def zero_tail_estimate(sigma: float, t, zl: ZeroList, k: int):
    """Crude magnitude of the dropped exponent sum over zeros beyond the K-th (t scalar or array).

    Per zero the exponent is ~ t^2/gamma^2 - 2i(sigma-1/2)t/gamma^2; zeros
    inside the list range come from its cached suffix sums (O(1) per call) and
    the range beyond t_max uses the zero-density integral (log(T/2pi)+1)/(2 pi T).
    """
    a = sigma - 0.5
    scale = t * t + 2.0 * a * np.abs(t)
    inside = float(zl.inv_square_suffix[min(k, len(zl))])
    t_edge = zl.t_max
    beyond = (math.log(t_edge / (2.0 * math.pi)) + 1.0) / (2.0 * math.pi * t_edge)
    return scale * (inside + beyond)


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # np.exp overflows past it


def cf_from_zeros(sigma: float, t, zl: ZeroList, k: int) -> ZeroProductResult:
    """K-zero truncation of the Hadamard-product characteristic function.

    exp( sum_{j<=K} log(1 + w_j) ), w_j = -t(t + 2ia)/(a^2 + gamma_j^2) with
    a = sigma - 1/2, one log per conjugate zero pair (the pair factor
    (A - i gamma - it)(A + i gamma - it)/((A - i gamma)(A + i gamma)) is
    1 + w).  t may be a scalar (a result of scalars) or an array (a result of
    arrays of its shape).
    """
    if not sigma > 0.5:
        raise DomainError("zero-product representation needs sigma > 1/2")
    if k < 1:
        raise DomainError(f"need at least one zero, got K = {k}")
    if k > len(zl):
        raise InsufficientZerosError(f"requested {k} zeros, have {len(zl)}")
    t = _finite_t(t)
    flat = t.ravel()
    a = sigma - 0.5
    inv_d = 1.0 / (a * a + zl.gammas[:k] ** 2)
    total = np.empty(flat.size, dtype=complex)
    for blk in row_blocks(flat.size, k):
        tb = flat[blk, None]
        re = -(tb * tb) * inv_d
        im = (-2.0 * a) * tb * inv_d
        p = 1.0 + re
        # log|1+w|^2 = log1p(Re w (2 + Re w) + Im w^2) keeps the digits of
        # small w; where |1+w| is small (t near gamma) log1p's argument nears
        # -1 and loses them, and log(|1+w|^2) keeps them instead
        mod2 = p * p + im * im
        log_mod2 = np.where(mod2 < 0.5, np.log(mod2), np.log1p(re * (2.0 + re) + im * im))
        total.real[blk] = 0.5 * log_mod2.sum(axis=1)
        total.imag[blk] = np.arctan2(im, p).sum(axis=1)
    if np.any(total.real > _LOG_FLOAT_MAX):
        raise AccuracyError(f"the {k}-zero product at sigma={sigma:g} overflows float64")
    value = np.exp(total)
    value[flat == 0.0] = 1.0
    tail = zero_tail_estimate(sigma, flat, zl, k)
    if t.ndim == 0:
        return ZeroProductResult(complex(value[0]), float(tail[0]))
    return ZeroProductResult(value.reshape(t.shape), tail.reshape(t.shape))


# ----------------------------------------------------------- Gamma-law route

def gamma_drift(sigma: float) -> float:
    """C(sigma) = int_0^1 (e^{-sigma x}/(1-e^{-x}) - e^{-x}/x) dx - int_1^inf e^{-x}/x dx."""
    if not sigma > 0.0:
        raise DomainError("gamma drift needs sigma > 0")
    # the head integrand is finite at 0; its two ~1/x terms cancel to O(1),
    # which at the panel nodes (all above 2e-3) costs under 1e-13 per node
    head = quad_checked(lambda x: np.exp(-sigma * x) / -np.expm1(-x) - np.exp(-x) / x, 0.0, 1.0, abs_tol=1e-12)
    tail = quad_checked(lambda x: np.exp(-x) / x, 1.0, 40.0, abs_tol=1e-13)
    return head - tail


def gamma_levy_log(sigma: float, t, acc: EvalAccuracy = DEFAULT_ACCURACY):
    """Malmsten-form exponent for Gamma(sigma-it)/Gamma(sigma), sigma > 0.

    it C(sigma) + int_0^inf (e^{itx}-1-itx 1_{[0,1]}) / (x e^{sigma x}(1-e^{-x})) dx,
    which the tests pin against log_gamma(sigma-it) - log_gamma(sigma).  The
    integral is two ``fourier_quad`` panel rules, compensated on [0, 1] and
    plain on [1, 36/sigma + 4], as in ``log_cf_from_triplet``.  t may be a
    scalar (complex result) or an array (complex array of its shape).
    """
    if not sigma > 0.0:
        raise DomainError("gamma representation needs sigma > 0")
    t = _finite_t(t)
    flat = t.ravel()
    tol = max(acc.abs_tol, 1e-12)

    def dens(x):
        return np.exp(-sigma * x) / (x * -np.expm1(-x))

    # the density varies at its decay rate and on the unit scale of its pole at 0
    rate = sigma + 2.0
    total = fourier_quad(dens, 0.0, 1.0, flat, tol, rate, kernel=_eiu_m1_miu)
    total += fourier_quad(dens, 1.0, 36.0 / sigma + 4.0, flat, tol, rate, kernel=_eiu_m1)
    total += 1j * flat * gamma_drift(sigma)
    return complex(total[0]) if t.ndim == 0 else total.reshape(t.shape)


# -------------------------------------------------------- triplet builders

def xi_triplet(sigma: float, cut: PrimeCutoff = PrimeCutoff()) -> QuasiLevyTriplet:
    """Quasi-Levy triplet of the sigma > 1 law: signed continuous density plus
    prime atoms, compensated on [0, 1/2] (all atoms sit above log 2 > 1/2)."""
    if not sigma > 1.0:
        raise DomainError("triplet requires sigma > 1")
    drift = (
        (math.exp(-0.5 * sigma) - 1.0) / sigma
        + (math.exp(0.5 * (1.0 - sigma)) - 1.0) / (sigma - 1.0)
        + 0.5 * math.log(math.pi)
        + 0.5 * gamma_drift(0.5 * sigma)
    )
    locs, masses = prime_atoms(sigma, cut)
    measure = SignedMeasure(
        continuous=(GammaPart(sigma), LinearPart(sigma, coeff=-1.0)),
        atom_locations=locs,
        atom_masses=masses,
    )
    return QuasiLevyTriplet(a=0.0, drift=drift, measure=measure, truncation_halfwidth=0.5)


def xi_star_triplet(sigma: float, cut: PrimeCutoff = PrimeCutoff()) -> QuasiLevyTriplet:
    """Levy triplet of the exponentially smoothed law Xi*; its continuous
    density 1/(x e^{sigma x}(1-e^{-2x})) - 1/(x e^{sigma x}) is positive, so
    the smoothed law is infinitely divisible for sigma > 1.

    The two continuous pieces are combined analytically,
        1/(x e^{sigma x}(1-e^{-2x})) - 1/(x e^{sigma x})
            = 1/(x e^{(sigma+2) x}(1-e^{-2x})),
    so the strictly positive difference never cancels to zero in floats.
    """
    if not sigma > 1.0:
        raise DomainError("smoothed triplet requires sigma > 1")
    drift = (
        (math.exp(-0.5 * sigma) - 1.0) / sigma
        + 0.5 * math.log(math.pi)
        + 0.5 * gamma_drift(0.5 * sigma)
    )
    locs, masses = prime_atoms(sigma, cut)
    measure = SignedMeasure(
        continuous=(GammaPart(sigma + 2.0),),
        atom_locations=locs,
        atom_masses=masses,
    )
    return QuasiLevyTriplet(a=0.0, drift=drift, measure=measure, truncation_halfwidth=0.5)


def cf_xi_star(sigma: float, t: float) -> complex:
    """Xi*_sigma(t) = (sigma-1)/(sigma-1-it) * Xi_sigma(t), sigma != 1."""
    if sigma == 1.0:
        raise DomainError("Xi* is undefined at sigma = 1")
    t = float(t)
    if t == 0.0:
        return 1.0 + 0.0j
    ratio = (sigma - 1.0) / complex(sigma - 1.0, -t)
    return ratio * xi(complex(sigma, -t)) / xi(complex(sigma, 0.0))


# -------------------------------------------------------- triplet evaluation

# (locs, masses, t, sum) of the last ``_atom_sum``.  xi_triplet and
# xi_star_triplet at one sigma carry the same ``_atom_arrays`` objects, so the
# second of the pair reuses the first's sum over the same t.  Holding the
# arrays keeps their ids from being reused; one tuple is read and replaced
# whole, so a concurrent caller sees either the old entry or the new one.
_last_atom_sum = (None, None, None, None)


def _atom_sum(t: np.ndarray, locs: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """sum_j masses_j (e^{i t locs_j} - 1) for a flat t; the result is read-only."""
    global _last_atom_sum
    m_locs, m_masses, m_t, value = _last_atom_sum
    if m_locs is locs and m_masses is masses and np.array_equal(m_t, t):
        return value
    value = kernel_sum(_eiu_m1, t, locs, masses)
    value.flags.writeable = False
    # only read-only arrays are keyed by identity: a writable one may change in place
    if not (locs.flags.writeable or masses.flags.writeable):
        _last_atom_sum = (locs, masses, t.copy(), value)
    return value


def log_cf_from_triplet(tr: QuasiLevyTriplet, t, acc: EvalAccuracy = DEFAULT_ACCURACY):
    """The Levy-Khintchine exponent of the triplet at t (value 0 at t = 0).

    t may be a scalar (complex result) or an array (complex array of its
    shape); the continuous part is one ``fourier_quad`` panel rule per piece
    for the whole array.
    """
    t = _finite_t(t)
    flat = t.ravel()
    b = tr.truncation_halfwidth
    m = tr.measure
    total = -0.5 * tr.a * flat * flat + 1j * tr.drift * flat
    if m.continuous:
        if b == 0.0 and m.max_pole_order >= 2:
            raise DomainError(
                "continuous density ~ x^-2 at 0 is not integrable without a compensator"
            )
        slowest = m.min_decay
        if slowest <= 0.0:
            raise DomainError("continuous density does not decay; exponent integral diverges")
        tol = max(acc.abs_tol, 1e-12)
        x_hi = (34.0 + math.log(1.0 + float(np.max(np.abs(flat), initial=0.0)))) / slowest + 2.0
        # the density varies at its fastest decay rate and cosine frequency,
        # and on the unit scale of its pole at x = 0
        rate = max(term.decay for term in m.continuous) + m.max_frequency + 2.0
        dens = m.continuous_density
        if b > 0.0:
            total += fourier_quad(dens, 0.0, b, flat, tol, rate, kernel=_eiu_m1_miu)
            total += fourier_quad(dens, b, x_hi, flat, tol, rate, kernel=_eiu_m1)
        else:
            total += fourier_quad(dens, 0.0, x_hi, flat, tol, rate, kernel=_eiu_m1)
    if len(m.atom_locations):
        locs, masses = m.atom_locations, m.atom_masses
        total += _atom_sum(flat, locs, masses)
        inside = locs <= b
        if np.any(inside):
            total -= 1j * flat * float(np.dot(masses[inside], locs[inside]))
    total[flat == 0.0] = 0.0
    return complex(total[0]) if t.ndim == 0 else total.reshape(t.shape)


def cf_from_triplet(tr: QuasiLevyTriplet, t, acc: EvalAccuracy = DEFAULT_ACCURACY):
    """exp of the triplet exponent over a scalar or array t; exactly 1 at t = 0."""
    out = np.exp(log_cf_from_triplet(tr, t, acc))
    return complex(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------- total variation probe

def total_variation_integral(m: SignedMeasure, x_max: float | None = None, abs_tol: float = 1e-7) -> float:
    """int (x^2 ^ 1) d|nu|: atoms exactly, continuous part by dense panels.

    With ``x_max`` given, integrates the continuous part over (0, x_max] and
    returns the truncated value (useful for divergence scans).  Without it,
    the range is extended dyadically until the increments pass a Cauchy test;
    measures whose increments stop shrinking raise MeasureDivergenceError,
    the expected behaviour for an undamped cos(gamma x)/x zero measure.
    """
    atoms = float(np.dot(np.minimum(m.atom_locations**2, 1.0), np.abs(m.atom_masses)))
    if not m.continuous:
        return atoms

    def window(a: float, b: float) -> float:
        freq = m.max_frequency
        step = min(0.002 * (1.0 + a), (2.0 * math.pi / freq) / 32.0 if freq > 0 else math.inf)
        n = max(600, int(math.ceil((b - a) / step)))
        x = np.linspace(a, b, n + 1)
        y = np.minimum(x * x, 1.0) * np.abs(m.continuous_density(x))
        return float(np.trapezoid(y, x))

    # (0, 0.25]: graded geometric panels; (x^2 ^ 1)|density| is bounded there
    x_lo_edges = np.geomspace(1e-9, 0.25, 400)
    x0 = np.concatenate([[0.0], x_lo_edges])
    y0 = np.minimum(x0 * x0, 1.0) * np.abs(_density_with_origin(m, x0))
    total = float(np.trapezoid(y0, x0))

    edge = 0.25
    if x_max is not None:
        while edge < x_max:
            nxt = min(2.0 * edge, x_max)
            total += window(edge, nxt)
            edge = nxt
        return total + atoms

    partials = [total]
    flat = 0
    for _ in range(48):
        inc = window(edge, 2.0 * edge)
        edge *= 2.0
        total += inc
        partials.append(total)
        if inc < max(abs_tol, 1e-12 * total):
            return total + atoms
        if len(partials) >= 3 and inc > 0.5 * (partials[-2] - partials[-3]):
            flat += 1
            if flat >= 4:
                raise MeasureDivergenceError(
                    "total-variation increments are not Cauchy", partials=partials
                )
        else:
            flat = 0
    raise MeasureDivergenceError("total-variation integral did not converge", partials=partials)


def _density_with_origin(m: SignedMeasure, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = m.continuous_density(x[pos])
    return out
