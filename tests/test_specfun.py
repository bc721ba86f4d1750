import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xidist.accuracy import DomainError, PoleError
from xidist.distribution import XiDistribution
from xidist.specfun import (
    _EM_CHUNK_EDGES,
    log_gamma,
    riemann_siegel_theta,
    theta_kernel,
    theta_sum,
    xi,
    z_grid,
    z_values,
    zeta,
)

mp.mp.dps = 30

GAMMA1 = 14.134725141734694


# ------------------------------------------------------------- log_gamma

def test_bernoulli_table_is_exact():
    from xidist.specfun import _B

    # each entry is the exact rational rounded once (mpmath's bernoulli(1) is -1/2 too)
    assert list(_B) == [float(mp.bernoulli(k)) for k in range(61)]


def test_log_gamma_half():
    assert abs(log_gamma(0.5 + 0j) - math.log(math.sqrt(math.pi))) < 1e-14


def test_log_gamma_five():
    assert abs(log_gamma(5 + 0j) - math.log(24.0)) < 1e-13


def test_log_gamma_frozen_complex_point():
    # 50-digit series/recurrence oracle, frozen
    want = complex(-0.30434960902188368417660077077486, -0.48375784292991511172812918802298)
    assert abs(log_gamma(2 - 1j) - want) < 1e-13


@pytest.mark.parametrize("z", [0, -1, -7])
def test_log_gamma_pole(z):
    with pytest.raises(PoleError):
        log_gamma(complex(z, 0.0))


def test_log_gamma_accuracy_region():
    rng = np.random.default_rng(5)
    for _ in range(60):
        z = complex(rng.uniform(-50, 50), rng.uniform(-200, 200))
        if abs(z.imag) < 0.5 and z.real <= 0:
            continue
        ref = complex(mp.loggamma(z))
        assert abs(log_gamma(z) - ref) <= 1e-12 * abs(ref)


def test_log_gamma_rejects_nan():
    with pytest.raises(ValueError):
        log_gamma(complex(float("nan"), 0.0))


# ------------------------------------------------------------------ zeta

def test_zeta_basel():
    assert abs(zeta(2 + 0j) - math.pi**2 / 6) < 1e-14


def test_zeta_at_zero():
    # continuation value forced by the functional-equation path
    assert abs(zeta(0j) - (-0.5)) < 1e-13


def test_zeta_first_zero_modulus():
    assert abs(zeta(0.5 + 14.134725j)) <= 1e-6


def test_zeta_pole():
    with pytest.raises(PoleError):
        zeta(1 + 0j)


def _low_ordinate_points():
    """Seeded points with 0 < Re s <= 12, |Im s| <= 150, where Euler-Maclaurin runs at its shortest heads."""
    rng = np.random.default_rng(2024)
    bulk = [complex(rng.uniform(0.001, 12.0), rng.uniform(-150.0, 150.0)) for _ in range(32)]
    # within 1e-3 of the zeros 1 + 2 pi i k / log 2 of 1 - 2^{1-s}
    eta_zeros = [
        complex(1.0 + rng.uniform(-5e-4, 5e-4), 2.0 * math.pi * k / math.log(2.0) + rng.uniform(-5e-4, 5e-4))
        for k in (-13, -1, 2, 16)
    ]
    # 0.1 < |s - 1| <= 0.3: just outside the Stieltjes pole series
    ring = [1.0 + rng.uniform(0.11, 0.3) * complex(math.cos(a), math.sin(a)) for a in rng.uniform(0.0, 2.0 * math.pi, 4)]
    return [complex(round(s.real, 6), round(s.imag, 6)) for s in bulk + eta_zeros + ring]


@pytest.mark.parametrize(
    "s",
    [
        0.5 + 0j,
        0.25 - 50j,
        1.0001 + 0j,
        3 - 7j,
        0.5 + 1000j,
        0.5 + 9999.5j,
        -4.5 + 3j,
        -0.25 + 0j,
        -1 + 0j,
        1 + 9.06472j,  # within 3e-7 of the zero 1 + 2 pi i / log 2 of 1 - 2^{1-s}
        0.75 + 151j,
    ]
    + _low_ordinate_points(),
)
def test_zeta_against_oracle(s):
    ref = complex(mp.zeta(s))
    assert abs(zeta(s) - ref) <= 1e-11 * max(1.0, abs(ref))


def test_zeta_respects_max_terms_on_euler_maclaurin_branch():
    from xidist.accuracy import AccuracyError, EvalAccuracy

    with pytest.raises(AccuracyError, match="Euler-Maclaurin"):
        zeta(0.5 + 500j, EvalAccuracy(max_terms=10))


def test_zeta_trivial_zero_nearly_exact():
    assert abs(zeta(-4 + 0j)) < 1e-14


def test_zeta_respects_max_terms():
    from xidist.accuracy import AccuracyError, EvalAccuracy

    with pytest.raises(AccuracyError):
        zeta(0.5 + 100j, EvalAccuracy(abs_tol=1e-12, max_terms=10))


# -------------------------------------------------------------------- xi

def test_xi_at_one_and_zero():
    assert abs(xi(1 + 0j) - 1.0) < 1e-12
    assert abs(xi(0j) - 1.0) < 1e-12


def test_xi_at_two():
    assert abs(xi(2 + 0j) - math.pi / 3) < 1e-12


def test_xi_half_frozen():
    # high-precision evaluation of the defining product, frozen
    assert abs(xi(0.5 + 0j) - 0.9942415563766282) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-5, max_value=6),
    st.floats(min_value=-50, max_value=50),
)
def test_xi_functional_equation(sigma, t):
    s = complex(sigma, t)
    a, b = xi(s), xi(1 - s)
    assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_xi_near_zero_subnormal():
    # sin(pi s/2) of a subnormal s carries a subnormal's few digits
    for s in (5e-324j, 1e-310 + 0j, 1e-160j):
        assert abs(xi(s) - xi(1.0 + 0j)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-5, max_value=6),
    st.floats(min_value=0.01, max_value=50),
)
def test_xi_conjugation(sigma, t):
    s = complex(sigma, t)
    assert abs(xi(s.conjugate()) - xi(s).conjugate()) <= 1e-12 * (1 + abs(xi(s)))


def test_xi_against_oracle_grid():
    # spans the direct strip, the reflection region, and large ordinates
    for s in (0.5 + 0j, 2 - 5j, 6 + 50j, -5 + 50j, -3.5 + 0.5j, 0.25 + 99j, 1 + 1j):
        ref = complex(
            mp.mpc(s) * (mp.mpc(s) - 1) * mp.power(mp.pi, -mp.mpc(s) / 2)
            * mp.gamma(mp.mpc(s) / 2) * mp.zeta(mp.mpc(s))
        )
        assert abs(xi(s) - ref) <= 1e-11 * (1.0 + abs(ref))


def xi_by_theta(s: complex) -> complex:
    """xi(s) by the theta route: xi(sigma) times the theta-series density's
    Fourier transform at t = -Im s, since Xi_sigma(t) = xi(sigma - it)/xi(sigma)."""
    d = XiDistribution(s.real)
    return d.xi_sigma * d.cf_from_density(-s.imag)


def test_xi_theta_two_paths():
    for s in (2 + 0j, 0.5 + 0j, -3 + 11j, 4 - 27j, 0.25 + 2j):
        a, b = xi(s), xi_by_theta(s)
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_xi_theta_half_value():
    assert abs(xi_by_theta(0.5 + 0j) - 0.9942415563766282) < 1e-10


def test_xi_theta_reflection_symmetry():
    for s in (0.3 + 5j, 2 - 3j):
        assert abs(xi_by_theta(s) - xi_by_theta(1 - s)) < 1e-10


# ----------------------------------------------------------- theta kernel

def test_theta_kernel_at_one_frozen():
    # 2 pi (2 pi - 3) e^{-pi}; direct high-precision evaluation
    assert abs(theta_kernel(1.0) - 0.8914539426359895) < 1e-14


def test_theta_kernel_root():
    assert abs(theta_kernel(math.sqrt(3 / (2 * math.pi)))) < 1e-15


def test_theta_kernel_far_tail():
    assert abs(theta_kernel(10.0)) < 1e-100


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1.0, max_value=14.0))
def test_theta_kernel_positive_from_one(x):
    assert theta_kernel(x) > 0.0


def test_theta_sum_matches_direct():
    direct = sum(theta_kernel(float(n)) for n in range(1, 30))
    assert abs(theta_sum(1.0) - direct) < 1e-15


def test_theta_sum_array_equals_scalar_calls():
    rng = np.random.default_rng(11)
    # every caller's x is >= 1: there each element equals its scalar call exactly
    x = rng.uniform(1.0, 8.0, 200)
    np.testing.assert_array_equal(theta_sum(x), [theta_sum(v) for v in x])
    # below sqrt(3/(2 pi)) the batch's extra terms may move a sum, within abs_tol
    x = rng.uniform(0.05, 8.0, 200)
    np.testing.assert_allclose(theta_sum(x), [theta_sum(v) for v in x], rtol=0.0, atol=1e-16)


@pytest.mark.parametrize("x", [0.1, 0.2, 0.5])
def test_theta_sum_below_one_against_series(x):
    # the direct series cancels from O(1) down to ~1e-130 at x = 0.1: 200 digits
    with mp.workdps(200):
        xm = mp.mpf(x)
        def f(n):
            u2 = (n * xm) ** 2
            return 2 * mp.pi * (2 * mp.pi * u2 * u2 - 3 * u2) * mp.exp(-mp.pi * u2)

        want = mp.nsum(f, [1, mp.inf])
    assert abs(theta_sum(x) - float(want)) <= 1e-16


def test_theta_sum_domain():
    with pytest.raises(DomainError):
        theta_sum(0.0)


# --------------------------------------------------------- Riemann-Siegel Z

def test_z_modulus_matches_zeta():
    ts = np.linspace(0.0, 100.0, 101)
    zv = z_values(ts)
    for t, v in zip(ts, zv):
        assert abs(abs(v) - abs(zeta(complex(0.5, t)))) <= 1e-9


def test_z_at_zero():
    assert abs(abs(z_values(0.0)) - abs(zeta(0.5 + 0j))) < 1e-12


def test_z_first_zero():
    assert abs(z_values(14.134725)) <= 1e-5


def test_z_sign_change_around_second_zero():
    # gamma_2 ~ 21.02 lies between
    assert z_values(20.0) * z_values(22.0) < 0.0


def test_z_negative_t_rejected():
    with pytest.raises(DomainError):
        z_values(-1.0)


def test_riemann_siegel_Z_is_z_values():
    # a 0-d ordinate gives a 0-d Z equal to its element of a 1-d call, on both sides of t = 1000
    for t in (0.0, 14.134725, 149.9, 722.5, 1000.0, 1203.7):
        z = z_values(t)
        assert z.shape == () and z == z_values([t])[0]


def test_z_values_against_siegelz_exact_phase_branch():
    ts = np.random.default_rng(23).uniform(0.0, 1000.0, 24)
    for t, v in zip(ts, z_values(ts)):
        assert abs(v - float(mp.siegelz(t))) <= 1e-12


def test_z_values_against_siegelz_riemann_siegel_branch():
    # the stated bound of the main sum plus first correction term above t = 1000
    ts = np.random.default_rng(29).uniform(1000.0, 10020.0, 12)
    for t, v in zip(ts, z_values(ts)):
        assert abs(v - float(mp.siegelz(t))) <= 3e-3


def test_z_branch_crossover_consistency():
    # Riemann-Siegel branch against the exact-phase branch just below the switch
    for t in (1000.5, 1203.7, 2500.2):
        rs = float(z_values(np.array([t]))[0])
        ref = float(mp.siegelz(t))
        assert abs(rs - ref) <= 4e-3


# grids across every exact-phase chunk edge, the switch at t = 1000 and the
# Riemann-Siegel term-count changes t = 2 pi N^2 at N = 13 and 39
Z_GRID_EDGES = [*_EM_CHUNK_EDGES[1:], 2.0 * math.pi * 13**2, 2.0 * math.pi * 39**2]


@pytest.mark.parametrize("step", [0.05, 0.05 / 256])
@pytest.mark.parametrize("count", [1, 63, 64, 65])
def test_z_grid_equals_z_values(step, count):
    # the two round the phases t log n differently, each to ~ulp(t log n)
    for edge in Z_GRID_EDGES:
        lo = edge - step * (count // 2)
        ts = lo + step * np.arange(count)
        tol = 4e-12 if edge <= 1000.0 else 1e-10
        assert np.max(np.abs(z_grid(lo, step, count) - z_values(ts))) <= tol


def test_z_grid_in_pieces(monkeypatch):
    from xidist import specfun

    # pieces of 100 ordinates across the branch switch
    monkeypatch.setattr(specfun, "_Z_PIECE", 100)
    ts = 990.0 + 0.05 * np.arange(450)
    diff = np.abs(z_grid(990.0, 0.05, 450) - z_values(ts))
    assert diff[ts <= 1000.0].max() <= 4e-12 and diff.max() <= 1e-10


def test_z_grid_against_siegelz_exact_phase_branch():
    z = z_grid(0.0, 0.05, 20001)
    for k in np.random.default_rng(23).choice(z.size, 24, replace=False):
        assert abs(z[k] - float(mp.siegelz(0.05 * k))) <= 1e-12


def test_z_grid_domain():
    with pytest.raises(DomainError):
        z_grid(-0.05, 0.05, 10)
    with pytest.raises(DomainError):
        z_grid(10.0, 0.0, 10)


def test_theta_asymptotic_matches_loggamma():
    # continuity across the internal t = 20 switch
    for t in (19.5, 20.5, 35.0):
        direct = log_gamma(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)
        assert abs(riemann_siegel_theta(t) - direct) < 1e-11


def test_public_api_surface():
    import xidist

    for name in xidist.__all__:
        assert hasattr(xidist, name), name
