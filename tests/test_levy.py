import cmath
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from xidist import levy
from xidist.accuracy import (
    AccuracyError,
    DomainError,
    InsufficientZerosError,
    MeasureDivergenceError,
)
from xidist.levy import (
    ExpPart,
    GammaPart,
    PrimeCutoff,
    QuasiLevyTriplet,
    SignedMeasure,
    ZeroCosPart,
    cf_from_triplet,
    cf_from_zeros,
    cf_xi_star,
    gamma_drift,
    gamma_levy_log,
    log_cf_from_triplet,
    prime_atom_tail_bound,
    prime_atoms,
    primes_up_to,
    total_variation_integral,
    xi_star_triplet,
    xi_triplet,
    zero_tail_estimate,
)
from xidist.specfun import log_gamma, xi, zeta
from xidist.zeros import ZeroList, ZeroRecord

GAMMA1 = 14.134725141734694
CUT = PrimeCutoff(100_000, 40)


def one_zero(gamma: float) -> ZeroList:
    """A one-record zero list: ``cf_from_zeros`` over it is a single pair factor."""
    return ZeroList(records=(ZeroRecord(1, gamma, 1e-9),), t_max=gamma)


def prime_atom_triplet(sigma: float, cut: PrimeCutoff) -> QuasiLevyTriplet:
    """The prime atoms alone: their exponent is the truncated log(zeta(sigma-it)/zeta(sigma))."""
    locs, masses = prime_atoms(sigma, cut)
    return QuasiLevyTriplet(a=0.0, drift=0.0, measure=SignedMeasure(atom_locations=locs, atom_masses=masses))


# -------------------------------------------------- paired-zero factors

def test_zero_pair_factor_at_zero():
    assert cf_from_zeros(0.75, 0.0, one_zero(GAMMA1), 1).value == 1.0


def test_zero_pair_factor_matches_signed_measure_integral():
    sigma, gamma, t = 1.0, GAMMA1, 2.0
    a = sigma - 0.5

    def f(x):
        return -2.0 * (cmath.exp(1j * t * x) - 1) * math.cos(gamma * x) * math.exp(-a * x) / x

    re = quad(lambda x: f(x).real, 0, 60, limit=4000)[0]
    im = quad(lambda x: f(x).imag, 0, 60, limit=4000)[0]
    assert abs(cmath.log(cf_from_zeros(sigma, t, one_zero(gamma), 1).value) - complex(re, im)) < 1e-8


def test_zero_pair_modulus_witness():
    # at t^2 = 2((sigma-1/2)^2 + gamma^2) the factor has modulus > 1,
    # so it cannot be a characteristic function
    for sigma in (0.6, 1.0, 2.0):
        a2 = (sigma - 0.5) ** 2
        t = math.sqrt(2.0 * (a2 + GAMMA1**2))
        closed = ((a2 + GAMMA1**2 - t * t) ** 2 + ((2 * sigma - 1) * t) ** 2) / (
            a2 + GAMMA1**2
        ) ** 2
        val = abs(cf_from_zeros(sigma, t, one_zero(GAMMA1), 1).value) ** 2
        assert closed > 1.0
        assert abs(val - closed) <= 1e-10 * closed


def test_zero_pair_domain():
    with pytest.raises(DomainError):
        cf_from_zeros(0.5, 1.0, one_zero(GAMMA1), 1)
    with pytest.raises(ValueError):
        one_zero(-3.0)


# ------------------------------------------------------------ zero product

def test_cf_from_zeros_at_zero(small_zeros):
    assert cf_from_zeros(2.0, 0.0, small_zeros, 10).value == 1.0 + 0.0j


def test_cf_from_zeros_truncation_decreases(small_zeros):
    ref = xi(complex(2.0, -3.0)) / xi(2.0 + 0j)
    r_small = abs(cf_from_zeros(2.0, 3.0, small_zeros, 5).value - ref)
    r_large = abs(cf_from_zeros(2.0, 3.0, small_zeros, len(small_zeros)).value - ref)
    assert r_large < r_small


def test_cf_from_zeros_tail_estimate_tracks_truncation(small_zeros):
    ref = xi(complex(2.0, -3.0)) / xi(2.0 + 0j)
    res = cf_from_zeros(2.0, 3.0, small_zeros, len(small_zeros))
    actual = abs(res.value - ref)
    # the crude estimate should be the right order of magnitude
    assert 0.05 * actual < res.tail_estimate < 50 * actual


@pytest.mark.parametrize("k", [1, 100, 1000, 10000, 10166])
def test_zero_tail_estimate_sums_the_zeros_beyond_k(big_zeros, k):
    g = big_zeros.gammas[k:]
    t_max = big_zeros.t_max
    beyond = (math.log(t_max / (2.0 * math.pi)) + 1.0) / (2.0 * math.pi * t_max)
    scale = 3.0**2 + 2.0 * (2.0 - 0.5) * 3.0  # t^2 + 2(sigma - 1/2)|t| at sigma = 2, t = 3
    want = scale * (np.sum(1.0 / (g * g)) + beyond)
    assert abs(zero_tail_estimate(2.0, 3.0, big_zeros, k) - want) <= 1e-15 * want


def test_cf_from_zeros_insufficient(small_zeros):
    with pytest.raises(InsufficientZerosError):
        cf_from_zeros(2.0, 1.0, small_zeros, len(small_zeros) + 1)


@pytest.mark.parametrize("sigma,t", [(2.0, 5000.0), (0.75, 3000.0)])
def test_cf_from_zeros_overflow_raises_without_warning(big_zeros, sigma, t):
    # far beyond gamma_K the K-zero product's log passes the float64 exp limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ts in (t, np.array([1.0, t])):
            with pytest.raises(AccuracyError, match="1000-zero product .* overflows float64"):
                cf_from_zeros(sigma, ts, big_zeros, 1000)


@pytest.mark.parametrize("k", [0, -5])
def test_cf_from_zeros_needs_one_zero(small_zeros, k):
    with pytest.raises(DomainError):
        cf_from_zeros(2.0, 3.0, small_zeros, k)


# ----------------------------------------------------------------- primes

def test_primes_up_to():
    assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_atoms_locations_exceed_half():
    locs, masses = prime_atoms(2.0, PrimeCutoff(50, 10))
    assert np.min(locs) == pytest.approx(math.log(2.0))
    assert np.min(locs) > 0.5
    assert np.all(masses > 0.0)


def test_prime_log_ratio_zero():
    assert log_cf_from_triplet(prime_atom_triplet(2.0, CUT), 0.0) == 0.0


def test_prime_log_ratio_against_zeta():
    big = PrimeCutoff(30_000_000, 40)
    for sigma, t in ((2.0, 1.0), (3.0, 7.0)):
        ours = log_cf_from_triplet(prime_atom_triplet(sigma, big), t)
        ref = cmath.log(zeta(complex(sigma, -t)) / zeta(complex(sigma, 0.0)))
        assert abs(ours - ref) <= 1e-8


def test_prime_log_ratio_domain():
    with pytest.raises(DomainError):
        prime_atoms(1.0, CUT)


def test_prime_tail_bound_dominates_measured_tail():
    # drop the primes between 10^3 and 10^5 and compare with the bound at 10^3
    small, large = PrimeCutoff(1000, 40), PrimeCutoff(100_000, 40)
    for sigma in (1.5, 2.0):
        s_locs, s_masses = prime_atoms(sigma, small)
        l_locs, l_masses = prime_atoms(sigma, large)
        measured = 2.0 * (np.sum(l_masses) - np.sum(s_masses))
        assert measured < prime_atom_tail_bound(sigma, small)


# ------------------------------------------------------------- Gamma route

def test_gamma_drift_frozen():
    # independent oracle: C(sigma) = -digamma(sigma) - sum_k e^{-(sigma+k)}/(sigma+k)
    assert abs(gamma_drift(2.0) - (-0.5135800393141067)) < 1e-11
    assert abs(gamma_drift(1.0) - 0.1185405195144510) < 1e-11
    assert abs(gamma_drift(0.5) - 0.5566809122741282) < 1e-11


def test_gamma_levy_log_zero():
    value = gamma_levy_log(2.0, 0.0)
    assert isinstance(value, complex) and value == 0.0
    assert gamma_levy_log(2.0, np.array([[0.0, 1.0]]))[0, 0] == 0.0


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("t", [1.0, 4.0])
def test_gamma_levy_log_matches_log_gamma(sigma, t):
    ts = np.array([-t, t])
    ours = gamma_levy_log(sigma, ts)
    ref = [log_gamma(complex(sigma, -u)) - log_gamma(complex(sigma, 0.0)) for u in ts]
    assert ours.shape == ts.shape
    assert np.max(np.abs(ours - ref)) <= 1e-8


def test_gamma_levy_log_domain():
    with pytest.raises(DomainError):
        gamma_levy_log(0.0, 1.0)


NAN_GUARDED = [
    (gamma_drift, ()),
    (gamma_levy_log, (1.0,)),
    (xi_triplet, (CUT,)),
    (xi_star_triplet, (CUT,)),
    (prime_atoms, (CUT,)),
    (prime_atom_tail_bound, (CUT,)),
    (cf_from_zeros, (1.0, one_zero(GAMMA1), 1)),
]


@pytest.mark.parametrize("fn, args", NAN_GUARDED, ids=[fn.__name__ for fn, _ in NAN_GUARDED])
def test_nan_sigma_is_a_domain_error(fn, args):
    # each guard must reject NaN before any quadrature or array sizing runs
    with pytest.raises(DomainError):
        fn(math.nan, *args)


# ---------------------------------------------------------------- triplets

def test_exponential_law_triplet_closed_form():
    # density e^{-x}/x with no compensator: CF is 1/(1-it) at the unit rate
    m = SignedMeasure(continuous=(ExpPart(rate=1.0, coeff=1.0),))
    tr = QuasiLevyTriplet(a=0.0, drift=0.0, measure=m, truncation_halfwidth=0.0)
    got = cf_from_triplet(tr, 1.0)
    assert abs(got - 1.0 / (1.0 - 1j)) < 1e-10
    assert abs(cf_from_triplet(tr, -1.0) - (1.0 / (1.0 + 1j))) < 1e-10


def test_triplet_cf_is_one_at_zero():
    tr = xi_triplet(2.0, CUT)
    assert cf_from_triplet(tr, 0.0) == 1.0 + 0.0j


def test_xi_triplet_drift_frozen():
    # lambda_2 from 40-digit quadrature of the two drift integrals
    assert abs(xi_triplet(2.0, CUT).drift - (-0.0778944170197198)) < 1e-10


def test_xi_triplet_combined_density_negative_at_large_x():
    m = xi_triplet(2.0, CUT).measure
    assert m.continuous_density(5.0) < 0.0


def test_xi_triplet_atoms_clear_compensator():
    tr = xi_triplet(2.0, CUT)
    assert np.min(tr.measure.atom_locations) == pytest.approx(math.log(2.0))
    assert np.min(tr.measure.atom_locations) > tr.truncation_halfwidth


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_xi_triplet_reconstructs_cf(sigma):
    tr = xi_triplet(sigma, CUT)
    budget = 1e-6 + prime_atom_tail_bound(sigma, CUT)
    for t in (1.0, 3.0, 10.0):
        ref = xi(complex(sigma, -t)) / xi(complex(sigma, 0.0))
        assert abs(cf_from_triplet(tr, t) - ref) <= budget


def test_xi_triplet_domain():
    with pytest.raises(DomainError):
        xi_triplet(1.0, CUT)


def test_xi_triplet_point_example_strict():
    # sigma = 2, t = 3 lands inside the flat 1e-6 even before the tail budget
    tr = xi_triplet(2.0, CUT)
    ref = xi(complex(2.0, -3.0)) / xi(complex(2.0, 0.0))
    assert abs(cf_from_triplet(tr, 3.0) - ref) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.25, max_value=8.0))
def test_triplet_cf_hermitian(t):
    tr = xi_triplet(2.0, CUT)
    assert abs(cf_from_triplet(tr, -t) - cf_from_triplet(tr, t).conjugate()) < 1e-10


# --------------------------------------------------------------- Xi* route

def test_cf_xi_star_at_zero():
    assert cf_xi_star(2.0, 0.0) == 1.0 + 0.0j


def test_xi_star_density_positive():
    m = xi_star_triplet(2.0, CUT).measure
    for x in (0.1, 1.0, 5.0):
        assert m.continuous_density(x) > 0.0


def test_xi_star_reconstruction():
    tr = xi_star_triplet(2.0, CUT)
    budget = 1e-6 + prime_atom_tail_bound(2.0, CUT)
    for t in (1.0, 3.0, 10.0):
        assert abs(cf_from_triplet(tr, t) - cf_xi_star(2.0, t)) <= budget


def test_xi_star_equals_exponential_times_direct():
    sigma, t = 2.0, 3.0
    want = ((sigma - 1.0) / complex(sigma - 1.0, -t)) * xi(complex(sigma, -t)) / xi(
        complex(sigma, 0.0)
    )
    assert abs(cf_xi_star(sigma, t) - want) < 1e-14


def test_xi_star_domain():
    with pytest.raises(DomainError):
        cf_xi_star(1.0, 2.0)


def test_triplet_uniqueness_probe():
    # two routes to the same log-CF: direct triplet, versus the smoothed
    # triplet with the exponential factor peeled off afterwards
    sigma = 2.0
    tr = xi_triplet(sigma, CUT)
    trs = xi_star_triplet(sigma, CUT)
    for t in (0.5, 2.0, 7.0):
        log_a = log_cf_from_triplet(tr, t)
        log_b = log_cf_from_triplet(trs, t) - cmath.log((sigma - 1.0) / complex(sigma - 1.0, -t))
        assert abs(log_a - log_b) <= 1e-6


# ------------------------------------------------------- total variation

def test_tv_single_atom_exact():
    m = SignedMeasure(atom_locations=np.array([math.log(2.0)]), atom_masses=np.array([0.5]))
    assert total_variation_integral(m) == pytest.approx(0.5 * math.log(2.0) ** 2, rel=1e-14)


def test_tv_finite_below_bound_chain():
    sigma = 2.0
    tr = xi_triplet(sigma, PrimeCutoff(10_000, 30))
    tv = total_variation_integral(tr.measure)
    atomic_bound = float(
        abs(zeta(complex(sigma, 0.0))) + abs(zeta(complex(2 * sigma, 0.0))) / (1 - 2.0**-sigma)
    )
    continuous_bound = 1.0 / ((1.0 - math.exp(-2.0)) * sigma) + 2.0 / (sigma - 1.0)
    assert math.isfinite(tv)
    assert tv < atomic_bound + continuous_bound


def test_tv_zero_cos_log_growth():
    # undamped cos(gamma x)/x mass grows like log X: the non-integrability
    # that makes the zero-based representation only "pretended"
    m = SignedMeasure(continuous=(ZeroCosPart(gamma=GAMMA1, offset=0.0),))
    v10 = total_variation_integral(m, x_max=10.0)
    v100 = total_variation_integral(m, x_max=100.0)
    v1000 = total_variation_integral(m, x_max=1000.0)
    g1, g2 = v100 - v10, v1000 - v100
    assert v10 < v100 < v1000
    assert abs(g1 / g2 - 1.0) < 0.2  # equal decade increments = log growth


def test_tv_zero_cos_divergence_signal():
    m = SignedMeasure(continuous=(ZeroCosPart(gamma=GAMMA1, offset=0.0),))
    with pytest.raises(MeasureDivergenceError) as err:
        total_variation_integral(m)
    assert len(err.value.partials) > 3


def test_tv_damped_zero_cos_converges():
    m = SignedMeasure(continuous=(ZeroCosPart(gamma=GAMMA1, offset=1.0),))
    assert math.isfinite(total_variation_integral(m))


# --------------------------------------------------- t arrays in one call

@pytest.mark.parametrize("make_triplet", [xi_triplet, xi_star_triplet])
def test_triplet_array_matches_scalar_calls(make_triplet):
    tr = make_triplet(1.25, CUT)
    ts = np.array([-10.0, -3.5, -0.01, 0.0, 0.5, 7.25, 10.0])
    got = cf_from_triplet(tr, ts)
    want = np.array([cf_from_triplet(tr, float(t)) for t in ts])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    assert got[3] == 1.0 + 0.0j
    assert isinstance(cf_from_triplet(tr, 2.0), complex)


def test_zero_product_array_matches_scalar_calls(small_zeros):
    ts = np.array([[-12.0, -1.0, 0.0], [0.25, 3.0, 14.1]])
    got = cf_from_zeros(0.8, ts, small_zeros, 30)
    assert got.value.shape == got.tail_estimate.shape == ts.shape
    for t, v, tail in zip(ts.ravel(), got.value.ravel(), got.tail_estimate.ravel()):
        one = cf_from_zeros(0.8, float(t), small_zeros, 30)
        assert isinstance(one.value, complex) and isinstance(one.tail_estimate, float)
        assert abs(v - one.value) <= 1e-13
        assert tail == one.tail_estimate


@pytest.mark.parametrize("sigma", [0.55, 2.0])
def test_zero_product_pair_form_matches_factor_logs(small_zeros, sigma):
    # at sigma = 0.55 and t = sqrt(a^2 + gamma_1^2), 1 + Re w = 0 for the first pair
    a = sigma - 0.5
    t_flip = math.sqrt(a * a + GAMMA1 * GAMMA1)
    gammas = small_zeros.gammas[:20].tolist()
    for t in (-t_flip, GAMMA1 - 1e-3, t_flip - 1e-9, t_flip, t_flip + 1e-9, GAMMA1 + 1e-3, 0.7, 30.0):
        # the Hadamard pair factors, multiplied out literally
        want = math.prod((a - 1j * g - 1j * t) * (a + 1j * g - 1j * t) / ((a - 1j * g) * (a + 1j * g)) for g in gammas)
        got = cf_from_zeros(sigma, t, small_zeros, 20).value
        # the exponent difference, modulo 2 pi i
        assert abs(cmath.log(got / want)) <= 1e-12


# ------------------------------------------------- the one-slot atom-sum memo

@pytest.fixture
def atom_sums(monkeypatch):
    """Counts the kernel sums formed over prime atoms, from an empty memo."""
    monkeypatch.setattr(levy, "_last_atom_sum", (None, None, None, None))
    calls = []
    real = levy.kernel_sum

    def counting(kernel, omega, x, weights):
        if not x.flags.writeable:  # the read-only _atom_arrays
            calls.append(x)
        return real(kernel, omega, x, weights)

    monkeypatch.setattr(levy, "kernel_sum", counting)
    return calls


def test_second_triplet_at_one_sigma_reuses_the_atom_sum(atom_sums):
    ts = np.arange(0.0, 10.25, 0.5)
    prime = cf_from_triplet(xi_triplet(2.0, CUT), ts)
    star = cf_from_triplet(xi_star_triplet(2.0, CUT), ts)
    again = cf_from_triplet(xi_triplet(2.0, CUT), ts.copy())
    assert len(atom_sums) == 1
    levy._last_atom_sum = (None, None, None, None)
    assert np.array_equal(star, cf_from_triplet(xi_star_triplet(2.0, CUT), ts))
    assert np.array_equal(prime, again)
    assert len(atom_sums) == 2


def test_atom_sum_recomputed_for_new_grid_sigma_or_cutoff(atom_sums):
    ts = np.array([0.5, 1.0, 3.0])
    cf_from_triplet(xi_triplet(2.0, CUT), ts)
    cf_from_triplet(xi_triplet(2.0, CUT), ts + 0.25)
    cf_from_triplet(xi_triplet(2.5, CUT), ts + 0.25)
    cf_from_triplet(xi_triplet(2.5, PrimeCutoff(1000, 40)), ts + 0.25)
    assert len(atom_sums) == 4


def test_atom_arrays_are_read_only():
    locs, masses = prime_atoms(2.0, CUT)
    with pytest.raises(ValueError):
        locs[0] = 1.0
    with pytest.raises(ValueError):
        masses[0] = 1.0


def test_writable_atoms_are_not_memoized():
    # a caller's own arrays may change in place between calls
    locs, masses = np.array([1.0, 2.0]), np.array([0.5, 0.25])
    tr = QuasiLevyTriplet(a=0.0, drift=0.0, measure=SignedMeasure(atom_locations=locs, atom_masses=masses))
    before = cf_from_triplet(tr, 1.0)
    masses[1] = 0.0
    after = cf_from_triplet(tr, 1.0)
    assert after == pytest.approx(cmath.exp(0.5 * (cmath.exp(1j) - 1.0)), abs=1e-15)
    assert abs(after - before) > 0.1


def test_atom_sum_memo_under_threads():
    # threads alternate between sigmas and grids, so each mostly finds the
    # other's entry in the memo; every result must still be its own
    cases = [(sigma, make, np.arange(lo, 6.0, 0.75)) for sigma in (1.5, 2.5)
             for make in (xi_triplet, xi_star_triplet) for lo in (0.0, 0.25)]
    cut = PrimeCutoff(10_000, 40)
    want = [cf_from_triplet(make(sigma, cut), ts) for sigma, make, ts in cases]
    bad = []

    def worker(offset):
        for j in range(2 * len(cases)):
            k = (offset + j) % len(cases)
            sigma, make, ts = cases[k]
            if not np.array_equal(cf_from_triplet(make(sigma, cut), ts), want[k]):
                bad.append(cases[k][:2])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not bad


# ----------------------------------------------- generic triplet evaluation

def test_uncompensated_second_order_pole_rejected():
    m = SignedMeasure(continuous=(GammaPart(2.0),))
    tr = QuasiLevyTriplet(a=0.0, drift=0.0, measure=m, truncation_halfwidth=0.0)
    with pytest.raises(DomainError):
        cf_from_triplet(tr, 1.0)


def test_undecaying_measure_rejected():
    m = SignedMeasure(continuous=(ZeroCosPart(gamma=2.0, offset=0.0),))
    tr = QuasiLevyTriplet(a=0.0, drift=0.0, measure=m, truncation_halfwidth=0.0)
    with pytest.raises(DomainError):
        cf_from_triplet(tr, 1.0)


def test_gaussian_component():
    tr = QuasiLevyTriplet(a=1.0, drift=0.5, measure=SignedMeasure(), truncation_halfwidth=0.0)
    t = 1.3
    want = cmath.exp(-0.5 * t * t + 0.5j * t)
    assert abs(cf_from_triplet(tr, t) - want) < 1e-14


def test_zero_cos_triplet_matches_pair_factor(small_zeros):
    # quadrature route through the signed measure vs the closed-form factor log
    sigma, t, k = 1.25, 1.5, 3
    gammas = [r.gamma for r in small_zeros.records[:k]]
    m = SignedMeasure(
        continuous=tuple(ZeroCosPart(gamma=g, offset=sigma - 0.5) for g in gammas)
    )
    tr = QuasiLevyTriplet(a=0.0, drift=0.0, measure=m, truncation_halfwidth=0.0)
    a = sigma - 0.5
    pairs = ((a - 1j * g - 1j * t) * (a + 1j * g - 1j * t) / ((a - 1j * g) * (a + 1j * g)) for g in gammas)
    want = cmath.log(math.prod(pairs))
    got = log_cf_from_triplet(tr, t)
    assert abs(got - want) < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=-8.0, max_value=8.0),
)
def test_exp_part_random_rates(rate, t):
    m = SignedMeasure(continuous=(ExpPart(rate=rate, coeff=1.0),))
    tr = QuasiLevyTriplet(a=0.0, drift=0.0, measure=m, truncation_halfwidth=0.0)
    want = rate / complex(rate, -t)
    assert abs(cf_from_triplet(tr, t) - want) < 1e-9


def test_signed_measure_validation():
    with pytest.raises(ValueError):
        SignedMeasure(atom_locations=np.array([0.0]), atom_masses=np.array([1.0]))
    with pytest.raises(ValueError):
        SignedMeasure(atom_locations=np.array([1.0]), atom_masses=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PrimeCutoff(p_max=1)
    with pytest.raises(ValueError):
        QuasiLevyTriplet(a=0.0, drift=0.0, measure=SignedMeasure(), truncation_halfwidth=-1.0)
