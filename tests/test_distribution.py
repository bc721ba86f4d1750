import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xidist.accuracy import AccuracyError, DomainError
from xidist import distribution
from xidist.distribution import _Y_UNDERFLOW, XiDistribution, _interp_guided, _strictly_increasing


@pytest.fixture(scope="module")
def d2():
    return XiDistribution(2.0)


@pytest.fixture(scope="module")
def dhalf():
    return XiDistribution(0.5)


# ----------------------------------------------------------------- density

def test_density_frozen_at_origin(d2):
    # (2/xi(2)) * sum_n f(n); series oracle frozen at 40 digits
    assert abs(d2.density(0.0) - 1.7062564745561056) < 1e-12


def test_density_continuity_at_zero(d2):
    left = d2.density(-1e-12)
    right = d2.density(1e-12)
    assert abs(left - right) < 1e-9


@pytest.mark.parametrize("y", [0.3, 1.0, 2.0])
def test_density_symmetric_at_half(dhalf, y):
    assert abs(dhalf.density(y) - dhalf.density(-y)) < 1e-14


def test_density_far_tails(d2):
    assert d2.density(30.0) < 1e-10
    assert d2.density(-30.0) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=4.0),
    st.floats(min_value=-6.0, max_value=6.0),
)
def test_density_nonnegative(sigma, y):
    assert XiDistribution(sigma).density(y) >= 0.0


def test_density_array_matches_scalar(d2):
    ys = np.array([-2.2, -0.5, 0.0, 0.7, 3.1])
    np.testing.assert_array_equal(d2.density_array(ys), [d2.density(y) for y in ys])


@pytest.mark.parametrize("sigma", [-1.0, 0.25, 1.0, 4.0])
def test_normalization(sigma):
    d = XiDistribution(sigma)
    assert abs(d.cdf(12.0) - 1.0) <= 1e-8


# ------------------------------------------------- characteristic function

def test_cf_direct_at_zero_is_exactly_one(d2):
    assert d2.cf_direct(0.0) == 1.0 + 0.0j


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=40.0))
def test_cf_hermitian(t):
    d = XiDistribution(2.0)
    assert abs(d.cf_direct(-t) - d.cf_direct(t).conjugate()) < 1e-13


def test_cf_cross_axis_symmetry():
    a = XiDistribution(0.25).cf_direct(3.0)
    b = XiDistribution(0.75).cf_direct(3.0)
    assert abs(a - b.conjugate()) < 1e-12


def test_cf_from_density_normalizes(d2):
    assert abs(d2.cf_from_density(0.0) - 1.0) < 1e-8


def test_cf_from_density_matches_direct(d2):
    assert abs(d2.cf_from_density(5.0) - d2.cf_direct(5.0)) <= 1e-6


def test_cf_from_density_real_for_symmetric(dhalf):
    assert abs(dhalf.cf_from_density(3.0).imag) <= 1e-8


def test_cf_from_density_domain(d2):
    with pytest.raises(DomainError):
        d2.cf_from_density(60.0)
    # one element out of range rejects the whole array
    for bad in (50.5, -60.0, math.nan):
        with pytest.raises(DomainError):
            d2.cf_from_density(np.array([0.0, 3.0, bad, 10.0]))


@pytest.mark.parametrize("sigma", [-1.0, 0.5, 2.0])
def test_cf_from_density_array_matches_scalar_calls(sigma):
    d = XiDistribution(sigma)
    ts = np.array([[-50.0, -7.25, 0.0], [0.5, 3.0, 10.0]])
    got = d.cf_from_density(ts)
    assert got.shape == ts.shape
    want = np.array([[d.cf_from_density(float(t)) for t in row] for row in ts])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    assert isinstance(d.cf_from_density(3.0), complex)


# ---------------------------------------------------------- cdf / quantile

def test_cdf_half_at_zero(dhalf):
    assert abs(dhalf.cdf(0.0) - 0.5) <= 1e-8


def test_cdf_far_left(d2):
    assert d2.cdf(-40.0) <= 1e-9


def _mp_cdf(sigma: float, y: float) -> float:
    # the two-branch theta-series density and its normalizer xi(sigma), in mpmath
    with mp.workdps(18):
        s = mp.mpf(sigma)
        norm = s * (s - 1) * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)

        def dens(v):
            x2 = [(n * mp.exp(abs(v))) ** 2 for n in range(1, 5)]
            series = sum(2 * mp.pi * (2 * mp.pi * u2 * u2 - 3 * u2) * mp.exp(-mp.pi * u2) for u2 in x2)
            return 2 * series * mp.exp((-s if v <= 0 else 1 - s) * v) / norm

        # beyond |v| = 3.2 every term is below e^{-pi e^{6.4}} < 1e-800
        cuts = [-3.2, -1, 0, 1, 3.2]
        return float(mp.quad(dens, [c for c in cuts if c < y] + [mp.mpf(y)]))


@pytest.mark.parametrize("sigma", [-1.5, 0.5, 2.0, 3.0])
def test_cdf_matches_mpmath(sigma):
    d = XiDistribution(sigma)
    # one y in each stratum: left tail, centre, right side, beyond the support edge 2.77
    for y in np.random.default_rng(20261018).uniform([-3.0, -1.0, 1.0, 2.8], [-1.0, 1.0, 2.8, 3.5]):
        assert abs(d.cdf(y) - _mp_cdf(sigma, y)) <= 1e-12


def test_quantile_median_self_consistency(d2):
    med = d2.quantile(0.5)
    assert abs(d2.cdf(med) - 0.5) <= 1e-7


@pytest.mark.parametrize("y", [-0.8, 0.0, 0.9])
def test_quantile_inverts_cdf(d2, y):
    u = d2.cdf(y)
    assert abs(d2.quantile(u) - y) <= 1e-7


@pytest.mark.parametrize("sigma", [-2.0, 0.5, 2.0, 3.0])
def test_quantile_closes_its_bracket_in_few_cdf_calls(sigma, monkeypatch):
    d = XiDistribution(sigma)
    cdf = XiDistribution.cdf
    calls = []

    def counted(self, y):
        calls.append(y)
        return cdf(self, y)

    for u in (1e-9, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(XiDistribution, "cdf", counted)
            q = d.quantile(u)
        assert len(calls) <= 8, (u, len(calls))
        assert d.cdf(q - 5e-10) < u <= d.cdf(q + 5e-10)


def test_quantile_of_u_above_the_evaluated_mass_is_the_support_end(monkeypatch):
    # a cdf that never reaches u: the search leaves the table's bracket and closes at Y
    monkeypatch.setattr(XiDistribution, "cdf", lambda self, y: 0.0)
    assert abs(XiDistribution(2.0).quantile(0.5) - _Y_UNDERFLOW) <= 1e-9


def test_quantile_raises_when_its_bracket_cannot_close(monkeypatch):
    monkeypatch.setattr(XiDistribution, "cdf", lambda self, y: 0.0)
    # three steps cannot take the search from the table's bracket of 0.5 to Y
    monkeypatch.setattr(distribution, "_QUANTILE_STEPS", 3)
    with pytest.raises(AccuracyError):
        XiDistribution(2.0).quantile(0.5)


@pytest.mark.parametrize("sigma", [-2.0, 0.5, 2.0, 3.0])
def test_quantile_at_the_ends_of_the_unit_interval(sigma):
    # the evaluated cdf is flat, or below u everywhere, within a few ulps of 0 and 1
    d = XiDistribution(sigma)
    for u in (5e-324, 1e-300, 1.0 - 1e-15, float(np.nextafter(1.0, 0.0))):
        q = d.quantile(u)
        assert -_Y_UNDERFLOW <= q <= _Y_UNDERFLOW
        assert d.cdf(q - 5e-10) < u and (u <= d.cdf(q + 5e-10) or q >= _Y_UNDERFLOW - 5e-10)


def test_quantile_domain(d2):
    for u in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            d2.quantile(u)


# ---------------------------------------------------------------- sampling

@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=4.0),
    st.sampled_from([1, 5, (1 << 14) - 1, (1 << 14) + 1, 100_003]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sample_is_np_interp_of_the_trimmed_table(sigma, n, seed):
    d = XiDistribution(sigma)
    table = d._table()
    want = np.interp(np.random.default_rng(seed).random(n), *_strictly_increasing(table.cdf, table.grid))
    assert d.sample(n, seed).tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [-3.0, 2.0])
def test_interp_guided_at_knots_and_ends(sigma):
    table = XiDistribution(sigma)._table()
    c, g = _strictly_increasing(table.cdf, table.grid)
    assert 0.0 < c[0] and c[-1] < 1.0
    # every knot and its two neighbouring doubles, 0 and below c[0], c[-1] and above it up to 1 - ulp
    u = np.concatenate([c, np.nextafter(c, 0.0), np.nextafter(c, 1.0),
                        [0.0, 0.5 * c[0], c[-1], 0.5 * (c[-1] + 1.0), np.nextafter(1.0, 0.0)]])
    want = np.interp(u, c, g)
    assert _interp_guided(u.copy(), c, g).tobytes() == want.tobytes()
    assert want[-5] == want[-4] == g[0] and want[-3] == want[-1] == g[-1]


def test_sample_deterministic(d2):
    a = d2.sample(1000, seed=123)
    b = d2.sample(1000, seed=123)
    assert np.array_equal(a, b)
    c = d2.sample(1000, seed=124)
    assert not np.array_equal(a, c)


def test_sample_ks_statistic(d2):
    n = 100_000
    xs = np.sort(d2.sample(n, seed=20260808))
    grid = np.linspace(-12.0, 12.0, 20001)
    ref = _reference_cdf(d2, grid)
    fi = np.interp(xs, grid, ref)
    d_plus = np.max(np.arange(1, n + 1) / n - fi)
    d_minus = np.max(fi - np.arange(0, n) / n)
    assert max(d_plus, d_minus) < 1.63 / math.sqrt(n)


def test_sample_zero_mean_at_half(dhalf):
    xs = dhalf.sample(100_000, seed=42)
    assert abs(xs.mean()) <= 3.0 * xs.std() / math.sqrt(len(xs))


def test_sample_domain(d2):
    with pytest.raises(DomainError):
        d2.sample(0, seed=1)


def _reference_cdf(dist, grid):
    # cumulative panel-Gauss masses on an independent uniform grid
    from xidist.distribution import _GL_W, _GL_X

    a, b = grid[:-1], grid[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    masses = (dist.density_array(nodes.ravel()).reshape(nodes.shape) * _GL_W[None, :]).sum(axis=1) * half
    return np.concatenate([[0.0], np.cumsum(masses)])


# ------------------------------------------------------------ table checks

def test_table_invariants(d2):
    table = d2._table()
    assert table.cdf[0] <= 1e-8
    assert abs(table.cdf[-1] - 1.0) <= 1e-8
    assert np.all(np.diff(table.grid) > 0.0)
    assert np.all(table.pdf >= 0.0)
    # panel masses stay trapezoid-consistent with the stored pdf
    trap = 0.5 * (table.pdf[1:] + table.pdf[:-1]) * np.diff(table.grid)
    assert np.max(np.abs(np.diff(table.cdf) - trap)) < 5e-5


def test_xi_sigma_positive_through_strip():
    # the theta-integral positivity fixes the normalizer sign on (0, 1) too
    for sigma in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert XiDistribution(sigma).xi_sigma > 0.0
