import dataclasses

import numpy as np
import pytest

from xidist.accuracy import DomainError
from xidist.harness import (
    CfBackendReport,
    CrossCheckConfig,
    run_cross_check,
    run_inequality_scan,
    run_zero_convergence,
)
from xidist.distribution import XiDistribution
from xidist.levy import PrimeCutoff, cf_from_triplet, cf_from_zeros, xi_star_triplet, xi_triplet

GAMMA1 = 14.134725141734694
CLI_GRID = np.arange(-10.0, 10.25, 0.5)  # `xidist verify --suite cross`


@pytest.fixture(scope="module")
def config(small_zeros):
    return CrossCheckConfig(
        zero_list=small_zeros, k_zeros=len(small_zeros), cut=PrimeCutoff(100_000, 40)
    )


def test_cross_check_backend_selection(config):
    rep = run_cross_check(2.0, np.arange(-3.0, 3.5, 1.0), config)
    assert set(rep.backend_set) == {
        "direct",
        "density_ft",
        "zeros",
        "primes_triplet",
        "xi_star_composed",
    }
    rep_low = run_cross_check(0.75, np.arange(-3.0, 3.5, 1.0), config)
    assert "primes_triplet" not in rep_low.backend_set
    assert "xi_star_composed" not in rep_low.backend_set


def test_cross_check_residuals_within_budgets(config):
    rep = run_cross_check(2.0, np.arange(-10.0, 10.5, 0.5), config)
    budgets = rep.budgets
    for (a, b), (mx, mean) in rep.residual_matrix.items():
        assert mean <= mx
        if "zeros" in (a, b):
            continue  # K=38 truncation; covered by the acceptance suite at K=1e4
        assert mx <= budgets[a] + budgets[b]


def test_cross_check_zero_budget_decides_zero_pairs(config):
    # at K=38 the zero product is off by ~0.056 at sigma = 2: outside 5e-3, inside 0.06
    t = np.arange(-3.0, 3.5, 1.0)
    assert config.budgets(2.0)["zeros"] == config.zero_budget
    assert not run_cross_check(2.0, t, config).passed()
    assert run_cross_check(2.0, t, dataclasses.replace(config, zero_budget=0.06)).passed()


def test_cross_check_zero_grid_is_exact(config):
    rep = run_cross_check(2.0, np.array([0.0]), config)
    for (_, _), (mx, _) in rep.residual_matrix.items():
        assert mx <= 1e-12


def _full_grid_values(sigma, t_grid, config):
    """Every backend on every grid point, with no use of the CF's symmetry."""
    dist = XiDistribution(sigma, acc=config.acc)
    out = {
        "direct": np.array([dist.cf_direct(t) for t in t_grid]),
        "density_ft": dist.cf_from_density(t_grid),
        "zeros": cf_from_zeros(sigma, t_grid, config.zero_list, config.k_zeros).value,
    }
    if sigma > 1.0:
        out["primes_triplet"] = cf_from_triplet(xi_triplet(sigma, config.cut), t_grid, config.acc)
        unsmooth = (sigma - 1.0 - 1j * t_grid) / (sigma - 1.0)
        out["xi_star_composed"] = cf_from_triplet(xi_star_triplet(sigma, config.cut), t_grid, config.acc) * unsmooth
    return out


@pytest.mark.parametrize("sigma", [0.55, 0.75, 1.25, 2.0, 3.0])
def test_cross_check_mirror_is_exact_on_the_cli_grid(config, sigma):
    # every backend is Hermitian to the bit here, so evaluating |t| once and
    # conjugating for t < 0 gives exactly the full-grid values
    full = _full_grid_values(sigma, CLI_GRID, config)
    rep = run_cross_check(sigma, CLI_GRID, config)
    assert set(rep.values) == set(full)
    for name, v in full.items():
        assert np.array_equal(v[::-1], np.conj(v)), name
        assert np.array_equal(rep.values[name], v), name


@pytest.mark.parametrize("grid", [[-3.0, -0.0, 0.0, 2.5, 3.0], [0.5, 1.7, 4.0, 9.75]])
@pytest.mark.parametrize("sigma", [0.55, 1.25, 1.3, 2.0])
def test_cross_check_mirror_on_other_grids(config, sigma, grid):
    # other grids group the rows of the quadrature's matrix products
    # differently, which moves the last bits
    grid = np.array(grid)
    full = _full_grid_values(sigma, grid, config)
    rep = run_cross_check(sigma, grid, config)
    for name, v in full.items():
        np.testing.assert_allclose(rep.values[name], v, rtol=0.0, atol=1e-14, err_msg=name)


@pytest.mark.parametrize(
    "grid", [[], np.zeros((2, 3)), [1.0, np.nan], [-np.inf, 1.0], 2.0], ids=["empty", "2d", "nan", "inf", "scalar"]
)
def test_cross_check_rejects_bad_grids(config, grid, monkeypatch):
    def no_backend(*args, **kwargs):
        raise AssertionError("a backend ran")

    monkeypatch.setattr("xidist.harness.XiDistribution", no_backend)
    with pytest.raises(DomainError):
        run_cross_check(2.0, grid, config)


def test_report_reproducible(config):
    grid = np.arange(-2.0, 2.5, 0.5)
    a = run_cross_check(2.0, grid, config).to_csv()
    b = run_cross_check(2.0, grid, config).to_csv()
    assert a == b


def test_report_csv_round_trip(config):
    rep = run_cross_check(1.5, np.arange(-2.0, 2.5, 0.5), config)
    sigma, grid, residuals = CfBackendReport.parse_csv(rep.to_csv())
    assert sigma == 1.5
    np.testing.assert_allclose(grid, rep.t_grid)
    for pair, res in residuals.items():
        np.testing.assert_allclose(res, rep.residuals[pair], rtol=1e-9, atol=1e-300)


def test_report_params_recorded(config):
    rep = run_cross_check(2.0, np.array([0.0, 1.0]), config)
    assert rep.params["p_max"] == 100_000
    assert rep.params["k_zeros"] == len(config.zero_list)


def test_inequality_scan_no_violations():
    rep = run_inequality_scan([0.5, 1.0, 2.0, 5.0], np.arange(-20.0, 20.5, 1.0))
    assert rep.passed()
    assert rep.max_cf_modulus <= 1.0 + 1e-12


def test_inequality_scan_zero_of_xi():
    rep = run_inequality_scan([0.5], np.array([GAMMA1]))
    assert rep.rows[0][2] < 1e-9


def test_inequality_scan_t_zero_column():
    rep = run_inequality_scan([0.5, 2.0], np.array([0.0]))
    for _, _, v in rep.rows:
        assert v == 1.0


def test_inequality_scan_domain():
    with pytest.raises(DomainError):
        run_inequality_scan([0.25], np.array([1.0]))


def test_zero_convergence_decreasing(small_zeros):
    rows = run_zero_convergence(2.0, 3.0, [5, 15, len(small_zeros)], small_zeros)
    assert rows[-1][1] <= rows[0][1]


def test_zero_convergence_zero_t(small_zeros):
    rows = run_zero_convergence(2.0, 0.0, [5, len(small_zeros)], small_zeros)
    assert all(r == 0.0 for _, r in rows)


def test_zero_convergence_near_critical_line(small_zeros):
    rows = run_zero_convergence(0.6, 1.0, [5, 15, len(small_zeros)], small_zeros)
    assert all(np.isfinite(r) for _, r in rows)
    assert rows[-1][1] <= rows[0][1]


def test_zero_convergence_insufficient(small_zeros):
    with pytest.raises(DomainError):
        run_zero_convergence(2.0, 3.0, [len(small_zeros) + 5], small_zeros)


def test_cross_check_passes_at_full_depth(big_zeros):
    # every backend within its budget at sigma = 2 on t in [-10, 10] step 0.5,
    # with the zero product at K = 1e4
    config = CrossCheckConfig(zero_list=big_zeros, k_zeros=10_000)
    rep = run_cross_check(2.0, np.arange(-10.0, 10.5, 0.5), config)
    assert rep.passed()
    assert rep.residual_matrix[("direct", "zeros")][0] <= 5e-3
    assert rep.residual_matrix[("density_ft", "direct")][0] <= 1e-6
