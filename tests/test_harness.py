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
from xidist.levy import PrimeCutoff

GAMMA1 = 14.134725141734694


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
