"""Steady-profile fixed point, critical-mass search, ratio maximiser."""

import numpy as np
import pytest

from aggdiff import extremal
from aggdiff import (
    ConvergenceError,
    DensityField,
    RadialGrid,
    RieszKernel,
    barenblatt_profile,
    blowup_initial_data,
    build_kernel,
    el_fixed_point,
    el_residual,
    find_critical_mass,
    free_energy,
    lp_norm,
    mass,
    maximize_vhls,
    multiplier_defect,
    potential,
    vhls_constant_upper,
)


class TestFixedPoint:
    def test_converged_profile_invariants(self, params, grid256, critical256):
        M_c, result = critical256
        U = result.U
        assert mass(U) == pytest.approx(M_c, rel=1e-10)
        assert result.lambda_bar < 0.0
        assert np.all(np.diff(U.values) <= 1e-12 * U.values.max())
        assert result.support_radius < grid256.r_max
        assert result.iterations <= 500
        C_up = vhls_constant_upper(params.d, params.s)
        assert result.J_value <= C_up * 1.02

    def test_idempotence_at_fixed_point(self, params, grid256, kernel256,
                                        critical256):
        # restarting from the converged profile stops on the first sweep
        # (the re-anchored target moves the fixed point only by the
        # dilation-projection error, about 1e-5 in relative L^1)
        M_c, result = critical256
        again = el_fixed_point(grid256, kernel256, params, M_c, init=result.U,
                               tol=1e-4, max_iter=50)
        assert again.iterations == 1
        gap = float(np.dot(np.abs(again.U.values - result.U.values),
                           grid256.shell_volumes)) / M_c
        assert gap < 1e-4

    def test_closed_form_mass_sits_on_subcritical_side(self, params, consts,
                                                       grid256, kernel256):
        # measured extremal ratio lies ~2% below the closed-form bound, so
        # the bound's mass is subcritical and the defect is positive
        res = el_fixed_point(grid256, kernel256, params, consts.M_star,
                             tol=1e-9, max_iter=500, support_radius_init=1.0)
        assert multiplier_defect(res, params, consts.M_star) > 0.0

    def test_budget_exhaustion_raises_with_context(self, params, grid96,
                                                   kernel96):
        with pytest.raises(ConvergenceError) as excinfo:
            el_fixed_point(grid96, kernel96, params, 100.0, tol=1e-14,
                           max_iter=2, support_radius_init=1.0)
        assert np.isfinite(excinfo.value.last_change)

    def test_free_energy_vanishes_at_steady_state(self, params, grid256,
                                                  kernel256, critical256):
        _, result = critical256
        F = free_energy(result.U, kernel256, params)
        S = lp_norm(result.U, params.m) ** params.m / (params.m - 1)
        assert abs(F) <= 1e-3 * S


class TestElResidual:
    def test_empty_support_rejected(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        with pytest.raises(ValueError):
            el_residual(u, kernel96, params, 1.0)

    def test_perturbation_increases_residual(self, params, grid256, kernel256,
                                             critical256):
        M_c, result = critical256
        base = el_residual(result.U, kernel256, params, M_c)
        vals = result.U.values.copy()
        idx = int(np.argmax(vals)) + 5
        vals[idx] *= 1.10
        bumped = el_residual(DensityField(grid256, vals), kernel256, params, M_c)
        assert bumped > base

    def test_residual_decreases_under_refinement(self, params, consts, critical256,
                                                 critical512):
        _, coarse = critical256
        _, fine = critical512
        assert fine.el_residual < coarse.el_residual
        assert coarse.el_residual <= 1e-3


class TestCriticalMassSearch:
    def test_bracket_without_sign_change_rejected(self, params, grid256,
                                                  kernel256, consts):
        with pytest.raises(ValueError):
            find_critical_mass(grid256, kernel256, params, 0.5 * consts.M_star,
                               0.6 * consts.M_star, rel_tol=1e-3,
                               support_radius_init=1.0)

    def test_measured_mass_exceeds_closed_form(self, consts, critical256):
        M_c, _ = critical256
        assert M_c > consts.M_star
        assert M_c < 1.08 * consts.M_star

    def test_grid_consistency(self, critical256, critical512):
        M_coarse, _ = critical256
        M_fine, _ = critical512
        assert M_coarse == pytest.approx(M_fine, rel=2e-3)


class TestMaximizeVhls:
    def test_measured_constant_below_closed_form_bound(self, params, grid96,
                                                       kernel96):
        res = maximize_vhls(grid96, kernel96, params, n_starts=3, seed=5)
        C_up = vhls_constant_upper(params.d, params.s)
        assert res.J_value <= C_up * 1.02

    def test_cross_validates_fixed_point_ratio(self, params, grid256, kernel256,
                                               critical256):
        _, result = critical256
        res = maximize_vhls(grid256, kernel256, params, n_starts=4, seed=11)
        assert res.J_value == pytest.approx(result.J_value, rel=0.05)

    def test_best_ratio_non_decreasing_in_budget(self, params, grid96, kernel96,
                                                 monkeypatch):
        monkeypatch.setattr(extremal, "_MAX_MOVES", 20)
        small = maximize_vhls(grid96, kernel96, params, n_starts=1, seed=3)
        monkeypatch.setattr(extremal, "_MAX_MOVES", 120)
        large = maximize_vhls(grid96, kernel96, params, n_starts=1, seed=3)
        assert large.J_value >= small.J_value

    def test_bad_start_count_rejected(self, params, grid96, kernel96):
        with pytest.raises(ValueError):
            maximize_vhls(grid96, kernel96, params, n_starts=0)


class TestBlowupInitialData:
    def test_identity_at_profile_mass(self, params, critical256):
        _, result = critical256
        out = blowup_initial_data(result.U, mass(result.U), params)
        assert np.allclose(out.values, result.U.values, rtol=1e-14)

    def test_mass_rescaling_exact(self, params, critical256):
        M_c, result = critical256
        out = blowup_initial_data(result.U, 42.0, params)
        assert mass(out) == pytest.approx(42.0, rel=1e-13)

    def test_energy_signs_across_threshold(self, params, kernel256, critical256):
        M_c, result = critical256
        above = blowup_initial_data(result.U, 1.5 * M_c, params)
        below = blowup_initial_data(result.U, 0.5 * M_c, params)
        assert free_energy(above, kernel256, params) < 0.0
        assert free_energy(below, kernel256, params) > 0.0

    def test_nonpositive_mass_rejected(self, params, critical256):
        _, result = critical256
        with pytest.raises(ValueError):
            blowup_initial_data(result.U, 0.0, params)


def brentq_multiplier(phi, m, vols, M_target):
    """Oracle: bracket by doubling, then scipy's brentq on mass(lam)."""
    from scipy.optimize import brentq

    c, p = (m - 1.0) / m, 1.0 / (m - 1.0)

    def excess(lam):
        return float(np.dot(np.maximum(c * (phi + lam), 0.0) ** p, vols)) - M_target

    lo = -float(np.max(phi))
    hi = lo + 1.0
    while excess(hi) < 0.0:
        hi = lo + 2.0 * (hi - lo)
    return brentq(excess, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps,
                  maxiter=300)


@pytest.fixture(scope="module")
def kernel4096():
    return build_kernel(RadialGrid.uniform(4096, 4.0), 1.25)


@pytest.fixture
def count_evaluations(monkeypatch):
    calls = []
    inner = extremal._mass_of_multiplier

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(extremal, "_mass_of_multiplier", counted)
    return calls


class TestMultiplierSolve:
    @pytest.mark.parametrize("n_cells", [96, 256, 4096])
    @pytest.mark.parametrize("support", [0.3, 1.0, 3.0])
    def test_matches_brentq_oracle(self, request, params, consts, n_cells, support):
        kernel = request.getfixturevalue(f"kernel{n_cells}")
        vols = kernel.grid.shell_volumes
        for M in (1e-6, 1.0, consts.M_star, 1e3, 1e6):
            u = barenblatt_profile(kernel.grid, M, support, params.m)
            phi = potential(kernel, u, params.c_ds)
            vals, lam = extremal._solve_multiplier(phi, params.m, vols, M)
            lam_ref = brentq_multiplier(phi, params.m, vols, M)
            assert lam == pytest.approx(lam_ref, rel=1e-13, abs=0.0)
            assert float(np.dot(vals, vols)) == pytest.approx(M, rel=1e-13, abs=0.0)

    def test_newton_steps_on_critical_profile(self, params, grid256, kernel256,
                                              critical256, count_evaluations):
        # a doubling bracket plus brentq took 20 evaluations here
        M_c, result = critical256
        phi = potential(kernel256, result.U, params.c_ds)
        _, lam = extremal._solve_multiplier(phi, params.m, grid256.shell_volumes, M_c)
        assert len(count_evaluations) == 7
        # the first step lands right of the root, later ones decrease lam
        steps = np.diff(count_evaluations)
        assert steps[0] > 0.0 and np.all(steps[1:] < 0.0)
        assert count_evaluations[-1] >= lam

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_potential_rejected_before_iterating(self, params, grid96,
                                                            bad, count_evaluations):
        phi = np.linspace(1.0, 0.0, 96)
        phi[40] = bad
        with pytest.raises(ValueError, match="potential must be finite"):
            extremal._solve_multiplier(phi, params.m, grid96.shell_volumes, 1.0)
        assert count_evaluations == []

    def test_nan_kernel_fails_loudly_in_fixed_point(self, params, grid96, kernel96):
        K = kernel96.K.copy()
        K[0, -1] = K[-1, 0] = np.nan
        bad = RieszKernel(grid96, kernel96.s, kernel96.epsilon, K)
        with pytest.raises(ValueError, match="potential must be finite"):
            el_fixed_point(grid96, bad, params, 100.0, support_radius_init=1.0)

    def test_budget_exhaustion_raises(self, monkeypatch, params, grid256, kernel256,
                                      critical256):
        M_c, result = critical256
        phi = potential(kernel256, result.U, params.c_ds)
        monkeypatch.setattr(extremal, "_NEWTON_STEPS", 3)
        with pytest.raises(ConvergenceError, match="3 Newton steps"):
            extremal._solve_multiplier(phi, params.m, grid256.shell_volumes, M_c)
