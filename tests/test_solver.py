"""Conservative upwind stepping, the blow-up rule, weak form, eps study."""

import math

import numpy as np
import pytest

from aggdiff import (
    DensityField,
    GridMismatchError,
    ModelParams,
    ParameterDomainError,
    RadialGrid,
    RieszKernel,
    SolverConfig,
    SolverState,
    barenblatt_profile,
    blowup_initial_data,
    blowup_time_upper_bound,
    build_kernel,
    diffusive_time,
    epsilon_convergence_study,
    free_energy,
    lp_norm,
    lr_lower_bound,
    mass,
    plateau_test_function,
    quadratic_test_function,
    run,
    second_moment,
    step,
    weak_form_residual,
)
from aggdiff.solver import diagnostics_to_csv


class TestStep:
    def test_uniform_box_is_stationary_without_attraction(self, params, grid96,
                                                          kernel96):
        u = DensityField(grid96, np.full(96, 0.8))
        state = SolverState(t=0.0, u=u)
        cfg = SolverConfig(t_end=1.0)
        out = step(state, kernel96, params, cfg, c_ds=0.0)
        assert np.allclose(out.u.values, u.values, rtol=0, atol=1e-15)
        assert out.step_count == 1 and out.t > 0.0

    def test_mass_conserved_per_step(self, params, grid96, kernel96):
        u = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        state = SolverState(t=0.0, u=u)
        cfg = SolverConfig(t_end=1.0)
        for _ in range(25):
            state = step(state, kernel96, params, cfg)
        assert mass(state.u) == pytest.approx(mass(u), rel=1e-13)

    def test_porous_medium_decay_without_attraction(self, params, grid96,
                                                    kernel96):
        u = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        cfg = SolverConfig(t_end=0.05, output_every=10)
        out = run(u, kernel96, params, cfg, c_ds=0.0)
        assert out.status == "completed"
        lm = [r.lm_norm for r in out.diagnostics]
        linf = [r.linf_norm for r in out.diagnostics]
        assert all(a >= b - 1e-12 for a, b in zip(lm, lm[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(linf, linf[1:]))

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_steps_match_run_bitwise(self, params, grid96, epsilon):
        kernel = build_kernel(grid96, params.s, epsilon=epsilon)
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        cfg = SolverConfig(t_end=1.0, max_steps=40)
        out = run(u0, kernel, params, cfg)
        assert out.reason == "max_steps"
        state = SolverState(t=0.0, u=u0)
        for _ in range(40):
            state = step(state, kernel, params, cfg)
        assert state.t == out.final_state.t
        assert np.array_equal(state.u.values, out.final_state.u.values)

    def test_grid_mismatch_rejected(self, params, kernel96):
        u = DensityField(RadialGrid.uniform(96, 3.5), np.ones(96))
        with pytest.raises(GridMismatchError):
            step(SolverState(t=0.0, u=u), kernel96, params, SolverConfig(t_end=1.0))

    @pytest.mark.parametrize("other", [ModelParams(d=3, s=1.4),
                                       ModelParams(d=4, s=1.25)],
                             ids=["s", "d"])
    def test_kernel_for_other_parameters_rejected(self, params, grid96, kernel96,
                                                  other):
        # kernel96 is built for (d, s) = (3, 1.25)
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        cfg = SolverConfig(t_end=1.0)
        with pytest.raises(ParameterDomainError, match="kernel built for"):
            run(u0, kernel96, other, cfg)
        with pytest.raises(ParameterDomainError, match="kernel built for"):
            step(SolverState(t=0.0, u=u0), kernel96, other, cfg)


class TestRun:
    def test_zero_initial_condition(self, params, grid96, kernel96):
        u0 = DensityField(grid96, np.zeros(96))
        out = run(u0, kernel96, params, SolverConfig(t_end=0.1))
        assert out.status == "completed"
        for row in out.diagnostics:
            assert row.mass == 0.0 and row.F == 0.0 and row.linf_norm == 0.0

    def test_subcritical_completes_with_monotone_energy(self, params, grid256,
                                                        kernel256, critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 0.5 * M_c, params)
        cfg = SolverConfig(t_end=0.1 * diffusive_time(u0, params), output_every=25)
        out = run(u0, kernel256, params, cfg)
        assert out.status == "completed"
        rows = out.diagnostics
        drift = max(abs(r.mass - rows[0].mass) / rows[0].mass for r in rows)
        assert drift <= 1e-12
        F0 = abs(rows[0].F)
        assert all(b.F <= a.F + 1e-8 * F0 for a, b in zip(rows, rows[1:]))
        assert out.clipped_mass_total == 0.0
        assert all(np.isfinite(r.D) and r.D >= 0 for r in rows)

    def test_supercritical_blows_up_before_chord_bound(self, params, grid256,
                                                       kernel256, critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 1.5 * M_c, params)
        bound = blowup_time_upper_bound(u0, kernel256, params)
        cfg = SolverConfig(t_end=2.0 * bound, blowup_factor=1e3, output_every=50)
        out = run(u0, kernel256, params, cfg)
        assert out.status == "blowup"
        assert out.reason == "linf_threshold"
        assert out.t_detect <= 1.5 * bound
        assert out.clipped_mass_total == 0.0
        # cross-module consistency: the L^m norm at detection respects the
        # mass/second-moment lower bound
        last = out.diagnostics[-1]
        lb = lr_lower_bound(last.mass, last.m2, params.m, params.d)
        assert last.lm_norm >= lb * (1 - 1e-9)

    def test_stall_reported_when_dt_floor_hit(self, params, grid96, kernel96):
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        cfg = SolverConfig(t_end=1.0, dt_min=1.0)  # floor far above stable dt
        out = run(u0, kernel96, params, cfg)
        assert out.status == "stalled"
        assert out.reason == "dt_min"

    def test_dt_collapse_after_growth_is_blowup(self, params, consts, grid96,
                                                kernel96):
        u0 = barenblatt_profile(grid96, 2.0 * consts.M_star, 0.5, params.m)
        dt0 = step(SolverState(t=0.0, u=u0), kernel96, params,
                   SolverConfig(t_end=1.0)).dt_last
        # the L^inf threshold is out of reach, so the shrinking step has to
        # trip the floor, and L^inf has more than doubled by then
        cfg = SolverConfig(t_end=1.0, dt_min=0.5 * dt0, blowup_factor=1e12)
        out = run(u0, kernel96, params, cfg)
        assert out.status == "blowup"
        assert out.reason == "dt_collapse"
        assert out.t_detect is not None and out.t_detect == out.final_state.t
        assert out.final_state.step_count > 0
        assert out.diagnostics[-1].linf_norm > 2.0 * out.diagnostics[0].linf_norm

    def test_nan_kernel_fails_on_the_next_step(self, params, grid96, kernel96):
        class CountingMatrix(np.ndarray):
            matvecs = 0

            def __matmul__(self, other):
                CountingMatrix.matvecs += 1
                return np.asarray(self) @ other

        K = kernel96.K.copy()
        K[0, -1] = np.nan
        bad = RieszKernel(grid96, kernel96.s, kernel96.epsilon,
                          K.view(CountingMatrix))
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        # without a per-step check this would run all 1000 steps
        cfg = SolverConfig(t_end=1.0, dt_max=1e-9, max_steps=1000,
                           output_every=10_000)
        with pytest.raises(ValueError, match="finite and non-negative"):
            run(u0, bad, params, cfg)
        # one for the initial diagnostics row, one per step taken
        assert CountingMatrix.matvecs <= 3

    def test_structured_kernel_run_matches_dense(self, params, consts):
        g = RadialGrid.uniform(1024, 4.0)
        k = build_kernel(g, params.s)
        assert k.structured
        dense = RieszKernel(g, k.s, k.epsilon, k.K)
        u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
        cfg = SolverConfig(t_end=2e-4, output_every=20)
        fast, ref = run(u0, k, params, cfg), run(u0, dense, params, cfg)
        rows = fast.diagnostics
        assert max(abs(r.mass - rows[0].mass) / rows[0].mass for r in rows) <= 1e-10
        assert all(b.F <= a.F for a, b in zip(rows, rows[1:]))
        assert fast.status == ref.status == "completed"
        assert fast.final_state.step_count > 100
        assert abs(fast.final_state.step_count - ref.final_state.step_count) <= 1
        a, b = fast.final_state.u.values, ref.final_state.u.values
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

    def test_boundary_flux_tracks_spreading(self, params, grid96, kernel96):
        wide = barenblatt_profile(grid96, 30.0, 2.85, params.m)
        cfg = SolverConfig(t_end=0.02, output_every=50)
        out = run(wide, kernel96, params, cfg, c_ds=0.0)
        assert out.boundary_mass_flux_total > 0.0

    def test_diagnostics_csv(self, tmp_path, params, grid96, kernel96):
        u0 = barenblatt_profile(grid96, 10.0, 1.0, params.m)
        out = run(u0, kernel96, params, SolverConfig(t_end=0.005, output_every=10))
        path = tmp_path / "diag.csv"
        diagnostics_to_csv(out.diagnostics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,mass,lm_norm,linf_norm,m2,F,S,W,D,virial_rhs,dt"
        assert len(lines) == len(out.diagnostics) + 1


class TestBlowupTimeBound:
    def test_none_for_nonnegative_energy(self, params, grid96, kernel96):
        u = barenblatt_profile(grid96, 1.0, 1.0, params.m)
        assert free_energy(u, kernel96, params) > 0.0
        assert blowup_time_upper_bound(u, kernel96, params) is None

    def test_formula_linearity_in_second_moment(self, params, grid256, kernel256,
                                                critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 1.5 * M_c, params)
        bound = blowup_time_upper_bound(u0, kernel256, params)
        F0 = free_energy(u0, kernel256, params)
        expected = second_moment(u0) / (2 * (params.d - 2 * params.s) * abs(F0))
        assert bound == pytest.approx(expected, rel=1e-14)

    def test_chord_dominates_trajectory(self, params, grid256, kernel256,
                                        critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 1.5 * M_c, params)
        F0 = free_energy(u0, kernel256, params)
        m20 = second_moment(u0)
        cfg = SolverConfig(t_end=2.0 * blowup_time_upper_bound(u0, kernel256, params),
                           output_every=20)
        out = run(u0, kernel256, params, cfg)
        slope = 2 * (params.d - 2 * params.s) * F0
        for row in out.diagnostics:
            chord = m20 + slope * row.t
            assert row.m2 <= chord + 0.01 * m20  # first-order virial slack


class TestWeakForm:
    def test_constant_plateau_recovers_mass_conservation(self, params, grid256,
                                                         kernel256, critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 0.5 * M_c, params)
        cfg = SolverConfig(t_end=0.002, output_every=5)
        out = run(u0, kernel256, params, cfg, store_fields=True)
        psi = plateau_test_function(3.0, 3.9)
        residual = weak_form_residual(out.fields, psi, kernel256, params)
        assert residual <= 1e-9 * mass(u0)

    def test_quadratic_probe_tracks_second_moment_budget(self, params, grid256,
                                                         kernel256, critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 0.5 * M_c, params)
        cfg = SolverConfig(t_end=0.01, output_every=5)
        out = run(u0, kernel256, params, cfg, store_fields=True)
        psi = quadratic_test_function(3.0, 3.9)
        residual = weak_form_residual(out.fields, psi, kernel256, params)
        dm2 = abs(second_moment(out.final_state.u) - second_moment(u0))
        # the gap is the virial identity defect, first order in dr
        assert residual <= 0.10 * dm2

    def test_residual_shrinks_under_joint_refinement(self, params, consts):
        resid = {}
        for n_cells, cfl in ((128, 0.4), (256, 0.2)):
            g = RadialGrid.uniform(n_cells, 4.0)
            k = build_kernel(g, params.s)
            u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
            out = run(u0, k, params, SolverConfig(t_end=0.01, cfl=cfl,
                                                  output_every=5),
                      store_fields=True)
            psi = quadratic_test_function(3.0, 3.9)
            resid[n_cells] = weak_form_residual(out.fields, psi, k, params)
        assert resid[256] < 0.7 * resid[128]

    def test_support_outside_grid_rejected(self, params, grid96, kernel96):
        psi = quadratic_test_function(3.0, 5.0)  # support beyond r_max = 3
        with pytest.raises(ValueError):
            weak_form_residual([(0.0, np.ones(96))], psi, kernel96, params)


class TestEpsilonStudy:
    def test_distances_strictly_decreasing(self, params, consts):
        g = RadialGrid.uniform(128, 4.0)
        u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
        cfg = SolverConfig(t_end=0.01, output_every=1000)
        dists = epsilon_convergence_study(u0, params, [0.2, 0.1, 0.05, 0.025],
                                          t_fix=0.01, config=cfg)
        assert len(dists) == 3
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_single_epsilon_gives_empty_output(self, params, consts):
        g = RadialGrid.uniform(64, 4.0)
        u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
        cfg = SolverConfig(t_end=0.001, output_every=1000)
        assert epsilon_convergence_study(u0, params, [0.1], 0.001, cfg) == []

    def test_identical_pair_distance_zero(self, params, consts):
        g = RadialGrid.uniform(64, 4.0)
        u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
        cfg = SolverConfig(t_end=0.001, output_every=1000)
        dists = epsilon_convergence_study(u0, params, [0.1, 0.1], 0.001, cfg)
        assert dists == [0.0]


class TestDiffusiveTime:
    def test_positive_and_scales_with_support(self, params, grid96):
        narrow = barenblatt_profile(grid96, 10.0, 0.5, params.m)
        wide = barenblatt_profile(grid96, 10.0, 2.0, params.m)
        assert diffusive_time(narrow, params) > 0.0
        assert diffusive_time(wide, params) > diffusive_time(narrow, params)

    def test_zero_field_rejected(self, params, grid96):
        with pytest.raises(ValueError):
            diffusive_time(DensityField(grid96, np.zeros(96)), params)
