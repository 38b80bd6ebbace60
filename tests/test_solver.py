"""Conservative upwind stepping, the blow-up rule, the dichotomy run, weak
form, eps study."""

import inspect
import json
import math
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

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
    build_kernel,
    derived_constants,
    dichotomy_run,
    diffusive_time,
    epsilon_convergence_study,
    find_critical_mass,
    free_energy,
    lp_norm,
    lr_lower_bound,
    mass,
    rearrange,
    run,
    second_moment,
    step,
    write_field_csv,
)
from aggdiff import cli, energy, solver
from aggdiff.solver import diagnostics_to_csv
from conftest import dense_oracle, is_structured, random_bump_field
from oracles import (plateau_test_function, quadratic_test_function, run_with_snapshots,
                     wall_padded_step_terms, weak_form_residual)


def l1_distance(a, b, grid):
    return float(np.dot(np.abs(a - b), grid.shell_volumes))


def assert_mass_exact_and_energy_monotone(out):
    rows = out.diagnostics
    assert max(abs(r.mass - rows[0].mass) / rows[0].mass for r in rows) <= 1e-12
    assert all(b.F <= a.F for a, b in zip(rows, rows[1:]))


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
                                                    kernel96_no_attraction):
        u = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        cfg = SolverConfig(t_end=0.05, output_every=10)
        out = run(u, kernel96_no_attraction, params, cfg)
        assert out.status == "completed"
        lm = [r.lm_norm for r in out.diagnostics]
        linf = [r.linf_norm for r in out.diagnostics]
        assert all(a >= b - 1e-12 for a, b in zip(lm, lm[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(linf, linf[1:]))

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_steps_match_run_bitwise(self, params, grid96, epsilon, monkeypatch):
        kernel = build_kernel(grid96, params.s, epsilon=epsilon)
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        monkeypatch.setattr(solver, "_MAX_STEPS", 40)
        cfg = SolverConfig(t_end=1.0)
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
        for kernel in (kernel96, build_kernel(grid96, params.s, epsilon=0.1)):
            for scheme in ("explicit", "implicit"):
                out = run(u0, kernel, params, SolverConfig(t_end=0.1, scheme=scheme))
                assert out.status == "completed"
                for row in out.diagnostics:
                    assert all(getattr(row, f.name) == 0.0 for f in fields(row)
                               if f.name not in ("t", "dt"))

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
        bound = chord_time(u0, kernel256, params)
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

    def test_explicit_run_holds_the_steady_profile(self, params, grid256,
                                                   kernel256, critical256):
        # criterion 7's two gates over one diffusive time, explicitly
        _, result = critical256
        out = run(result.U, kernel256, params,
                  SolverConfig(t_end=diffusive_time(result.U, params), cfl=0.4,
                               output_every=2000))
        assert out.status == "completed"
        drift = l1_distance(out.final_state.u.values, result.U.values,
                            grid256) / mass(result.U)
        assert drift <= 0.01  # measured 7.4e-3
        entropy_scale = lp_norm(result.U, params.m) ** params.m / (params.m - 1)
        F_drift = abs(free_energy(out.final_state.u, kernel256, params)
                      - free_energy(result.U, kernel256, params))
        assert F_drift <= 1e-3 * entropy_scale  # measured 1.1e-6

    def test_stall_reported_when_dt_floor_hit(self, params, grid96, kernel96,
                                              monkeypatch):
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        monkeypatch.setattr(solver, "_DT_MIN", 1.0)  # floor far above stable dt
        out = run(u0, kernel96, params, SolverConfig(t_end=1.0))
        assert out.status == "stalled"
        assert out.reason == "dt_min"

    def test_dt_collapse_after_growth_is_blowup(self, params, consts, grid96,
                                                kernel96, monkeypatch):
        u0 = barenblatt_profile(grid96, 2.0 * consts.M_star, 0.5, params.m)
        dt0 = step(SolverState(t=0.0, u=u0), kernel96, params,
                   SolverConfig(t_end=1.0)).t  # the step's dt from t = 0
        # the L^inf threshold is out of reach, so the shrinking step has to
        # trip the floor, and L^inf has more than doubled by then
        monkeypatch.setattr(solver, "_DT_MIN", 0.5 * dt0)
        out = run(u0, kernel96, params, SolverConfig(t_end=1.0, blowup_factor=1e12))
        assert out.status == "blowup"
        assert out.reason == "dt_collapse"
        assert out.t_detect is not None and out.t_detect == out.final_state.t
        assert out.final_state.step_count > 0
        assert out.diagnostics[-1].linf_norm > 2.0 * out.diagnostics[0].linf_norm

    @staticmethod
    def nan_kernel_run(params, grid96, kernel96, monkeypatch, scheme):
        """A run on a kernel with one NaN entry ends "failed" on its first
        step, with u0 as its final state: a NaN start, unlike an infinite
        F(u0) or D(u0), is no overflow and goes to the run."""
        class CountingMatrix(np.ndarray):
            matvecs = 0

            def __matmul__(self, other):
                CountingMatrix.matvecs += 1
                return np.asarray(self) @ other

        K = dense_oracle(kernel96).copy()
        K[0, -1] = np.nan
        bad = RieszKernel(grid96, kernel96.s, kernel96.epsilon,
                          K.view(CountingMatrix))
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        # without a per-step check this would run all 1000 steps
        monkeypatch.setattr(solver, "_MAX_STEPS", 1000)
        cfg = SolverConfig(t_end=1.0, output_every=10_000, scheme=scheme)
        out = run(u0, bad, params, cfg)
        assert (out.status, out.reason) == ("failed", "non_finite")
        assert math.isnan(out.diagnostics[0].F)
        assert out.final_state.t == 0.0 and out.final_state.step_count == 0
        assert np.array_equal(out.final_state.u.values, u0.values)
        # one for the initial diagnostics row, one per step taken
        assert CountingMatrix.matvecs <= 3

    def test_nan_kernel_fails_on_the_next_step(self, params, grid96, kernel96,
                                               monkeypatch):
        self.nan_kernel_run(params, grid96, kernel96, monkeypatch, "explicit")

    def test_nan_kernel_fails_on_the_next_implicit_step(self, params, grid96,
                                                        kernel96, monkeypatch):
        self.nan_kernel_run(params, grid96, kernel96, monkeypatch, "implicit")

    @pytest.mark.parametrize("total_mass, match", [
        (1e100, None),  # F(u0) and D(u0) finite: the run starts, and stalls
        (1e120, r"dissipation D\(u0\) = inf overflows"),
        (1e160, r"free energy F\(u0\) = -inf overflows"),  # W overflows
    ])
    def test_overflowing_start_is_rejected_before_any_step(self, params, grid96,
                                                           kernel96, total_mass, match):
        u0 = barenblatt_profile(grid96, total_mass, 1.0, params.m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the start is formed without warnings
            if match is None:
                out = run(u0, kernel96, params, SolverConfig(t_end=1.0))
                assert (out.status, out.final_state.step_count) == ("stalled", 0)
                assert math.isfinite(out.diagnostics[0].D)
            else:
                with pytest.raises(ParameterDomainError, match=f"^{match}$"):
                    run(u0, kernel96, params, SolverConfig(t_end=1.0))

    def test_structured_kernel_run_matches_dense(self, params, consts):
        g = RadialGrid.uniform(1024, 4.0)
        k = build_kernel(g, params.s)
        assert is_structured(k)
        dense = RieszKernel(g, k.s, k.epsilon, dense_oracle(k))
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

    def test_boundary_flux_tracks_spreading(self, params, grid96,
                                            kernel96_no_attraction):
        wide = barenblatt_profile(grid96, 30.0, 2.85, params.m)
        cfg = SolverConfig(t_end=0.02, output_every=50)
        out = run(wide, kernel96_no_attraction, params, cfg)
        assert out.boundary_mass_flux_total > 0.0

    def test_final_row_records_the_last_steps_dt(self, params, consts, grid96,
                                                 kernel96):
        # 185 implicit steps: the last output row is step 150's, whose dt
        # (3.137e-4) is not the final step's (3.040e-4)
        u0 = barenblatt_profile(grid96, 0.5 * consts.M_star, 1.0, params.m)
        cfg = SolverConfig(t_end=0.05, output_every=50, scheme="implicit")
        out = run(u0, kernel96, params, cfg)
        last_dt = run(u0, kernel96, params,
                      replace(cfg, output_every=1)).diagnostics[-1].dt
        assert out.final_state.step_count == 185
        assert out.diagnostics[-1].dt == last_dt
        assert out.diagnostics[-2].dt != last_dt

    def test_diagnostics_csv(self, tmp_path, params, grid96, kernel96):
        u0 = barenblatt_profile(grid96, 10.0, 1.0, params.m)
        out = run(u0, kernel96, params, SolverConfig(t_end=0.005, output_every=10))
        path = tmp_path / "diag.csv"
        diagnostics_to_csv(out.diagnostics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,mass,lm_norm,linf_norm,m2,F,S,W,D,virial_rhs,dt"
        assert len(lines) == len(out.diagnostics) + 1


def chord_time(u0, kernel, params):
    """Oracle: T* = m2(u0) / (2 (d-2s) |F(u0)|), None with epsilon > 0 or
    F(u0) >= 0, where no chord bound holds."""
    F0 = free_energy(u0, kernel, params)
    if kernel.epsilon != 0.0 or not F0 < 0.0:
        return None
    return second_moment(u0) / (2.0 * params.alpha * abs(F0))


class TestBlowupTimeBound:
    def test_none_for_nonnegative_energy(self, params, grid96, kernel96):
        u = barenblatt_profile(grid96, 1.0, 1.0, params.m)
        assert free_energy(u, kernel96, params) > 0.0
        out = run(u, kernel96, params, SolverConfig(t_end=1e-4))
        assert out.blowup_time_upper_bound is None

    def test_formula_linearity_in_second_moment(self, params, grid256, kernel256,
                                                critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 1.5 * M_c, params)
        bound = run(u0, kernel256, params,
                    SolverConfig(t_end=1e-6)).blowup_time_upper_bound
        F0 = free_energy(u0, kernel256, params)
        expected = second_moment(u0) / (2 * (params.d - 2 * params.s) * abs(F0))
        assert bound == pytest.approx(expected, rel=1e-14)

    def test_chord_dominates_trajectory(self, params, grid256, kernel256,
                                        critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 1.5 * M_c, params)
        F0 = free_energy(u0, kernel256, params)
        m20 = second_moment(u0)
        cfg = SolverConfig(t_end=2.0 * chord_time(u0, kernel256, params),
                           output_every=20)
        out = run(u0, kernel256, params, cfg)
        slope = 2 * (params.d - 2 * params.s) * F0
        for row in out.diagnostics:
            chord = m20 + slope * row.t
            assert row.m2 <= chord + 0.01 * m20  # first-order virial slack

    def test_run_that_reaches_the_chord_time_is_blowup(self, params, kernel256,
                                                       critical256):
        # on 256 uniform cells 1.02 M_c freezes in a grid-scale state: L^inf
        # reaches ~74x by T* and ~163x by 2 T*, below the 1e3 trigger
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 1.02 * M_c, params)
        chord = chord_time(u0, kernel256, params)
        out = run(u0, kernel256, params,
                  SolverConfig(t_end=2.0 * chord, scheme="implicit"))
        assert (out.status, out.reason) == ("blowup", "chord_exhausted")
        assert out.blowup_time_upper_bound == chord
        assert out.t_detect == out.final_state.t
        assert chord * (1 - 1e-12) <= out.t_detect <= chord + out.diagnostics[-1].dt
        assert out.diagnostics[-1].linf_norm < 1e3 * out.diagnostics[0].linf_norm

    def test_regularised_run_may_outlive_the_chord_time(self, params, grid96,
                                                        kernel96, dichotomy96):
        # with epsilon > 0 the chord bound does not hold, so no chord rule;
        # the chord is the unregularised kernel's
        kernel = build_kernel(grid96, params.s, epsilon=0.05)
        M_c, steady = dichotomy96["critical"]
        u0 = blowup_initial_data(steady.U, 1.5 * M_c, params)
        chord = chord_time(u0, kernel96, params)
        out = run(u0, kernel, params,
                  SolverConfig(t_end=1.2 * chord, scheme="implicit"))
        assert out.status == "completed"
        assert out.final_state.t > chord

    def test_no_chord_time_with_regularisation(self, params, grid96, dichotomy96):
        kernel = build_kernel(grid96, params.s, epsilon=0.05)
        M_c, steady = dichotomy96["critical"]
        u0 = blowup_initial_data(steady.U, 1.5 * M_c, params)
        assert free_energy(u0, kernel, params) < 0.0
        out = run(u0, kernel, params, SolverConfig(t_end=1e-6))
        assert out.blowup_time_upper_bound is None
        entry, _ = dichotomy_run(steady.U, 1.5, M_c, kernel, params,
                                 SolverConfig(t_end=0.01))
        assert entry["blowup_time_upper_bound"] is None
        assert entry["t_end"] == 0.01


class TestTestFunctions:
    @pytest.mark.parametrize("make", [plateau_test_function, quadratic_test_function])
    def test_derivatives_match_central_differences(self, make):
        a, b, h = 3.0, 3.9, 1e-5
        psi = make(a, b)
        r = np.linspace(0.0, b, 781)
        # psi is only C^2 at a and b, so the kinks of ddpsi there make the
        # second difference first order in h
        for f, df, rel in ((psi.psi, psi.dpsi, 1e-8), (psi.dpsi, psi.ddpsi, 1e-4)):
            fd = (f(r + h) - f(r - h)) / (2.0 * h)
            exact = df(r)
            assert np.max(np.abs(fd - exact)) <= rel * np.max(np.abs(exact))

    def test_quadratic_is_r_squared_inside_and_zero_outside(self):
        psi = quadratic_test_function(3.0, 3.9)
        inside = np.linspace(0.0, 3.0, 61)
        assert np.array_equal(psi.psi(inside), inside * inside)
        outside = np.linspace(3.9, 5.0, 23)
        for f in (psi.psi, psi.dpsi, psi.ddpsi):
            assert np.all(f(outside) == 0.0)

    @pytest.mark.parametrize("make", [plateau_test_function, quadratic_test_function])
    @pytest.mark.parametrize("a, b", [(2.0, 2.0), (3.0, 2.0)])
    def test_support_must_lie_beyond_the_plateau(self, make, a, b):
        with pytest.raises(ValueError, match="0 < a < b"):
            make(a, b)


class TestWeakForm:
    def test_constant_plateau_recovers_mass_conservation(self, params, grid256,
                                                         kernel256, critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 0.5 * M_c, params)
        cfg = SolverConfig(t_end=0.002, output_every=5)
        _, trajectory = run_with_snapshots(u0, kernel256, params, cfg)
        psi = plateau_test_function(3.0, 3.9)
        residual = weak_form_residual(trajectory, psi, kernel256, params)
        assert residual <= 1e-9 * mass(u0)

    def test_quadratic_probe_tracks_second_moment_budget(self, params, grid256,
                                                         kernel256, critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 0.5 * M_c, params)
        cfg = SolverConfig(t_end=0.01, output_every=5)
        out, trajectory = run_with_snapshots(u0, kernel256, params, cfg)
        psi = quadratic_test_function(3.0, 3.9)
        residual = weak_form_residual(trajectory, psi, kernel256, params)
        dm2 = abs(second_moment(out.final_state.u) - second_moment(u0))
        # the gap is the virial identity defect, first order in dr
        assert residual <= 0.10 * dm2

    def test_residual_shrinks_under_joint_refinement(self, params, consts):
        resid = {}
        for n_cells, cfl in ((128, 0.4), (256, 0.2)):
            g = RadialGrid.uniform(n_cells, 4.0)
            k = build_kernel(g, params.s)
            u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
            _, trajectory = run_with_snapshots(
                u0, k, params, SolverConfig(t_end=0.01, cfl=cfl, output_every=5))
            psi = quadratic_test_function(3.0, 3.9)
            resid[n_cells] = weak_form_residual(trajectory, psi, k, params)
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
        statuses, dists = epsilon_convergence_study(
            u0, params, [0.2, 0.1, 0.05, 0.025], cfg)
        assert statuses == ["completed"] * 4
        assert len(dists) == 3
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_single_epsilon_gives_empty_output(self, params, consts):
        g = RadialGrid.uniform(64, 4.0)
        u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
        cfg = SolverConfig(t_end=0.001, output_every=1000)
        assert epsilon_convergence_study(u0, params, [0.1], cfg) == (
            ["completed"], [])

    def test_identical_pair_distance_zero(self, params, consts):
        g = RadialGrid.uniform(64, 4.0)
        u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
        cfg = SolverConfig(t_end=0.001, output_every=1000)
        _, dists = epsilon_convergence_study(u0, params, [0.1, 0.1], cfg)
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


@pytest.fixture(scope="module")
def dichotomy96(params, grid96, kernel96):
    """The measured critical mass and steady profile on the 96-cell grid,
    and dichotomy_run's (entry, outcome) at 0.5 and 1.5 M_c."""
    M_c, steady = find_critical_mass(grid96, kernel96, params, rel_tol=1e-6,
                                     support_radius_init=1.0)
    runs = {ratio: dichotomy_run(steady.U, ratio, M_c, kernel96, params,
                                 DICHOTOMY_CONFIG)
            for ratio in (0.5, 1.5)}
    return {"critical": (M_c, steady), "runs": runs}


# the CLI's solver defaults
DICHOTOMY_CONFIG = SolverConfig(t_end=0.05)


def dichotomy_entry_oracle(U, ratio, M_star, kernel, params, config):
    """The report entry as aggdiff dichotomy built it before dichotomy_run."""
    consts = derived_constants(params)
    u0 = blowup_initial_data(U, ratio * M_star, params)
    F0 = free_energy(u0, kernel, params)
    chord = chord_time(u0, kernel, params)
    if ratio < 1.0:
        t_end = 5.0 * diffusive_time(u0, params)
        scheme = "implicit"
    else:
        t_end = 2.0 * chord if chord is not None else config.t_end
        scheme = "explicit"
    outcome = run(u0, kernel, params, replace(config, t_end=t_end, scheme=scheme))
    sup_lm_m = max(row.lm_norm ** params.m for row in outcome.diagnostics)
    entry = {
        "mass_ratio": ratio,
        "mass": ratio * M_star,
        "F0": F0,
        "status": outcome.status,
        "t_detect": outcome.t_detect,
        "t_end": t_end,
        "sup_lm_norm_power_m": sup_lm_m,
        "blowup_time_upper_bound": chord,
    }
    if ratio < 1.0:
        M = ratio * M_star
        denom = (consts.C_star_upper * consts.c_ds / 2.0
                 * (consts.M_star ** (2 * params.s / params.d)
                    - M ** (2 * params.s / params.d)))
        entry["ge_bound_lm_power_m"] = F0 / denom if denom > 0 else math.inf
    return entry


class TestDichotomyRun:
    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    def test_entry_equals_the_former_cli_loop(self, params, kernel96, dichotomy96,
                                              ratio):
        M_c, steady = dichotomy96["critical"]
        entry, out = dichotomy96["runs"][ratio]
        assert entry == dichotomy_entry_oracle(steady.U, ratio, M_c, kernel96, params,
                                               DICHOTOMY_CONFIG)
        assert entry["status"] == out.status
        assert entry["status"] == ("completed" if ratio < 1 else "blowup")
        # F0 and T* are exactly the run's t = 0 row F and chord time
        assert entry["F0"] == out.diagnostics[0].F
        assert entry["blowup_time_upper_bound"] == out.blowup_time_upper_bound

    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    def test_start_takes_one_matvec(self, params, grid96, kernel96, monkeypatch,
                                    ratio):
        # from ratio 1 up, F0 and the chord time T* for the 2 T* horizon come
        # from one evaluation of the start; below it the run's t = 0 row is
        # the only one.  The entry reads F0 and T* off the run either way.
        calls = []
        apply = RieszKernel.apply
        monkeypatch.setattr(RieszKernel, "apply",
                            lambda self, x: calls.append(1) or apply(self, x))
        row = SimpleNamespace(lm_norm=1.0, F=-1.0)
        monkeypatch.setattr(solver, "run", lambda *args: SimpleNamespace(
            status="completed", t_detect=None, diagnostics=[row],
            blowup_time_upper_bound=None))
        U = barenblatt_profile(grid96, 100.0, 1.0, params.m)
        entry, _ = dichotomy_run(U, ratio, 150.0, kernel96, params, DICHOTOMY_CONFIG)
        assert len(calls) == (0 if ratio < 1.0 else 1)
        assert entry["F0"] == -1.0 and entry["blowup_time_upper_bound"] is None
        if ratio >= 1.0:  # the horizon is 2 T*, not config.t_end
            assert entry["t_end"] != DICHOTOMY_CONFIG.t_end

    def test_subcritical_run_forms_the_energy_once_per_row(self, params, kernel96,
                                                           dichotomy96, monkeypatch):
        # below ratio 1 the horizon needs no F(u0): one energy_report per
        # diagnostics row, the initial and the final one here
        calls = []
        report = energy.energy_report
        counting = lambda *args: calls.append(1) or report(*args)
        monkeypatch.setattr(energy, "energy_report", counting)
        monkeypatch.setattr(solver, "energy_report", counting)
        M_c, steady = dichotomy96["critical"]
        config = replace(DICHOTOMY_CONFIG, output_every=10 ** 9)
        _, out = dichotomy_run(steady.U, 0.5, M_c, kernel96, params, config)
        assert len(calls) == len(out.diagnostics) == 2

    @pytest.mark.parametrize("ratio", [1e100, 1e120, 1e150, 1e160])
    def test_start_whose_energy_overflows_is_rejected(self, params, grid96, kernel96,
                                                      ratio):
        # from ~1e105 the dissipation D(u0) overflows while F0 is finite; at
        # 1e160 the interaction energy W overflows: F0 = -inf, so no chord
        # time, and the horizon falls back to config.t_end.  run rejects the
        # start before any step; the ratio is added to its message.
        U = barenblatt_profile(grid96, 100.0, 1.0, params.m)
        match = {1e160: r"F\(u0\) = -inf", 1e150: r"D\(u0\) = inf",
                 1e120: r"D\(u0\) = inf"}.get(ratio)
        if match is not None:
            with pytest.raises(ParameterDomainError, match=match) as excinfo:
                dichotomy_run(U, ratio, 150.0, kernel96, params, DICHOTOMY_CONFIG)
            assert str(excinfo.value).endswith(f" overflows at mass ratio {ratio}")
        else:  # F0 and D(u0) are still finite, so the run starts and stalls
            entry, out = dichotomy_run(U, ratio, 150.0, kernel96, params,
                                       DICHOTOMY_CONFIG)
            assert math.isfinite(entry["F0"]) and entry["F0"] < 0.0
            assert entry["t_end"] == 2.0 * entry["blowup_time_upper_bound"] > 0.0
            assert (out.status, out.reason) == ("stalled", "dt_min")

    def test_global_existence_bound_is_criterion_6s(self, params, consts,
                                                    dichotomy96):
        M_c, _ = dichotomy96["critical"]
        entry, _ = dichotomy96["runs"][0.5]
        M = 0.5 * M_c
        two_s_over_d = 2 * params.s / params.d
        bound = entry["F0"] / (consts.C_star_upper * consts.c_ds / 2
                               * (consts.M_star ** two_s_over_d - M ** two_s_over_d))
        assert entry["ge_bound_lm_power_m"] == pytest.approx(bound, rel=1e-15)
        assert entry["sup_lm_norm_power_m"] <= entry["ge_bound_lm_power_m"]

    def test_bound_is_infinite_from_the_closed_form_mass(self, params, consts,
                                                         kernel96, dichotomy96):
        _, steady = dichotomy96["critical"]
        entry, _ = dichotomy_run(steady.U, 0.5, 2.0 * consts.M_star, kernel96,
                                 params, DICHOTOMY_CONFIG)
        assert entry["mass"] == consts.M_star
        assert entry["ge_bound_lm_power_m"] == math.inf

    def test_cli_table_is_the_recipes_entries(self, tmp_path, params, dichotomy96,
                                              capsys):
        M_c, steady = dichotomy96["critical"]
        profile = tmp_path / "steady.csv"
        write_field_csv(steady.U, profile)
        profile.with_suffix(".json").write_text(json.dumps(
            {"d": params.d, "M_target": M_c}))
        out = tmp_path / "out"
        code = cli.main(["dichotomy", "--set", "grid.n_cells=96",
                         "--set", "grid.r_max=3.0",
                         "--set", "experiment.mass_ratios=[0.5,1.5]",
                         "--profile", str(profile), "--out", str(out)])
        assert code == 0
        table = json.loads((out / "report.json").read_text())["results"]["table"]
        assert table == [dichotomy96["runs"][ratio][0] for ratio in (0.5, 1.5)]

    def test_cli_default_horizon_is_the_recipes(self):
        default = inspect.signature(dichotomy_run).parameters["diffusive_times"].default
        assert cli.DEFAULT_CONFIG["experiment"]["t_end_diffusive_times"] == default


@pytest.fixture(scope="module")
def subcritical_runs(params, kernel256, critical256):
    """Per ratio: initial data, config (five diffusive times), the
    explicit run (the reference) and the implicit run."""
    M_c, result = critical256
    runs = {}
    for ratio in (0.5, 0.9):
        u0 = blowup_initial_data(result.U, ratio * M_c, params)
        cfg = SolverConfig(t_end=5.0 * diffusive_time(u0, params), output_every=50)
        explicit = run(u0, kernel256, params, cfg)
        assert explicit.status == "completed"
        implicit = run(u0, kernel256, params, replace(cfg, scheme="implicit"))
        runs[ratio] = (u0, cfg, explicit, implicit)
    return runs


class TestImplicit:
    @pytest.mark.parametrize("ratio, max_gap", [(0.5, 3e-3), (0.9, 1e-2)])
    def test_tracks_explicit_run_with_far_fewer_steps(self, grid256,
                                                      subcritical_runs, ratio,
                                                      max_gap):
        u0, cfg, explicit, out = subcritical_runs[ratio]
        assert out.status == "completed"
        assert out.final_state.t == pytest.approx(cfg.t_end, rel=1e-12)
        assert_mass_exact_and_energy_monotone(out)
        gap = l1_distance(out.final_state.u.values, explicit.final_state.u.values,
                          grid256)
        assert gap <= max_gap * mass(u0)
        steps = out.final_state.step_count
        assert steps <= 0.1 * explicit.final_state.step_count
        assert out.rejected_steps == explicit.rejected_steps == 0

    def test_gap_is_second_order_in_the_step_rule(self, params, grid256, kernel256,
                                                  subcritical_runs, monkeypatch):
        u0, cfg, explicit, coarse = subcritical_runs[0.9]
        ref = explicit.final_state.u.values
        monkeypatch.setattr(solver, "_STEP_CHANGE", 0.5 * solver._STEP_CHANGE)
        fine = run(u0, kernel256, params, replace(cfg, scheme="implicit"))
        assert_mass_exact_and_energy_monotone(fine)
        ratio = (l1_distance(coarse.final_state.u.values, ref, grid256)
                 / l1_distance(fine.final_state.u.values, ref, grid256))
        assert 2.0 ** 1.5 <= ratio <= 2.0 ** 2.5  # measured 3.70

    def test_subcritical_run_takes_fallback_steps(self, subcritical_runs):
        # mass spreading into vacuum turns some ROS2 updates negative
        out = subcritical_runs[0.5][3]
        assert 0 < out.fallback_steps < out.final_state.step_count  # measured 178 of 901
        assert type(out.fallback_steps) is int

    def test_regularised_run_is_mass_exact_with_monotone_energy(self, params,
                                                                grid96):
        kernel = build_kernel(grid96, params.s, epsilon=0.05)
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        cfg = SolverConfig(t_end=0.05, output_every=5, scheme="implicit")
        out = run(u0, kernel, params, cfg)
        assert out.status == "completed"
        assert out.final_state.step_count > 10
        assert_mass_exact_and_energy_monotone(out)

    def test_vacuum_front_takes_the_fallback_and_stays_non_negative(self, params,
                                                                    grid96):
        kernel = build_kernel(grid96, params.s, epsilon=0.05)
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        out, trajectory = run_with_snapshots(
            u0, kernel, params,
            SolverConfig(t_end=0.05, output_every=1, scheme="implicit"))
        assert out.status == "completed"
        assert out.fallback_steps > 0
        assert_mass_exact_and_energy_monotone(out)  # a row per step
        assert all(vals.min() >= 0.0 for _, vals in trajectory)

    def test_one_stencil_per_row_step_and_try_and_one_jacobian_per_step(
            self, params, grid96, kernel96, monkeypatch):
        # the dissipation, the fluxes and the Jacobian share one upwind
        # stencil: one evaluation per diagnostics row, one at each step's
        # start (which also gives that step's bands) and one at each ROS2
        # try's u*; a fallback or a retried try reuses the step's bands
        calls = {"stencil": 0, "bands": 0}
        stencil, bands = energy._upwind_flow, solver._ImplicitStepper._bands

        def counted_stencil(*args):
            calls["stencil"] += 1
            return stencil(*args)

        def counted_bands(*args):
            calls["bands"] += 1
            return bands(*args)

        monkeypatch.setattr(energy, "_upwind_flow", counted_stencil)
        monkeypatch.setattr(solver, "_upwind_flow", counted_stencil)
        monkeypatch.setattr(solver._ImplicitStepper, "_bands", counted_bands)
        kernel = build_kernel(grid96, params.s, epsilon=0.05)
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        out = run(u0, kernel, params,
                  SolverConfig(t_end=0.05, output_every=5, scheme="implicit"))
        assert out.status == "completed" and out.fallback_steps > 0
        steps = out.final_state.step_count
        tries = steps + out.rejected_steps
        assert calls["stencil"] == len(out.diagnostics) + steps + tries
        assert calls["bands"] == steps
        # every try of one step overshoots below zero and is retried
        calls.update(stencil=0, bands=0)
        monkeypatch.setattr(solver, "_substitute",
                            lambda factors, rhs: np.full(rhs.size, -1e6))
        out = run(u0, kernel96, params, SolverConfig(t_end=1.0, scheme="implicit"))
        assert out.final_state.step_count == 0 and out.rejected_steps > 1
        assert calls["stencil"] == len(out.diagnostics) + 1 + out.rejected_steps
        assert calls["bands"] == 1

    def test_negative_tries_stall_without_hanging(self, params, grid96, kernel96,
                                                  monkeypatch):
        # every try overshoots a cell below zero, at any dt: the ROS2 stages
        # and the backward-Euler fallback all substitute through one function
        monkeypatch.setattr(solver, "_substitute",
                            lambda factors, rhs: np.full(rhs.size, -1e6))
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        out = run(u0, kernel96, params, SolverConfig(t_end=1.0, scheme="implicit"))
        assert (out.status, out.reason) == ("stalled", "dt_min")
        assert out.final_state.step_count == 0
        assert out.rejected_steps > 0
        assert np.array_equal(out.final_state.u.values, u0.values)

    def test_step_count_does_not_depend_on_dr(self, params, consts):
        counts = []
        for n_cells in (128, 256):
            g = RadialGrid.uniform(n_cells, 4.0)
            u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
            cfg = SolverConfig(t_end=diffusive_time(u0, params), output_every=100,
                               scheme="implicit")
            out = run(u0, build_kernel(g, params.s), params, cfg)
            assert out.status == "completed" and out.rejected_steps == 0
            counts.append(out.final_state.step_count)
        assert abs(counts[1] - counts[0]) <= 0.05 * counts[0]  # measured 600, 586

    def test_two_slabs_run_without_rejected_steps(self, params, grid96, kernel96):
        r = grid96.centers
        u0 = DensityField(grid96, np.where((r < 0.5) | ((r > 1.5) & (r < 1.8)),
                                           2.0, 0.0))
        out = run(u0, kernel96, params,
                  SolverConfig(t_end=0.05, output_every=10, scheme="implicit"))
        assert out.status == "completed"
        assert_mass_exact_and_energy_monotone(out)
        assert out.rejected_steps == 0

    def test_band_flux_is_the_mass_lost_inside_the_band_face(self, params,
                                                             grid96, kernel96):
        r = grid96.centers
        u0 = DensityField(grid96, np.where((r > 2.5) & (r < 2.8), 1.0, 0.0))
        out = run(u0, kernel96, params,
                  SolverConfig(t_end=0.05, output_every=10, scheme="implicit"))
        assert out.status == "completed"
        # the band face is the first cell edge at or beyond 0.95 R_max
        inside = slice(0, int(np.searchsorted(grid96.r_edges, 0.95 * grid96.r_max)))
        lost = float(np.dot(u0.values[inside] - out.final_state.u.values[inside],
                            grid96.shell_volumes[inside]))
        assert lost > 1e-3 * mass(u0)
        assert out.boundary_mass_flux_total == pytest.approx(lost, rel=1e-14)

    def test_one_step_agrees_with_explicit_to_second_order(self, params, grid96,
                                                           kernel96):
        u0 = barenblatt_profile(grid96, 20.0, 1.0, params.m)
        state = SolverState(t=0.0, u=u0)
        dt0 = step(state, kernel96, params, SolverConfig(t_end=1.0)).t  # from t = 0
        gaps = []
        for t_end in (1.0, 0.5 * dt0, 0.25 * dt0):  # full, half, quarter step
            steps = [step(state, kernel96, params, SolverConfig(t_end=t_end,
                                                                scheme=scheme))
                     for scheme in ("explicit", "implicit")]
            assert steps[0].t == steps[1].t == min(dt0, t_end)
            assert mass(steps[1].u) == pytest.approx(mass(u0), rel=1e-13)
            gaps.append(np.max(np.abs(steps[0].u.values - steps[1].u.values)))
        change = np.max(np.abs(step(state, kernel96, params,
                                    SolverConfig(t_end=1.0)).u.values - u0.values))
        assert gaps[0] <= 0.1 * change
        assert 3.0 <= gaps[1] / gaps[2] <= 5.0  # measured 3.5

    def test_nearly_stationary_state_runs_to_the_end(self, params, grid96,
                                                      kernel96):
        # u changes by ~1e-9 over the run, near the roundoff of u
        u = DensityField(grid96, np.full(96, 0.8))
        weak = RieszKernel(grid96, params.s, 0.0, dense_oracle(kernel96) * (1e-8 / params.c_ds))
        out = run(u, weak, params, SolverConfig(t_end=0.01, scheme="implicit"))
        assert out.status == "completed"
        assert_mass_exact_and_energy_monotone(out)
        assert np.allclose(out.final_state.u.values, u.values, rtol=0, atol=1e-8)

    def test_jacobian_matches_finite_differences_and_keeps_mass(self, params,
                                                                grid96):
        kernel = build_kernel(grid96, params.s, epsilon=0.05)
        stepper = solver._ImplicitStepper(
            kernel, params, SolverConfig(t_end=1.0, scheme="implicit"), params.c_ds)
        u = 2.0 * np.exp(-grid96.centers ** 2)  # no vacuum cell
        phi = solver.potential_values(kernel, u, params.c_ds)
        dt = 1e-3

        def residual(vals):  # with u_old = u and phi lagged
            net = stepper._evaluate(vals, phi)[3]
            return vals - u + dt * net / grid96.shell_volumes

        w, donor, _, _ = stepper._evaluate(u, phi)
        lower, diag, upper = stepper._jacobian(stepper._bands(u, w, donor), dt)
        J = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        vols = grid96.shell_volumes
        assert np.allclose(vols @ J, vols, rtol=1e-14, atol=0.0)
        v = np.random.default_rng(3).standard_normal(96) * u
        h = 1e-6
        fd = (residual(u + h * v) - residual(u - h * v)) / (2.0 * h)
        assert np.max(np.abs(J @ v - fd)) <= 1e-7 * np.max(np.abs(J @ v))

    def test_one_factorization_solves_two_right_hand_sides(self):
        rng = np.random.default_rng(5)
        lower, upper = -rng.random(63), -rng.random(63)
        diag = 2.5 + rng.random(64)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        factors = solver._factor_tridiagonal(lower, diag, upper)
        for rhs in rng.standard_normal((2, 64)):
            x = solver._substitute(factors, rhs)
            assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=0.0, atol=1e-13)

    def test_one_ros2_update_keeps_the_mass(self, params, grid96, kernel96):
        stepper = solver._ImplicitStepper(
            kernel96, params, SolverConfig(t_end=1.0, scheme="implicit"), params.c_ds)
        u = barenblatt_profile(grid96, 20.0, 1.0, params.m).values
        vols = grid96.shell_volumes
        w, donor, _, net = stepper._evaluate(
            u, solver.potential_values(kernel96, u, params.c_ds))
        dt = 50.0 * stepper._stable_dt(u, w)
        delta = stepper._ros2_update(u, -net / vols, stepper._bands(u, w, donor), dt)
        assert np.max(np.abs(delta)) > 1e-2 * np.max(u)
        assert abs(np.dot(vols, delta)) <= 1e-13 * np.dot(vols, u)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(t_end=1.0, scheme="crank-nicolson")


def face_stencil_grid(shape: str, rng) -> RadialGrid:
    if shape == "uniform96":
        return RadialGrid.uniform(96, 3.0, d=3)
    if shape == "expm1_256":  # fine at the origin
        i = np.arange(257)
        return RadialGrid(d=3, r_edges=4.0 * np.expm1(3.0 * i / 256) / np.expm1(3.0))
    g = RadialGrid.uniform(256, 4.0, d=3)
    return rearrange(DensityField(g, random_bump_field(rng, g))).grid


class TestInteriorFaceStencil:
    """The steppers' face terms live on the N-1 interior faces; the walls
    carry no flux and have no entry."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    @pytest.mark.parametrize("shape", ["uniform96", "expm1_256", "rearranged256"])
    def test_matches_the_wall_padded_faces_bit_for_bit(self, params, shape, epsilon):
        rng = np.random.default_rng(38)
        grid = face_stencil_grid(shape, rng)
        kernel = build_kernel(grid, params.s, epsilon=epsilon)
        stepper = solver._ImplicitStepper(
            kernel, params, SolverConfig(t_end=1.0, scheme="implicit"), params.c_ds)
        for _ in range(4):
            u = random_bump_field(rng, grid)
            u[rng.random(u.size) < 0.2] = 0.0  # scattered vacuum cells
            phi = solver.potential_values(kernel, u, params.c_ds)
            w, donor, area_flux, net = stepper._evaluate(u, phi)
            ref_area_flux, ref_net, ref_dt, ref_bands = wall_padded_step_terms(
                stepper, u, phi)
            assert w.size == donor.size == grid.n_cells - 1
            assert area_flux.tobytes() == ref_area_flux.tobytes()
            assert net.tobytes() == ref_net.tobytes()
            assert stepper._stable_dt(u, w) == ref_dt
            for band, ref in zip(stepper._bands(u, w, donor), ref_bands, strict=True):
                assert band.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("n_cells", [8, 19])
    def test_band_face_is_the_outer_wall_below_20_cells(self, params, consts,
                                                        n_cells, scheme):
        grid = RadialGrid.uniform(n_cells, 3.0, d=3)
        # no interior edge lies in [0.95 R_max, R_max)
        assert np.searchsorted(grid.r_edges, 0.95 * grid.r_max) == n_cells
        u0 = barenblatt_profile(grid, 0.5 * consts.M_star, 1.0, params.m)
        out = run(u0, build_kernel(grid, params.s, epsilon=0.05), params,
                  SolverConfig(t_end=0.5, scheme=scheme))
        assert out.status == "completed" and out.final_state.step_count > 0
        assert out.boundary_mass_flux_total == 0.0


def face_volume_ratio(grid: RadialGrid) -> np.ndarray:
    """min(V_k, V_{k+1}) / (A_k dr_k) at each interior face k."""
    vols = grid.shell_volumes
    return (np.minimum(vols[:-1], vols[1:])
            / (grid.face_areas[1:-1] * grid.center_spacing))


class TestAdvectiveLimitIsImplied:
    """Why ``_Stepper._stable_dt`` keeps no advective limit dr/|w|: at a
    face k with speed |w_k| > 0 both neighbours' outflow is at least
    A_k |w_k|, so the positivity limit is at most
    min(V_k, V_{k+1}) / (A_k |w_k|), below dr_k / |w_k| wherever the face
    ratio min(V_k, V_{k+1}) / (A_k dr_k) is below 1.  On such grids
    ``TestInteriorFaceStencil`` matches the step bit for bit against the
    oracle that keeps all three limits."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_uniform_grids(self, d):
        for n_cells in (8, 64, 256, 4096):
            grid = RadialGrid.uniform(n_cells, 4.0, d=d)
            assert face_volume_ratio(grid).max() < 1.0  # 0.99976 at d = 3, 4096

    @pytest.mark.parametrize("d", [3, 4])
    def test_geometric_grids(self, d):
        # edges 0, r0 q^k up to 4
        for n_cells in (64, 256):
            for r0 in (1e-4, 1e-3, 1e-2, 1e-1):
                grid = RadialGrid(d, np.concatenate(
                    [[0.0], r0 * (4.0 / r0) ** (np.arange(n_cells) / (n_cells - 1))]))
                assert face_volume_ratio(grid).max() < 1.0  # 0.979 at most

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_expm1_graded_grids(self, d):
        # fine at the origin, as face_stencil_grid's expm1_256
        for n_cells in (64, 256, 1024):
            i = np.arange(n_cells + 1)
            grid = RadialGrid(d=d, r_edges=4.0 * np.expm1(3.0 * i / n_cells)
                              / np.expm1(3.0))
            assert face_volume_ratio(grid).max() < 1.0  # 0.996 at most
