"""Steady-profile fixed point, critical-mass search, ratio maximiser."""

import math
import re

import numpy as np
import pytest

from aggdiff import extremal
from aggdiff.field import _random_bump_field, dilate
from aggdiff import (
    ConvergenceError,
    DensityField,
    RadialGrid,
    RieszKernel,
    barenblatt_profile,
    blowup_initial_data,
    build_kernel,
    critical_mass,
    el_fixed_point,
    el_residual,
    find_critical_mass,
    free_energy,
    lp_norm,
    mass,
    maximize_vhls,
    potential,
    project_onto,
    rearrange,
    second_moment,
    vhls_ratio,
)
from conftest import dense_oracle
from oracles import hls_constant_beta_form


class TestFixedPoint:
    def test_converged_profile_invariants(self, params, grid256, critical256):
        M_c, result = critical256
        U = result.U
        assert mass(U) == pytest.approx(M_c, rel=1e-10)
        assert result.lambda_bar < 0.0
        assert np.all(np.diff(U.values) <= 1e-12 * U.values.max())
        assert result.support_radius < grid256.r_max
        assert result.iterations <= 500
        C_up = hls_constant_beta_form(params.d, params.s)
        assert result.J_value <= C_up * 1.02

    def test_idempotence_at_fixed_point(self, params, grid256, kernel256,
                                        critical256):
        # restarting from the converged profile stops on the first sweep
        # (the re-anchored target moves the fixed point only by the
        # dilation-projection error, about 1e-5 in relative L^1)
        M_c, result = critical256
        again = extremal._anchored_fixed_point(grid256, kernel256, params, M_c,
                                               result.U, result.U, 1e-4, 50)
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
        assert res.multiplier_defect > 0.0

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_support_radius_rejected(self, params, grid96, kernel96,
                                                 radius):
        with pytest.raises(ValueError, match="positive mass and radius"):
            el_fixed_point(grid96, kernel96, params, 100.0,
                           support_radius_init=radius)
        with pytest.raises(ValueError, match="positive mass and radius"):
            find_critical_mass(grid96, kernel96, params, support_radius_init=radius)

    def test_budget_exhaustion_raises_with_context(self, params, grid96,
                                                   kernel96):
        with pytest.raises(ConvergenceError) as excinfo:
            el_fixed_point(grid96, kernel96, params, 100.0, tol=1e-14,
                           max_iter=2, support_radius_init=1.0)
        # the message carries how far the iteration got
        assert re.search(r"last relative L1 change \d\.\d{3}e[-+]\d+\)$",
                         str(excinfo.value))

    @pytest.mark.parametrize("n_cells", [96, 256])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.08, 1.5, 2.0])
    def test_target_mass_held_until_the_support_meets_the_wall(
            self, request, params, consts, n_cells, ratio):
        # 96 cells end at R_max = 3, 256 at R_max = 4; from 1.5 M* on the
        # support reaches the wall and the dilation drops what passes it
        kernel = request.getfixturevalue(f"kernel{n_cells}")
        M = ratio * consts.M_star
        result = el_fixed_point(kernel.grid, kernel, params, M,
                                support_radius_init=1.0)
        held = mass(result.U)
        assert held <= M * (1.0 + 1e-12)
        if ratio <= 1.08:  # the critical-mass search's masses, M* to 1.024 M*
            assert held == pytest.approx(M, rel=1e-12, abs=0.0)

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
        # M_c - M keeps its sign on [0.5, 0.6] M*: the first step leaves it
        with pytest.raises(ConvergenceError, match="above the cap"):
            find_critical_mass(grid256, kernel256, params, 0.5 * consts.M_star,
                               0.6 * consts.M_star, rel_tol=1e-3,
                               support_radius_init=1.0)

    @pytest.mark.parametrize("lo, hi, rel_tol", [
        (1.0, 1.08, 0.0),  # would never stop
        (1.0, 1.08, math.nan),  # would run out of its solve budget
        (1.08, 1.0, 1e-6),  # a start above the cap
    ])
    def test_degenerate_arguments_rejected_before_any_solve(
            self, params, consts, grid96, kernel96, monkeypatch, lo, hi, rel_tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("_anchored_fixed_point called")

        monkeypatch.setattr(extremal, "_anchored_fixed_point", no_solve)
        with pytest.raises(ValueError, match="rel_tol"):
            find_critical_mass(grid96, kernel96, params, lo * consts.M_star,
                               hi * consts.M_star, rel_tol=rel_tol,
                               support_radius_init=1.0)

    def test_measured_mass_exceeds_closed_form(self, consts, critical256):
        M_c, _ = critical256
        assert M_c > consts.M_star
        assert M_c < 1.08 * consts.M_star

    def test_grid_consistency(self, critical256, critical512):
        M_coarse, _ = critical256
        M_fine, _ = critical512
        assert M_coarse == pytest.approx(M_fine, rel=2e-3)

    def test_4096_cells_in_seven_solves(self, params, kernel4096, monkeypatch):
        masses = []
        solve = extremal._anchored_fixed_point

        def recording(*args):
            masses.append(args[3])
            return solve(*args)

        monkeypatch.setattr(extremal, "_anchored_fixed_point", recording)
        M_c, _ = find_critical_mass(kernel4096.grid, kernel4096, params, rel_tol=1e-6,
                                    support_radius_init=1.0)
        assert len(masses) <= 7  # 3; the bracketed search took 5, bisection 19
        # the reference is the bracketed search's defect root, 1.06e-7 below
        assert M_c == pytest.approx(150.22863527300802, rel=1e-6, abs=0.0)

    def test_4096_cells_sweeps_and_newton_evaluations(self, params, kernel4096,
                                                      monkeypatch,
                                                      count_evaluations):
        # 3 warm-started solves: 42 sweeps and 123 evaluations; the bracketed
        # search took 5 solves, 72 sweeps and 204 evaluations
        sweeps = []
        solve = extremal._anchored_fixed_point

        def counted(*args):
            result = solve(*args)
            sweeps.append(result.iterations)
            return result

        monkeypatch.setattr(extremal, "_anchored_fixed_point", counted)
        find_critical_mass(kernel4096.grid, kernel4096, params, rel_tol=1e-6,
                           support_radius_init=1.0)
        assert len(sweeps) == 3
        assert sum(sweeps) <= 46
        assert len(count_evaluations) <= 140

    def test_solves_start_warm_and_keep_the_cold_anchor(self, params, consts,
                                                         grid256, kernel256,
                                                         monkeypatch):
        solves = []  # (mass, start values, anchor values, result) per solve
        solve = extremal._anchored_fixed_point

        def recording(grid, kernel, params, M, start, anchor, tol, max_iter):
            result = solve(grid, kernel, params, M, start, anchor, tol, max_iter)
            solves.append((M, start.values, anchor.values, result))
            return result

        monkeypatch.setattr(extremal, "_anchored_fixed_point", recording)
        M_c, result = find_critical_mass(grid256, kernel256, params, rel_tol=1e-6,
                                         support_radius_init=1.0)
        assert len(solves) >= 3
        assert solves[0][0] == consts.M_star
        assert M_c == solves[-1][0] and result is solves[-1][3]
        for k, (M, start, anchor, _) in enumerate(solves):
            cold = barenblatt_profile(grid256, M, 1.0, params.m).values
            assert np.array_equal(anchor, cold)
            if k == 0:
                assert np.array_equal(start, cold)
                continue
            assert start is solves[k - 1][3].U.values
            # each mass is the identity's at the previous profile's ratio
            assert M == critical_mass(params.d, params.s, solves[k - 1][3].J_value)

    def test_geometric_grid_lands_on_the_defect_root(self, params, consts):
        # edges 0, r0 q^k (k = 0..255) up to 4: the dilation by q is exact
        r0 = 1e-3
        grid = RadialGrid(3, np.concatenate([[0.0], r0 * (4.0 / r0) ** (
            np.arange(256) / 255)]))
        kernel = build_kernel(grid, params.s)
        M_c, result = find_critical_mass(grid, kernel, params, rel_tol=1e-10,
                                         support_radius_init=1.0)
        M_root = bisect_critical_mass(grid, kernel, params, consts.M_star,
                                      1.08 * consts.M_star, 1e-8)
        assert M_c == pytest.approx(M_root, rel=1e-9, abs=0.0)  # 2.7e-11
        assert abs(result.multiplier_defect) < 1e-8

    def test_uniform_grid_gap_to_the_defect_root_is_second_order(self, params,
                                                                 consts):
        # the two discretisations of M_c differ by 2.2e-5, 5.5e-6 and 1.4e-6
        gaps = []
        for n_cells in (256, 512, 1024):
            grid = RadialGrid.uniform(n_cells, 4.0)
            kernel = build_kernel(grid, params.s)
            M_c, _ = find_critical_mass(grid, kernel, params, rel_tol=1e-10,
                                        support_radius_init=1.0)
            M_root = bisect_critical_mass(grid, kernel, params, consts.M_star,
                                          1.08 * consts.M_star, 1e-8)
            gaps.append(M_c / M_root - 1.0)
        assert 0.0 < gaps[0] < 3e-5
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    def test_bracket_arguments_start_and_cap_the_search(self, params, consts,
                                                         grid256, kernel256,
                                                         critical256):
        # the benchmark harness's positional call: the start M* is the default
        M_c, result = critical256
        positional = find_critical_mass(grid256, kernel256, params, consts.M_star,
                                        1.08 * consts.M_star, rel_tol=1e-6,
                                        support_radius_init=1.0)
        assert positional[0] == M_c
        assert np.array_equal(positional[1].U.values, result.U.values)
        with pytest.raises(ConvergenceError, match="above the cap"):
            find_critical_mass(grid256, kernel256, params, consts.M_star,
                               1.01 * consts.M_star, rel_tol=1e-6,
                               support_radius_init=1.0)

    def test_unsettled_search_raises(self, params, grid96, kernel96, monkeypatch):
        monkeypatch.setattr(extremal, "_SEARCH_SOLVES", 2)
        with pytest.raises(ConvergenceError, match="not settled within 2 solves"):
            find_critical_mass(grid96, kernel96, params, rel_tol=1e-6,
                               support_radius_init=1.0)


def bisect_critical_mass(grid, kernel, params, M_lo, M_hi, rel_tol):
    """Oracle: the root of the multiplier defect of cold-started solves,
    bisected to a bracket of width rel_tol M_hi and read off the secant
    through its ends."""
    def defect(M):
        return extremal.el_fixed_point(grid, kernel, params, M, tol=1e-9,
                                       support_radius_init=1.0).multiplier_defect

    d_lo, d_hi = defect(M_lo), defect(M_hi)
    assert d_lo > 0.0 > d_hi
    while M_hi - M_lo > rel_tol * M_hi:
        M_mid = 0.5 * (M_lo + M_hi)
        d_mid = defect(M_mid)
        if d_mid > 0.0:
            M_lo, d_lo = M_mid, d_mid
        else:
            M_hi, d_hi = M_mid, d_mid
    return (M_lo * d_hi - M_hi * d_lo) / (d_hi - d_lo)


def jroute_step(grid, kernel, params, M):
    """critical_mass(J(U_M)) - M for the cold-started U_M: positive below
    the J-route's mass and negative above it."""
    result = extremal.el_fixed_point(grid, kernel, params, M, tol=1e-9,
                                     support_radius_init=1.0)
    return critical_mass(params.d, params.s, result.J_value) - M


def bisect_jroute_mass(grid, kernel, params, M_lo, M_hi, rel_tol):
    """Oracle: the root of ``jroute_step``, bisected to a bracket of width
    rel_tol M_hi and read off the secant through its ends."""
    g_lo, g_hi = (jroute_step(grid, kernel, params, M) for M in (M_lo, M_hi))
    assert g_lo > 0.0 > g_hi
    while M_hi - M_lo > rel_tol * M_hi:
        M_mid = 0.5 * (M_lo + M_hi)
        g_mid = jroute_step(grid, kernel, params, M_mid)
        if g_mid > 0.0:
            M_lo, g_lo = M_mid, g_mid
        else:
            M_hi, g_hi = M_mid, g_mid
    return (M_lo * g_hi - M_hi * g_lo) / (g_hi - g_lo)


def cold_jroute_mass(grid, kernel, params, M_start, rel_tol):
    """Oracle: the J-route with every solve a cold start from the default
    guess (the search without warm starts)."""
    M = M_start
    for _ in range(50):
        M_next = M + jroute_step(grid, kernel, params, M)
        if abs(M_next - M) <= rel_tol * M:
            return M
        M = M_next
    raise AssertionError("cold J-route not settled within 50 solves")


def counted_solves(mp, solves, search, *args, **kwargs):
    """Run ``search`` with the mass of each anchored solve, the iteration
    behind ``el_fixed_point`` and ``find_critical_mass``, appended to
    ``solves``."""
    solve = extremal._anchored_fixed_point

    def counted(*solve_args):
        solves.append(solve_args[3])
        return solve(*solve_args)

    mp.setattr(extremal, "_anchored_fixed_point", counted)
    return search(*args, **kwargs)


SEARCH_GRIDS = {"96": (96, 3.0, 0.0), "96-eps": (96, 3.0, 0.05), "512": (512, 4.0, 0.0)}
SEARCH_TOLS = (1e-3, 1e-5, 1e-6, 1e-8)
SEARCH_CASES = [(g, hi, tol) for g in SEARCH_GRIDS for hi in (1.08, 1.1)
                for tol in SEARCH_TOLS]
# J-route solves measured on every grid and cap: 2 / 3 / 3-4 / 3-4
# (bisection: 9 / 15-16 / 19 / 25-26)
SEARCH_SOLVES = dict(zip(SEARCH_TOLS, (3, 4, 5, 5)))


@pytest.fixture(scope="module")
def search_matrix(params, consts):
    """Per case (grid, cap / M*, rel_tol): the search's M_c and its solved
    masses, the bisection oracle's mass and solve count, the cold-start
    J-route's mass, and ``jroute_step`` at M_c (1 -/+ rel_tol)."""
    cases = {}
    for name, (n_cells, r_max, eps) in SEARCH_GRIDS.items():
        grid = RadialGrid.uniform(n_cells, r_max)
        kernel = build_kernel(grid, params.s, epsilon=eps)
        for _, hi, tol in (c for c in SEARCH_CASES if c[0] == name):
            masses, bisect_masses = [], []
            with pytest.MonkeyPatch.context() as mp:
                M_c, _ = counted_solves(mp, masses, find_critical_mass, grid, kernel,
                                        params, consts.M_star, hi * consts.M_star,
                                        rel_tol=tol, support_radius_init=1.0)
            with pytest.MonkeyPatch.context() as mp:
                M_bisect = counted_solves(mp, bisect_masses, bisect_jroute_mass,
                                          grid, kernel, params, consts.M_star,
                                          hi * consts.M_star, tol)
            steps = tuple(jroute_step(grid, kernel, params, M_c * (1.0 + side * tol))
                          for side in (-1.0, 1.0))
            cases[name, hi, tol] = dict(
                M_c=M_c, masses=masses, M_bisect=M_bisect,
                bisect_solves=len(bisect_masses),
                M_cold=cold_jroute_mass(grid, kernel, params, consts.M_star, tol),
                steps=steps)
    return cases


class TestIllinoisSearch:
    """The case matrix of the bracketed (Illinois) search that the J-route
    replaced, run on the J-route: three grids, two caps, four tolerances."""

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_matches_bisection_oracle(self, search_matrix, case):
        run = search_matrix[case]
        assert abs(run["M_c"] - run["M_bisect"]) <= case[2] * run["M_bisect"]

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_warm_starts_keep_the_cold_search_mass(self, search_matrix, case):
        run = search_matrix[case]
        assert run["M_c"] == pytest.approx(run["M_cold"], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_solve_count_bound(self, search_matrix, case):
        run = search_matrix[case]
        assert len(run["masses"]) <= SEARCH_SOLVES[case[2]]
        assert len(run["masses"]) < run["bisect_solves"]

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_final_bracket_closes_on_the_sign_change(self, search_matrix, case,
                                                     consts):
        # M_c (1 -/+ rel_tol) brackets the root of the identity's step, and
        # the search runs from M* to the returned mass below the cap
        run = search_matrix[case]
        below, above = run["steps"]
        assert below > 0.0 > above
        assert run["masses"][0] == consts.M_star
        assert run["masses"][-1] == run["M_c"] < case[1] * consts.M_star


class TestMaximizeVhls:
    def test_measured_constant_below_closed_form_bound(self, params, grid96,
                                                       kernel96):
        res = maximize_vhls(grid96, kernel96, params, n_starts=3, seed=5)
        C_up = hls_constant_beta_form(params.d, params.s)
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

    @pytest.mark.parametrize("grid_name, n_starts, seed, max_moves", [
        ("grid96", 3, 0, None), ("grid96", 3, 3, None), ("grid96", 3, 5, None),
        ("grid256", 2, 0, None), ("grid256", 2, 7, None), ("grid256", 2, 11, None),
        ("grid96", 3, 3, 20),
    ])
    def test_bit_identical_to_the_field_level_loop(self, request, params, monkeypatch,
                                                   grid_name, n_starts, seed, max_moves):
        grid = request.getfixturevalue(grid_name)
        kernel = request.getfixturevalue(grid_name.replace("grid", "kernel"))
        if max_moves is not None:
            monkeypatch.setattr(extremal, "_MAX_MOVES", max_moves)
        res = maximize_vhls(grid, kernel, params, n_starts=n_starts, seed=seed)
        U, J, moves, lam, residual = field_level_maximize_vhls(grid, kernel, params,
                                                               n_starts, seed)
        assert res.J_value == J
        assert np.array_equal(res.U.values, U.values)
        assert res.iterations == moves
        assert res.lambda_bar == lam
        assert res.el_residual == residual

    def test_no_grid_or_field_per_proposal(self, params, grid96, kernel96, monkeypatch):
        built = {RadialGrid: 0, DensityField: 0}
        for cls in built:
            def counted(self, cls=cls, check=cls.__post_init__):
                built[cls] += 1
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        rated = []
        core = extremal._ratio
        monkeypatch.setattr(extremal, "_ratio", lambda *args: rated.append(1) or core(*args))
        n_starts = 2
        maximize_vhls(grid96, kernel96, params, n_starts=n_starts, seed=0)
        assert len(rated) > 100 * n_starts  # the proposals, rated on arrays
        # per start the random field, its rearranged grid and field and their
        # projection; then the result
        assert built[RadialGrid] <= n_starts
        assert built[DensityField] <= 3 * n_starts + 1

    def test_infinite_proposal_rejected(self, params, grid96, kernel96, monkeypatch):
        def huge_first_cell(rng, grid):  # a bump lifting it by 20% overflows
            vals = np.zeros(grid.n_cells)
            vals[0] = 1.5e308
            return vals

        # a finite ratio for the start, whose own omega overflows, so that
        # the proposals are made; a finite projection, so that only the
        # proposal's own check can raise
        monkeypatch.setattr(extremal, "vhls_ratio", lambda *args: 1.0)
        monkeypatch.setattr(extremal, "_ratio", lambda *args: 1.0)
        monkeypatch.setattr(extremal, "_project", lambda *args: np.ones(96))
        monkeypatch.setattr(extremal, "_random_bump_field", huge_first_cell)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="finite and non-negative"):
            maximize_vhls(grid96, kernel96, params, n_starts=1, seed=0)

    def test_overflowing_start_rejected(self, params, grid96, kernel96, monkeypatch):
        # the start's omega and ||u||_m^m overflow: it has no ratio, not NaN
        def huge_first_cell(rng, grid):
            vals = np.zeros(grid.n_cells)
            vals[0] = 1.5e308
            return vals

        monkeypatch.setattr(extremal, "_random_bump_field", huge_first_cell)
        with pytest.raises(ValueError, match="overflows"):
            maximize_vhls(grid96, kernel96, params, n_starts=1, seed=0)


def field_level_maximize_vhls(grid, kernel, params, n_starts, seed):
    """The ratio maximiser spelled out on fields: every proposal is wrapped
    in a DensityField, rearranged, projected back onto ``grid`` and rated
    through the public functions.  Returns the best field, its ratio, its
    accepted moves, lambda_bar and el_residual."""
    rng = np.random.default_rng(seed)
    centers, r_max = grid.centers, grid.r_max
    best_vals, best_J, best_moves = None, -math.inf, 0
    for _ in range(n_starts):
        u = project_onto(rearrange(DensityField(grid, _random_bump_field(rng, grid))), grid)
        vals, J = u.values, vhls_ratio(u, kernel, params)
        moves = stalls = 0
        width_scale = 0.5
        while moves < extremal._MAX_MOVES and stalls < 60:
            center = rng.uniform(0.0, 0.7 * r_max)
            width = width_scale * r_max * 10.0 ** rng.uniform(-1.5, 0.0)
            amp = rng.uniform(-0.5, 0.5)
            bump = amp * np.exp(-0.5 * ((centers - center) / width) ** 2)
            proposal = np.maximum(vals * (1.0 + bump), 0.0)
            if not proposal.max() > 0.0:
                stalls += 1
                continue
            u = project_onto(rearrange(DensityField(grid, proposal)), grid)
            J_new = vhls_ratio(u, kernel, params)
            if J_new > J:
                vals, J = u.values, J_new
                moves += 1
                stalls = 0
            else:
                stalls += 1
                if stalls % 20 == 0:
                    width_scale *= 0.5
        if J > best_J:
            best_vals, best_J, best_moves = vals, J, moves
    U = DensityField(grid, best_vals)
    M = mass(U)
    return (U, best_J, best_moves, extremal.variational_multiplier(U, params, M),
            el_residual(U, kernel, params, M))


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

    def test_warm_start_left_or_right_of_the_root(self, params, grid256, kernel256,
                                                  critical256, count_evaluations):
        M_c, result = critical256
        phi = potential(kernel256, result.U, params.c_ds)
        vols = grid256.shell_volumes
        _, lam = extremal._solve_multiplier(phi, params.m, vols, M_c)
        lam_0 = count_evaluations[0]
        for start in (0.5 * (lam_0 + lam), lam + 0.1 * (lam - lam_0)):
            count_evaluations.clear()
            _, warm = extremal._solve_multiplier(phi, params.m, vols, M_c, start)
            assert count_evaluations[0] == start
            assert warm == pytest.approx(lam, rel=1e-13, abs=0.0)
            # right of the root after at most the first step, then decreasing
            right = count_evaluations[int(start < lam):]
            assert np.all(np.diff(right) < 0.0) and right[-1] >= warm

    @pytest.mark.parametrize("start", [np.nan, np.inf, -np.inf, "below"])
    def test_start_falls_back_to_the_lower_bound(self, params, grid256, kernel256,
                                                 critical256, count_evaluations,
                                                 start):
        # max(nan, lam_0) would be nan: a NaN start must never reach Newton
        M_c, result = critical256
        phi = potential(kernel256, result.U, params.c_ds)
        vols = grid256.shell_volumes
        cold = extremal._solve_multiplier(phi, params.m, vols, M_c)
        cold_calls = list(count_evaluations)
        count_evaluations.clear()
        if start == "below":
            start = cold_calls[0] - 1.0
        warm = extremal._solve_multiplier(phi, params.m, vols, M_c, start)
        assert count_evaluations == cold_calls
        assert np.array_equal(warm[0], cold[0]) and warm[1] == cold[1]

    def test_fixed_point_starts_newton_at_finite_multipliers(
            self, params, consts, grid96, kernel96, count_evaluations):
        result = el_fixed_point(grid96, kernel96, params, consts.M_star, tol=1e-9,
                                support_radius_init=1.0)
        assert result.iterations > 1
        assert all(math.isfinite(lam) for lam in count_evaluations)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_potential_rejected_before_iterating(self, params, grid96,
                                                            bad, count_evaluations):
        phi = np.linspace(1.0, 0.0, 96)
        phi[40] = bad
        with pytest.raises(ValueError, match="potential must be finite"):
            extremal._solve_multiplier(phi, params.m, grid96.shell_volumes, 1.0)
        assert count_evaluations == []

    def test_nan_kernel_fails_loudly_in_fixed_point(self, params, grid96, kernel96):
        K = dense_oracle(kernel96).copy()
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


def full_grid_mass_of_multiplier(phi, lam, m, vols):
    """Oracle: the power taken over every cell, zeros included."""
    y = np.maximum((m - 1.0) / m * (phi + lam), 0.0)
    y_pm1 = y ** ((2.0 - m) / (m - 1.0))
    vals = y_pm1 * y
    return vals, y_pm1, float(np.dot(vals, vols)), float(np.dot(y_pm1, vols))


class TestMassOfMultiplier:
    @pytest.mark.parametrize("shift", [-2.0, -0.5, 0.0, 0.5, 5.0])
    def test_support_only_power_is_bitwise_full_grid(self, params, kernel4096, shift):
        # shifts from an empty support through partial supports to the whole grid
        grid = kernel4096.grid
        u = barenblatt_profile(grid, 150.0, 1.0, params.m)
        phi = potential(kernel4096, u, params.c_ds)
        lam = -float(np.max(phi)) + shift * float(np.ptp(phi))
        got = extremal._mass_of_multiplier(phi, lam, params.m, grid.shell_volumes)
        want = full_grid_mass_of_multiplier(phi, lam, params.m, grid.shell_volumes)
        for a, b in zip(got[:2], want[:2]):
            assert np.array_equal(a, b) and not np.any(np.signbit(a))
        assert got[2:] == want[2:]


def plain_fixed_point(grid, kernel, params, M_target, tol, max_iter=500,
                      support_radius_init=1.0, start=None):
    """Oracle: the damped, re-anchored sweep iterated without mixing, each
    multiplier solved from the lower bound.  It starts from ``start`` (by
    default the Barenblatt guess) and is anchored on the guess.  Returns
    the profile values, the last multiplier and the sweep count."""
    init = barenblatt_profile(grid, M_target, support_radius_init, params.m)
    vols = grid.shell_volumes
    start = init if start is None else start
    u_vals = start.values * (M_target / mass(start))
    m2_anchor = second_moment(DensityField(grid, init.values * (M_target / mass(init))))
    for sweeps in range(1, max_iter + 1):
        phi = potential(kernel, DensityField(grid, u_vals), params.c_ds)
        candidate, lam = extremal._solve_multiplier(phi, params.m, vols, M_target)
        damped = DensityField(grid, 0.5 * u_vals + 0.5 * candidate)
        new_vals = dilate(damped, math.sqrt(second_moment(damped) / m2_anchor)).values
        change = float(np.dot(np.abs(new_vals - u_vals), vols)) / M_target
        u_vals = new_vals
        if change < tol:
            return u_vals, lam, sweeps
    raise ConvergenceError("plain iteration did not converge")


def plain_anchored_fixed_point(grid, kernel, params, M_target, start, anchor, tol,
                               max_iter):
    """The oracle behind the anchored iteration's signature, for
    find_critical_mass with its default guess (radius 1.0) as the anchor;
    of the quality figures it carries only J, which the search reads."""
    vals, lam, sweeps = plain_fixed_point(grid, kernel, params, M_target, tol,
                                          max_iter, start=start)
    U = DensityField(grid, vals)
    return extremal.ExtremalResult(U, lam, vhls_ratio(U, kernel, params), math.nan,
                                   math.nan, math.nan, sweeps)


MIXING_CASES = [(n_cells, eps, ratio) for n_cells in (96, 1024)
                for eps in (0.0, 0.05) for ratio in (0.5, 0.9, 1.0, 1.05, 1.5)]


@pytest.fixture(scope="module")
def mixing_matrix(params, consts):
    """Per case: the mixed solve, every iterate it swept, and the oracle."""
    grids = {96: RadialGrid.uniform(96, 3.0), 1024: RadialGrid.uniform(1024, 4.0)}
    kernels = {(n, eps): build_kernel(grids[n], params.s, epsilon=eps)
               for n in grids for eps in (0.0, 0.05)}
    cases = {}
    for n_cells, eps, ratio in MIXING_CASES:
        grid, kernel = grids[n_cells], kernels[n_cells, eps]
        M = ratio * consts.M_star
        iterates = []

        def recording(kernel, u, c_ds):
            iterates.append(u.values.copy())
            return potential(kernel, u, c_ds)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extremal, "potential", recording)
            mixed = el_fixed_point(grid, kernel, params, M, tol=1e-9,
                                   support_radius_init=1.0)
        cases[n_cells, eps, ratio] = (M, mixed, iterates,
                                      plain_fixed_point(grid, kernel, params, M, 1e-9))
    return cases


class TestAndersonMixing:
    @pytest.mark.parametrize("case", MIXING_CASES)
    def test_iterates_non_negative_at_target_mass(self, mixing_matrix, case):
        M, mixed, iterates, _ = mixing_matrix[case]
        # one potential per sweep, then el_residual's on the result
        assert len(iterates) == mixed.iterations + 1
        assert np.array_equal(iterates[-1], mixed.U.values)
        vols = mixed.U.grid.shell_volumes
        for vals in iterates:
            assert np.all(vals >= 0.0)
            held = float(np.dot(vals, vols))
            if vals[-1] == 0.0:
                assert held == pytest.approx(M, rel=1e-12, abs=0.0)
            else:  # a sweep's dilation drops the mass it pushes past R_max
                assert held <= M * (1.0 + 1e-12)

    @pytest.mark.parametrize("case", MIXING_CASES)
    def test_profile_matches_plain_iteration(self, mixing_matrix, case):
        M, mixed, _, (plain_vals, plain_lam, _) = mixing_matrix[case]
        vols = mixed.U.grid.shell_volumes
        gap = float(np.dot(np.abs(mixed.U.values - plain_vals), vols)) / M
        assert gap <= 1e-8
        assert mixed.lambda_bar == pytest.approx(plain_lam, rel=1e-8)

    @pytest.mark.parametrize("case", MIXING_CASES)
    def test_never_twice_the_plain_sweeps(self, mixing_matrix, case):
        _, mixed, _, (_, _, plain_sweeps) = mixing_matrix[case]
        assert mixed.iterations <= 2 * plain_sweeps

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5])
    def test_history_follows_the_safeguard(self, params, consts, grid96, kernel96,
                                           monkeypatch, ratio):
        calls = []  # (history entries, residual norm) per sweep that did not stop
        mix = extremal._anderson_mix

        def recording(outputs, residuals, vols, M_target):
            calls.append((len(outputs), float(np.linalg.norm(residuals[-1]))))
            return mix(outputs, residuals, vols, M_target)

        monkeypatch.setattr(extremal, "_anderson_mix", recording)
        el_fixed_point(grid96, kernel96, params, ratio * consts.M_star, tol=1e-9,
                       support_radius_init=1.0)
        best = last = math.inf
        since_best, mixing, entries = 0, True, 0
        for got, norm in calls:
            since_best = 0 if norm < best else since_best + 1
            best = min(best, norm)
            mixing = mixing and since_best < extremal._MIXING_STALL
            grew = norm > last
            entries = 1 if grew or not mixing else min(entries + 1,
                                                       extremal._MIXING_DEPTH + 1)
            last = norm
            assert got == entries
        assert calls[0][0] == 1  # the first sweep is a plain step
        assert max(got for got, _ in calls) == extremal._MIXING_DEPTH + 1

    def test_fewer_sweeps_over_the_matrix(self, mixing_matrix):
        mixed = sum(c[1].iterations for c in mixing_matrix.values())
        plain = sum(c[3][2] for c in mixing_matrix.values())
        assert mixed < plain  # 486 vs 690

    def test_critical_mass_in_half_the_sweeps(self, params, grid256, kernel256,
                                              monkeypatch):
        def search():
            sweeps = []
            solve = extremal._anchored_fixed_point

            def counted(*args):
                result = solve(*args)
                sweeps.append(result.iterations)
                return result

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(extremal, "_anchored_fixed_point", counted)
                M_c, _ = find_critical_mass(grid256, kernel256, params, rel_tol=1e-6,
                                            support_radius_init=1.0)
            return M_c, sum(sweeps)

        M_c, mixed_sweeps = search()
        monkeypatch.setattr(extremal, "_anchored_fixed_point",
                            plain_anchored_fixed_point)
        M_c_plain, plain_sweeps = search()
        assert mixed_sweeps <= 0.5 * plain_sweeps  # 38 vs 98, both warm-started
        # the search reads J, in which the two solves differ in the last
        # digits; measured gap 2.2e-13, rel_tol is 1e-6
        assert M_c == pytest.approx(M_c_plain, rel=1e-9, abs=0.0)
