"""The three benchmark workloads and the checks on their outputs.

Each ``main`` is one repetition of a workload's main phase. It calls into
aggdiff only through module attributes resolved at call time (``ad.solver.run``,
not a name bound at import), so the tracer's wrappers see every call, and it
records every output check in a ``Checks``. The check time is part of the
timed main phase: ``solve_s`` is the time to a verified number.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Measured critical mass on the 4096-cell grid (R_max = 4, bracket
# [M*, 1.08 M*], rel_tol 1e-6) at the commit that introduced this benchmark.
M_C_4096_REFERENCE = 150.22863527300802
# ~180 explicit steps from 0.5 M_c on the 4096-cell grid.
SHORT_RUN_T_END = 1.0e-5
N_MONOTONICITY_FIELDS = 100


class Checks:
    """Gated output checks plus ungated reported values."""

    def __init__(self):
        self.gated = []  # (name, passed, value)
        self.notes = []  # (name, value)

    def gate(self, name: str, passed: bool, value=None) -> None:
        self.gated.append((name, bool(passed), value))

    def note(self, name: str, value) -> None:
        self.notes.append((name, value))

    @property
    def failed(self) -> int:
        return sum(not passed for _, passed, _ in self.gated)


@dataclass(frozen=True)
class Workload:
    name: str
    n_cells: int  # main uniform grid
    r_max: float
    kernel_in_setup: bool  # False: the workload builds its own kernel
    setup_samples: int
    main: Callable  # (workspace, seed, rep, outdir, checks) -> None


def _read_diagnostics(path: Path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _mass_drift(masses) -> float:
    return max(abs(m - masses[0]) / masses[0] for m in masses)


def dichotomy_256(ws, seed, rep, outdir, checks) -> None:
    """``aggdiff dichotomy`` at 256 cells with the measured critical mass."""
    ad, params = ws["ad"], ws["params"]
    out = outdir / f"dichotomy-rep{rep}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = ad.cli.main(["dichotomy", "--set", "grid.n_cells=256",
                            "--set", "experiment.mass_target=measured",
                            "--out", str(out)])
    checks.gate("cli_exit_code", code == 0, code)
    if code != 0:
        return
    table = json.loads((out / "report.json").read_text())["results"]["table"]
    statuses = [row["status"] for row in table]
    checks.gate("statuses", statuses == ["completed", "completed", "blowup", "blowup"],
                statuses)
    virial_slope = 2.0 * (params.d - 2.0 * params.s)
    for row in table:
        ratio = row["mass_ratio"]
        tag = f"ratio_{ratio:g}".replace(".", "p")
        diag = _read_diagnostics(out / f"diagnostics_{tag}.csv")
        drift = _mass_drift([r["mass"] for r in diag])
        checks.gate(f"mass_drift[{ratio:g}]", drift <= 1e-10, drift)
        if ratio < 1.0:
            share = row["sup_lm_norm_power_m"] / row["ge_bound_lm_power_m"]
            checks.gate(f"sup_lm_m_over_bound[{ratio:g}]", share <= 1.10, share)
        else:
            chord = row["blowup_time_upper_bound"]
            t_detect = row["t_detect"]
            share = t_detect / chord if t_detect is not None else float("inf")
            checks.gate(f"t_detect_over_chord[{ratio:g}]", share <= 1.5, share)
            # criterion-6 chord excess: first order in dr, so above the 0.005
            # allowed at 512 cells; reported, not gated
            m20 = diag[0]["m2"]
            excess = max((r["m2"] - (m20 + virial_slope * row["F0"] * r["t"])) / m20
                         for r in diag)
            checks.note(f"chord_excess[{ratio:g}]", excess)


def critical_4096(ws, seed, rep, outdir, checks) -> None:
    """Critical-mass bisection and a short subcritical run on 4096 cells."""
    ad, params, consts = ws["ad"], ws["params"], ws["consts"]
    grid, kernel = ws["grid"], ws["kernel"]
    M_c, steady = ad.extremal.find_critical_mass(
        grid, kernel, params, consts.M_star, 1.08 * consts.M_star,
        rel_tol=1e-6, support_radius_init=1.0)
    checks.gate("el_residual", steady.el_residual <= 1e-3, steady.el_residual)
    checks.gate("fixed_point_iterations", steady.iterations <= 500, steady.iterations)
    gap = abs(M_c - M_C_4096_REFERENCE) / M_C_4096_REFERENCE
    checks.gate("M_c_vs_reference", gap <= 1e-4, gap)
    u0 = ad.extremal.blowup_initial_data(steady.U, 0.5 * M_c, params)
    out = ad.solver.run(u0, kernel, params, ad.solver.SolverConfig(t_end=SHORT_RUN_T_END))
    checks.gate("run_status", out.status == "completed", out.status)
    drift = _mass_drift([row.mass for row in out.diagnostics])
    checks.gate("run_mass_drift", drift <= 1e-10, drift)
    checks.gate("run_clipped_mass", out.clipped_mass_total == 0.0, out.clipped_mass_total)


def _random_bump_field(np, rng, centers, r_max):
    """Seeded non-negative field: Gaussian bumps plus an occasional slab
    (the acceptance suite's criterion-3 family)."""
    vals = np.zeros_like(centers)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0.0, 0.6 * r_max)
        w = rng.uniform(0.05, 0.3) * r_max
        vals += rng.uniform(0.1, 1.0) * np.exp(-0.5 * ((centers - c) / w) ** 2)
    if rng.random() < 0.3:
        vals += rng.uniform(0.2, 1.0) * (centers < rng.uniform(0.2, 0.5) * r_max)
    return vals


def ratio_search(ws, seed, rep, outdir, checks) -> None:
    """Seeded ratio maximiser, then rearrangement monotonicity with a kernel
    built on each rearranged field's exact non-uniform grid."""
    import numpy as np  # not at module level: run.py imports this module
    # before it times the import of aggdiff, numpy included

    ad, params = ws["ad"], ws["params"]
    grid, kernel = ws["grid"], ws["kernel"]
    C_hls = ws["consts"].C_hls
    rng = np.random.default_rng([seed, rep])
    best = ad.extremal.maximize_vhls(grid, kernel, params, n_starts=10,
                                     seed=int(rng.integers(2 ** 32)))
    checks.gate("maximiser_J_over_C_hls", best.J_value <= C_hls, best.J_value / C_hls)
    worst = 0.0
    violations = 0
    for _ in range(N_MONOTONICITY_FIELDS):
        u = ad.field.DensityField(grid, _random_bump_field(np, rng, grid.centers, grid.r_max))
        worst = max(worst, ad.energy.vhls_ratio(u, kernel, params) / C_hls)
        u_star = ad.field.rearrange(u)
        k_star = ad.riesz.build_kernel(u_star.grid, params.s)
        if (ad.riesz.interaction_energy(k_star, u_star)
                < ad.riesz.interaction_energy(kernel, u) * (1.0 - 1e-9)):
            violations += 1
    checks.gate("monotonicity_violations", violations == 0, violations)
    checks.gate("sampled_J_over_C_hls", worst <= 1.02, worst)


WORKLOADS = {
    w.name: w for w in (
        Workload("dichotomy-256", 256, 4.0, kernel_in_setup=False, setup_samples=7,
                 main=dichotomy_256),
        Workload("critical-4096", 4096, 4.0, kernel_in_setup=True, setup_samples=3,
                 main=critical_4096),
        Workload("ratio-search", 256, 3.0, kernel_in_setup=True, setup_samples=7,
                 main=ratio_search),
    )
}
