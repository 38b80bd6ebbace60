"""Per-layer metrics of the traced run.

Three sources, all measured from outside aggdiff:

- spans of the traced functions in ``TRACED``, aggregated per name (calls,
  total and self time) plus exact counts read off their results;
- figures computed from the main grid's size (kernel memory, matvec flops
  and bytes: labelled computed, since at 4096 cells K fits in a 300 MiB L3);
- a layer sweep over N in ``SWEEP_SIZES``, timing one call of each layer.

Naming: ``X.calls`` is a call count, ``X.s`` total seconds, ``X.us`` mean
microseconds per call, ``X.self_s``/``X.self_us`` the same without the time
spent in traced children. ``.nN`` marks a sweep figure at N cells.
"""

from __future__ import annotations

import statistics
import time

# (span name, module, attribute): the attribute resolves the original
# function; the tracer then wraps it on every aggdiff module that holds it.
TRACED = (
    ("solver.run", "solver", "run"),
    ("energy.chemical_potential", "energy", "chemical_potential"),
    ("energy.energy_report", "energy", "energy_report"),
    ("energy.vhls_ratio", "energy", "vhls_ratio"),
    ("riesz.build_kernel", "riesz", "build_kernel"),
    ("riesz.potential", "riesz", "potential"),
    ("riesz.interaction_energy", "riesz", "interaction_energy"),
    ("field.rearrange", "field", "rearrange"),
    ("field.project_onto", "field", "project_onto"),
    ("extremal.find_critical_mass", "extremal", "find_critical_mass"),
    ("extremal.el_fixed_point", "extremal", "el_fixed_point"),
    ("extremal.maximize_vhls", "extremal", "maximize_vhls"),
    ("cli.dichotomy", "cli", "cmd_dichotomy"),
    ("cli.diagnostics_to_csv", "solver", "diagnostics_to_csv"),
)


def _count_run(counts, outcome):
    counts["solver.steps"] += outcome.final_state.step_count
    counts["solver.diag_rows"] += len(outcome.diagnostics)


def _count_sweeps(counts, result):
    counts["extremal.sweeps"] += result.iterations


def _count_moves(counts, result):
    # iterations of maximize_vhls: accepted moves of the best start
    counts["extremal.accepted_moves"] += result.iterations


_HOOKS = {
    "solver.run": _count_run,
    "extremal.el_fixed_point": _count_sweeps,
    "extremal.maximize_vhls": _count_moves,
}

SWEEP_SIZES = (256, 1024, 4096)
_SWEEP_REPS = {256: 40, 1024: 15, 4096: 5}
_SWEEP_R_MAX = 4.0


def targets(ad):
    return [(name, getattr(getattr(ad, module), attr), _HOOKS.get(name))
            for name, module, attr in TRACED]


def _median_us(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def geometry_us(grid, reps: int = 200) -> float:
    """One ``shell_volumes`` + ``centers`` + ``face_areas`` access."""
    return _median_us(lambda: (grid.shell_volumes, grid.centers, grid.face_areas), reps)


def span_metrics(tracer, grid) -> dict:
    """name -> (value, unit) from the traced main phase and the main grid."""
    stats = tracer.stats()
    counts = tracer.counts

    def get(name):
        st = stats.get(name)
        return (st.calls, st.total_s, st.self_s) if st else (0, 0.0, 0.0)

    def per_call_us(seconds, calls):
        return seconds / calls * 1e6 if calls else 0.0

    out = {}
    _, run_s, run_self_s = get("solver.run")
    steps = counts["solver.steps"]
    out["solver.run.s"] = (run_s, "s")
    out["solver.run.self_s"] = (run_self_s, "s")
    out["solver.us_per_step"] = (per_call_us(run_s, steps), "us")
    out["solver.steps"] = (steps, "count")
    out["solver.diag_rows"] = (counts["solver.diag_rows"], "count")

    calls, _, self_s = get("energy.chemical_potential")
    out["energy.chemical_potential.calls"] = (calls, "count")
    out["energy.chemical_potential.self_us"] = (per_call_us(self_s, calls), "us")
    for name in ("energy.energy_report", "energy.vhls_ratio"):
        calls, total, _ = get(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.us"] = (per_call_us(total, calls), "us")

    calls, total, _ = get("riesz.build_kernel")
    out["riesz.build_kernel.s"] = (total, "s")
    out["riesz.build_kernel.calls"] = (calls, "count")
    for name in ("riesz.potential", "riesz.interaction_energy",
                 "field.rearrange", "field.project_onto"):
        calls, total, _ = get(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.us"] = (per_call_us(total, calls), "us")
    n = grid.n_cells
    out["riesz.kernel_mib"] = (8.0 * n * n / 2 ** 20, "MiB")
    out["riesz.matvec_flops"] = (2 * n * n, "flop")
    out["riesz.matvec_bytes"] = (8 * n * n, "B")
    out["field.geometry.us"] = (geometry_us(grid), "us")

    out["extremal.find_critical_mass.s"] = (get("extremal.find_critical_mass")[1], "s")
    calls, _, self_s = get("extremal.el_fixed_point")
    out["extremal.el_fixed_point.calls"] = (calls, "count")
    out["extremal.sweeps"] = (counts["extremal.sweeps"], "count")
    out["extremal.el_fixed_point.self_s"] = (self_s, "s")
    out["extremal.maximize_vhls.s"] = (get("extremal.maximize_vhls")[1], "s")
    out["extremal.accepted_moves"] = (counts["extremal.accepted_moves"], "count")

    out["cli.dichotomy.s"] = (get("cli.dichotomy")[1], "s")
    out["cli.diagnostics_to_csv.s"] = (get("cli.diagnostics_to_csv")[1], "s")
    return out


def layer_sweep(ad, params, consts) -> dict:
    """One call of each layer, timed at every N in SWEEP_SIZES (medians)."""
    out = {}
    c_ds = consts.c_ds
    config = ad.solver.SolverConfig(t_end=1.0)
    for n in SWEEP_SIZES:
        reps = _SWEEP_REPS[n]
        grid = ad.RadialGrid.uniform(n, _SWEEP_R_MAX, d=params.d)
        kernel = None
        builds = []
        for _ in range(max(1, reps // 10)):
            kernel = None  # free the previous K before building the next
            start = time.perf_counter()
            kernel = ad.riesz.build_kernel(grid, params.s)
            builds.append(time.perf_counter() - start)
        u = ad.field.barenblatt_profile(grid, 0.5 * consts.M_star, 1.0, params.m)
        state = ad.solver.SolverState(t=0.0, u=u)
        out[f"riesz.build_kernel.s.n{n}"] = (statistics.median(builds), "s")
        out[f"riesz.potential.us.n{n}"] = (
            _median_us(lambda: ad.riesz.potential(kernel, u, c_ds), reps), "us")
        out[f"solver.step.us.n{n}"] = (
            _median_us(lambda: ad.solver.step(state, kernel, params, config, c_ds), reps),
            "us")
        out[f"energy.energy_report.us.n{n}"] = (
            _median_us(lambda: ad.energy.energy_report(u, kernel, params, c_ds), reps),
            "us")
        start = time.perf_counter()
        result = ad.extremal.el_fixed_point(grid, kernel, params, consts.M_star,
                                            support_radius_init=1.0)
        out[f"extremal.sweep.us.n{n}"] = (
            (time.perf_counter() - start) / result.iterations * 1e6, "us")
        out[f"field.geometry.us.n{n}"] = (geometry_us(grid), "us")
    return out
