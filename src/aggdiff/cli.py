"""Config-driven command line front end.

One subcommand per experiment family:

    constants   closed-form constants (plus measured ratio from a profile)
    extremal    steady-profile fixed point, saved as CSV + JSON sidecar
    simulate    a single solver run with diagnostics CSV
    dichotomy   sweep of mass ratios around the critical mass
    eps-study   regularisation convergence distances
    verify      property suite; exit code 2 when any check fails

Configuration lives in a JSON file merged over built-in defaults, with
``--set dotted.path=value`` overrides.  Reports embed the fully resolved
config and content hashes of every input file, carry no timestamps, and
are byte-stable for a fixed config and seed.

Exit codes: 0 success, 1 usage/config error, 2 verification failures,
3 runtime failure.  A ``simulate`` or ``dichotomy`` run that ends "failed"
(a non-finite state), and an ``eps-study`` with any run that does not
complete, exit 3 after the report is written.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import inspect
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import model
from .energy import vhls_ratio
from .errors import ConvergenceError, ParameterDomainError
from .extremal import el_fixed_point, find_critical_mass
from .field import (
    DensityField,
    RadialGrid,
    _random_bump_field,
    barenblatt_profile,
    hls_extremizer_profile,
    lp_norm,
    mass,
    read_field_csv,
    rearrange,
    scale,
    write_field_csv,
)
from .riesz import (_dense_matrix, build_kernel, check_alpha, check_epsilon,
                    interaction_energy)
from .solver import (
    SolverConfig,
    diagnostics_to_csv,
    dichotomy_run,
    epsilon_convergence_study,
    run,
)


class ConfigError(Exception):
    """Raised for malformed configuration or command usage."""


_REAL = (int, float)


def _ratio_tag(ratio) -> str:
    """A mass ratio's part of its diagnostics CSV name: 6 significant digits."""
    return f"ratio_{ratio:g}".replace(".", "p")


def _is_real(v) -> bool:
    """An int or float, not a bool, whose size a float holds: JSON reads
    Infinity and integers of any size.  NaN gets through here and fails
    every field's range check instead."""
    return (isinstance(v, _REAL) and not isinstance(v, bool)
            and not abs(v) > sys.float_info.max)


# One row per config field: (path, default, type, predicate, description).
# DEFAULT_CONFIG is built from these rows and validate_config walks them;
# a _REAL value must pass _is_real (so it is no infinity), and a predicate
# of None means that type check is the whole check here.  Solver defaults and
# ranges are SolverConfig's own, the dichotomy horizon's default
# dichotomy_run's, the 2 < 2s < d rule ModelParams', the epsilon rule
# riesz.check_epsilon's.
_FIELDS = [
    ("seed", 1234, int, lambda v: v >= 0, "non-negative integer"),
    ("model.d", 3, int, None, "integer"),
    ("model.s", 1.25, _REAL, None, "real"),
    ("model.epsilon", 0.0, _REAL, None, "real"),
    ("grid.n_cells", 512, int, lambda v: 8 <= v <= 4096, "integer in [8, 4096]"),
    ("grid.r_max", 4.0, _REAL, lambda v: v > 0.0, "positive real"),
    ("solver.cfl", SolverConfig.cfl, _REAL, None, "real"),
    ("solver.t_end", 0.05, _REAL, None, "real"),
    ("solver.blowup_factor", SolverConfig.blowup_factor, _REAL, None, "real"),
    ("solver.output_every", SolverConfig.output_every, int, None, "integer"),
    ("experiment.mass_ratios", [0.5, 0.9, 1.5, 2.0], list,
     lambda v: (all(_is_real(x) and x > 0 for x in v)
                and len({_ratio_tag(x) for x in v}) == len(v)),
     "list of positive reals distinct to 6 significant digits"),
    ("experiment.eps_list", [0.2, 0.1, 0.05, 0.025], list,
     lambda v: all(_is_real(x) for x in v), "list of reals"),
    ("experiment.n_random_fields", 40, int, lambda v: v >= 1, "integer >= 1"),
    ("experiment.t_fix", 0.005, _REAL, lambda v: v > 0.0, "positive real"),
    ("experiment.t_end_diffusive_times",
     inspect.signature(dichotomy_run).parameters["diffusive_times"].default,
     _REAL, lambda v: v > 0.0, "positive real"),
    ("experiment.mass_target", "closed_form", str,
     lambda v: v in ("closed_form", "measured"), "'closed_form' or 'measured'"),
    ("experiment.fixed_point.tol", 1e-10, _REAL, lambda v: v > 0.0, "positive real"),
    ("experiment.fixed_point.max_iter", 500, int, lambda v: v >= 1, "integer >= 1"),
    ("experiment.fixed_point.support_radius", 1.0, _REAL, lambda v: v > 0.0,
     "positive real"),
    *((f"experiment.tolerances.{name}", default, _REAL, lambda v: v >= 0.0,
       "non-negative real")
      for name, default in [("hls_ratio", 0.02), ("vhls_margin", 0.02),
                            ("virial", 0.05), ("dissipation", 0.05),
                            ("scaling", 0.01), ("energy_drift", 1e-8),
                            ("mass_drift", 1e-10)]),
    ("output.directory", "out", str, lambda v: len(v) > 0, "non-empty string"),
]
_PATHS = [row[0] for row in _FIELDS]


def _set_path(tree, dotted, value):
    if dotted not in _PATHS:
        if any(path.startswith(f"{dotted}.") for path in _PATHS):
            raise ConfigError(f"config section '{dotted}' cannot be set whole; "
                              f"set its fields as '{dotted}.<field>'")
        raise ConfigError(f"unknown config field '{dotted}'")
    *sections, leaf = dotted.split(".")
    for part in sections:
        tree = tree.setdefault(part, {})
    tree[leaf] = value


DEFAULT_CONFIG: dict = {}
for _path, _default, *_ in _FIELDS:
    _set_path(DEFAULT_CONFIG, _path, _default)
del _path, _default


def _merge(base: dict, override: dict, prefix="") -> None:
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config field '{path}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config field '{path}' must be an object")
            _merge(base[key], value, prefix=f"{path}.")
        else:
            base[key] = value


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override '{text}' is not of the form path=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings allowed
    return key.strip(), value


def load_config(path: str | None, overrides) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        _merge(cfg, data)
    for item in overrides or []:
        key, value = _parse_override(item)
        _set_path(cfg, key, value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    for path, _, types, pred, desc in _FIELDS:
        value = cfg
        for part in path.split("."):
            value = value[part]
        if (isinstance(value, bool) or not isinstance(value, types)
                or (types is _REAL and not _is_real(value))
                or (pred is not None and not pred(value))):
            raise ConfigError(f"config field '{path}' must be {desc}, got {value!r}")
    for path, values in (("model.epsilon", [cfg["model"]["epsilon"]]),
                         ("experiment.eps_list", cfg["experiment"]["eps_list"])):
        for eps in values:
            try:
                check_epsilon(eps)
            except ParameterDomainError as exc:
                raise ConfigError(f"config field '{path}': {exc}") from exc
    d, s = cfg["model"]["d"], cfg["model"]["s"]
    try:
        model.derived_constants(model.ModelParams(d=d, s=s))
    except ParameterDomainError as exc:
        raise ConfigError(f"config fields 'model.d'/'model.s': {exc}") from exc
    except OverflowError as exc:  # special.gamma's range ends near 142
        raise ConfigError(f"config fields 'model.d'/'model.s': the closed-form "
                          f"constants overflow double precision at d={d}, s={s}"
                          ) from exc
    # one field at a time over the (valid) defaults, so a failure is that field's
    solver_defaults = SolverConfig(**DEFAULT_CONFIG["solver"])
    for name, value in cfg["solver"].items():
        try:
            replace(solver_defaults, **{name: value})
        except ValueError as exc:
            raise ConfigError(f"config field 'solver.{name}': {exc}") from exc


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _write_report(cfg: dict, command: str, results: dict, input_hashes: dict) -> Path:
    outdir = Path(cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": command,
        "config": cfg,
        "config_sha256": _sha256_bytes(_canonical_json(cfg).encode()),
        "input_hashes": input_hashes,
        "results": results,
    }
    path = outdir / "report.json"
    path.write_text(_canonical_json(report) + "\n")
    return path


def _check_kernel_params(params: model.ModelParams) -> None:
    """alpha = d - 2s in (0, 2), asked only of commands that build a kernel."""
    try:
        check_alpha(params.alpha)
    except ParameterDomainError as exc:
        raise ConfigError(f"config fields 'model.d'/'model.s': {exc}") from exc


def _build_workspace(cfg: dict, bump_ratio: float, profile: str | None = None):
    """(params, grid, kernel, start): :func:`_checked_start`'s, with the
    configured kernel built after every check."""
    params, grid, start = _checked_start(cfg, bump_ratio, profile)
    kernel = build_kernel(grid, params.s, epsilon=cfg["model"]["epsilon"])
    return params, grid, kernel, start


def _checked_start(cfg: dict, bump_ratio: float, profile: str | None = None):
    """(params, grid, start), with the (d, s) pair checked for a kernel.
    ``start`` is what :func:`_load_profile` returns for the given path, or
    without one the like triple for the :func:`_start_profile` bump at
    ``bump_ratio`` times M*.  That is the largest mass a command puts in the
    bump, except for the measured critical-mass search: it starts at M*, and
    its later masses (about 1.02 M* at d = 3, 1.12-1.13 M* at d = 4) are
    not known before it runs."""
    params = model.ModelParams(d=cfg["model"]["d"], s=cfg["model"]["s"])
    _check_kernel_params(params)
    try:  # the range rule is RadialGrid's
        grid = RadialGrid.uniform(cfg["grid"]["n_cells"], cfg["grid"]["r_max"],
                                  d=params.d)
    except ValueError as exc:
        raise ConfigError(f"config field 'grid.r_max': {exc}") from exc
    if profile is not None:  # a profile replaces the start bump and its radius
        return params, grid, _load_profile(profile, params, grid)
    try:  # the radius and density rules are barenblatt_profile's
        bump = _start_profile(cfg, params, grid, bump_ratio)
    except (ParameterDomainError, OverflowError) as exc:
        raise ConfigError(f"config fields 'grid.r_max'/'experiment.fixed_point."
                          f"support_radius': {exc}") from exc
    return params, grid, (bump, mass(bump), {})


def _solver_config(cfg: dict, **overrides) -> SolverConfig:
    """The configured solver fields, which are SolverConfig's, with overrides."""
    return SolverConfig(**{**cfg["solver"], **overrides})


def _load_profile(path: str, params: model.ModelParams,
                  grid: RadialGrid | None = None):
    """Field, reference mass and input hashes of a profile CSV, which
    holds the exact grid and is read in the configured dimension.  A JSON
    sidecar beside it may hold metadata: its ``d`` and ``s`` must equal
    the configured ``model.d`` and ``model.s``, and its ``M_target``, the
    reference mass (the profile's own mass without it), must be a
    positive real.  Given the configured ``grid``, the profile must live
    on it.  An unreadable, malformed or mismatched file is a
    :class:`ConfigError` naming it."""
    csv_path = Path(path)
    sidecar = csv_path.with_suffix(".json")
    meta = {}
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
            if not isinstance(meta, dict):
                raise ValueError("top level must be a JSON object")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"profile sidecar {sidecar}: {exc}") from exc
        for key, what, configured in (("d", "grid dimension", params.d),
                                      ("s", "kernel order", params.s)):
            if key in meta and meta[key] != configured:
                raise ConfigError(
                    f"profile sidecar {sidecar}: '{key}' = {meta[key]!r} does not "
                    f"match configured {what} 'model.{key}' = {configured!r}")
        if "M_target" in meta and not (_is_real(meta["M_target"])
                                       and meta["M_target"] > 0):
            raise ConfigError(f"profile sidecar {sidecar}: 'M_target' must be a "
                              f"positive real, got {meta['M_target']!r}")
    try:
        field = read_field_csv(csv_path, d=params.d)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"profile {csv_path}: {exc}") from exc
    if grid is not None and field.grid != grid:
        raise ConfigError(f"profile {csv_path}: grid does not match configured grid")
    hashes = {str(csv_path): _sha256_bytes(csv_path.read_bytes())}
    if sidecar.exists():
        hashes[str(sidecar)] = _sha256_bytes(sidecar.read_bytes())
    return field, float(meta.get("M_target", mass(field))), hashes


_START_RATIO = 0.5  # the start's mass over M*


def _start_profile(cfg: dict, params, grid, ratio: float = _START_RATIO) -> DensityField:
    """A Barenblatt bump of radius ``experiment.fixed_point.support_radius``
    holding ``ratio`` times M*; by default the start of simulate, eps-study
    and verify."""
    return barenblatt_profile(grid, ratio * model.derived_constants(params).M_star,
                              cfg["experiment"]["fixed_point"]["support_radius"],
                              params.m)


def _compute_extremal(cfg: dict, params, grid, kernel):
    fp = cfg["experiment"]["fixed_point"]
    if cfg["experiment"]["mass_target"] == "measured":
        # the critical mass read off the steady profile's ratio J
        M_target, result = find_critical_mass(
            grid, kernel, params, fp_tol=fp["tol"], max_iter=fp["max_iter"],
            support_radius_init=fp["support_radius"],
        )
    else:
        M_target = model.derived_constants(params).M_star
        result = el_fixed_point(
            grid, kernel, params, M_target,
            tol=fp["tol"], max_iter=fp["max_iter"],
            support_radius_init=fp["support_radius"],
        )
    return result, M_target


def _exit_code(statuses) -> int:
    """3 when any run ended "failed", else 0; the report is written first."""
    if "failed" in statuses:
        print("runtime failure: a run reached a non-finite state", file=sys.stderr)
        return 3
    return 0


def cmd_constants(cfg: dict, profile: str | None = None) -> int:
    params = model.ModelParams(d=cfg["model"]["d"], s=cfg["model"]["s"])
    consts = model.derived_constants(params)
    results = {
        "d": params.d,
        "s": params.s,
        "m": params.m,
        "alpha": params.alpha,
        "c_ds": consts.c_ds,
        "C_hls": consts.C_hls,
        "C_star_upper": consts.C_star_upper,
        "M_star": consts.M_star,
    }
    input_hashes = {}
    if profile is not None:
        _check_kernel_params(params)
        field, _, hashes = _load_profile(profile, params)
        input_hashes.update(hashes)
        kernel = build_kernel(field.grid, params.s, epsilon=cfg["model"]["epsilon"])
        measured = vhls_ratio(field, kernel, params)
        results["C_star_measured"] = measured
        results["M_star_measured"] = model.critical_mass(params.d, params.s, measured)
        results["profile_mass"] = mass(field)
    _write_report(cfg, "constants", results, input_hashes)
    print(_canonical_json(results))
    return 0


def cmd_extremal(cfg: dict) -> int:
    params, grid, kernel, _ = _build_workspace(cfg, 1.0)
    result, M_target = _compute_extremal(cfg, params, grid, kernel)
    outdir = Path(cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    tag = "extremal"
    csv_path = outdir / f"profile_{tag}.csv"
    write_field_csv(result.U, csv_path)
    sidecar = {
        "d": params.d,
        "s": params.s,
        "J_value": result.J_value,
        "lambda_bar": result.lambda_bar,
        "el_residual": result.el_residual,
        "multiplier_defect": result.multiplier_defect,
        "M_target": M_target,
        "support_radius": result.support_radius,
        "iterations": result.iterations,
    }
    (outdir / f"profile_{tag}.json").write_text(_canonical_json(sidecar) + "\n")
    _write_report(cfg, "extremal", sidecar, {})
    print(_canonical_json(sidecar))
    return 0


def cmd_simulate(cfg: dict, profile: str | None = None) -> int:
    params, grid, kernel, (u0, _, input_hashes) = _build_workspace(cfg, _START_RATIO,
                                                                   profile)
    outcome = run(u0, kernel, params, _solver_config(cfg))
    outdir = Path(cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    diagnostics_to_csv(outcome.diagnostics, outdir / "diagnostics_simulate.csv")
    results = {
        "status": outcome.status,
        "t_detect": outcome.t_detect,
        "reason": outcome.reason,
        "steps": outcome.final_state.step_count,
        "t_final": outcome.final_state.t,
        "mass_initial": mass(u0),
        "mass_final": mass(outcome.final_state.u),
        "blowup_time_upper_bound": outcome.blowup_time_upper_bound,
        "boundary_mass_flux_total": outcome.boundary_mass_flux_total,
        "clipped_mass_total": outcome.clipped_mass_total,
    }
    _write_report(cfg, "simulate", results, input_hashes)
    print(_canonical_json(results))
    return _exit_code([outcome.status])


# A dichotomy worker's inputs: the pool's initializer sets them in each forked
# worker, never in the parent, and the fork hands them over unpickled.
_dichotomy_inputs: tuple = ()


def _set_dichotomy_inputs(*inputs) -> None:
    global _dichotomy_inputs
    _dichotomy_inputs = inputs


def _dichotomy_task(ratio):
    """One mass ratio's run in a worker: (report table entry, diagnostics)."""
    U, M_ref, kernel, params, config, diffusive_times = _dichotomy_inputs
    entry, outcome = dichotomy_run(U, ratio, M_ref, kernel, params, config,
                                   diffusive_times=diffusive_times)
    return entry, outcome.diagnostics


def cmd_dichotomy(cfg: dict, profile: str | None = None) -> int:
    params, grid, kernel, (U, M_star, input_hashes) = _build_workspace(cfg, 1.0,
                                                                       profile)
    if profile is None:  # U and M* come from the fixed point, not the checked bump
        result, M_star = _compute_extremal(cfg, params, grid, kernel)
        U = result.U
    outdir = Path(cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    ratios = cfg["experiment"]["mass_ratios"]
    rows = []
    if ratios:
        # the runs are independent: one worker per ratio, up to the usable
        # cores; results come back in ratio order.  Forked, not spawned: a
        # forked worker inherits the kernel and profile and imports nothing,
        # and the executor forks every worker before it starts its thread.
        # A raise or a killed worker cancels the ratios not yet handed out.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            min(len(ratios), len(os.sched_getaffinity(0))),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_set_dichotomy_inputs,
            initargs=(U, M_star, kernel, params, _solver_config(cfg),
                      cfg["experiment"]["t_end_diffusive_times"]))
        try:
            for ratio, (entry, diagnostics) in zip(
                    ratios, pool.map(_dichotomy_task, ratios)):
                diagnostics_to_csv(diagnostics,
                                   outdir / f"diagnostics_{_ratio_tag(ratio)}.csv")
                rows.append(entry)
        except ParameterDomainError as exc:  # dichotomy_run's rule on F(u0)
            raise ConfigError(f"config field 'experiment.mass_ratios': {exc}") from exc
        finally:  # waits for the runs already handed out
            pool.shutdown(cancel_futures=True)
    results = {"M_star": M_star, "table": rows}
    _write_report(cfg, "dichotomy", results, input_hashes)
    print(_canonical_json(results))
    return _exit_code([entry["status"] for entry in rows])


def cmd_eps_study(cfg: dict) -> int:
    # the study builds one kernel per epsilon, so none is built here
    params, _, (u0, _, _) = _checked_start(cfg, _START_RATIO)
    statuses, distances = epsilon_convergence_study(
        u0, params, cfg["experiment"]["eps_list"],
        _solver_config(cfg, t_end=cfg["experiment"]["t_fix"]))
    decreasing = distances is not None and all(
        a > b for a, b in zip(distances, distances[1:]))
    results = {
        "eps_list": cfg["experiment"]["eps_list"],
        "statuses": statuses,
        "l1_distances": distances,
        "strictly_decreasing": decreasing,
    }
    _write_report(cfg, "eps-study", results, {})
    print(_canonical_json(results))
    if distances is None:
        print(f"runtime failure: eps-study runs ended {statuses}; "
              "every run must complete", file=sys.stderr)
        return 3
    return 0


def _verify_checks(cfg: dict):
    """Yield (name, passed, details) for every property check."""
    # the scaling check's bump holds M*, the run's start _START_RATIO times M*
    params, grid, kernel, (base, _, _) = _build_workspace(cfg, 1.0)
    consts = model.derived_constants(params)
    tol = cfg["experiment"]["tolerances"]
    rng = np.random.default_rng(cfg["seed"])

    K = _dense_matrix(grid, params.s, kernel.epsilon)
    sym_gap = float(np.max(np.abs(K - K.T)))
    del K  # an N x N matrix the FFT path never otherwise forms
    yield "kernel_symmetry", sym_gap == 0.0, {"max_asymmetry": sym_gap}

    ext_grid = RadialGrid.uniform(512, 50.0, d=params.d)
    ext_kernel = build_kernel(ext_grid, params.s)
    f = hls_extremizer_profile(ext_grid, 1.0, 1.0, params.s)
    q = 2.0 * params.d / (params.d + 2.0 * params.s)
    ratio = interaction_energy(ext_kernel, f) / lp_norm(f, q) ** 2
    gap = abs(ratio - consts.C_hls) / consts.C_hls
    yield "hls_extremizer_ratio", gap <= tol["hls_ratio"], {
        "ratio": ratio, "C_hls": consts.C_hls, "relative_gap": gap}

    worst = 0.0
    for _ in range(cfg["experiment"]["n_random_fields"]):
        u = DensityField(grid, _random_bump_field(rng, grid))
        try:  # on a tiny grid M^(2s/d) ||u||_m^m underflows
            worst = max(worst, vhls_ratio(u, kernel, params) / consts.C_hls)
        except ValueError as exc:
            raise ConfigError(f"config field 'grid.r_max': {exc}") from exc
    yield "vhls_bound_random_fields", worst <= 1.0 + tol["vhls_margin"], {
        "worst_ratio_over_C": worst}

    violations = 0
    small_grid = RadialGrid.uniform(96, grid.r_max, d=params.d)
    small_kernel = build_kernel(small_grid, params.s)
    for _ in range(cfg["experiment"]["n_random_fields"]):
        u = DensityField(small_grid, _random_bump_field(rng, small_grid))
        u_star = rearrange(u)
        k_star = build_kernel(u_star.grid, params.s)
        if interaction_energy(k_star, u_star) < interaction_energy(small_kernel, u) * (1 - 1e-9):
            violations += 1
    yield "rearrangement_interaction_monotone", violations == 0, {
        "violations": violations}

    cfg_run = _solver_config(cfg, t_end=cfg["experiment"]["t_fix"], output_every=5)
    outcome = run(_start_profile(cfg, params, grid), kernel, params, cfg_run)
    rows = outcome.diagnostics
    mass_drift = max(abs(r.mass - rows[0].mass) / rows[0].mass for r in rows)
    yield "mass_conservation", mass_drift <= tol["mass_drift"], {
        "relative_drift": mass_drift}

    F0 = abs(rows[0].F)
    energy_ok = all(b.F <= a.F + tol["energy_drift"] * F0
                    for a, b in zip(rows, rows[1:]))
    yield "energy_monotone", energy_ok, {"F_initial": rows[0].F,
                                         "F_final": rows[-1].F}

    vir_gap = _max_identity_gap(rows, lambda a, b, dt: (
        (b.m2 - a.m2) / dt, a.virial_rhs))
    yield "virial_identity", vir_gap <= tol["virial"], {"max_relative_gap": vir_gap}

    dis_gap = _max_identity_gap(rows, lambda a, b, dt: (
        (b.F - a.F) / dt, -a.D))
    yield "dissipation_identity", dis_gap <= tol["dissipation"], {
        "max_relative_gap": dis_gap}

    J_base = vhls_ratio(base, kernel, params)
    worst_scale = 0.0
    for lam in (0.5, 2.0):
        for mu in (0.5, 2.0):
            scaled = scale(base, lam, mu)
            k_scaled = build_kernel(scaled.grid, params.s)
            J_scaled = vhls_ratio(scaled, k_scaled, params)
            worst_scale = max(worst_scale, abs(J_scaled - J_base) / J_base)
    yield "vhls_scaling_invariance", worst_scale <= tol["scaling"], {
        "max_relative_deviation": worst_scale}

    K_loose = _dense_matrix(grid, params.s, 0.2)
    K_tight = _dense_matrix(grid, params.s, 0.1)
    yield "kernel_epsilon_monotone", bool(np.all(K_tight >= K_loose)), {
        "min_entry_gap": float(np.min(K_tight - K_loose))}


def _max_identity_gap(rows, pair_fn):
    worst = 0.0
    for a, b in zip(rows, rows[1:]):
        dt = b.t - a.t
        if dt <= 0.0:
            continue
        lhs, rhs = pair_fn(a, b, dt)
        denom = max(abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def cmd_verify(cfg: dict) -> int:
    checks = []
    failures = 0
    for name, passed, details in _verify_checks(cfg):
        passed = bool(passed)
        details = {k: (float(v) if isinstance(v, np.floating) else v)
                   for k, v in details.items()}
        checks.append({"name": name, "passed": passed, "details": details})
        if not passed:
            failures += 1
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    results = {"checks": checks, "failures": failures}
    _write_report(cfg, "verify", results, {})
    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


def _commands() -> dict:
    """Subcommand name -> (handler, takes --profile).  Built per call so the
    handler is whatever the module attribute holds at that time."""
    return {
        "constants": (cmd_constants, True),
        "extremal": (cmd_extremal, False),
        "simulate": (cmd_simulate, True),
        "dichotomy": (cmd_dichotomy, True),
        "eps-study": (cmd_eps_study, False),
        "verify": (cmd_verify, False),
    }


def _build_parser(commands: dict) -> _Parser:
    parser = _Parser(prog="aggdiff", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                        help="override a config field (JSON-typed value)")
    common.add_argument("--out", help="output directory (overrides config)")
    for name, (_, takes_profile) in commands.items():
        p = sub.add_parser(name, parents=[common])
        if takes_profile:
            p.add_argument("--profile", help="steady profile CSV (sidecar optional)")
    return parser


def main(argv=None) -> int:
    try:
        commands = _commands()
        args = _build_parser(commands).parse_args(argv)
        cfg = load_config(args.config, args.set)
        if args.out:
            cfg["output"]["directory"] = args.out
        handler, takes_profile = commands[args.command]
        if takes_profile:
            return handler(cfg, args.profile)
        return handler(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        import traceback

        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
