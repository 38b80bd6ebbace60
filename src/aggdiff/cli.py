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
3 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import model
from .energy import free_energy, vhls_ratio
from .errors import ConvergenceError, GridMismatchError
from .extremal import blowup_initial_data, el_fixed_point, find_critical_mass
from .field import (
    DensityField,
    RadialGrid,
    barenblatt_profile,
    hls_extremizer_profile,
    lp_norm,
    mass,
    read_field_csv,
    rearrange,
    scale,
    write_field_csv,
)
from .riesz import RieszKernel, build_kernel, interaction_energy
from .solver import (
    SolverConfig,
    blowup_time_upper_bound,
    diagnostics_to_csv,
    diffusive_time,
    epsilon_convergence_study,
    run,
)


class ConfigError(Exception):
    """Raised for malformed configuration or command usage."""


DEFAULT_CONFIG = {
    "seed": 1234,
    "model": {"d": 3, "s": 1.25, "epsilon": 0.0},
    "grid": {"n_cells": 512, "r_max": 4.0},
    "solver": {
        "cfl": 0.4,
        "t_end": 0.05,
        "dt_min": 1e-13,
        "blowup_factor": 1e3,
        "output_every": 50,
    },
    "experiment": {
        "mass_ratios": [0.5, 0.9, 1.5, 2.0],
        "eps_list": [0.2, 0.1, 0.05, 0.025],
        "n_starts": 4,
        "n_random_fields": 40,
        "t_fix": 0.005,
        "t_end_diffusive_times": 5.0,
        "mass_target": "closed_form",
        "fixed_point": {"tol": 1e-10, "max_iter": 500, "support_radius": 1.0},
        "tolerances": {
            "hls_ratio": 0.02,
            "vhls_margin": 0.02,
            "virial": 0.05,
            "dissipation": 0.05,
            "scaling": 0.01,
            "energy_drift": 1e-8,
            "mass_drift": 1e-10,
        },
        "fault": None,
    },
    "output": {"directory": "out"},
}

# (path, type, predicate, description) triples drive validation with
# field-precise messages.
_NUMBER = (int, float)
_SCHEMA = [
    ("seed", int, lambda v: v >= 0, "non-negative integer"),
    ("model.d", int, lambda v: v >= 3, "integer >= 3"),
    ("model.s", _NUMBER, lambda v: v > 1.0, "real with 2 < 2s"),
    ("model.epsilon", _NUMBER, lambda v: v >= 0.0, "non-negative real"),
    ("grid.n_cells", int, lambda v: 8 <= v <= 4096, "integer in [8, 4096]"),
    ("grid.r_max", _NUMBER, lambda v: v > 0.0, "positive real"),
    ("solver.cfl", _NUMBER, lambda v: 0.0 < v <= 1.0, "real in (0, 1]"),
    ("solver.t_end", _NUMBER, lambda v: v > 0.0, "positive real"),
    ("solver.dt_min", _NUMBER, lambda v: v > 0.0, "positive real"),
    ("solver.blowup_factor", _NUMBER, lambda v: v > 1.0, "real > 1"),
    ("solver.output_every", int, lambda v: v >= 1, "integer >= 1"),
    ("experiment.mass_ratios", list, lambda v: all(x > 0 for x in v),
     "list of positive reals"),
    ("experiment.eps_list", list, lambda v: all(x >= 0 for x in v),
     "list of non-negative reals"),
    ("experiment.n_starts", int, lambda v: v >= 1, "integer >= 1"),
    ("experiment.n_random_fields", int, lambda v: v >= 1, "integer >= 1"),
    ("experiment.t_fix", _NUMBER, lambda v: v > 0.0, "positive real"),
    ("experiment.t_end_diffusive_times", _NUMBER, lambda v: v > 0.0, "positive real"),
    ("experiment.mass_target", str, lambda v: v in ("closed_form", "measured"),
     "'closed_form' or 'measured'"),
    ("experiment.fault", (str, type(None)), lambda v: v in (None, "asymmetric_kernel"),
     "null or 'asymmetric_kernel'"),
    ("experiment.fixed_point.tol", _NUMBER, lambda v: v > 0.0, "positive real"),
    ("experiment.fixed_point.max_iter", int, lambda v: v >= 1, "integer >= 1"),
    ("experiment.fixed_point.support_radius", _NUMBER, lambda v: v > 0.0,
     "positive real"),
    ("output.directory", str, lambda v: len(v) > 0, "non-empty string"),
]


_MISSING = object()


def _get_path(tree, dotted):
    node = tree
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def _set_path(tree, dotted, value):
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config section '{'.'.join(parts[:-1])}'")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config field '{dotted}'")
    node[parts[-1]] = value


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
    for path, types, pred, desc in _SCHEMA:
        value = _get_path(cfg, path)
        if value is _MISSING:
            raise ConfigError(f"config field '{path}' is missing")
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"config field '{path}' must be {desc}, got {value!r}")
        if not pred(value):
            raise ConfigError(f"config field '{path}' must be {desc}, got {value!r}")
    d = cfg["model"]["d"]
    s = cfg["model"]["s"]
    if not (2.0 < 2.0 * s < d):
        raise ConfigError(
            f"config fields 'model.d'/'model.s' must satisfy 2 < 2s < d, "
            f"got d={d}, s={s}"
        )


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


def _build_workspace(cfg: dict):
    params = model.ModelParams(d=cfg["model"]["d"], s=cfg["model"]["s"])
    grid = RadialGrid.uniform(cfg["grid"]["n_cells"], cfg["grid"]["r_max"],
                              d=params.d)
    kernel = build_kernel(grid, params.s, epsilon=cfg["model"]["epsilon"])
    if cfg["experiment"].get("fault") == "asymmetric_kernel":
        K = kernel.K.copy()
        K[0, -1] *= 1.01  # seeded fault for the verify suite
        kernel = RieszKernel(grid, params.s, kernel.epsilon, K)
    return params, grid, kernel


def _solver_config(cfg: dict, t_end: float | None = None, **overrides) -> SolverConfig:
    scfg = cfg["solver"]
    base = SolverConfig(
        t_end=t_end if t_end is not None else scfg["t_end"],
        cfl=scfg["cfl"],
        dt_min=scfg["dt_min"],
        blowup_factor=scfg["blowup_factor"],
        output_every=scfg["output_every"],
    )
    return replace(base, **overrides) if overrides else base


def _load_profile(path: str, d: int):
    """Field, sidecar metadata and input hashes of a profile CSV.  A sidecar
    that records the uniform grid (``n_cells``, ``r_max``) rebuilds it
    exactly; without one the edges come from the stored volumes."""
    csv_path = Path(path)
    sidecar = csv_path.with_suffix(".json")
    meta = {}
    grid = None
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        d = int(meta.get("d", d))
        if "n_cells" in meta and "r_max" in meta:
            grid = RadialGrid.uniform(int(meta["n_cells"]), float(meta["r_max"]), d=d)
    try:
        field = read_field_csv(csv_path, d=d, grid=grid)
    except GridMismatchError as exc:
        raise ConfigError(str(exc)) from exc
    hashes = {str(csv_path): _sha256_bytes(csv_path.read_bytes())}
    if sidecar.exists():
        hashes[str(sidecar)] = _sha256_bytes(sidecar.read_bytes())
    return field, meta, hashes


def _compute_extremal(cfg: dict, params, grid, kernel):
    consts = model.derived_constants(params)
    fp = cfg["experiment"]["fixed_point"]
    if cfg["experiment"]["mass_target"] == "measured":
        # bisect for the mass where the steady profile is exact; the
        # closed-form bound is always on the subcritical side
        M_target, result = find_critical_mass(
            grid, kernel, params, consts.M_star, 1.1 * consts.M_star,
            fp_tol=fp["tol"], max_iter=fp["max_iter"],
            support_radius_init=fp["support_radius"],
        )
    else:
        M_target = consts.M_star
        result = el_fixed_point(
            grid, kernel, params, M_target,
            tol=fp["tol"], max_iter=fp["max_iter"],
            support_radius_init=fp["support_radius"],
        )
    return result, M_target


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
        field, meta, hashes = _load_profile(profile, params.d)
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
    params, grid, kernel = _build_workspace(cfg)
    result, M_target = _compute_extremal(cfg, params, grid, kernel)
    outdir = Path(cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    tag = "extremal"
    csv_path = outdir / f"profile_{tag}.csv"
    write_field_csv(result.U, csv_path)
    sidecar = {
        "d": params.d,
        "s": params.s,
        "n_cells": grid.n_cells,
        "r_max": grid.r_max,
        "J_value": result.J_value,
        "lambda_bar": result.lambda_bar,
        "el_residual": result.el_residual,
        "M_target": M_target,
        "support_radius": result.support_radius,
        "iterations": result.iterations,
    }
    (outdir / f"profile_{tag}.json").write_text(_canonical_json(sidecar) + "\n")
    _write_report(cfg, "extremal", sidecar, {})
    print(_canonical_json(sidecar))
    return 0


def _initial_condition(cfg: dict, params, grid, consts, profile: str | None):
    hashes = {}
    if profile is not None:
        field, _, hashes = _load_profile(profile, params.d)
        if not field.grid.same_as(grid):
            raise ConfigError("profile grid does not match configured grid")
        return field, hashes
    fp = cfg["experiment"]["fixed_point"]
    u0 = barenblatt_profile(grid, 0.5 * consts.M_star, fp["support_radius"], params.m)
    return u0, hashes


def cmd_simulate(cfg: dict, profile: str | None = None) -> int:
    params, grid, kernel = _build_workspace(cfg)
    consts = model.derived_constants(params)
    u0, input_hashes = _initial_condition(cfg, params, grid, consts, profile)
    outcome = run(u0, kernel, params, _solver_config(cfg))
    outdir = Path(cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    diagnostics_to_csv(outcome.diagnostics, outdir / "diagnostics_simulate.csv")
    bound = blowup_time_upper_bound(u0, kernel, params)
    results = {
        "status": outcome.status,
        "t_detect": outcome.t_detect,
        "reason": outcome.reason,
        "steps": outcome.final_state.step_count,
        "t_final": outcome.final_state.t,
        "mass_initial": mass(u0),
        "mass_final": mass(outcome.final_state.u),
        "blowup_time_upper_bound": bound,
        "boundary_mass_flux_total": outcome.boundary_mass_flux_total,
        "clipped_mass_total": outcome.clipped_mass_total,
    }
    _write_report(cfg, "simulate", results, input_hashes)
    print(_canonical_json(results))
    return 0


def cmd_dichotomy(cfg: dict, profile: str | None = None) -> int:
    params, grid, kernel = _build_workspace(cfg)
    consts = model.derived_constants(params)
    input_hashes = {}
    if profile is not None:
        U, meta, input_hashes = _load_profile(profile, params.d)
        if not U.grid.same_as(grid):
            raise ConfigError("profile grid does not match configured grid")
        M_star = float(meta.get("M_target", mass(U)))
    else:
        result, M_star = _compute_extremal(cfg, params, grid, kernel)
        U = result.U
    outdir = Path(cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for ratio in cfg["experiment"]["mass_ratios"]:
        u0 = blowup_initial_data(U, ratio * M_star, params)
        F0 = free_energy(u0, kernel, params)
        chord = blowup_time_upper_bound(u0, kernel, params)
        if ratio < 1.0:
            t_end = cfg["experiment"]["t_end_diffusive_times"] * diffusive_time(u0, params)
        else:
            t_end = 2.0 * chord if chord is not None else cfg["solver"]["t_end"]
        outcome = run(u0, kernel, params, _solver_config(cfg, t_end=t_end))
        tag = f"ratio_{ratio:g}".replace(".", "p")
        diagnostics_to_csv(outcome.diagnostics, outdir / f"diagnostics_{tag}.csv")
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
        rows.append(entry)
    results = {"M_star": M_star, "table": rows}
    _write_report(cfg, "dichotomy", results, input_hashes)
    print(_canonical_json(results))
    return 0


def cmd_eps_study(cfg: dict) -> int:
    params, grid, _ = _build_workspace(cfg)
    consts = model.derived_constants(params)
    fp = cfg["experiment"]["fixed_point"]
    u0 = barenblatt_profile(grid, 0.5 * consts.M_star, fp["support_radius"], params.m)
    distances = epsilon_convergence_study(
        u0, params, cfg["experiment"]["eps_list"], cfg["experiment"]["t_fix"],
        config=_solver_config(cfg, t_end=cfg["experiment"]["t_fix"]),
    )
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    results = {
        "eps_list": cfg["experiment"]["eps_list"],
        "l1_distances": distances,
        "strictly_decreasing": decreasing,
    }
    _write_report(cfg, "eps-study", results, {})
    print(_canonical_json(results))
    return 0


def _verify_checks(cfg: dict):
    """Yield (name, passed, details) for every property check."""
    params, grid, kernel = _build_workspace(cfg)
    consts = model.derived_constants(params)
    tol = cfg["experiment"]["tolerances"]
    rng = np.random.default_rng(cfg["seed"])

    sym_gap = float(np.max(np.abs(kernel.K - kernel.K.T)))
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
        vals = _random_verify_field(rng, grid)
        u = DensityField(grid, vals)
        worst = max(worst, vhls_ratio(u, kernel, params) / consts.C_hls)
    yield "vhls_bound_random_fields", worst <= 1.0 + tol["vhls_margin"], {
        "worst_ratio_over_C": worst}

    violations = 0
    small_grid = RadialGrid.uniform(96, grid.r_max, d=params.d)
    small_kernel = build_kernel(small_grid, params.s)
    for _ in range(cfg["experiment"]["n_random_fields"]):
        vals = _random_verify_field(rng, small_grid)
        u = DensityField(small_grid, vals)
        u_star = rearrange(u)
        k_star = build_kernel(u_star.grid, params.s)
        if interaction_energy(k_star, u_star) < interaction_energy(small_kernel, u) * (1 - 1e-9):
            violations += 1
    yield "rearrangement_interaction_monotone", violations == 0, {
        "violations": violations}

    u0 = barenblatt_profile(grid, 0.5 * consts.M_star, 0.25 * grid.r_max, params.m)
    cfg_run = _solver_config(cfg, t_end=cfg["experiment"]["t_fix"], output_every=5)
    outcome = run(u0, kernel, params, cfg_run)
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

    fp = cfg["experiment"]["fixed_point"]
    base = barenblatt_profile(grid, consts.M_star, fp["support_radius"], params.m)
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

    k_loose = build_kernel(grid, params.s, epsilon=0.2)
    k_tight = build_kernel(grid, params.s, epsilon=0.1)
    mono = bool(np.all(k_tight.K >= k_loose.K))
    yield "kernel_epsilon_monotone", mono, {
        "min_entry_gap": float(np.min(k_tight.K - k_loose.K))}


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


def _random_verify_field(rng, grid):
    centers = grid.centers
    vals = np.zeros_like(centers)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0.0, 0.6 * grid.r_max)
        w = rng.uniform(0.05, 0.3) * grid.r_max
        vals += rng.uniform(0.1, 1.0) * np.exp(-0.5 * ((centers - c) / w) ** 2)
    if rng.random() < 0.25:
        vals += rng.uniform(0.2, 1.0) * (centers < rng.uniform(0.2, 0.6) * grid.r_max)
    return vals


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


def _build_parser() -> _Parser:
    parser = _Parser(prog="aggdiff", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                        help="override a config field (JSON-typed value)")
    common.add_argument("--out", help="output directory (overrides config)")
    for name, needs_profile in [
        ("constants", True), ("extremal", False), ("simulate", True),
        ("dichotomy", True), ("eps-study", False), ("verify", False),
    ]:
        p = sub.add_parser(name, parents=[common])
        if needs_profile:
            p.add_argument("--profile", help="steady profile CSV (with JSON sidecar)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config, args.set)
        if args.out:
            cfg["output"]["directory"] = args.out
        profile = getattr(args, "profile", None)
        if args.command == "constants":
            return cmd_constants(cfg, profile)
        if args.command == "extremal":
            return cmd_extremal(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, profile)
        if args.command == "dichotomy":
            return cmd_dichotomy(cfg, profile)
        if args.command == "eps-study":
            return cmd_eps_study(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
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
