"""Explicit upwind finite-volume integration of the gradient-flow form.

The equation is advanced as u_t = div(u grad mu) (+ eps * lap u for the
regularised problem): the face velocity is w = -dmu/dr, the advected
face density is taken from the donor cell, and fluxes telescope so mass
is conserved to roundoff with zero-flux walls at r = 0 and r = R_max.
Driving the single mu-gradient flux (rather than separate diffusion and
aggregation terms) is what makes the discrete free energy decay with
the matching dissipation quadrature in :mod:`aggdiff.energy`.

Vacuum cells are exactly stationary: the donor value at a face bordering
u = 0 with inward velocity is zero, so compactly supported states do not
leak and discrete steady profiles stay put.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import energy_report, free_energy, mu_values, upwind_face_values
from .errors import ParameterDomainError
from .field import (DensityField, check_density, face_gradient, lp_norm, mass,
                    require_same_grid, second_moment)
from .model import ModelParams
from .riesz import RieszKernel, build_kernel, build_weak_interaction_kernel


@dataclass(frozen=True)
class SolverConfig:
    """Stability and termination knobs for a run.

    ``blowup_factor`` is the L^inf growth ratio (relative to the initial
    condition) that declares numerical blow-up; ``dt_min`` is the floor
    below which the adaptive step is considered collapsed.  The boundary
    rule is fixed: zero flux at r = R_max.  The epsilon-Laplacian uses the
    kernel's regularisation length, so the mollifier and the added
    diffusion can never disagree.
    """

    t_end: float
    cfl: float = 0.4
    dt_min: float = 1e-13
    blowup_factor: float = 1e3
    output_every: int = 50
    dt_max: float = math.inf
    max_steps: int = 20_000_000

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.t_end <= 0.0 or self.dt_min <= 0.0:
            raise ValueError("t_end and dt_min must be positive")
        if self.blowup_factor <= 1.0:
            raise ValueError(f"blowup_factor must exceed 1, got {self.blowup_factor}")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")


@dataclass(frozen=True)
class SolverState:
    t: float
    u: DensityField
    step_count: int = 0
    dt_last: float = math.nan
    clipped_mass: float = 0.0  # mass added by clipping in the last step


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    mass: float
    lm_norm: float
    linf_norm: float
    m2: float
    F: float
    S: float
    W: float
    D: float
    virial_rhs: float
    dt: float

    FIELDS = ("t", "mass", "lm_norm", "linf_norm", "m2", "F", "S", "W", "D",
              "virial_rhs", "dt")


@dataclass
class RunOutcome:
    """Result of :func:`run`: terminal status plus the diagnostics trace.

    status is one of "completed", "blowup", "stalled"; for blow-up,
    ``t_detect`` records the detection time and ``reason`` the trigger
    ("linf_threshold" or "dt_collapse").  ``boundary_mass_flux_total``
    accumulates the signed mass transported outward across the face at
    95% of R_max, the observable for truncation artefacts.
    """

    status: str
    final_state: SolverState
    diagnostics: list
    t_detect: float | None = None
    reason: str | None = None
    boundary_mass_flux_total: float = 0.0
    clipped_mass_total: float = 0.0
    fields: list = field(default_factory=list)


class _Stepper:
    """Explicit steps on raw cell values with the kernel grid's geometry
    looked up once: built per :func:`run` and per :func:`step` call.
    Rejects a kernel built for another order s or dimension d."""

    def __init__(self, kernel: RieszKernel, params: ModelParams,
                 config: SolverConfig, c_ds: float):
        grid = kernel.grid
        if kernel.s != params.s or grid.d != params.d:
            raise ParameterDomainError(
                f"kernel built for s={kernel.s}, d={grid.d} cannot drive a "
                f"run with s={params.s}, d={params.d}")
        self.grid, self.kernel, self.m, self.c_ds = grid, kernel, params.m, c_ds
        self.cfl, self.epsilon, self.dt_max = config.cfl, kernel.epsilon, config.dt_max
        self.dr = grid.center_spacing
        self.min_width2 = np.min(grid.widths) ** 2
        self.areas = grid.face_areas
        # boundary faces carry no flux; pad their spacing to keep it finite
        self.eps_rate = kernel.epsilon / np.concatenate(([1.0], self.dr, [1.0]))
        self.vols = grid.shell_volumes
        self.band_face = int(np.searchsorted(grid.r_edges, 0.95 * grid.r_max))

    def advance(self, u_vals: np.ndarray, t_left: float):
        """Returns (new values, dt taken, stable dt, clipped mass, outward
        flux rate at the 95% R_max face)."""
        check_density(u_vals)
        eps, dr, areas, vols = self.epsilon, self.dr, self.areas, self.vols
        # face velocity w = -dmu/dr, donor-cell flux, plus eps diffusion
        w = -face_gradient(mu_values(u_vals, self.kernel, self.m, self.c_ds), self.grid)
        flux = np.zeros(w.size)
        flux[1:-1] = upwind_face_values(u_vals, w) * w[1:-1]
        if eps > 0.0:
            flux[1:-1] -= eps * (u_vals[1:] - u_vals[:-1]) / dr
        # CFL step: advective face limit, nonlinear-diffusion limit, and a
        # volumetric donor-cell positivity limit (binding near the origin)
        speeds = np.abs(w)
        u_max = float(u_vals.max())  # validated non-negative above
        diff_coeff = 2.0 * self.m * u_max ** (self.m - 1.0) + 2.0 * eps
        dt_diff = self.min_width2 / diff_coeff if diff_coeff > 0.0 else np.inf
        outflow = areas * (speeds + self.eps_rate)
        outflow = outflow[:-1] + outflow[1:]
        with np.errstate(divide="ignore"):
            dt_adv = np.where(speeds[1:-1] > 0.0, dr / speeds[1:-1], np.inf).min()
            dt_vol = np.where(outflow > 0.0, vols / outflow, np.inf).min()
        dt_stab = self.cfl * min(dt_adv, dt_diff, dt_vol)
        dt = min(dt_stab, self.dt_max, t_left)
        div = areas[1:] * flux[1:] - areas[:-1] * flux[:-1]
        new_vals = u_vals - dt * div / vols
        clipped = 0.0
        neg = new_vals < 0.0
        if neg.any():
            clipped = float(-np.dot(new_vals[neg], vols[neg]))
            new_vals = np.where(neg, 0.0, new_vals)
        band_rate = float(areas[self.band_face] * flux[self.band_face])
        return new_vals, dt, dt_stab, clipped, band_rate


def step(state: SolverState, kernel: RieszKernel, params: ModelParams,
         config: SolverConfig, c_ds: float | None = None) -> SolverState:
    """Advance one conservative step (chiefly for tests and notebooks;
    :func:`run` drives the same update in a loop)."""
    require_same_grid(state.u.grid, kernel.grid, "field and kernel")
    if c_ds is None:
        c_ds = params.c_ds
    t_left = max(config.t_end - state.t, config.dt_min)
    new_vals, dt, _, clipped, _ = _Stepper(kernel, params, config, c_ds).advance(
        state.u.values, t_left)
    return SolverState(
        t=state.t + dt,
        u=state.u.with_values(new_vals),
        step_count=state.step_count + 1,
        dt_last=dt,
        clipped_mass=clipped,
    )


def _diag_row(u: DensityField, kernel, params, c_ds, t, dt) -> DiagnosticsRow:
    rep = energy_report(u, kernel, params, c_ds=c_ds) if mass(u) > 0.0 else None
    if rep is None:
        return DiagnosticsRow(t=t, mass=0.0, lm_norm=0.0, linf_norm=0.0, m2=0.0,
                              F=0.0, S=0.0, W=0.0, D=0.0, virial_rhs=0.0, dt=dt)
    return DiagnosticsRow(
        t=t,
        mass=mass(u),
        lm_norm=lp_norm(u, params.m),
        linf_norm=lp_norm(u, np.inf),
        m2=second_moment(u),
        F=rep.F,
        S=rep.S,
        W=rep.W,
        D=rep.D,
        virial_rhs=2.0 * (params.d - 2.0 * params.s) * rep.F,
        dt=dt,
    )


def run(u0: DensityField, kernel: RieszKernel, params: ModelParams,
        config: SolverConfig, c_ds: float | None = None,
        store_fields: bool = False) -> RunOutcome:
    """Integrate from u0 until t_end, blow-up, or step collapse.

    Diagnostics are recorded every ``output_every`` steps plus at the
    initial and final states.  This is the one blow-up rule: L^inf above
    ``blowup_factor`` times its initial value ("linf_threshold"), or a
    stable dt below ``dt_min`` once L^inf has more than doubled
    ("dt_collapse"); a collapsing dt without that growth is a stall.
    Raises :class:`ParameterDomainError` for a kernel built for another
    s or d.
    """
    require_same_grid(u0.grid, kernel.grid, "initial condition and kernel")
    if c_ds is None:
        c_ds = params.c_ds
    stepper = _Stepper(kernel, params, config, c_ds)
    u_vals = u0.values.copy()
    u0_linf = float(np.max(u_vals, initial=0.0))
    t = 0.0
    steps = 0
    clipped_total = 0.0
    band_flux_total = 0.0
    rows = [_diag_row(u0, kernel, params, c_ds, 0.0, math.nan)]
    fields = [(0.0, u_vals.copy())] if store_fields else []
    status, reason, t_detect = "completed", None, None

    while t < config.t_end * (1.0 - 1e-14):
        new_vals, dt, dt_stab, clipped, band_rate = stepper.advance(
            u_vals, config.t_end - t)
        if dt_stab < config.dt_min:
            linf_now = float(np.max(u_vals, initial=0.0))
            if u0_linf > 0.0 and linf_now > 2.0 * u0_linf:
                status, reason, t_detect = "blowup", "dt_collapse", t
            else:
                status, reason = "stalled", "dt_min"
            break
        u_vals = new_vals
        t += dt
        steps += 1
        clipped_total += clipped
        band_flux_total += band_rate * dt
        linf_now = float(np.max(u_vals, initial=0.0))
        if u0_linf > 0.0 and linf_now > config.blowup_factor * u0_linf:
            status, reason, t_detect = "blowup", "linf_threshold", t
            break
        if steps % config.output_every == 0:
            rows.append(_diag_row(DensityField(kernel.grid, u_vals), kernel, params,
                                  c_ds, t, dt))
            if store_fields:
                fields.append((t, u_vals.copy()))
        if steps >= config.max_steps:
            status, reason = "stalled", "max_steps"
            break

    u_final = DensityField(kernel.grid, u_vals)
    if rows[-1].t < t:
        rows.append(_diag_row(u_final, kernel, params, c_ds, t, rows[-1].dt))
    if store_fields and fields[-1][0] < t:
        fields.append((t, u_vals.copy()))
    final_state = SolverState(t=t, u=u_final, step_count=steps,
                              dt_last=rows[-1].dt)
    return RunOutcome(
        status=status,
        final_state=final_state,
        diagnostics=rows,
        t_detect=t_detect,
        reason=reason,
        boundary_mass_flux_total=band_flux_total,
        clipped_mass_total=clipped_total,
        fields=fields,
    )


def blowup_time_upper_bound(u0: DensityField, kernel: RieszKernel,
                            params: ModelParams) -> float | None:
    """m2(u0) / (2 (d-2s) |F(u0)|) when F(u0) < 0, else None.

    Integrating the virial identity against the decreasing energy pins
    the second moment under the chord m2(0) + 2(d-2s) F(u0) t, which
    hits zero at this time.
    """
    F0 = free_energy(u0, kernel, params)
    if F0 >= 0.0:
        return None
    return second_moment(u0) / (2.0 * (params.d - 2.0 * params.s) * abs(F0))


def diffusive_time(u: DensityField, params: ModelParams) -> float:
    """Nonlinear-diffusion time across the support:
    R_sup^2 / (2 d m ||u||_inf^{m-1}), the support being the cells above
    1e-10 of the peak."""
    u_max = lp_norm(u, np.inf)
    if u_max <= 0.0:
        raise ValueError("diffusive time undefined for the zero field")
    above = u.values > 1e-10 * u_max
    r_sup = float(u.grid.r_edges[1:][above].max())
    return r_sup ** 2 / (2.0 * params.d * params.m * u_max ** (params.m - 1.0))


@dataclass(frozen=True)
class RadialTestFunction:
    """Smooth radial test function with analytic first two derivatives,
    compactly supported inside the grid."""

    psi: object
    dpsi: object
    ddpsi: object
    support_radius: float

    def laplacian(self, r: np.ndarray, d: int) -> np.ndarray:
        return self.ddpsi(r) + (d - 1) * self.dpsi(r) / r


def _smoothstep(x):
    """Quintic step: 1 at x<=0 falling to 0 at x>=1, C^2 at both ends."""
    xc = np.clip(x, 0.0, 1.0)
    return 1.0 - xc ** 3 * (10.0 - 15.0 * xc + 6.0 * xc * xc)


def _smoothstep_d1(x):
    xc = np.clip(x, 0.0, 1.0)
    return -30.0 * xc ** 2 * (1.0 - xc) ** 2


def _smoothstep_d2(x):
    xc = np.clip(x, 0.0, 1.0)
    return -60.0 * xc * (1.0 - xc) * (1.0 - 2.0 * xc)


def plateau_test_function(a: float, b: float) -> RadialTestFunction:
    """psi = 1 on [0, a], quintic decay to 0 at b."""
    if not (0.0 < a < b):
        raise ValueError("requires 0 < a < b")
    span = b - a
    return RadialTestFunction(
        psi=lambda r: _smoothstep((np.asarray(r) - a) / span),
        dpsi=lambda r: _smoothstep_d1((np.asarray(r) - a) / span) / span,
        ddpsi=lambda r: _smoothstep_d2((np.asarray(r) - a) / span) / span ** 2,
        support_radius=b,
    )


def quadratic_test_function(a: float, b: float) -> RadialTestFunction:
    """psi = r^2 on [0, a], smoothly truncated to 0 at b (virial probe)."""
    if not (0.0 < a < b):
        raise ValueError("requires 0 < a < b")
    span = b - a

    def parts(r):
        r = np.asarray(r, dtype=float)
        x = (r - a) / span
        return r, _smoothstep(x), _smoothstep_d1(x) / span, _smoothstep_d2(x) / span ** 2

    def psi(r):
        r, s0, _, _ = parts(r)
        return r * r * s0

    def dpsi(r):
        r, s0, s1, _ = parts(r)
        return 2.0 * r * s0 + r * r * s1

    def ddpsi(r):
        r, s0, s1, s2 = parts(r)
        return 2.0 * s0 + 4.0 * r * s1 + r * r * s2

    return RadialTestFunction(psi=psi, dpsi=dpsi, ddpsi=ddpsi, support_radius=b)


def weak_form_residual(trajectory, psi: RadialTestFunction, kernel: RieszKernel,
                       params: ModelParams) -> float:
    """Gap between the two sides of the distributional formulation over
    the trajectory's time span.

    ``trajectory`` is a sequence of (t, values) snapshots as produced by
    ``run(..., store_fields=True)``.  The right-hand side integrates
    int lap(psi) u^m plus the symmetrised double-sum interaction term in
    time by the trapezoidal rule, so the residual measures the spatial
    consistency of the scheme at first order in the snapshot spacing.
    """
    if psi.support_radius > kernel.grid.r_max * (1.0 + 1e-12):
        raise ValueError("test function support exceeds the grid")
    c_ds = params.c_ds
    grid = kernel.grid
    vols = grid.shell_volumes
    centers = grid.centers
    psi_c = psi.psi(centers)
    lap_c = psi.laplacian(centers, grid.d)
    M_psi = build_weak_interaction_kernel(grid, params.s, psi.dpsi,
                                          epsilon=kernel.epsilon)
    alpha = params.d - 2.0 * params.s

    def rhs_rate(vals):
        uv = vals * vols
        diffusion = float(np.dot(lap_c, vals ** params.m * vols))
        interaction = float(uv @ (M_psi @ uv))
        return diffusion - 0.5 * alpha * c_ds * interaction

    times = np.array([t for t, _ in trajectory])
    rates = np.array([rhs_rate(vals) for _, vals in trajectory])
    rhs = float(np.trapezoid(rates, times))
    lhs = float(np.dot(psi_c, (trajectory[-1][1] - trajectory[0][1]) * vols))
    return abs(lhs - rhs)


def epsilon_convergence_study(u0: DensityField, params: ModelParams,
                              eps_list, t_fix: float,
                              config: SolverConfig | None = None) -> list:
    """L^1 distances at t_fix between runs with consecutive regularisation
    lengths (one kernel per length, which also sets the epsilon-Laplacian);
    every run must complete (subcritical data required)."""
    cfg = replace(config or SolverConfig(t_end=t_fix), t_end=t_fix)
    finals = []
    for eps in eps_list:
        kernel = build_kernel(u0.grid, params.s, epsilon=eps)
        outcome = run(u0, kernel, params, cfg)
        if outcome.status != "completed":
            raise RuntimeError(
                f"epsilon study run at eps={eps} ended with {outcome.status}"
            )
        finals.append(outcome.final_state.u.values)
    vols = u0.grid.shell_volumes
    return [float(np.dot(np.abs(a - b), vols)) for a, b in zip(finals, finals[1:])]


def diagnostics_to_csv(rows, path) -> None:
    """Stream the diagnostics trace as CSV (header fixed by DiagnosticsRow)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DiagnosticsRow.FIELDS)
        for row in rows:
            writer.writerow([repr(float(getattr(row, name)))
                             for name in DiagnosticsRow.FIELDS])
