"""Upwind finite-volume integration of the gradient-flow form.

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

Two time discretisations share that flux, chosen by
``SolverConfig.scheme``: explicit forward Euler at the CFL limit (the
default; nonlinear diffusion makes its step count grow as (R/dr)^2), and
the second-order Rosenbrock method ROS2 with a tridiagonal approximate
Jacobian (one factorization and two solves per step), which falls back
to linearised backward Euler at the same dt where its update would leave
a cell negative.  The implicit step aims at a change of ``_STEP_CHANGE``
times max u, so its step count does not depend on dr.  It is meant for
long subcritical horizons.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .energy import _mu, _upwind_flow, energy_report
from .errors import ParameterDomainError
from .extremal import blowup_initial_data
from .field import DensityField, lp_norm, mass, require_same_grid, second_moment
from .model import ModelParams, derived_constants
from .riesz import RieszKernel, build_kernel, potential_values


@dataclass(frozen=True)
class SolverConfig:
    """Stability and termination knobs for a run.

    ``blowup_factor`` is the L^inf growth ratio (relative to the initial
    condition) that declares numerical blow-up; an adaptive step below
    ``_DT_MIN`` counts as collapsed.  The boundary rule is fixed: zero
    flux at r = R_max.  The epsilon-Laplacian uses the
    kernel's regularisation length, so the mollifier and the added
    diffusion can never disagree.

    ``scheme`` is "explicit" or "implicit" (a ROS2 step with a
    backward-Euler fallback, see ``_ImplicitStepper``).  ``cfl`` sets every
    explicit step and the first implicit one; later implicit steps aim at
    a change of ``_STEP_CHANGE`` * max u.  A run that takes
    ``_MAX_STEPS`` steps ends "stalled".  Each range check names its field
    and value, and NaN fails every range.
    """

    t_end: float
    cfl: float = 0.4
    blowup_factor: float = 1e3
    output_every: int = 50
    scheme: str = "explicit"

    def __post_init__(self):
        if self.scheme not in ("explicit", "implicit"):
            raise ValueError(
                f"scheme must be 'explicit' or 'implicit', got {self.scheme!r}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.blowup_factor > 1.0:
            raise ValueError(f"blowup_factor must exceed 1, got {self.blowup_factor}")
        if not self.output_every >= 1:
            raise ValueError(f"output_every must be >= 1, got {self.output_every}")


_MAX_STEPS = 20_000_000  # step cap of one run
_DT_MIN = 1e-13  # floor below which the adaptive step has collapsed


@dataclass(frozen=True)
class SolverState:
    t: float
    u: DensityField
    step_count: int = 0
    dt_last: float = math.nan


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


@dataclass
class RunOutcome:
    """Result of :func:`run`: terminal status plus the diagnostics trace.

    status is one of "completed", "blowup", "stalled", "failed"; for
    blow-up, ``t_detect`` records the detection time and ``reason`` the
    trigger ("linf_threshold", "dt_collapse", or "chord_exhausted" for an
    unregularised run from F(u0) < 0 that reaches the chord time T* first;
    see :func:`run`).  ``blowup_time_upper_bound`` is that T*, None when
    F(u0) >= 0 or epsilon > 0, where no chord bound holds.  A step that
    produces a non-finite value ends the run "failed" (reason
    "non_finite") with the last finite state as the final state.
    ``boundary_mass_flux_total`` accumulates the signed mass transported
    outward across the band face, the first cell edge at or beyond 95% of
    R_max: the observable for truncation artefacts.  On a uniform grid of
    fewer than 20 cells no interior edge lies in [0.95 R_max, R_max), so
    the band face is the outer wall, which carries no flux: the total is 0.0.
    ``rejected_steps`` counts the implicit scheme's retried steps and
    ``fallback_steps`` its steps taken by backward Euler because the ROS2
    update had a negative cell (see ``_ImplicitStepper``).
    """

    status: str
    final_state: SolverState
    diagnostics: list
    t_detect: float | None = None
    reason: str | None = None
    boundary_mass_flux_total: float = 0.0
    clipped_mass_total: float = 0.0
    rejected_steps: int = 0
    fallback_steps: int = 0
    blowup_time_upper_bound: float | None = None


class _Stepper:
    """Explicit steps on raw cell values with the kernel grid's geometry
    looked up once: built per :func:`run` and per :func:`step` call.
    Rejects a kernel built for another order s or dimension d."""

    rejected_steps = fallback_steps = 0

    def __init__(self, kernel: RieszKernel, params: ModelParams,
                 config: SolverConfig, c_ds: float):
        grid = kernel.grid
        if kernel.s != params.s or grid.d != params.d:
            raise ParameterDomainError(
                f"kernel built for s={kernel.s}, d={grid.d} cannot drive a "
                f"run with s={params.s}, d={params.d}")
        self.grid, self.kernel, self.m, self.c_ds = grid, kernel, params.m, c_ds
        self.cfl, self.epsilon = config.cfl, kernel.epsilon
        self.dr = grid.center_spacing
        self.min_width2 = np.min(grid.widths) ** 2
        self.areas = grid.face_areas[1:-1]  # the interior faces'
        self.eps_rate = kernel.epsilon / self.dr
        self.vols = grid.shell_volumes
        self.band_face = int(np.searchsorted(grid.r_edges, 0.95 * grid.r_max))

    def _evaluate(self, u_vals: np.ndarray, phi: np.ndarray):
        """A state's velocity w and donor values on the interior faces (the
        dissipation's stencil, ``energy._upwind_flow``), the outward rate A F
        through all N+1 faces (the flux with eps diffusion, zero at both
        walls) and each shell's net outward flux, the differences of A F."""
        w, donor = _upwind_flow(u_vals, _mu(u_vals, phi, self.m), self.grid)
        flux = donor * w
        if self.epsilon > 0.0:
            flux -= self.epsilon * (u_vals[1:] - u_vals[:-1]) / self.dr
        area_flux = np.zeros(u_vals.size + 1)
        area_flux[1:-1] = self.areas * flux
        return w, donor, area_flux, area_flux[1:] - area_flux[:-1]

    def _stable_dt(self, u_vals: np.ndarray, w: np.ndarray) -> float:
        """CFL step: advective face limit, nonlinear-diffusion limit, and a
        volumetric donor-cell positivity limit (binding near the origin)."""
        eps, vols = self.epsilon, self.vols
        speeds = np.abs(w)
        u_max = float(u_vals.max())  # validated non-negative by the caller
        diff_coeff = 2.0 * self.m * u_max ** (self.m - 1.0) + 2.0 * eps
        dt_diff = self.min_width2 / diff_coeff if diff_coeff > 0.0 else np.inf
        face_out = self.areas * (speeds + self.eps_rate)
        outflow = np.zeros(vols.size)  # the walls add nothing
        outflow[:-1] = face_out
        outflow[1:] += face_out
        with np.errstate(divide="ignore"):
            dt_adv = np.where(speeds > 0.0, self.dr / speeds, np.inf).min()
            dt_vol = np.where(outflow > 0.0, vols / outflow, np.inf).min()
        return self.cfl * min(dt_adv, dt_diff, dt_vol)

    def advance(self, u_vals: np.ndarray, t_left: float):
        """Returns (new values, dt taken, stable dt, clipped mass, outward
        flux rate at the 95% R_max face)."""
        vols = self.vols
        phi = potential_values(self.kernel, u_vals, self.c_ds)
        w, _, area_flux, net = self._evaluate(u_vals, phi)
        dt_stab = self._stable_dt(u_vals, w)
        dt = min(dt_stab, t_left)
        new_vals = u_vals - dt * net / vols
        clipped = 0.0
        neg = new_vals < 0.0
        if neg.any():
            clipped = float(-np.dot(new_vals[neg], vols[neg]))
            new_vals = np.where(neg, 0.0, new_vals)
        band_rate = float(area_flux[self.band_face])
        return new_vals, dt, dt_stab, clipped, band_rate


_STEP_CHANGE = 0.006  # the implicit step's aim for max|u_new - u| / max u
_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)  # ROS2's stage coefficient


class _ImplicitStepper(_Stepper):
    """Second-order Rosenbrock (ROS2) steps on the explicit scheme's upwind
    mu-flux, with a backward-Euler fallback that keeps every cell
    non-negative.

    ROS2 (Verwer, Spee, Blom & Hundsdorfer, SIAM J. Sci. Comput. 20, 1999)
    stays second order for any approximate Jacobian, so W is the
    tridiagonal ``_jacobian`` at u^n with step gamma dt: phi and the donor
    side frozen, dmu/du = m u^{m-2} taken as 0 in vacuum cells.  W is
    factored once and solved twice, W K1 = dt f(u^n) and
    W K2 = dt f(u*) - 2 K1 with u* = max(u^n + K1, 0) and phi recomputed
    at u* (two matvecs per step), and u^{n+1} = u^n + 3/2 K1 + 1/2 K2.
    Where that leaves a cell negative (mass moving into vacuum), the try
    takes the linearised backward-Euler update J delta = dt f(u^n) at the
    same dt instead, J being ``_jacobian`` at step dt; ``fallback_steps``
    counts the steps so taken.  W and J come from one ``_bands`` per step
    and satisfy V^T W = V^T: every update keeps the mass of u^n exactly.

    dt starts at the explicit stable step of the first state, then aims at
    max|u^{n+1} - u^n| = ``_STEP_CHANGE`` * max u and grows at most
    1.5-fold per step.  A try whose update leaves a cell negative, or
    changes u by more than twice the aim with dt above that start, is
    retried at half its dt; a proposal below ``_DT_MIN`` is handed back to
    :func:`run`'s collapse rule, and a non-finite update is handed back as
    it is.
    """

    dt_next = dt_explicit = None  # step proposal and first stable dt, set by advance

    def advance(self, u_vals: np.ndarray, t_left: float):
        """Same contract as :meth:`_Stepper.advance`, with the step proposal
        as the stable dt (u comes back unchanged below ``_DT_MIN``), no
        clipping, and the band flux read off the update itself."""
        phi = potential_values(self.kernel, u_vals, self.c_ds)
        w, donor, _, net = self._evaluate(u_vals, phi)
        rate = -net / self.vols  # f(u^n)
        if self.dt_next is None:
            self.dt_next = self.dt_explicit = self._stable_dt(u_vals, w)
        bands = self._bands(u_vals, w, donor)
        aim = _STEP_CHANGE * float(u_vals.max())
        dt_try = self.dt_next
        while dt_try >= _DT_MIN:
            dt = min(dt_try, t_left)
            delta = self._ros2_update(u_vals, rate, bands, dt)
            new_vals = u_vals + delta
            fallback = bool(new_vals.min() < 0.0)
            if fallback:
                factors = _factor_tridiagonal(*self._jacobian(bands, dt))
                delta = _substitute(factors, dt * rate)
                new_vals = u_vals + delta
            change = float(np.max(np.abs(delta)))
            small = change <= 2.0 * aim or dt <= self.dt_explicit
            if (new_vals.min() >= 0.0 and small) or not math.isfinite(change):
                self.dt_next = dt * (min(1.5, aim / change) if change > 0.0 else 1.5)
                self.fallback_steps += fallback
                band = self.band_face  # the outer wall carries no flux
                band_rate = (-float(np.dot(self.vols[:band], delta[:band])) / dt
                             if band < u_vals.size else 0.0)
                return new_vals, dt, dt_try, 0.0, band_rate
            self.rejected_steps += 1
            dt_try = 0.5 * dt
        return u_vals, 0.0, dt_try, 0.0, 0.0

    def _ros2_update(self, u: np.ndarray, rate: np.ndarray, bands,
                     dt: float) -> np.ndarray:
        """u^{n+1} - u^n of one ROS2 step of size dt from u with f(u) = rate."""
        factors = _factor_tridiagonal(*self._jacobian(bands, _GAMMA * dt))
        k1 = _substitute(factors, dt * rate)
        u_star = np.maximum(u + k1, 0.0)
        _, _, _, net = self._evaluate(
            u_star, potential_values(self.kernel, u_star, self.c_ds))
        k2 = _substitute(factors, dt * (-net / self.vols) - 2.0 * k1)
        return 1.5 * k1 + 0.5 * k2

    def _bands(self, u: np.ndarray, w: np.ndarray, donor: np.ndarray):
        """A dF/du for the left and the right cell of each interior face from
        u's :meth:`_evaluate`, phi and the donor side of every face held fixed."""
        m, dr, area, eps_rate = self.m, self.dr, self.areas, self.eps_rate
        dmu = np.zeros(u.size)
        occupied = u > 0.0
        dmu[occupied] = m * u[occupied] ** (m - 2.0)
        from_left = w > 0.0
        d_left = area * (np.where(from_left, w, 0.0) + donor * dmu[:-1] / dr
                         + eps_rate)
        d_right = area * (np.where(from_left, 0.0, w) - donor * dmu[1:] / dr
                          - eps_rate)
        return d_left, d_right

    def _jacobian(self, bands, dt: float):
        """(lower, diagonal, upper) of d/du [u + dt/V div(A F(u))] assembled
        from :meth:`_bands`."""
        d_left, d_right = bands
        s = dt / self.vols
        diag = np.ones(s.size)
        diag[:-1] += s[:-1] * d_left
        diag[1:] -= s[1:] * d_right
        return -s[1:] * d_left, diag, s[:-1] * d_right


def _factor_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
    """Thomas elimination of a tridiagonal matrix, for :func:`_substitute`:
    the lower band, the pivots and the upper band divided by the pivots,
    as lists of Python floats.  No pivoting, since the implicit Jacobian is
    a column diagonally dominant M-matrix."""
    a, b, c = lower.tolist(), diag.tolist(), upper.tolist()
    pivot = b[0]
    e = c[0] / pivot
    pivots, es = [pivot], [e]
    for a_i, b_i, c_i in zip(a, b[1:], c[1:] + [0.0]):
        pivot = b_i - a_i * e
        e = c_i / pivot
        pivots.append(pivot)
        es.append(e)
    return a, pivots, es


def _substitute(factors, rhs: np.ndarray) -> np.ndarray:
    """Solution of the factored tridiagonal system for one right-hand side:
    forward and back substitution."""
    a, pivots, es = factors
    d = rhs.tolist()
    y = d[0] / pivots[0]
    ys = [y]
    for a_i, p_i, d_i in zip(a, pivots[1:], d[1:]):
        y = (d_i - a_i * y) / p_i
        ys.append(y)
    x = y
    out = [x]
    for e_i, y_i in zip(es[-2::-1], ys[-2::-1]):
        x = y_i - e_i * x
        out.append(x)
    return np.array(out[::-1])


_STEPPERS = {"explicit": _Stepper, "implicit": _ImplicitStepper}


def step(state: SolverState, kernel: RieszKernel, params: ModelParams,
         config: SolverConfig, c_ds: float | None = None) -> SolverState:
    """Advance one conservative step (chiefly for tests and notebooks;
    :func:`run` drives the same update in a loop).  An implicit step is
    taken at the explicit stable dt unless it would leave a cell negative
    there.  A non-finite result raises ``ValueError`` from its field."""
    require_same_grid(state.u.grid, kernel.grid, "field and kernel")
    c_ds = params.c_ds if c_ds is None else c_ds
    t_left = max(config.t_end - state.t, _DT_MIN)
    stepper = _STEPPERS[config.scheme](kernel, params, config, c_ds)
    new_vals, dt, _, _, _ = stepper.advance(state.u.values, t_left)
    return SolverState(
        t=state.t + dt,
        u=state.u.with_values(new_vals),
        step_count=state.step_count + 1,
        dt_last=dt,
    )


def _diag_row(u: DensityField, kernel, params, t, dt) -> DiagnosticsRow:
    rep = energy_report(u, kernel, params)
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
        virial_rhs=2.0 * params.alpha * rep.F,
        dt=dt,
    )


def run(u0: DensityField, kernel: RieszKernel, params: ModelParams,
        config: SolverConfig) -> RunOutcome:
    """Integrate from u0 until t_end, blow-up, or step collapse.

    Diagnostics are recorded every ``output_every`` steps plus at the
    initial and final states.  This is the one blow-up rule: L^inf above
    ``blowup_factor`` times its initial value ("linf_threshold"), or a
    stable dt below ``_DT_MIN`` once L^inf has more than doubled
    ("dt_collapse"); a collapsing dt without that growth is a stall.
    With an unregularised kernel and F(u0) < 0 the virial identity forces
    blow-up by the chord time T* = m2(u0) / (2 (d-2s) |F(u0)|): integrated
    against the decreasing energy, it pins the second moment under the
    chord m2(0) + 2(d-2s) F(u0) t, which hits zero at T*.  T* is read off
    the t = 0 diagnostics row and returned as the outcome's
    ``blowup_time_upper_bound``.  A run that reaches T* without
    the L^inf trigger ends "blowup" too ("chord_exhausted"); with
    epsilon > 0 the chord bound does not hold and this rule is off.  A
    non-finite L^inf after a step ends the run "failed" ("non_finite").
    Raises :class:`ParameterDomainError` for a kernel built for another
    s or d.
    """
    require_same_grid(u0.grid, kernel.grid, "initial condition and kernel")
    stepper = _STEPPERS[config.scheme](kernel, params, config, params.c_ds)
    u_vals = u0.values.copy()
    u0_linf = float(np.max(u_vals, initial=0.0))
    t = 0.0
    dt_last = math.nan
    steps = 0
    clipped_total = 0.0
    band_flux_total = 0.0
    rows = [_diag_row(u0, kernel, params, 0.0, math.nan)]
    t_chord = _chord_time(rows[0].m2, rows[0].F, kernel, params)
    status, reason, t_detect = "completed", None, None

    while t < config.t_end * (1.0 - 1e-14):
        new_vals, dt, dt_stab, clipped, band_rate = stepper.advance(
            u_vals, config.t_end - t)
        if dt_stab < _DT_MIN:
            linf_now = float(np.max(u_vals, initial=0.0))
            if u0_linf > 0.0 and linf_now > 2.0 * u0_linf:
                status, reason, t_detect = "blowup", "dt_collapse", t
            else:
                status, reason = "stalled", "dt_min"
            break
        linf_now = float(np.max(new_vals, initial=0.0))
        if not math.isfinite(linf_now):
            status, reason = "failed", "non_finite"
            break
        u_vals = new_vals
        t += dt
        dt_last = dt
        steps += 1
        clipped_total += clipped
        band_flux_total += band_rate * dt
        if u0_linf > 0.0 and linf_now > config.blowup_factor * u0_linf:
            status, reason, t_detect = "blowup", "linf_threshold", t
            break
        if t_chord is not None and t >= t_chord:
            status, reason, t_detect = "blowup", "chord_exhausted", t
            break
        if steps % config.output_every == 0:
            rows.append(_diag_row(DensityField(kernel.grid, u_vals), kernel, params,
                                  t, dt))
        if steps >= _MAX_STEPS:
            status, reason = "stalled", "max_steps"
            break

    u_final = DensityField(kernel.grid, u_vals)
    if rows[-1].t < t:
        rows.append(_diag_row(u_final, kernel, params, t, dt_last))
    final_state = SolverState(t=t, u=u_final, step_count=steps, dt_last=dt_last)
    return RunOutcome(
        status=status,
        final_state=final_state,
        diagnostics=rows,
        t_detect=t_detect,
        reason=reason,
        boundary_mass_flux_total=band_flux_total,
        clipped_mass_total=clipped_total,
        rejected_steps=stepper.rejected_steps,
        fallback_steps=stepper.fallback_steps,
        blowup_time_upper_bound=t_chord,
    )


def _chord_time(m2: float, F: float, kernel: RieszKernel,
                params: ModelParams) -> float | None:
    """Zero of the second-moment chord m2 + 2(d-2s) F t; None unless
    epsilon = 0 and F < 0, where the chord bounds the blow-up time."""
    if kernel.epsilon != 0.0 or not F < 0.0:
        return None
    return m2 / (2.0 * params.alpha * abs(F))


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


def dichotomy_run(U: DensityField, ratio: float, M_ref: float, kernel: RieszKernel,
                  params: ModelParams, config: SolverConfig,
                  diffusive_times: float = 5.0) -> tuple[dict, RunOutcome]:
    """One run of the mass-ratio dichotomy, from the steady profile ``U``
    rescaled to mass M = ``ratio * M_ref`` (:func:`blowup_initial_data`),
    with free energy F0 and chord time T* (:func:`_chord_time`).

    Below ratio 1 the run is implicit over ``diffusive_times`` diffusive
    times of the initial data (its explicit step count would grow as
    (R/dr)^2); at 1 or above it is explicit to 2 T*, or to
    ``config.t_end`` without T* (F0 >= 0 or epsilon > 0).  ``config``
    supplies every other solver field; only ``t_end`` and ``scheme`` are
    set here.

    Returns (entry, outcome).  The entry holds mass_ratio, mass, F0,
    status, t_detect, t_end, sup_lm_norm_power_m (the largest ||u||_m^m
    over the diagnostics rows) and blowup_time_upper_bound (T*, None
    without it); below ratio 1 also ge_bound_lm_power_m, the
    global-existence bound F0 / (C* c_ds/2 (M*^{2s/d} - M^{2s/d})) on
    ||u||_m^m with the closed-form C* and M*, inf when the denominator
    is not positive.  Raises :class:`ParameterDomainError` when F0 is
    infinite (W overflows at a huge mass), which leaves no chord time, or
    the dissipation D(u0) is, where no step can be taken; a NaN (a
    non-finite kernel) goes to the run, which ends "failed".
    """
    M = ratio * M_ref
    u0 = blowup_initial_data(U, M, params)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        start = energy_report(u0, kernel, params)
    F0 = start.F
    for name, value in (("free energy F(u0)", F0), ("dissipation D(u0)", start.D)):
        if math.isinf(value):
            raise ParameterDomainError(
                f"{name} = {value} at mass ratio {ratio} overflows")
    chord = _chord_time(second_moment(u0), F0, kernel, params)
    if ratio < 1.0:
        t_end = diffusive_times * diffusive_time(u0, params)
        scheme = "implicit"
    else:
        t_end = 2.0 * chord if chord is not None else config.t_end
        scheme = "explicit"
    outcome = run(u0, kernel, params, replace(config, t_end=t_end, scheme=scheme))
    entry = {
        "mass_ratio": ratio,
        "mass": M,
        "F0": F0,
        "status": outcome.status,
        "t_detect": outcome.t_detect,
        "t_end": t_end,
        "sup_lm_norm_power_m": max(row.lm_norm ** params.m
                                   for row in outcome.diagnostics),
        "blowup_time_upper_bound": chord,
    }
    if ratio < 1.0:
        consts = derived_constants(params)
        two_s_over_d = 2 * params.s / params.d
        denom = (consts.C_star_upper * consts.c_ds / 2.0
                 * (consts.M_star ** two_s_over_d - M ** two_s_over_d))
        entry["ge_bound_lm_power_m"] = F0 / denom if denom > 0 else math.inf
    return entry, outcome


def epsilon_convergence_study(u0: DensityField, params: ModelParams,
                              eps_list, config: SolverConfig
                              ) -> tuple[list, list | None]:
    """Each run's status and the L^1 distances at ``config.t_end`` between
    runs with consecutive regularisation lengths (one kernel per length,
    which also sets the epsilon-Laplacian).  The distances are None unless
    every run completed (subcritical data required)."""
    statuses, finals = [], []
    for eps in eps_list:
        kernel = build_kernel(u0.grid, params.s, epsilon=eps)
        outcome = run(u0, kernel, params, config)
        statuses.append(outcome.status)
        finals.append(outcome.final_state.u.values)
    if any(status != "completed" for status in statuses):
        return statuses, None
    vols = u0.grid.shell_volumes
    return statuses, [float(np.dot(np.abs(a - b), vols))
                      for a, b in zip(finals, finals[1:])]


def diagnostics_to_csv(rows, path) -> None:
    """Stream the diagnostics trace as CSV, one column per DiagnosticsRow
    field in declaration order."""
    names = [f.name for f in fields(DiagnosticsRow)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([repr(float(getattr(row, name))) for name in names])
