"""Steady extremal profiles: fixed-point solve, ratio maximisation,
critical-mass measurement, and supercritical initial data.

On its support a steady profile U with multiplier lam satisfies

    m/(m-1) U^{m-1} = phi_U + lam,      phi_U = c_ds K (U v),

so the natural iteration is U <- [ (m-1)/m (phi_U + lam)_+ ]^{1/(m-1)}
with lam re-solved each sweep (the map mass(lam) is strictly increasing)
to hold the mass constraint.  Undamped Picard oscillates for the
degenerate exponent, so iterates are averaged with factor 0.5.

At the critical exponent the steady equation has an exactly neutral
dilation mode (u -> mu^d u(mu r) preserves mass), so when the target
mass is off the critical value the iterate drifts along that mode
instead of converging: it spreads to the wall below the critical mass
and collapses toward the grid scale above it.  The iteration therefore
pins the mode by rescaling each iterate back to the second moment of
the initial guess (an exact mass-preserving dilation); the signed
mismatch between the converged multiplier and the variational value

    lam = (2s / (2s - d)) ||U||_m^m / M   (< 0 since 2s < d)

then changes sign across the critical mass, which is what
:func:`find_critical_mass` bisects on.  The residual reported
everywhere checks the steady equation against the variational
multiplier, independently of the iteration's own value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError
from .field import (
    DensityField,
    RadialGrid,
    barenblatt_profile,
    lp_norm,
    mass,
    project_onto,
    rearrange,
    scale,
)
from .energy import vhls_ratio
from .model import ModelParams
from .riesz import RieszKernel, potential


@dataclass(frozen=True)
class ExtremalResult:
    """Converged steady profile with its multiplier and quality measures."""

    U: DensityField
    lambda_bar: float
    J_value: float
    el_residual: float
    support_radius: float
    iterations: int


def _support_mask(values: np.ndarray) -> np.ndarray:
    """Cells above 1e-8 of the peak."""
    peak = float(np.max(values, initial=0.0))
    return values > 1e-8 * peak


def _support_radius(u: DensityField) -> float:
    above = _support_mask(u.values)
    if not np.any(above):
        return 0.0
    return float(u.grid.r_edges[1:][above].max())


def variational_multiplier(u: DensityField, params: ModelParams,
                           M_target: float) -> float:
    """lam = (2s/(2s-d)) ||u||_m^m / M_target (negative for 2s < d)."""
    return (2.0 * params.s / (2.0 * params.s - params.d)
            * lp_norm(u, params.m) ** params.m / M_target)


def el_residual(U: DensityField, kernel: RieszKernel, params: ModelParams,
                M_target: float) -> float:
    """Sup-norm defect of the steady equation over the support (cells
    above 1e-8 of the peak), normalised by |lam| with lam the variational
    multiplier."""
    above = _support_mask(U.values)
    if not np.any(above):
        raise ValueError("residual undefined: field has empty support")
    lam = variational_multiplier(U, params, M_target)
    m = params.m
    phi = potential(kernel, U, params.c_ds)
    defect = m / (m - 1.0) * U.values ** (m - 1.0) - phi - lam
    return float(np.max(np.abs(defect[above])) / abs(lam))


def _mass_of_multiplier(phi: np.ndarray, lam: float, m: float,
                        vols: np.ndarray) -> tuple[np.ndarray, float]:
    vals = np.clip((m - 1.0) / m * (phi + lam), 0.0, None) ** (1.0 / (m - 1.0))
    return vals, float(np.dot(vals, vols))


def _solve_multiplier(phi: np.ndarray, m: float, vols: np.ndarray,
                      M_target: float) -> tuple[np.ndarray, float]:
    """Root of mass(lam) = M_target; mass is strictly increasing in lam."""
    phi_max = float(np.max(phi))
    lo = -phi_max
    hi = -phi_max + 1.0
    while _mass_of_multiplier(phi, hi, m, vols)[1] < M_target:
        hi = -phi_max + 2.0 * (hi + phi_max)
        if hi > 1e30:
            raise RuntimeError("multiplier bracket search failed")
    lam = brentq(
        lambda lv: _mass_of_multiplier(phi, lv, m, vols)[1] - M_target,
        lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=300,
    )
    vals, _ = _mass_of_multiplier(phi, lam, m, vols)
    return vals, lam


def _dilate_to_m2(u: DensityField, m2_target: float) -> DensityField:
    """Mass-invariant dilation mu^d u(mu r) projected back onto u's grid,
    choosing mu so the second moment matches ``m2_target``."""
    vols = u.grid.shell_volumes
    m2_now = float(np.dot(u.values * u.grid.mean_r2, vols))
    if m2_now <= 0.0 or m2_target <= 0.0:
        return u
    mu = math.sqrt(m2_now / m2_target)
    if abs(mu - 1.0) < 1e-15:
        return u
    return project_onto(scale(u, mu ** u.grid.d, mu), u.grid)


def el_fixed_point(grid: RadialGrid, kernel: RieszKernel, params: ModelParams,
                   M_target: float, init: DensityField | None = None,
                   tol: float = 1e-10, max_iter: int = 500,
                   support_radius_init: float | None = None) -> ExtremalResult:
    """Fixed-point solve of the steady equation at fixed mass, damped by
    averaging each candidate with the current iterate (factor 0.5).

    ``tol`` is the successive L^1 change relative to M_target.  The
    default initial guess is a compact truncated-parabola bump of the
    right mass.  Every iterate is rescaled back to the initial second
    moment through the exact mass-invariant dilation; without that anchor
    the neutral dilation mode lets off-critical masses drift to the wall
    or to the grid scale instead of settling.  Raises
    :class:`ConvergenceError` if the budget runs out.
    """
    if M_target <= 0.0:
        raise ValueError("M_target must be positive")
    c_ds = params.c_ds
    if init is None:
        radius = support_radius_init or 0.25 * grid.r_max
        init = barenblatt_profile(grid, M_target, radius, params.m)
    vols = grid.shell_volumes
    u_vals = init.values * (M_target / mass(init))
    m = params.m
    m2_anchor = float(np.dot(u_vals * grid.mean_r2, vols))
    lam = math.nan
    change = math.inf
    for iteration in range(1, max_iter + 1):
        phi = potential(kernel, DensityField(grid, u_vals), c_ds)
        candidate, lam = _solve_multiplier(phi, m, vols, M_target)
        damped = 0.5 * u_vals + 0.5 * candidate
        new_vals = _dilate_to_m2(DensityField(grid, damped), m2_anchor).values
        change = float(np.dot(np.abs(new_vals - u_vals), vols)) / M_target
        u_vals = new_vals
        if change < tol:
            break
    else:
        U_last = DensityField(grid, u_vals)
        raise ConvergenceError(
            f"no fixed point within {max_iter} iterations "
            f"(last relative L1 change {change:.3e})",
            last_change=change,
            last_residual=el_residual(U_last, kernel, params, M_target),
        )
    U = DensityField(grid, u_vals)
    return ExtremalResult(
        U=U,
        lambda_bar=lam,
        J_value=vhls_ratio(U, kernel, params),
        el_residual=el_residual(U, kernel, params, M_target),
        support_radius=_support_radius(U),
        iterations=iteration,
    )


def multiplier_defect(result: ExtremalResult, params: ModelParams,
                      M_target: float) -> float:
    """Signed gap (lam_converged - lam_variational) / |lam_variational|.

    Positive below the critical mass (the anchored profile is held
    against spreading) and negative above it, so a sign change brackets
    the critical mass.
    """
    lam_var = variational_multiplier(result.U, params, M_target)
    return (result.lambda_bar - lam_var) / abs(lam_var)


def find_critical_mass(grid: RadialGrid, kernel: RieszKernel, params: ModelParams,
                       M_lo: float, M_hi: float, rel_tol: float = 1e-5,
                       fp_tol: float = 1e-9, max_iter: int = 500,
                       support_radius_init: float | None = None
                       ) -> tuple[float, ExtremalResult]:
    """Bisection for the mass at which the anchored fixed point is an
    exact steady state (zero multiplier defect).

    Returns the measured critical mass and the converged profile there.
    The bracket must straddle the sign change; the closed-form upper
    bound for the interaction constant gives a natural lower endpoint
    (its mass is always subcritical).
    """
    def defect_at(M):
        res = el_fixed_point(grid, kernel, params, M, tol=fp_tol, max_iter=max_iter,
                             support_radius_init=support_radius_init)
        return multiplier_defect(res, params, M), res

    d_lo, res_lo = defect_at(M_lo)
    d_hi, res_hi = defect_at(M_hi)
    if d_lo == 0.0:
        return M_lo, res_lo
    if d_hi == 0.0:
        return M_hi, res_hi
    if d_lo * d_hi > 0.0:
        raise ValueError(
            f"multiplier defect does not change sign on [{M_lo}, {M_hi}] "
            f"({d_lo:.3e} vs {d_hi:.3e}); widen the bracket"
        )
    best = res_lo if abs(d_lo) < abs(d_hi) else res_hi
    M_best = M_lo if abs(d_lo) < abs(d_hi) else M_hi
    while (M_hi - M_lo) > rel_tol * M_hi:
        M_mid = 0.5 * (M_lo + M_hi)
        d_mid, res_mid = defect_at(M_mid)
        if abs(d_mid) < abs(multiplier_defect(best, params, M_best)):
            best, M_best = res_mid, M_mid
        if d_mid == 0.0:
            return M_mid, res_mid
        if d_lo * d_mid < 0.0:
            M_hi = M_mid
        else:
            M_lo, d_lo = M_mid, d_mid
    return M_best, best


def maximize_vhls(grid: RadialGrid, kernel: RieszKernel, params: ModelParams,
                  n_starts: int = 10, seed: int = 0,
                  max_moves: int = 400) -> ExtremalResult:
    """Stochastic ascent of the interaction ratio J over non-negative
    fields, reporting the best profile found.

    Each start draws a random bump mixture, rearranges it (which never
    decreases J), then proposes multiplicative radial bumps; proposals
    are re-rearranged and accepted only if J improves, so J is
    non-decreasing along the accepted sequence by construction.  A start
    ends after ``max_moves`` accepted moves or 60 failed proposals in a
    row.  The best ratio over all starts is the measured extremal
    constant.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    centers = grid.centers
    r_max = grid.r_max
    best_vals, best_J, best_moves = None, -math.inf, 0

    def ratio(vals):
        return vhls_ratio(DensityField(grid, vals), kernel, params)

    for _ in range(n_starts):
        vals = _random_bump_field(rng, centers, r_max)
        vals = rearrange(DensityField(grid, vals), onto=grid).values
        J = ratio(vals)
        moves = 0
        stalls = 0
        width_scale = 0.5
        while moves < max_moves and stalls < 60:
            center = rng.uniform(0.0, 0.7 * r_max)
            width = width_scale * r_max * 10.0 ** rng.uniform(-1.5, 0.0)
            amp = rng.uniform(-0.5, 0.5)
            bump = amp * np.exp(-0.5 * ((centers - center) / width) ** 2)
            proposal = np.clip(vals * (1.0 + bump), 0.0, None)
            if not np.any(proposal > 0.0):
                stalls += 1
                continue
            proposal = rearrange(DensityField(grid, proposal), onto=grid).values
            J_new = ratio(proposal)
            if J_new > J:  # accept-only-improving keeps J non-decreasing
                vals, J = proposal, J_new
                moves += 1
                stalls = 0
            else:
                stalls += 1
                if stalls % 20 == 0:
                    width_scale *= 0.5  # refine the proposal scale
        if J > best_J:
            best_vals, best_J, best_moves = vals, J, moves

    U = DensityField(grid, best_vals)
    M = mass(U)
    return ExtremalResult(
        U=U,
        lambda_bar=variational_multiplier(U, params, M),
        J_value=best_J,
        el_residual=el_residual(U, kernel, params, M),
        support_radius=_support_radius(U),
        iterations=best_moves,
    )


def _random_bump_field(rng, centers, r_max):
    """Non-negative mixture of Gaussian bumps plus an occasional slab."""
    n_bumps = rng.integers(1, 5)
    vals = np.zeros_like(centers)
    for _ in range(n_bumps):
        c = rng.uniform(0.0, 0.6 * r_max)
        w = rng.uniform(0.05, 0.4) * r_max
        a = rng.uniform(0.1, 1.0)
        vals += a * np.exp(-0.5 * ((centers - c) / w) ** 2)
    if rng.random() < 0.3:
        edge = rng.uniform(0.1, 0.5) * r_max
        vals += rng.uniform(0.1, 1.0) * (centers < edge)
    return vals


def blowup_initial_data(U: DensityField, M: float, params: ModelParams) -> DensityField:
    """Mass-rescaled steady profile (M / mass(U)) * U.

    Above the profile's own mass the rescaling makes the free energy
    negative (the entropy part grows like the ratio to the power m < 2,
    the interaction part like its square), which forces second-moment
    collapse and finite-time blow-up.
    """
    if M <= 0.0:
        raise ValueError("target mass must be positive")
    return U.with_values(U.values * (M / mass(U)))
