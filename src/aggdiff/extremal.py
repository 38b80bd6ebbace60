"""Steady extremal profiles: fixed-point solve, ratio maximisation,
critical-mass measurement, and supercritical initial data.

On its support a steady profile U with multiplier lam satisfies

    m/(m-1) U^{m-1} = phi_U + lam,      phi_U = c_ds K (U v),

so the natural iteration is U <- [ (m-1)/m (phi_U + lam)_+ ]^{1/(m-1)}
with lam re-solved each sweep to hold the mass constraint: Newton's
method on mass(lam)^(m-1), which is convex and increasing in lam, from
the previous sweep's lam or a lower bound, whichever is larger: about 7
evaluations from the bound, 2 to 4 from the previous lam, and no bracket
search.  Undamped Picard oscillates for the degenerate exponent, so a
sweep averages the candidate with the current iterate (factor 0.5).  That damped sweep
converges only linearly (about 42 sweeps per solve near the critical
mass), so the solve runs type-II Anderson mixing on top of it: each new
iterate is the least-squares combination of the last six sweep outputs
(volume-weighted L^2 residuals), clipped at 0 and rescaled to the target
mass, about 13 sweeps per solve.  A growing residual clears the mixing
history, and a run of sweeps with no new smallest residual switches to
plain sweeps for the rest of the solve, so a case where mixing does not
help costs about the plain iteration's sweeps.

At the critical exponent the steady equation has an exactly neutral
dilation mode (u -> mu^d u(mu r) preserves mass), so when the target
mass is off the critical value the iterate drifts along that mode
instead of converging: it spreads to the wall below the critical mass
and collapses toward the grid scale above it.  The iteration therefore
pins the mode by rescaling each iterate back to the second moment of
the initial guess (an exact mass-preserving dilation).  The anchored
profile U_M then exists at every mass M, but only at the critical mass
does its multiplier match the variational value

    lam = (2s / (2s - d)) ||U||_m^m / M   (< 0 since 2s < d);

the signed mismatch is reported as a quality figure beside the residual.
:func:`find_critical_mass` reads the critical mass off the interaction
ratio instead, through the paper's identity
M_c = M* (C*_upper / J*)^{d/(2s)}: from M = M* it iterates
M <- M* (C*_upper / J(U_M))^{d/(2s)}, 3 solves and 42 sweeps at 4096
cells.  Its solves after the first start from the previous profile but
keep the anchor of a cold start (the default guess at the new mass), so
each U_M is the cold solve's to within the fixed-point tolerance.  The
residual reported everywhere checks the steady equation against the
variational multiplier, independently of the iteration's own value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .field import (
    DensityField,
    RadialGrid,
    _project,
    _random_bump_field,
    _rearranged,
    barenblatt_profile,
    dilate,
    lp_norm,
    mass,
    project_onto,
    rearrange,
    second_moment,
)
from .energy import _mu, _ratio, vhls_ratio
from .model import ModelParams, critical_mass, derived_constants
from .riesz import RieszKernel, potential


_NEWTON_STEPS = 100  # multiplier solve budget; a cold solve takes about 7 steps
_MIXING_DEPTH = 5  # sweep-output differences per Anderson step
_MIXING_STALL = 4  # sweeps without a new smallest residual before plain steps
_MAX_MOVES = 400  # accepted moves per start of maximize_vhls
_SEARCH_SOLVES = 50  # solve budget of find_critical_mass; it takes 3 to 5


@dataclass(frozen=True)
class ExtremalResult:
    """Converged steady profile with its multiplier and quality measures.

    ``multiplier_defect`` is (lambda_bar - lam_var) / |lam_var| with lam_var
    the variational multiplier: positive below the critical mass, negative
    above it, and 0 for an exact steady state."""

    U: DensityField
    lambda_bar: float
    J_value: float
    el_residual: float
    multiplier_defect: float
    support_radius: float
    iterations: int


def _support_mask(values: np.ndarray) -> np.ndarray:
    """Cells above 1e-8 of the peak."""
    peak = float(np.max(values, initial=0.0))
    return values > 1e-8 * peak


def _support_radius(u: DensityField) -> float:
    """Outer edge of the last support cell, for a field of positive mass."""
    return float(u.grid.r_edges[1:][_support_mask(u.values)].max())


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
    defect = _mu(U.values, potential(kernel, U, params.c_ds), params.m) - lam
    return float(np.max(np.abs(defect[above])) / abs(lam))


def _mass_of_multiplier(phi: np.ndarray, lam: float, m: float, vols: np.ndarray):
    """y^p and y^(p-1) with their vols-weighted sums, y = (m-1)/m (phi+lam)_+.

    Only the cells with y > 0 are raised to the power (p - 1 > 0, so the
    rest are exactly 0); the sums still run over the whole grid, so every
    value and sum is the full-grid formula's bit for bit."""
    y = np.maximum((m - 1.0) / m * (phi + lam), 0.0)
    y_pm1 = np.zeros_like(y)
    np.power(y, (2.0 - m) / (m - 1.0), out=y_pm1, where=y > 0.0)  # p - 1, p = 1/(m-1)
    vals = y_pm1 * y
    return vals, y_pm1, float(np.dot(vals, vols)), float(np.dot(y_pm1, vols))


def _solve_multiplier(phi: np.ndarray, m: float, vols: np.ndarray,
                      M_target: float, lam_start: float = math.nan
                      ) -> tuple[np.ndarray, float]:
    """Newton's method on mass(lam)^(m-1) = M_target^(m-1).  The left side
    is a p-norm of convex increasing functions of lam, so from any start
    at or above the lower bound lam_0 (the peak value on the whole volume
    holds M_target) that is left of the root the first step lands right of
    it, and from right of the root the steps decrease lam.  The start is
    ``lam_start`` (the previous sweep's multiplier) where that is finite and
    above lam_0, else lam_0.  It stops once a step is below
    1e-14 + 4 eps |lam| (brentq's tolerances) and applies that step to the
    values to first order."""
    phi_max = float(np.max(phi))
    if not (math.isfinite(phi_max) and math.isfinite(np.min(phi))):
        raise ValueError("potential must be finite")
    c = (m - 1.0) / m
    lam = -phi_max + (M_target / float(np.sum(vols))) ** (m - 1.0) / c
    if lam_start > lam and math.isfinite(lam_start):  # a NaN start compares False
        lam = lam_start
    rtol = 4.0 * np.finfo(float).eps
    for _ in range(_NEWTON_STEPS):
        vals, y_pm1, M, S1 = _mass_of_multiplier(phi, lam, m, vols)
        step = M * (1.0 - (M_target / M) ** (m - 1.0)) / (c * S1)
        lam -= step
        if abs(step) <= 1e-14 + rtol * abs(lam):  # d vals/d lam = y^(p-1)/m
            return np.maximum(vals - step / m * y_pm1, 0.0), lam
    raise ConvergenceError(f"multiplier solve took over {_NEWTON_STEPS} Newton steps")


def el_fixed_point(grid: RadialGrid, kernel: RieszKernel, params: ModelParams,
                   M_target: float, tol: float = 1e-10, max_iter: int = 500, *,
                   support_radius_init: float) -> ExtremalResult:
    """Fixed-point solve of the steady equation at fixed mass, with
    Anderson mixing on top of a damped sweep.

    One sweep G(u) solves the multiplier for phi_u, averages the
    candidate with u (factor 0.5) and rescales the result back to the
    initial second moment through the exact mass-invariant dilation;
    without that anchor the neutral dilation mode lets off-critical
    masses drift to the wall or to the grid scale instead of settling.
    The next iterate is the combination of the last ``_MIXING_DEPTH`` + 1
    sweep outputs whose residuals G(u) - u combine to the least
    volume-weighted L^2 norm (type-II Anderson mixing), clipped at 0 and
    rescaled to M_target.  It is not dilated again: each dilation adds
    about 1e-5 of projection error, which stalls the mixing.  The
    safeguard: a sweep whose residual norm grows clears the history, so
    the next step is a plain G step, and after ``_MIXING_STALL`` sweeps
    without a new smallest residual norm every remaining step is plain.
    The first sweep is always a plain step.  Each sweep's multiplier solve
    starts from the previous sweep's multiplier where that lies above the
    solve's lower bound.

    ``tol`` bounds the L^1 change of the last sweep relative to M_target;
    the result is that sweep's output, with its multiplier, and
    ``iterations`` counts the sweeps.  The initial guess is a compact
    truncated-parabola bump of the right mass, of radius
    ``support_radius_init`` (a radius <= 0 raises ValueError).  Raises
    :class:`ConvergenceError` if the budget runs out.

    From a guess of radius 1, the CLI's default, the result holds M_target
    to roundoff while its support stays off R_max: within 5e-14 relative
    at 0.5, 1.0 and 1.08 M* on 96 cells (R_max 3) and 256 cells (R_max
    4), so the critical-mass search's masses (M* to 1.024 M* at d = 3) are
    on the exact side.
    Further above M* the dilation spreads the collapsing iterate to the
    wall and drops the mass it pushes past R_max, and the result falls
    short of M_target: by 6e-6 to 2.4e-5 relative at 1.5 M* and 2e-4 to
    5e-4 at 2 M* on those grids.
    """
    if M_target <= 0.0:
        raise ValueError("M_target must be positive")
    cold = barenblatt_profile(grid, M_target, support_radius_init, params.m)
    return _anchored_fixed_point(grid, kernel, params, M_target, cold, cold,
                                 tol, max_iter)


def _anchored_fixed_point(grid: RadialGrid, kernel: RieszKernel,
                          params: ModelParams, M_target: float,
                          start: DensityField, anchor: DensityField, tol: float,
                          max_iter: int) -> ExtremalResult:
    """:func:`el_fixed_point`'s iteration from ``start``, with every sweep
    dilated back to the second moment of ``anchor``; both are first
    rescaled to M_target.  The anchor sets the fixed point, and so the
    multiplier defect: solves from different starts stop within ``tol``
    of the same one."""
    c_ds = params.c_ds
    vols = grid.shell_volumes
    weights = np.sqrt(vols)
    u_vals = start.values * (M_target / mass(start))
    m = params.m
    anchor_vals = anchor.values * (M_target / mass(anchor))
    m2_anchor = second_moment(DensityField(grid, anchor_vals))
    lam = math.nan
    change = math.inf
    best = last_norm = math.inf
    since_best, mixing = 0, True
    outputs, residuals = [], []  # sweep outputs G(u) and weighted G(u) - u
    for iteration in range(1, max_iter + 1):
        phi = potential(kernel, DensityField(grid, u_vals), c_ds)
        candidate, lam = _solve_multiplier(phi, m, vols, M_target, lam)
        damped = DensityField(grid, 0.5 * u_vals + 0.5 * candidate)
        # the mass-invariant dilation back to the anchored second moment
        g_vals = dilate(damped, math.sqrt(second_moment(damped) / m2_anchor)).values
        change = float(np.dot(np.abs(g_vals - u_vals), vols)) / M_target
        if change < tol:
            u_vals = g_vals
            break
        residual = weights * (g_vals - u_vals)
        norm = float(np.linalg.norm(residual))
        if norm < best:
            best, since_best = norm, 0
        else:
            since_best += 1
        mixing = mixing and since_best < _MIXING_STALL
        if norm > last_norm or not mixing:  # a one-entry history is a plain step
            outputs.clear()
            residuals.clear()
        last_norm = norm
        outputs.append(g_vals)
        residuals.append(residual)
        del outputs[:-_MIXING_DEPTH - 1], residuals[:-_MIXING_DEPTH - 1]
        u_vals = _anderson_mix(outputs, residuals, vols, M_target)
    else:
        raise ConvergenceError(f"no fixed point within {max_iter} iterations "
                               f"(last relative L1 change {change:.3e})")
    U = DensityField(grid, u_vals)
    lam_var = variational_multiplier(U, params, M_target)
    return ExtremalResult(
        U=U,
        lambda_bar=lam,
        J_value=vhls_ratio(U, kernel, params),
        el_residual=el_residual(U, kernel, params, M_target),
        multiplier_defect=(lam - lam_var) / abs(lam_var),
        support_radius=_support_radius(U),
        iterations=iteration,
    )


def _anderson_mix(outputs: list, residuals: list, vols: np.ndarray,
                  M_target: float) -> np.ndarray:
    """Type-II Anderson update from the sweep outputs and their weighted
    residuals (oldest first): the latest output minus the combination of
    output differences whose residual differences best cancel the latest
    residual in least squares, clipped at 0 and rescaled to M_target.
    With a single entry this is the latest output itself.

    The least squares go through the small normal equations: lstsq on
    the N x depth matrix costs a third of a sweep at 4096 cells.  Its
    rank cutoff on the Gram matrix drops the directions in which the
    residual differences are below ~3e-8 of the largest singular value;
    they would move the iterate without measurably reducing the residual."""
    if len(outputs) == 1:
        return outputs[0]
    d_res = np.diff(residuals, axis=0)
    gamma = np.linalg.lstsq(d_res @ d_res.T, d_res @ residuals[-1], rcond=None)[0]
    mixed = np.maximum(outputs[-1] - gamma @ np.diff(outputs, axis=0), 0.0)
    return mixed * (M_target / float(np.dot(mixed, vols)))


def find_critical_mass(grid: RadialGrid, kernel: RieszKernel, params: ModelParams,
                       M_start: float | None = None, M_cap: float | None = None,
                       rel_tol: float = 1e-5, fp_tol: float = 1e-9,
                       max_iter: int = 500, *,
                       support_radius_init: float) -> tuple[float, ExtremalResult]:
    """The critical mass read off the interaction ratio, with the steady
    profile there.

    The threshold is the mass of the optimal constant J*:
    M_c = M* (C*_upper / J*)^{d/(2s)}, which is
    :func:`~aggdiff.model.critical_mass` at J*.  From M = M* the search
    solves U_M, the anchored fixed point at M, and sets M to
    ``critical_mass(d, s, J(U_M))``.  It stops once a step moves M by at
    most ``rel_tol`` M and returns the last solved mass with its profile.
    At the map's fixed point the profile's free energy
    F = ||U||_m^m (1/(m-1) - c_ds J M^{2s/d} / 2) vanishes.
    For an exact steady state this fixed point of the map is the zero of
    the multiplier defect; on a uniform grid the two discretisations of
    M_c differ at O(h^2) (2.2e-5 relative at 256 cells, 1.4e-6 at 1024).
    Raises :class:`ConvergenceError` if M has not settled after
    ``_SEARCH_SOLVES`` solves.

    Every solve after the first starts from the previous profile, rescaled
    to the new mass, but keeps the cold start's anchor: the second moment
    of :func:`el_fixed_point`'s guess at that mass.  The anchor sets the
    fixed point, so each J is the cold solve's to within ``fp_tol`` while
    the warm solve takes fewer sweeps.

    ``M_start`` (default M*) and ``M_cap`` (default none) exist only for
    the benchmark harness's positional call (M*, 1.08 M*); nothing in the
    package, the demos or the README passes them, and both go when that
    call moves.  An iterate above ``M_cap`` raises :class:`ConvergenceError`.
    """
    M = derived_constants(params).M_star if M_start is None else M_start
    top = math.inf if M_cap is None else M_cap
    if not (0.0 < rel_tol < 1.0 and 0.0 < M <= top):
        raise ValueError(f"need 0 < rel_tol < 1 and 0 < M_start <= M_cap, got "
                         f"rel_tol={rel_tol}, M_start={M}, M_cap={M_cap}")
    U = None
    for _ in range(_SEARCH_SOLVES):
        cold = barenblatt_profile(grid, M, support_radius_init, params.m)
        result = _anchored_fixed_point(grid, kernel, params, M,
                                       cold if U is None else U, cold, fp_tol,
                                       max_iter)
        U = result.U
        M_next = critical_mass(params.d, params.s, result.J_value)
        if abs(M_next - M) <= rel_tol * M:
            return M, result
        if M_next > top:
            raise ConvergenceError(f"critical-mass iterate {M_next:.6g} lies above "
                                   f"the cap M_cap={M_cap:.6g}")
        M = M_next
    raise ConvergenceError(f"critical mass not settled within {_SEARCH_SOLVES} "
                           f"solves (last iterate {M:.6g})")


def maximize_vhls(grid: RadialGrid, kernel: RieszKernel, params: ModelParams,
                  n_starts: int = 10, seed: int = 0) -> ExtremalResult:
    """Stochastic ascent of the interaction ratio J over non-negative
    fields, reporting the best profile found.

    Each start draws a random bump mixture, rearranges it (which never
    decreases J), then proposes multiplicative radial bumps; proposals
    are re-rearranged and accepted only if J improves, so J is
    non-decreasing along the accepted sequence by construction.  A start
    ends after ``_MAX_MOVES`` (400) accepted moves or 60 failed proposals
    in a row.  The best ratio over all starts is the measured extremal
    constant.

    Proposals run on value arrays through the cores of the field-level
    rules, with the same checks, and build no grid or field.  A proposal
    without a rise is still projected onto its own grid, which moves its
    last digits; keeping that projection keeps every result bit for bit.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    centers = grid.centers
    r_max = grid.r_max
    vols, pow_d = grid.shell_volumes, grid.edges_pow_d
    best_vals, best_J, best_moves = None, -math.inf, 0
    for _ in range(n_starts):
        start = DensityField(grid, _random_bump_field(rng, grid))
        u = project_onto(rearrange(start), grid)
        vals, J = u.values, vhls_ratio(u, kernel, params)
        moves = 0
        stalls = 0
        width_scale = 0.5
        while moves < _MAX_MOVES and stalls < 60:
            # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), draw for draw
            x_center, x_width, x_amp = rng.random(3).tolist()
            center = 0.7 * r_max * x_center
            width = width_scale * r_max * 10.0 ** (-1.5 + 1.5 * x_width)
            amp = -0.5 + x_amp
            bump = amp * np.exp(-0.5 * ((centers - center) / width) ** 2)
            proposal = np.maximum(vals * (1.0 + bump), 0.0)
            peak = np.maximum.reduce(proposal)  # proposal.max() without its wrapper
            if not peak > 0.0:  # a NaN proposal stalls too
                stalls += 1
                continue
            if peak == np.inf:
                raise ValueError("density values must be finite and non-negative")
            sorted_vals, _, src_vols, src_pow_d = _rearranged(proposal, grid)
            u_vals = _project(sorted_vals, src_vols, src_pow_d, pow_d, vols)
            if not np.maximum.reduce(u_vals) < np.inf:  # DensityField's check: >= 0 or NaN
                raise ValueError("density values must be finite and non-negative")
            J_new = _ratio(u_vals, kernel, params)
            if J_new > J:  # accept-only-improving keeps J non-decreasing
                vals, J = u_vals, J_new
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
        multiplier_defect=0.0,  # lambda_bar is the variational multiplier
        support_radius=_support_radius(U),
        iterations=best_moves,
    )


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
