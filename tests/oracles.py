"""Test oracles that the library does not ship.

* :func:`hls_constant_beta_form` codes the sharp interaction constant in
  the kernel power beta = d - 2s, independently of
  :func:`aggdiff.hls_sharp_constant`'s coding in s, so the identity
  between the two is a real check.
* The weak-form probe evaluates both sides of the distributional form of
  the equation along a stored trajectory (:func:`run_with_snapshots`),
  with its own discretisation of the symmetrised interaction term
  (:func:`build_weak_interaction_kernel`).
* :func:`wall_padded_step_terms` forms a stepper's face terms on all N+1
  faces, zero wall entries and sentinel spacings included, as the solver
  did before its stencil dropped the walls.
"""

import math
from dataclasses import dataclass

import numpy as np

from aggdiff import (ModelParams, ParameterDomainError, RadialGrid, RieszKernel,
                     riesz, solver)
from aggdiff.special import gamma, sphere_surface


def hls_constant_beta_form(d: int, s: float) -> float:
    """Sharp constant of the bilinear inequality

        |iint f(x) g(y) |x-y|^{-beta} dx dy| <= C ||f||_q ||g||_q,

    at the diagonal exponent q = 2d/(2d - beta) with beta = d - 2s, coded
    in beta with the library's Gamma."""
    beta = d - 2.0 * s
    return (
        math.pi ** (beta / 2.0)
        * gamma(d / 2.0 - beta / 2.0)
        / gamma(d - beta / 2.0)
        * (gamma(d / 2.0) / gamma(d)) ** (-1.0 + beta / d)
    )


def run_with_snapshots(u0, kernel, params, config):
    """:func:`aggdiff.run` plus the (t, values) state behind each of its
    diagnostics rows, recorded by wrapping the solver's row builder."""
    snapshots = []
    diag_row = solver._diag_row

    def recording(u, kernel, params, t, dt):
        snapshots.append((t, u.values.copy()))
        return diag_row(u, kernel, params, t, dt)

    solver._diag_row = recording
    try:
        outcome = solver.run(u0, kernel, params, config)
    finally:
        solver._diag_row = diag_row
    return outcome, snapshots


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
    """psi = r^2 on [0, a], smoothly truncated to 0 at b (virial probe):
    r^2 times :func:`plateau_test_function`, by the product rule."""
    f = plateau_test_function(a, b)
    return RadialTestFunction(
        psi=lambda r: r * r * f.psi(r),
        dpsi=lambda r: 2.0 * r * f.psi(r) + r * r * f.dpsi(r),
        ddpsi=lambda r: 2.0 * f.psi(r) + 4.0 * r * f.dpsi(r) + r * r * f.ddpsi(r),
        support_radius=b,
    )


def build_weak_interaction_kernel(grid: RadialGrid, s: float, dpsi,
                                  epsilon: float = 0.0) -> np.ndarray:
    """Pair matrix for the symmetrised interaction term of the weak form.

    Realises the sphere average of

        [grad psi(x) - grad psi(y)] . (x - y) / (|x-y|^2 + eps^2)^{(alpha+2)/2}

    for a radial test function with radial derivative ``dpsi``, averaged
    over cell pairs by the library's pair-average rule.  The two difference
    factors cancel the non-integrable |x-y|^{-alpha-2} singularity, so the
    combined closed form below stays finite on the diagonal (d = 3 only).
    """
    if grid.d != 3:
        raise ParameterDomainError("weak-form kernel is implemented for d = 3 only")
    alpha = riesz.check_alpha(grid.d - 2.0 * s)
    omega_d = sphere_surface(grid.d)
    eps2 = epsilon * epsilon

    def fn(r, rho):
        dp_r = dpsi(r)
        dp_rho = dpsi(rho)
        P = dp_r * r + dp_rho * rho
        Q = dp_r * rho + dp_rho * r
        t_plus = (r + rho) ** 2 + eps2
        t_minus = (r - rho) ** 2 + eps2
        u = np.minimum(4.0 * r * rho / t_plus, 1.0)
        a = P - Q * (r * r + rho * rho + eps2) / (2.0 * r * rho)
        b = Q / (2.0 * r * rho)
        # int (a + b t) t^{-(alpha+2)/2} dt over [t_minus, t_plus]
        with np.errstate(divide="ignore", invalid="ignore"):
            term_a = a * (2.0 / alpha) * (t_minus ** (-alpha / 2.0)
                                          - t_plus ** (-alpha / 2.0))
        # a vanishes quadratically on the diagonal; drop the 0 * inf there
        term_a = np.where(t_minus > 0.0, term_a, 0.0)
        term_b = (b * riesz._power_diff(t_plus, u, 1.0 - alpha / 2.0)
                  / (1.0 - alpha / 2.0))
        return np.pi / (r * rho) * (term_a + term_b) / omega_d

    return riesz._pair_average(grid, fn)


def weak_form_residual(trajectory, psi: RadialTestFunction, kernel: RieszKernel,
                       params: ModelParams) -> float:
    """Gap between the two sides of the distributional formulation over
    the trajectory's time span.

    ``trajectory`` is a sequence of (t, values) snapshots as produced by
    :func:`run_with_snapshots`.  The right-hand side integrates
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

    def rhs_rate(vals):
        uv = vals * vols
        diffusion = float(np.dot(lap_c, vals ** params.m * vols))
        interaction = float(uv @ (M_psi @ uv))
        return diffusion - 0.5 * params.alpha * c_ds * interaction

    times = np.array([t for t, _ in trajectory])
    rates = np.array([rhs_rate(vals) for _, vals in trajectory])
    rhs = float(np.trapezoid(rates, times))
    lhs = float(np.dot(psi_c, (trajectory[-1][1] - trajectory[0][1]) * vols))
    return abs(lhs - rhs)


def wall_padded_step_terms(stepper, u_vals: np.ndarray, phi: np.ndarray):
    """A stepper's face terms at the state ``u_vals`` with potential ``phi``,
    formed on all N+1 faces: the face velocity -dmu/dr set to zero at both
    walls, a zero-filled face flux and an eps rate whose wall entries divide
    by a [1.0] sentinel spacing, so the outer wall adds A(R_max) eps to the
    last cell's outflow.  Returns the outward rate A F at every face, each
    cell's net outward flux, the CFL step and the implicit Jacobian's bands
    (``_ImplicitStepper._bands``)."""
    grid, m, eps = stepper.grid, stepper.m, stepper.epsilon
    dr, areas, vols = grid.center_spacing, grid.face_areas, grid.shell_volumes
    mu = m / (m - 1.0) * u_vals ** (m - 1.0) - phi
    grad = np.zeros(grid.n_cells + 1)
    grad[1:-1] = (mu[1:] - mu[:-1]) / dr
    w = -grad
    donor = np.where(w[1:-1] > 0.0, u_vals[:-1], u_vals[1:])
    eps_rate = eps / np.concatenate(([1.0], dr, [1.0]))
    flux = np.zeros(w.size)
    flux[1:-1] = donor * w[1:-1]
    if eps > 0.0:
        flux[1:-1] -= eps * (u_vals[1:] - u_vals[:-1]) / dr
    net = areas[1:] * flux[1:] - areas[:-1] * flux[:-1]

    speeds = np.abs(w)
    diff_coeff = 2.0 * m * float(u_vals.max()) ** (m - 1.0) + 2.0 * eps
    dt_diff = np.min(grid.widths) ** 2 / diff_coeff if diff_coeff > 0.0 else np.inf
    outflow = areas * (speeds + eps_rate)
    outflow = outflow[:-1] + outflow[1:]
    with np.errstate(divide="ignore"):
        dt_adv = np.where(speeds[1:-1] > 0.0, dr / speeds[1:-1], np.inf).min()
        dt_vol = np.where(outflow > 0.0, vols / outflow, np.inf).min()
    dt = stepper.cfl * min(dt_adv, dt_diff, dt_vol)

    dmu = np.zeros(u_vals.size)
    occupied = u_vals > 0.0
    dmu[occupied] = m * u_vals[occupied] ** (m - 2.0)
    w_in = w[1:-1]
    from_left = w_in > 0.0
    d_left = areas[1:-1] * (np.where(from_left, w_in, 0.0) + donor * dmu[:-1] / dr
                            + eps_rate[1:-1])
    d_right = areas[1:-1] * (np.where(from_left, 0.0, w_in) - donor * dmu[1:] / dr
                             - eps_rate[1:-1])
    return areas * flux, net, dt, (d_left, d_right)
