"""Free energy, chemical potential, dissipation, and sharp-ratio functionals.

The flow dissipates

    F(u) = 1/(m-1) * int u^m  -  c_ds/2 * omega(u)  =  S - W,

whose variational derivative is the chemical potential
mu = m/(m-1) u^{m-1} - phi.  The dissipation quadrature deliberately
reuses the solver's upwind face stencil so that the semi-discrete
identity dF/dt = -D holds exactly for the unregularised flow; any
mismatch between the two stencils would show up as a spurious energy
identity violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (DensityField, RadialGrid, face_gradient, lp_norm, mass,
                    require_same_grid)
from .model import ModelParams
from .riesz import RieszKernel, interaction_energy, potential_values
from .special import ball_volume


def upwind_face_values(cell_values: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Donor-cell values at interior faces for a given face velocity."""
    inner = cell_values[:-1]
    outer = cell_values[1:]
    return np.where(velocity[1:-1] > 0.0, inner, outer)


def chemical_potential(u: DensityField, kernel: RieszKernel,
                       params: ModelParams, c_ds: float | None = None) -> np.ndarray:
    """mu = m/(m-1) u^{m-1} - phi at cell centers."""
    require_same_grid(u.grid, kernel.grid, "field and kernel")
    if c_ds is None:
        c_ds = params.c_ds
    return mu_values(u.values, kernel, params.m, c_ds)


def mu_values(values: np.ndarray, kernel: RieszKernel, m: float,
              c_ds: float) -> np.ndarray:
    """Chemical potential of raw cell values on the kernel's grid (unchecked)."""
    return _mu(values, potential_values(kernel, values, c_ds), m)


def _mu(values: np.ndarray, phi: np.ndarray, m: float) -> np.ndarray:
    return m / (m - 1.0) * values ** (m - 1.0) - phi


def dissipation(u: DensityField, mu: np.ndarray, grid: RadialGrid) -> float:
    """D = int u |grad mu|^2, with upwind face densities on the solver stencil."""
    w = -face_gradient(mu, grid)
    u_up = upwind_face_values(u.values, w)
    face_measure = grid.face_areas[1:-1] * grid.center_spacing
    return float(np.sum(u_up * w[1:-1] ** 2 * face_measure))


@dataclass(frozen=True)
class EnergyReport:
    """Free energy split F = S - W plus dissipation and sharp ratio."""

    F: float
    S: float
    W: float
    D: float
    J: float


def _entropy(u: DensityField, m: float) -> float:
    return float(np.dot(u.values ** m, u.grid.shell_volumes) / (m - 1.0))


def free_energy(u: DensityField, kernel: RieszKernel, params: ModelParams) -> float:
    require_same_grid(u.grid, kernel.grid, "field and kernel")
    omega = interaction_energy(kernel, u)
    return _entropy(u, params.m) - float(0.5 * params.c_ds * omega)


def energy_report(u: DensityField, kernel: RieszKernel, params: ModelParams,
                  c_ds: float | None = None) -> EnergyReport:
    """F, S, W, D and J from one matvec K (u v): phi = c_ds K (u v) and
    omega = (u v) . K (u v)."""
    require_same_grid(u.grid, kernel.grid, "field and kernel")
    c_ds = params.c_ds if c_ds is None else c_ds
    uv = u.values * u.grid.shell_volumes
    Kuv = kernel.apply(uv)
    omega = float(uv @ Kuv)
    S = _entropy(u, params.m)
    W = float(0.5 * c_ds * omega)
    D = dissipation(u, _mu(u.values, c_ds * Kuv, params.m), u.grid)
    M = mass(u)
    J = _sharp_ratio(omega, M, u, params) if M > 0.0 else 0.0
    return EnergyReport(F=S - W, S=S, W=W, D=D, J=J)


def vhls_ratio(u: DensityField, kernel: RieszKernel, params: ModelParams) -> float:
    """J(u) = omega(u) / ( ||u||_1^{2s/d} ||u||_m^m ).

    Scale and dilation invariant at the critical exponent, and bounded
    above by the sharp interaction constant.
    """
    require_same_grid(u.grid, kernel.grid, "field and kernel")
    M = mass(u)
    if M <= 0.0:
        raise ValueError("VHLS ratio is undefined for the zero field")
    return _sharp_ratio(interaction_energy(kernel, u), M, u, params)


def _sharp_ratio(omega: float, M: float, u: DensityField, params: ModelParams) -> float:
    m = params.m
    return float(omega / (M ** (2.0 * params.s / params.d) * lp_norm(u, m) ** m))


def virial_rhs(u: DensityField, kernel: RieszKernel, params: ModelParams) -> float:
    """Time derivative of the second moment: 2 (d - 2s) F(u)."""
    return 2.0 * (params.d - 2.0 * params.s) * free_energy(u, kernel, params)


def lr_lower_bound(M: float, m2: float, r: float, d: int) -> float:
    """Lower bound on ||u||_{L^r} for any density with mass M and second
    moment m2.

    Splitting the mass at radius R,

        M <= C3 R^{d(r-1)/r} ||u||_r + m2 / R^2,
        C3 = (unit ball volume)^{(r-1)/r},

    and optimising over R gives, with p = d(r-1)/r,

        ||u||_r >= C3^{-1} Kp^{-(p+2)/2} M^{(p+2)/2} m2^{-p/2},
        Kp = (2/p)^{p/(p+2)} + (p/2)^{2/(p+2)}.

    The optimisation constant is computed here rather than quoted; the
    bound diverges as m2 -> 0 at fixed mass, which is what forces the
    L^r norm to blow up when the second moment collapses.
    """
    if M <= 0.0 or m2 <= 0.0:
        raise ValueError("lr_lower_bound requires M > 0 and m2 > 0")
    if r <= 1.0:
        raise ValueError(f"exponent r must be > 1, got {r}")
    p = d * (r - 1.0) / r
    C3 = ball_volume(d) ** ((r - 1.0) / r)
    Kp = (2.0 / p) ** (p / (p + 2.0)) + (p / 2.0) ** (2.0 / (p + 2.0))
    return (M / Kp) ** ((p + 2.0) / 2.0) * m2 ** (-p / 2.0) / C3
