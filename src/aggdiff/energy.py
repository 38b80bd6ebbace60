"""Free energy, chemical potential, dissipation, and sharp-ratio functionals.

The flow dissipates

    F(u) = 1/(m-1) * int u^m  -  c_ds/2 * omega(u)  =  S - W,

whose variational derivative is the chemical potential
mu = m/(m-1) u^{m-1} - phi.  The dissipation quadrature and the
solver's flux read one upwind face stencil (``_upwind_flow``), so the
semi-discrete identity dF/dt = -D holds exactly for the unregularised
flow; any mismatch between two stencils would show up as a spurious
energy identity violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import DensityField, RadialGrid, require_same_grid, sphere_surface
from .model import ModelParams
from .riesz import RieszKernel, potential_values


def _upwind_flow(values: np.ndarray, mu: np.ndarray, grid: RadialGrid):
    """The upwind stencil on the N-1 interior faces: the face velocity
    w = -dmu/dr, a central difference across adjacent cell centers, and
    the donor-cell values.  The walls carry no flux and have no entry."""
    w = (mu[:-1] - mu[1:]) / grid.center_spacing
    return w, np.where(w > 0.0, values[:-1], values[1:])


def chemical_potential(u: DensityField, kernel: RieszKernel,
                       params: ModelParams) -> np.ndarray:
    """mu = m/(m-1) u^{m-1} - phi at cell centers."""
    require_same_grid(u.grid, kernel.grid, "field and kernel")
    return _mu(u.values, potential_values(kernel, u.values, params.c_ds), params.m)


def _mu(values: np.ndarray, phi: np.ndarray, m: float) -> np.ndarray:
    return m / (m - 1.0) * values ** (m - 1.0) - phi


def dissipation(u: DensityField, mu: np.ndarray) -> float:
    """D = int u |grad mu|^2, summed over the interior faces of the solver's
    stencil with the upwind face densities."""
    grid = u.grid
    w, donor = _upwind_flow(u.values, mu, grid)
    face_measure = grid.face_areas[1:-1] * grid.center_spacing
    return float(np.sum(donor * w ** 2 * face_measure))


@dataclass(frozen=True)
class EnergyReport:
    """Free energy split F = S - W plus dissipation; the sharp ratio J is
    :func:`vhls_ratio`."""

    F: float
    S: float
    W: float
    D: float


def free_energy(u: DensityField, kernel: RieszKernel, params: ModelParams) -> float:
    """F = S - W, as :func:`energy_report` forms it."""
    return energy_report(u, kernel, params).F


def energy_report(u: DensityField, kernel: RieszKernel, params: ModelParams,
                  c_ds: float | None = None) -> EnergyReport:
    """F, S, W and D from one matvec K (u v): phi = c_ds K (u v) and
    omega = (u v) . K (u v)."""
    require_same_grid(u.grid, kernel.grid, "field and kernel")
    c_ds = params.c_ds if c_ds is None else c_ds
    m, vols = params.m, u.grid.shell_volumes
    uv = u.values * vols
    Kuv = kernel.apply(uv)
    omega = float(uv @ Kuv)
    S = float(np.dot(u.values ** m, vols) / (m - 1.0))
    W = float(0.5 * c_ds * omega)
    D = dissipation(u, _mu(u.values, c_ds * Kuv, m))
    return EnergyReport(F=S - W, S=S, W=W, D=D)


def vhls_ratio(u: DensityField, kernel: RieszKernel, params: ModelParams) -> float:
    """J(u) = omega(u) / ( ||u||_1^{2s/d} ||u||_m^m ).

    Scale and dilation invariant at the critical exponent, and bounded
    above by the sharp interaction constant.
    """
    require_same_grid(u.grid, kernel.grid, "field and kernel")
    with np.errstate(over="ignore"):  # _ratio checks omega and ||u||_m^m
        return _ratio(u.values, kernel, params)


def _ratio(values: np.ndarray, kernel: RieszKernel, params: ModelParams) -> float:
    """:func:`vhls_ratio` of values on the kernel's grid (unchecked), bit for bit."""
    vols = kernel.grid.shell_volumes
    M = float(np.dot(values, vols))  # mass
    if M <= 0.0:
        raise ValueError("VHLS ratio is undefined for the zero field")
    uv = values * vols
    m = params.m
    norm_m = np.dot(values ** m, vols)  # ||u||_m^m
    omega = float(uv @ kernel.apply(uv))
    if not (math.isfinite(omega) and math.isfinite(norm_m)):
        raise ValueError("VHLS ratio is undefined: omega or ||u||_m^m overflows")
    norm = float(norm_m ** (1.0 / m))  # lp_norm(u, m)
    denominator = M ** (2.0 * params.s / params.d) * norm ** m
    if denominator == 0.0:
        raise ValueError("VHLS ratio is undefined: M^(2s/d) ||u||_m^m underflows")
    return omega / denominator


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
    C3 = (sphere_surface(d) / d) ** ((r - 1.0) / r)
    Kp = (2.0 / p) ** (p / (p + 2.0)) + (p / 2.0) ** (2.0 / (p + 2.0))
    return (M / Kp) ** ((p + 2.0) / 2.0) * m2 ** (-p / 2.0) / C3
