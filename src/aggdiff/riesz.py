"""Riesz-potential convolution on radial grids via a precomputed kernel.

For radial densities the d-dimensional convolution against
(|x-y|^2 + eps^2)^{-alpha/2} reduces to a 1-d integral against the
sphere-averaged kernel

    A(r, rho) = int_{S^{d-1}} (r^2 + rho^2 - 2 r rho cos(theta) + eps^2)^{-alpha/2} dsigma,

which for d = 3 has the closed form

    A = 2 pi / (r rho (2 - alpha)) * [ ((r+rho)^2 + eps^2)^{(2-alpha)/2}
                                      - ((r-rho)^2 + eps^2)^{(2-alpha)/2} ].

The stored matrix is the cell-pair average of A / omega_d with a fixed
Gauss rule per cell, weighted by the volume measure, so that with
v = shell_volumes:

    potential:   phi = c_ds * K @ (u * v)
    interaction: omega(u) = (u*v) @ K @ (u*v)

and the identity c_ds * omega(u) == sum(phi * u * v) holds to roundoff
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .field import DensityField, RadialGrid, face_gradient, require_same_grid
from .special import sphere_surface

_CHUNK_ROWS = 1024  # node rows per evaluation block, caps peak memory


def _power_diff(t_plus: np.ndarray, u: np.ndarray, p: float) -> np.ndarray:
    """t_plus^p - t_minus^p with t_minus = t_plus * (1 - u), u in [0, 1].

    Written via expm1/log1p so nearly-equal arguments (far off-diagonal
    pairs, where u -> 0) do not lose precision to cancellation.
    """
    u = np.minimum(u, 1.0)
    with np.errstate(divide="ignore"):
        return -t_plus ** p * np.expm1(p * np.log1p(-u))


def angular_kernel(r, rho, d: int, alpha: float, epsilon: float = 0.0):
    """Sphere-averaged interaction kernel A(r, rho); closed form for d = 3,
    adaptive quadrature otherwise.  Supports alpha in (0, 2)."""
    if not (0.0 < alpha < 2.0):
        raise ParameterDomainError(f"angular kernel requires 0 < alpha < 2, got {alpha}")
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if d == 3:
        return _angular_kernel_d3(r, rho, alpha, epsilon)
    return _angular_kernel_quad(r, rho, d, alpha, epsilon)


def _angular_kernel_d3(r, rho, alpha, epsilon):
    p = (2.0 - alpha) / 2.0
    t_plus = (r + rho) ** 2 + epsilon * epsilon
    u = 4.0 * r * rho / t_plus
    diff = _power_diff(t_plus, u, p)
    return 2.0 * np.pi * diff / (r * rho * (2.0 - alpha))


def _angular_kernel_quad(r, rho, d, alpha, epsilon):
    """General-d reduction: omega_{d-1} * int_0^pi sin^{d-2} / z^alpha dtheta.

    Reference path, not performance tuned.
    """
    from scipy.integrate import quad

    ring = sphere_surface(d - 1)

    def one(rr, pp):
        f = lambda th: np.sin(th) ** (d - 2) * (
            rr * rr + pp * pp - 2.0 * rr * pp * np.cos(th) + epsilon * epsilon
        ) ** (-alpha / 2.0)
        val, _ = quad(f, 0.0, np.pi, limit=200)
        return ring * val

    return np.vectorize(one)(r, rho)


def _gauss_nodes(grid: RadialGrid, order: int):
    """Per-cell Gauss nodes and volume-measure weights, flattened."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo = grid.r_edges[:-1][:, None]
    hi = grid.r_edges[1:][:, None]
    nodes = 0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w[None, :] * nodes ** (grid.d - 1)
    weights /= weights.sum(axis=1, keepdims=True)  # cell-average weights
    return nodes.ravel(), weights


def _pair_average(grid: RadialGrid, order: int, eval_fn) -> np.ndarray:
    """Cell-pair averages of a two-point radial function, in row chunks."""
    n = grid.n_cells
    nodes, weights = _gauss_nodes(grid, order)
    out = np.empty((n, n))
    rows_per_chunk = max(1, _CHUNK_ROWS // order)
    for i0 in range(0, n, rows_per_chunk):
        i1 = min(i0 + rows_per_chunk, n)
        block = eval_fn(nodes[i0 * order:i1 * order, None], nodes[None, :])
        block = block.reshape(i1 - i0, order, n, order)
        out[i0:i1] = np.einsum("ia,iajb,jb->ij", weights[i0:i1], block, weights)
    return out


@dataclass(frozen=True)
class RieszKernel:
    """Symmetric positive kernel matrix tied to one grid and one epsilon."""

    grid: RadialGrid
    s: float
    epsilon: float
    K: np.ndarray

    @property
    def alpha(self) -> float:
        return self.grid.d - 2.0 * self.s


def build_kernel(grid: RadialGrid, s: float, epsilon: float = 0.0,
                 gauss_order: int = 2) -> RieszKernel:
    """Precompute the dense interaction matrix for a grid.

    The 2-point product rule per cell pair is accurate for the smooth
    off-diagonal kernel; the diagonal kink |r - rho|^{2-alpha} is
    integrable for alpha < 2 and handled by the closed form itself.
    """
    alpha = grid.d - 2.0 * s
    if not (0.0 < alpha < 2.0):
        raise ParameterDomainError(
            f"kernel supports alpha = d - 2s in (0, 2); got alpha={alpha}"
        )
    if epsilon < 0.0:
        raise ParameterDomainError(f"epsilon must be >= 0, got {epsilon}")
    omega_d = sphere_surface(grid.d)
    if grid.d == 3:
        fn = lambda r, rho: _angular_kernel_d3(r, rho, alpha, epsilon) / omega_d
    else:
        fn = lambda r, rho: _angular_kernel_quad(r, rho, grid.d, alpha, epsilon) / omega_d
    K = _pair_average(grid, gauss_order, fn)
    K = 0.5 * (K + K.T)  # symmetrise away roundoff
    return RieszKernel(grid=grid, s=s, epsilon=epsilon, K=K)


def potential(kernel: RieszKernel, u: DensityField, c_ds: float) -> np.ndarray:
    """phi at cell centers: phi = c_ds * K @ (u v)."""
    require_same_grid(kernel.grid, u.grid, "kernel and field")
    return potential_values(kernel, u.values, c_ds)


def potential_values(kernel: RieszKernel, values: np.ndarray, c_ds: float) -> np.ndarray:
    """phi of raw cell values on the kernel's own grid (unchecked)."""
    return c_ds * (kernel.K @ (values * kernel.grid.shell_volumes))


def interaction_energy(kernel: RieszKernel, u: DensityField) -> float:
    """omega(u) = iint u(x) u(y) kernel dx dy (no c_ds factor)."""
    require_same_grid(kernel.grid, u.grid, "kernel and field")
    uv = u.values * u.grid.shell_volumes
    return float(uv @ (kernel.K @ uv))


def potential_gradient(kernel: RieszKernel, u: DensityField, c_ds: float) -> np.ndarray:
    """d(phi)/dr at the N+1 faces; zero at r = 0 (symmetry) and at R_max."""
    return face_gradient(potential(kernel, u, c_ds), kernel.grid)


def build_weak_interaction_kernel(grid: RadialGrid, s: float, dpsi,
                                  epsilon: float = 0.0,
                                  gauss_order: int = 2) -> np.ndarray:
    """Pair matrix for the symmetrised interaction term of the weak form.

    Realises the sphere average of

        [grad psi(x) - grad psi(y)] . (x - y) / (|x-y|^2 + eps^2)^{(alpha+2)/2}

    for a radial test function with radial derivative ``dpsi``.  The two
    difference factors cancel the non-integrable |x-y|^{-alpha-2}
    singularity, so the combined closed form below stays finite on the
    diagonal (d = 3 only).
    """
    if grid.d != 3:
        raise ParameterDomainError("weak-form kernel is implemented for d = 3 only")
    alpha = grid.d - 2.0 * s
    if not (0.0 < alpha < 2.0):
        raise ParameterDomainError(f"requires alpha in (0, 2), got {alpha}")
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
        term_b = b * _power_diff(t_plus, u, 1.0 - alpha / 2.0) / (1.0 - alpha / 2.0)
        return np.pi / (r * rho) * (term_a + term_b) / omega_d

    M = _pair_average(grid, gauss_order, fn)
    return 0.5 * (M + M.T)


def save_kernel(kernel: RieszKernel, path) -> None:
    np.savez_compressed(
        path,
        K=kernel.K,
        r_edges=kernel.grid.r_edges,
        meta=np.array([kernel.grid.d, kernel.s, kernel.epsilon]),
    )


def load_kernel(path) -> RieszKernel:
    data = np.load(path)
    d, s, epsilon = data["meta"]
    grid = RadialGrid(d=int(d), r_edges=data["r_edges"])
    return RieszKernel(grid=grid, s=float(s), epsilon=float(epsilon), K=data["K"])
