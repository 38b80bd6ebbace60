"""Riesz-potential convolution on radial grids via a precomputed kernel.

For radial densities the d-dimensional convolution against
(|x-y|^2 + eps^2)^{-alpha/2} reduces to a 1-d integral against the
sphere-averaged kernel

    A(r, rho) = int_{S^{d-1}} (r^2 + rho^2 - 2 r rho cos(theta) + eps^2)^{-alpha/2} dsigma,

which for d = 3 has the closed form

    A = 2 pi / (r rho (2 - alpha)) * [ ((r+rho)^2 + eps^2)^{(2-alpha)/2}
                                      - ((r-rho)^2 + eps^2)^{(2-alpha)/2} ].

The matrix K is the cell-pair average of A / omega_d with a fixed
Gauss rule per cell, weighted by the volume measure, so that with
v = shell_volumes:

    potential:   phi = c_ds * K @ (u * v)
    interaction: omega(u) = (u*v) @ K @ (u*v)

and the identity c_ds * omega(u) == sum(phi * u * v) holds to roundoff
by construction.  On uniform d = 3 grids of at least
``STRUCTURED_MIN_CELLS`` cells K is applied through FFTs of its Hankel
and Toeplitz parts and never stored; elsewhere it is a dense matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import ParameterDomainError
from .field import DensityField, RadialGrid, face_gradient, require_same_grid
from .special import sphere_surface

_CHUNK_ROWS = 1024  # node rows per evaluation block, caps peak memory
# Smallest uniform d = 3 grid that gets the FFT operator: the measured
# single-thread matvec crossover (dense faster at 512 cells, a tie at 544,
# FFT faster from 576 on; table in CHANGES.md).
STRUCTURED_MIN_CELLS = 576
# The FFT operator's absolute error is spread evenly over the rows, and the
# 1/r scaling amplifies it near the origin; its first rows are dense.
_EXACT_ROWS = 32


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


def _pair_average(grid: RadialGrid, order: int, eval_fn,
                  n_rows: int | None = None) -> np.ndarray:
    """Cell-pair averages of a two-point radial function, in row chunks;
    only the first ``n_rows`` rows if given."""
    n = grid.n_cells
    rows = n if n_rows is None else n_rows
    nodes, weights = _gauss_nodes(grid, order)
    out = np.empty((rows, n))
    rows_per_chunk = max(1, _CHUNK_ROWS // order)
    for i0 in range(0, rows, rows_per_chunk):
        i1 = min(i0 + rows_per_chunk, rows)
        block = eval_fn(nodes[i0 * order:i1 * order, None], nodes[None, :])
        block = block.reshape(i1 - i0, order, n, order)
        out[i0:i1] = np.einsum("ia,iajb,jb->ij", weights[i0:i1], block, weights)
    return out


def _kernel_fn(d: int, alpha: float, epsilon: float):
    """A(r, rho) / omega_d, the two-point function the matrix averages."""
    omega_d = sphere_surface(d)
    if d == 3:
        return lambda r, rho: _angular_kernel_d3(r, rho, alpha, epsilon) / omega_d
    return lambda r, rho: _angular_kernel_quad(r, rho, d, alpha, epsilon) / omega_d


def _dense_matrix(grid: RadialGrid, s: float, epsilon: float,
                  gauss_order: int) -> np.ndarray:
    """The pair-averaged interaction matrix, read-only.

    The 2-point product rule per cell pair is accurate for the smooth
    off-diagonal kernel; the diagonal kink |r - rho|^{2-alpha} is
    integrable for alpha < 2 and handled by the closed form itself.
    """
    K = _pair_average(grid, gauss_order, _kernel_fn(grid.d, grid.d - 2.0 * s, epsilon))
    K = 0.5 * (K + K.T)  # symmetrise away roundoff
    K.setflags(write=False)
    return K


class _HankelToeplitzOperator:
    """K @ v on a uniform d = 3 grid in O(N log N) time and O(N) memory.

    With nodes r_ia = i h + c_a the d = 3 closed form splits the
    pair-averaged matrix as K = c sum_{a,b} D_a (H_ab - T_ab) D_b, where
    D_a = diag(w_ia / r_ia), H_ab[i, j] = G((i+j) h + c_a + c_b) is Hankel,
    T_ab[i, j] = G((i-j) h + c_a - c_b) is Toeplitz and
    G(z) = (z^2 + eps^2)^{(2-alpha)/2}.  On a periodic buffer of length
    L >= 2N - 1 the Hankel product is a circular correlation and the
    Toeplitz product a circular convolution (standard circulant
    embedding), both exact at outputs 0 .. N-1; so a matvec is one real
    FFT per Gauss node, a spectral multiply-add and one inverse FFT per
    Gauss node.  The first ``_EXACT_ROWS`` rows are kept as dense matrix
    rows instead.
    """

    def __init__(self, grid: RadialGrid, alpha: float, epsilon: float, order: int):
        n = grid.n_cells
        h = grid.r_max / n
        x, _ = np.polynomial.legendre.leggauss(order)
        c = 0.5 * h * (1.0 + x)  # node offsets inside a cell
        nodes, weights = _gauss_nodes(grid, order)
        self.n = n
        self.size = next_fast_len(2 * n - 1, real=True)
        self.scale = np.ascontiguousarray((weights / nodes.reshape(n, order)).T)  # D_a
        G = lambda z: (z * z + epsilon * epsilon) ** (1.0 - 0.5 * alpha)
        c_sum = (c[:, None] + c[None, :])[..., None]
        c_diff = (c[:, None] - c[None, :])[..., None]
        hankel = np.zeros((order, order, self.size))
        hankel[..., :2 * n - 1] = G(np.arange(2 * n - 1) * h + c_sum)
        toeplitz = np.zeros((order, order, self.size))
        lags = np.arange(-(n - 1), n)  # lag k sits at buffer index k mod L
        toeplitz[..., lags] = G(lags * h + c_diff)
        const = 2.0 * np.pi / ((2.0 - alpha) * sphere_surface(3))
        # [H_a. | -T_a.] spectra against [conj(FFT(D v)) | FFT(D v)]
        self.spectra = const * rfft(np.concatenate((hankel, -toeplitz), axis=1))
        self.head = _pair_average(grid, order, _kernel_fn(3, alpha, epsilon),
                                  n_rows=min(_EXACT_ROWS, n))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        Y = rfft(self.scale * v, n=self.size)
        Z = (self.spectra * np.concatenate((Y.conj(), Y))).sum(axis=1)
        out = (self.scale * irfft(Z, n=self.size)[:, :self.n]).sum(axis=0)
        out[:_EXACT_ROWS] = self.head @ v
        return out


class RieszKernel:
    """Symmetric positive interaction operator tied to one grid and one
    epsilon.

    :meth:`apply` is the only matvec.  A kernel holds either the dense
    matrix ``K`` or, from :func:`build_kernel` on a large uniform d = 3
    grid, the structured operator; there ``K`` is the dense oracle,
    built on first access.
    """

    def __init__(self, grid: RadialGrid, s: float, epsilon: float,
                 K: np.ndarray | None = None, gauss_order: int = 2,
                 operator: _HankelToeplitzOperator | None = None):
        if (K is None) == (operator is None):
            raise ValueError("a kernel needs exactly one of K and operator")
        self.grid, self.s, self.epsilon = grid, s, epsilon
        self.gauss_order = gauss_order
        self._K, self._operator = K, operator

    @property
    def alpha(self) -> float:
        return self.grid.d - 2.0 * self.s

    @property
    def structured(self) -> bool:
        return self._operator is not None

    @property
    def K(self) -> np.ndarray:
        if self._K is None:
            self._K = _dense_matrix(self.grid, self.s, self.epsilon, self.gauss_order)
        return self._K

    def apply(self, x: np.ndarray) -> np.ndarray:
        """K @ x for a vector of N cell values."""
        if self._operator is not None:
            return self._operator(x)
        return self._K @ x


def _is_uniform(grid: RadialGrid) -> bool:
    return bool(np.array_equal(
        grid.r_edges, np.linspace(0.0, grid.r_max, grid.n_cells + 1)))


def build_kernel(grid: RadialGrid, s: float, epsilon: float = 0.0,
                 gauss_order: int = 2) -> RieszKernel:
    """Precompute the interaction operator for a grid: the structured FFT
    form on uniform d = 3 grids of at least ``STRUCTURED_MIN_CELLS``
    cells, the dense matrix otherwise."""
    alpha = grid.d - 2.0 * s
    if not (0.0 < alpha < 2.0):
        raise ParameterDomainError(
            f"kernel supports alpha = d - 2s in (0, 2); got alpha={alpha}"
        )
    if epsilon < 0.0:
        raise ParameterDomainError(f"epsilon must be >= 0, got {epsilon}")
    if grid.d == 3 and grid.n_cells >= STRUCTURED_MIN_CELLS and _is_uniform(grid):
        op = _HankelToeplitzOperator(grid, alpha, epsilon, gauss_order)
        return RieszKernel(grid, s, epsilon, gauss_order=gauss_order, operator=op)
    return RieszKernel(grid, s, epsilon, _dense_matrix(grid, s, epsilon, gauss_order),
                       gauss_order)


def potential(kernel: RieszKernel, u: DensityField, c_ds: float) -> np.ndarray:
    """phi at cell centers: phi = c_ds * K @ (u v)."""
    require_same_grid(kernel.grid, u.grid, "kernel and field")
    return potential_values(kernel, u.values, c_ds)


def potential_values(kernel: RieszKernel, values: np.ndarray, c_ds: float) -> np.ndarray:
    """phi of raw cell values on the kernel's own grid (unchecked)."""
    return c_ds * kernel.apply(values * kernel.grid.shell_volumes)


def interaction_energy(kernel: RieszKernel, u: DensityField) -> float:
    """omega(u) = iint u(x) u(y) kernel dx dy (no c_ds factor)."""
    require_same_grid(kernel.grid, u.grid, "kernel and field")
    uv = u.values * u.grid.shell_volumes
    return float(uv @ kernel.apply(uv))


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
        meta=np.array([kernel.grid.d, kernel.s, kernel.epsilon, kernel.gauss_order]),
    )


def load_kernel(path) -> RieszKernel:
    """A kernel written by :func:`save_kernel`, as a dense kernel.  The
    matrix must be (N, N) for the stored edges, finite and exactly
    symmetric; files without a stored Gauss order load as order 2."""
    with np.load(path) as data:
        meta, r_edges, K = data["meta"], data["r_edges"], data["K"]
    grid = RadialGrid(d=int(meta[0]), r_edges=r_edges)
    n = grid.n_cells
    if K.shape != (n, n):
        raise ValueError(f"{path}: K has shape {K.shape}, expected ({n}, {n}) "
                         "for the stored grid")
    if not np.all(np.isfinite(K)):
        raise ValueError(f"{path}: K has non-finite entries")
    if not np.array_equal(K, K.T):
        raise ValueError(f"{path}: K is not exactly symmetric")
    K.setflags(write=False)
    order = int(meta[3]) if meta.size > 3 else 2
    return RieszKernel(grid, float(meta[1]), float(meta[2]), K, order)
