"""Riesz-potential convolution on radial grids via a precomputed kernel.

For radial densities the d-dimensional convolution against
(|x-y|^2 + eps^2)^{-alpha/2} reduces to a 1-d integral against the
sphere-averaged kernel

    A(r, rho) = int_{S^{d-1}} (r^2 + rho^2 - 2 r rho cos(theta) + eps^2)^{-alpha/2} dsigma,

which for d = 3 has the closed form

    A = 2 pi / (r rho (2 - alpha)) * [ ((r+rho)^2 + eps^2)^{(2-alpha)/2}
                                      - ((r-rho)^2 + eps^2)^{(2-alpha)/2} ].

For d != 3, in the half angle phi = theta / 2 and with e = (r-rho)^2 + eps^2,

    A = 2 omega_{d-1} int_0^{pi/2} sin^{d-2}(2 phi) (e + 4 r rho sin^2 phi)^{-alpha/2} dphi

is summed by one fixed tanh-sinh rule (Takahasi & Mori 1974), within
1e-11 relative of a tight adaptive quadrature, the kink at r = rho included.

The matrix K is the cell-pair average of A / omega_d with a fixed
Gauss rule per cell, weighted by the volume measure, so that with
v = shell_volumes:

    potential:   phi = c_ds * K @ (u * v)
    interaction: omega(u) = (u*v) @ K @ (u*v)

and the identity c_ds * omega(u) == sum(phi * u * v) holds to roundoff
by construction.  The pair averages are evaluated over the upper
triangle in blocks of whole rows and mirrored, so K equals K.T exactly.
A block holds about 1/``_BLOCKS`` of the rows, within ``_MIN_BLOCK_PAIRS``
to ``_BLOCK_PAIRS`` node pairs, so a build evaluates few pairs below the
diagonal and its temporaries neither grow with the grid nor, on small
grids, outgrow the matrix it keeps.
On uniform d = 3 grids of at least ``STRUCTURED_MIN_CELLS`` cells, with
epsilon at most r_max, K is applied through FFTs of its Hankel and
Toeplitz parts and never stored; elsewhere it is a dense matrix.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import irfft, rfft

from .errors import ParameterDomainError
from .field import (_GAUSS_LEGENDRE, DensityField, RadialGrid, _cell_gauss,
                    require_same_grid, sphere_surface)

# Pair-average blocks: about _BLOCKS per build (a block's diagonal square
# re-evaluates its lower half), each of at least _MIN_BLOCK_PAIRS node pairs
# (~0.3 ms of kernel evaluation against ~50 us of numpy calls per block) and
# at most _BLOCK_PAIRS (512 KiB per temporary at any grid size).
_BLOCKS, _MIN_BLOCK_PAIRS, _BLOCK_PAIRS = 16, 1 << 14, 1 << 16
_GAUSS_ORDER = 2  # Gauss nodes per cell in every pair average (a tabulated order)
# The d != 3 tanh-sinh rule: step 0.05 and 2 * 60 + 1 nodes, |t| <= 3.
_TANH_SINH_STEP, _TANH_SINH_HALF_NODES = 0.05, 60
# Smallest uniform d = 3 grid that gets the FFT operator: the measured
# single-thread matvec crossover (dense faster at 512 cells, a tie at 544,
# FFT faster from 576 on; table in CHANGES.md).
STRUCTURED_MIN_CELLS = 576
# The FFT operator's absolute error is spread evenly over the rows, and the
# 1/r scaling amplifies it near the origin; its first rows are dense.
_EXACT_ROWS = 32


def _next_fast_len(target: int) -> int:
    """The smallest 2^a 3^b 5^c >= target, the length scipy.fft's
    ``next_fast_len(target, real=True)`` returns."""
    n = max(target, 1)
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _power_diff(t_plus: np.ndarray, u: np.ndarray, p: float) -> np.ndarray:
    """t_plus^p - t_minus^p with t_minus = t_plus * (1 - u), u in [0, 1].

    Written via expm1/log1p so nearly-equal arguments (far off-diagonal
    pairs, where u -> 0) do not lose precision to cancellation.  Evaluated
    in place: both arguments are overwritten and the result is ``t_plus``.
    """
    np.minimum(u, 1.0, out=u)
    np.negative(u, out=u)
    with np.errstate(divide="ignore"):
        np.log1p(u, out=u)
    u *= p
    np.expm1(u, out=u)
    t_plus **= p
    np.negative(t_plus, out=t_plus)
    t_plus *= u
    return t_plus


def check_alpha(alpha: float) -> float:
    """The kernel power alpha = d - 2s, checked to lie in (0, 2), the range
    every kernel built here supports."""
    if not (0.0 < alpha < 2.0):
        raise ParameterDomainError(
            f"kernel supports alpha = d - 2s in (0, 2); got alpha={alpha}")
    return alpha


def check_epsilon(epsilon: float) -> None:
    """Checks the regularisation length: >= 0 with a finite square, past
    which (epsilon near 1.34e154) every kernel entry is NaN."""
    if not epsilon >= 0.0:
        raise ParameterDomainError(f"epsilon must be >= 0, got {epsilon}")
    if not math.isfinite(epsilon * epsilon):
        raise ParameterDomainError(
            f"epsilon^2 overflows double precision at epsilon={epsilon}")


def angular_kernel(r, rho, d: int, alpha: float, epsilon: float = 0.0):
    """Sphere-averaged interaction kernel A(r, rho), a scalar for scalar
    input: the closed form for d = 3, the tanh-sinh rule otherwise.
    Supports alpha in (0, 2)."""
    check_alpha(alpha)
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    A = (_angular_kernel_d3(r, rho, alpha, epsilon) if d == 3
         else _angular_kernel_tanh_sinh(r, rho, d, alpha, epsilon))
    return A[()]  # 0-d -> scalar


def _angular_kernel_d3(r, rho, alpha, epsilon):
    """The d = 3 closed form as a new array of the broadcast shape, built
    in place in two full-size buffers; ``r`` and ``rho`` are only read."""
    p = (2.0 - alpha) / 2.0
    t_plus = np.add(r, rho, out=np.empty(np.broadcast_shapes(r.shape, rho.shape)))
    t_plus **= 2
    t_plus += epsilon * epsilon
    u = np.multiply(4.0 * r, rho, out=np.empty_like(t_plus))
    u /= t_plus
    diff = _power_diff(t_plus, u, p)
    diff *= 2.0 * np.pi
    den = np.multiply(r, rho, out=u)
    den *= 2.0 - alpha
    diff /= den
    return diff


def _angular_kernel_tanh_sinh(r, rho, d, alpha, epsilon):
    """The d != 3 half-angle integral as a new array of the broadcast shape.

    The nodes phi_k = pi/4 (1 + tanh(pi/2 sinh t_k)) with t_k = k
    ``_TANH_SINH_STEP``, |k| <= ``_TANH_SINH_HALF_NODES``, take 1 + tanh as
    2 / (1 + e^{-2 u}), so sin(phi) keeps its digits near 0 and, reversed,
    cos(phi) near pi/2.  Each node's term is added into the result in place.
    """
    t = _TANH_SINH_STEP * np.arange(-_TANH_SINH_HALF_NODES, _TANH_SINH_HALF_NODES + 1)
    u = 0.5 * np.pi * np.sinh(t)
    sin_phi = np.sin(0.5 * np.pi / (1.0 + np.exp(-2.0 * u)))
    weights = (sphere_surface(d - 1) * _TANH_SINH_STEP * np.pi ** 2 / 4.0 * np.cosh(t)
               / np.cosh(u) ** 2 * (2.0 * sin_phi * sin_phi[::-1]) ** (d - 2))
    e = (r - rho) ** 2 + epsilon * epsilon
    r_rho = r * rho
    A, term = np.zeros(e.shape), np.empty(e.shape)
    for q, w in zip(4.0 * sin_phi * sin_phi, weights):
        np.multiply(r_rho, q, out=term)
        term += e
        term **= -0.5 * alpha
        term *= w
        A += term
    return A


def _gauss_nodes(grid: RadialGrid):
    """Per-cell Gauss nodes, flattened, and cell-average weights."""
    nodes, weights = _cell_gauss(grid, _GAUSS_ORDER)
    weights /= weights.sum(axis=1, keepdims=True)
    return nodes.ravel(), weights


def _pair_average(grid: RadialGrid, eval_fn, n_rows: int | None = None) -> np.ndarray:
    """Cell-pair averages of a symmetric two-point radial function.

    ``eval_fn(r, rho)`` must equal ``eval_fn(rho, r)``; the d = 3 closed
    form and the d != 3 tanh-sinh rule both do.  The nodes are evaluated in
    ``_BLOCKS`` blocks of whole cell rows, unless that would put fewer than
    ``_MIN_BLOCK_PAIRS`` or more than ``_BLOCK_PAIRS`` node pairs in one,
    so no temporary grows with the grid.  For the full matrix each block
    starts at its own first cell column: the upper triangle is evaluated
    once and mirrored, so the result equals its transpose exactly.  With
    ``n_rows`` only the first ``n_rows`` rows are built, over all columns.
    """
    n = grid.n_cells
    order = _GAUSS_ORDER
    nodes, weights = _gauss_nodes(grid)
    full = n_rows is None
    rows = n if full else n_rows
    out = np.empty((rows, n))
    rows_per_block = max(1, min(_BLOCK_PAIRS // (order * order * n),
                                max(_MIN_BLOCK_PAIRS // (order * order * n),
                                    math.ceil(rows / _BLOCKS))))
    for i0 in range(0, rows, rows_per_block):
        i1 = min(i0 + rows_per_block, rows)
        j0 = i0 if full else 0
        block = eval_fn(nodes[i0 * order:i1 * order, None], nodes[None, j0 * order:])
        block = block.reshape(i1 - i0, order, n - j0, order)
        avg = np.einsum("ia,iajb,jb->ij", weights[i0:i1], block, weights[j0:])
        if not full:
            out[i0:i1] = avg
            continue
        width = i1 - i0
        square = avg[:, :width]
        out[i0:i1, i0:i1] = np.triu(square) + np.triu(square, 1).T
        out[i0:i1, i1:] = avg[:, width:]
        out[i1:, i0:i1] = avg[:, width:].T
    return out


def _kernel_fn(d: int, alpha: float, epsilon: float):
    """A(r, rho) / omega_d, the two-point function the matrix averages."""
    omega_d = sphere_surface(d)

    def fn(r, rho):
        A = angular_kernel(r, rho, d, alpha, epsilon)
        A /= omega_d
        return A

    return fn


def _dense_matrix(grid: RadialGrid, s: float, epsilon: float) -> np.ndarray:
    """The pair-averaged interaction matrix, read-only.

    The 2-point product rule per cell pair is accurate for the smooth
    off-diagonal kernel; the diagonal kink |r - rho|^{2-alpha} is
    integrable for alpha < 2 and handled by the closed form itself.
    """
    K = _pair_average(grid, _kernel_fn(grid.d, grid.d - 2.0 * s, epsilon))
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
    FFT (numpy.fft) per Gauss node, a spectral multiply-add and one inverse
    FFT per Gauss node.  The multiply-add adds the 2 order^2 spectral
    products into the result in place, one term at a time, so no array of
    all of them is formed.  The first ``_EXACT_ROWS`` rows are kept as
    dense matrix rows instead.
    """

    def __init__(self, grid: RadialGrid, alpha: float, epsilon: float):
        n, order = grid.n_cells, _GAUSS_ORDER
        h = grid.r_max / n
        c = 0.5 * h * (1.0 + np.array(_GAUSS_LEGENDRE[order][0]))  # node offsets in a cell
        nodes, weights = _gauss_nodes(grid)
        self.n = n
        self.size = _next_fast_len(2 * n - 1)
        self.scale = np.ascontiguousarray((weights / nodes.reshape(n, order)).T)  # D_a
        G = lambda z: (z * z + epsilon * epsilon) ** (1.0 - 0.5 * alpha)
        c_sum = (c[:, None] + c[None, :])[..., None]
        c_diff = (c[:, None] - c[None, :])[..., None]
        # [H_a. | -T_a.] spectra against [conj(FFT(D v)) | FFT(D v)]
        stacked = np.zeros((order, 2 * order, self.size))
        stacked[:, :order, :2 * n - 1] = G(np.arange(2 * n - 1) * h + c_sum)
        toeplitz = stacked[:, order:]
        lags = np.arange(-(n - 1), n)  # lag k sits at buffer index k mod L
        toeplitz[..., lags] = G(lags * h + c_diff)
        np.negative(toeplitz, out=toeplitz)
        self.spectra = rfft(stacked)
        del stacked, toeplitz  # before the head rows' blocks are evaluated
        self.spectra *= 2.0 * np.pi / ((2.0 - alpha) * sphere_surface(3))
        self.head = _pair_average(grid, _kernel_fn(3, alpha, epsilon),
                                  n_rows=min(_EXACT_ROWS, n))
        # Work buffer reused by every matvec: D v goes before a zero tail,
        # because numpy.fft pads a short input slowly.
        self._padded = np.zeros((order, self.size))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        np.multiply(self.scale, v, out=self._padded[:, :self.n])
        Y = rfft(self._padded)
        order = len(Y)
        # Z_a = sum_b H_ab conj(Y_b) - T_ab Y_b, summed in the order of the
        # stacked spectra [H_a. | -T_a.]
        Z = self.spectra[:, 0] * Y[0].conj()
        for b in range(1, 2 * order):
            Z += self.spectra[:, b] * (Y[b].conj() if b < order else Y[b - order])
        out = (self.scale * irfft(Z, n=self.size)[:, :self.n]).sum(axis=0)
        out[:_EXACT_ROWS] = self.head @ v
        return out


class RieszKernel:
    """Symmetric positive interaction operator tied to one grid and one
    epsilon.

    A kernel holds the one operator :func:`build_kernel` chose: the
    read-only dense pair-average matrix, or the structured FFT operator.
    :meth:`apply` is the only matvec.
    """

    def __init__(self, grid: RadialGrid, s: float, epsilon: float,
                 operator: np.ndarray | _HankelToeplitzOperator):
        self.grid, self.s, self.epsilon = grid, s, epsilon
        self._operator = operator

    def apply(self, x: np.ndarray) -> np.ndarray:
        """K @ x for a vector of N cell values."""
        return self._operator @ x


def build_kernel(grid: RadialGrid, s: float, epsilon: float = 0.0) -> RieszKernel:
    """Precompute the interaction operator for a grid: the structured FFT
    form on uniform d = 3 grids of at least ``STRUCTURED_MIN_CELLS``
    cells with epsilon <= r_max, the dense matrix otherwise.  Past r_max
    the FFT form's Hankel - Toeplitz difference of the nearly constant
    G(z) cancels: against the dense matrix on a 600-cell r_max = 4 grid
    its max-norm relative error is 1.6e-12 at epsilon = 100 and 2 at 1e8.
    The kernel holds that one operator; the FFT path never forms the
    N x N matrix."""
    alpha = check_alpha(grid.d - 2.0 * s)
    check_epsilon(epsilon)
    if (grid.d == 3 and grid.n_cells >= STRUCTURED_MIN_CELLS and epsilon <= grid.r_max
            and np.array_equal(grid.r_edges, np.linspace(0.0, grid.r_max, grid.n_cells + 1))):
        operator = _HankelToeplitzOperator(grid, alpha, epsilon)
    else:
        operator = _dense_matrix(grid, s, epsilon)
    return RieszKernel(grid, s, epsilon, operator)


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

