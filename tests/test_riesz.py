"""Kernel quadrature against independent oracles.

Frozen reference values, computed once with independent tools:
  * angular kernel at r = rho = 1 (d=3, alpha=1/2, eps=0):
    closed form (2 pi / 1.5) * 2^{3/2} = 11.847687835088976, reproduced
    by adaptive theta-quadrature to 5e-14.
  * interaction energy of the unit-ball indicator at alpha = 1/2:
    nested adaptive quadrature (scipy.integrate.quad over theta, then
    rho, then r, tolerances 1e-10) gives 4 pi * 1.4771143274934997
    = 18.561966079063225.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from numpy.fft import irfft, rfft

from aggdiff import (
    DensityField,
    ParameterDomainError,
    RadialGrid,
    RieszKernel,
    SolverConfig,
    SolverState,
    angular_kernel,
    barenblatt_profile,
    build_kernel,
    energy_report,
    hls_sharp_constant,
    interaction_energy,
    lp_norm,
    mass,
    potential,
    rearrange,
    step,
    vhls_ratio,
)
from aggdiff import riesz
from aggdiff.field import sphere_surface
from conftest import S, dense_oracle, is_structured, random_bump_field
from oracles import angular_kernel_quad, build_weak_interaction_kernel

ALPHA = 0.5
OMEGA_UNIT_BALL = 18.561966079063225  # frozen nested-quadrature oracle


def mc_angular_oracle(r, rho, alpha, eps, n, seed):
    """Monte-Carlo spherical average: cos(theta) uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, n)
    z2 = r * r + rho * rho - 2 * r * rho * c + eps * eps
    return 4.0 * math.pi * float(np.mean(z2 ** (-alpha / 2)))


class TestAngularKernel:
    def test_closed_form_value(self):
        assert float(angular_kernel(1.0, 1.0, 3, ALPHA)) == pytest.approx(
            11.847687835088976, rel=1e-14)

    def test_symmetry_exact(self):
        r = np.array([0.3, 1.1, 2.7])
        rho = np.array([0.9, 0.2, 2.7])
        a = angular_kernel(r, rho, 3, ALPHA, 0.1)
        b = angular_kernel(rho, r, 3, ALPHA, 0.1)
        assert np.array_equal(a, b)

    def test_monte_carlo_oracle_50_pairs(self):
        rng = np.random.default_rng(2024)
        for i in range(50):
            r, rho = rng.uniform(0.05, 3.0, 2)
            ref = mc_angular_oracle(r, rho, ALPHA, 0.0, 400_000, seed=i)
            val = float(angular_kernel(r, rho, 3, ALPHA))
            assert val == pytest.approx(ref, rel=5e-3)

    def test_large_epsilon_flattens(self):
        eps = 50.0
        val = float(angular_kernel(0.7, 1.3, 3, ALPHA, eps))
        assert val == pytest.approx(4 * math.pi * eps ** -ALPHA, rel=1e-3)

    def test_general_dimension_quadrature_path(self):
        # d = 4, alpha = 4 - 2*1.3 = 1.4: compare with the MC oracle
        rng = np.random.default_rng(5)
        for i in range(5):
            r, rho = rng.uniform(0.2, 2.0, 2)
            rng2 = np.random.default_rng(100 + i)
            c = rng2.uniform(-1.0, 1.0, 300_000)
            # d = 4 sphere average weights cos(theta) by sin(theta)
            th = np.arccos(c)
            w = np.sin(th)
            z2 = r * r + rho * rho - 2 * r * rho * c
            ref = (2 * math.pi ** 2) * float(
                np.sum(w * z2 ** (-1.4 / 2)) / np.sum(w))
            val = float(angular_kernel(r, rho, 4, 1.4))
            assert val == pytest.approx(ref, rel=1e-2)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ParameterDomainError):
            angular_kernel(1.0, 1.0, 5, 2.6)  # d=5, s=1.2 leaves the kernel range

    @pytest.mark.parametrize("d", [3, 4])
    def test_scalar_input_gives_a_scalar(self, d):
        val = angular_kernel(0.7, 1.3, d, 1.5, 0.05)
        assert isinstance(val, np.float64) and not isinstance(val, np.ndarray)
        assert val == angular_kernel(np.array([0.7]), np.array([1.3]), d, 1.5, 0.05)[0]


def tanh_sinh_test_pairs():
    """(r, rho) node pairs that stress the d != 3 rule: r = rho, the two
    Gauss nodes of one cell, nodes of adjacent cells (cells 0-1 and 11-12
    of a 32-cell grid on [0, 4]) and r / rho >= 1e3 either way."""
    nodes, _ = riesz._gauss_nodes(RadialGrid.uniform(32, 4.0, d=4))
    pairs = [(1.0, 1.0), (nodes[0], nodes[0]), (nodes[0], nodes[1]),
             (nodes[22], nodes[23]), (nodes[1], nodes[2]), (nodes[23], nodes[24]),
             (nodes[22], nodes[25]), (4.0, 2e-3), (1e-3, 2.0), (nodes[0], 3.9)]
    return np.array(pairs).T


class TestTanhSinhRule:
    """The d != 3 sphere average against one tight adaptive quad per pair."""

    def test_matches_tight_quadrature_oracle(self):
        r, rho = tanh_sinh_test_pairs()
        worst = 0.0
        for d in (4, 5, 6):
            # the smallest s with alpha = d - 2s < 2 and s > 1, and the largest
            for s in (max(1.0, d / 2 - 1) + 0.05, d / 2 - 0.05):
                for eps in (0.0, 0.05):
                    val = angular_kernel(r, rho, d, d - 2 * s, eps)
                    ref = angular_kernel_quad(r, rho, d, d - 2 * s, eps)
                    worst = max(worst, float(np.max(np.abs(val - ref) / ref)))
        assert worst <= 1e-11

    def test_dense_matrix_matches_oracle_matrix(self):
        grid = RadialGrid.uniform(32, 4.0, d=4)
        s, omega_4 = 1.25, sphere_surface(4)
        K = riesz._dense_matrix(grid, s, 0.0)
        oracle = riesz._pair_average(
            grid, lambda r, rho: angular_kernel_quad(r, rho, 4, 4 - 2 * s) / omega_4)
        assert np.max(np.abs(K - oracle) / oracle) <= 1e-11


class TestKernelMatrix:
    def test_symmetric_positive_finite(self, kernel256):
        K = dense_oracle(kernel256)
        assert np.array_equal(K, K.T)
        assert np.all(K > 0)
        assert np.all(np.isfinite(K))

    def test_rows_decay_outward(self, kernel256):
        # at fixed r the sphere-averaged kernel decays as rho moves out
        # past r; toward the origin it instead climbs to r^-alpha, so
        # only the outward direction is monotone
        K = dense_oracle(kernel256)
        for i in (0, 64, 128, 255):
            right = K[i, i:]
            assert np.all(np.diff(right) <= 1e-12 * K[i, i])
        r0 = kernel256.grid.centers[128]
        assert K[128, 0] == pytest.approx(r0 ** -ALPHA, rel=1e-3)

    def test_epsilon_monotone_entrywise(self, grid96):
        k_small = build_kernel(grid96, 1.25, epsilon=0.05)
        k_large = build_kernel(grid96, 1.25, epsilon=0.2)
        assert np.all(dense_oracle(k_small) >= dense_oracle(k_large))

    def test_alpha_restriction(self):
        g = RadialGrid(d=5, r_edges=np.linspace(0, 1, 9))
        with pytest.raises(ParameterDomainError):
            build_kernel(g, 1.2)  # alpha = 2.6

    def test_negative_epsilon_rejected(self, grid96):
        with pytest.raises(ParameterDomainError, match="epsilon"):
            build_kernel(grid96, 1.25, epsilon=-0.1)

    @pytest.mark.parametrize("n_cells", [96, riesz.STRUCTURED_MIN_CELLS])
    def test_epsilon_whose_square_overflows_rejected(self, n_cells):
        # once eps^2 overflows, every dense or FFT kernel entry is NaN
        g = RadialGrid.uniform(n_cells, 4.0)
        for eps in (1.35e154, 1e200, math.inf, math.nan):
            with pytest.raises(ParameterDomainError, match="epsilon"):
                build_kernel(g, 1.25, epsilon=eps)
        k = build_kernel(g, 1.25, epsilon=1.3e154)
        assert not is_structured(k)  # epsilon > r_max: dense at any size
        assert np.all(np.isfinite(k.apply(np.ones(n_cells))))

    def test_matrix_is_read_only(self, kernel96):
        assert not is_structured(kernel96)
        with pytest.raises(ValueError):
            kernel96._operator[0, 0] = 1.0


def _dense_twin(kernel):
    """The same kernel on its dense oracle matrix."""
    return RieszKernel(kernel.grid, kernel.s, kernel.epsilon, dense_oracle(kernel))


class TestStructuredOperator:
    @pytest.mark.parametrize("n_cells", [1024, 1536])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    # the Gauss order is a module constant; the parameter records it in the ids
    @pytest.mark.parametrize("order", [riesz._GAUSS_ORDER])
    def test_matches_dense_oracle(self, n_cells, epsilon, order):
        g = RadialGrid.uniform(n_cells, 4.0)
        k = build_kernel(g, 1.25, epsilon=epsilon)
        assert is_structured(k) and k._operator.scale.shape == (order, n_cells)
        K = dense_oracle(k)
        rng = np.random.default_rng(n_cells + order)
        for v in (rng.random(n_cells), rng.random(n_cells) * g.shell_volumes,
                  rng.standard_normal(n_cells)):
            ref = K @ v
            assert np.max(np.abs(k.apply(v) - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("epsilon", [4.0, 100.0, 1e8])
    def test_matches_dense_matrix_to_1e12_at_any_epsilon(self, epsilon):
        # past epsilon = r_max the FFT form's Hankel - Toeplitz difference
        # cancels (1.6e-12 at 100, 2 at 1e8), so the kernel stays dense there
        g = RadialGrid.uniform(600, 4.0)
        k = build_kernel(g, 1.25, epsilon=epsilon)
        assert is_structured(k) == (epsilon <= g.r_max)
        v = np.random.default_rng(600).random(600)
        ref = riesz._dense_matrix(g, 1.25, epsilon) @ v
        assert np.max(np.abs(k.apply(v) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_bilinear_symmetry(self, params):
        g = RadialGrid.uniform(1024, 4.0)
        k = build_kernel(g, params.s, epsilon=0.1)
        rng = np.random.default_rng(31)
        for _ in range(5):
            u, v = rng.random(1024), rng.random(1024)
            uKv = u @ k.apply(v)
            assert abs(uKv - v @ k.apply(u)) <= 1e-13 * abs(uKv)

    def test_fft_kernel_never_forms_the_dense_matrix(self, params, consts):
        """A 4096-cell kernel, built and then used by every layer, traces a
        peak far below one N x N matrix (128 MiB)."""
        g = RadialGrid.uniform(4096, 4.0)
        u = barenblatt_profile(g, 0.5 * consts.M_star, 1.0, params.m)
        tracemalloc.start()
        try:
            k = build_kernel(g, params.s)
            k.apply(u.values)
            potential(k, u, params.c_ds)
            energy_report(u, k, params)
            vhls_ratio(u, k, params)
            step(SolverState(t=0.0, u=u), k, params, SolverConfig(t_end=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert is_structured(k)
        assert peak <= 16 * 2 ** 20

    @pytest.mark.parametrize("n_cells", [96, 256, 512])
    def test_small_uniform_grids_stay_dense(self, params, n_cells):
        g = RadialGrid.uniform(n_cells, 4.0)
        k = build_kernel(g, params.s)
        assert not is_structured(k)
        u = DensityField(g, np.exp(-g.centers ** 2))
        phi = potential(k, u, params.c_ds)
        ref = params.c_ds * (dense_oracle(k) @ (u.values * g.shell_volumes))
        assert np.array_equal(phi, ref)

    def test_dispatch_rule(self, params, monkeypatch):
        """Only uniform d = 3 grids of at least STRUCTURED_MIN_CELLS cells take
        the FFT path; rearranged grids and d = 5 keep the dense matrix."""
        monkeypatch.setattr(riesz, "STRUCTURED_MIN_CELLS", 16)
        uniform = RadialGrid.uniform(96, 3.0)
        assert is_structured(build_kernel(uniform, params.s))
        assert not is_structured(build_kernel(RadialGrid.uniform(12, 3.0), params.s))
        rng = np.random.default_rng(32)
        u = rearrange(DensityField(uniform, random_bump_field(rng, uniform)))
        assert not np.array_equal(u.grid.r_edges, uniform.r_edges)
        g5 = RadialGrid.uniform(16, 1.0, d=5)
        u5 = DensityField(g5, np.exp(-g5.centers ** 2))
        for field, s in ((u, params.s), (u5, 2.0)):
            k = build_kernel(field.grid, s)
            assert not is_structured(k)
            phi = potential(k, field, params.c_ds)
            ref = params.c_ds * (dense_oracle(k) @ (field.values * field.grid.shell_volumes))
            assert np.array_equal(phi, ref)

    def test_matches_oracle_below_threshold_when_forced(self, params, monkeypatch):
        monkeypatch.setattr(riesz, "STRUCTURED_MIN_CELLS", 8)
        for n_cells in (8, 40, 96):
            g = RadialGrid.uniform(n_cells, 3.0)
            k = build_kernel(g, params.s)
            assert is_structured(k)
            v = np.random.default_rng(n_cells).random(n_cells)
            ref = dense_oracle(k) @ v
            assert np.max(np.abs(k.apply(v) - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestPotential:
    def test_uniform_ball_center_value(self, params):
        g = RadialGrid.uniform(500, 2.0)
        u = DensityField(g, np.where(g.centers < 1.0, 1.0, 0.0))
        k = build_kernel(g, params.s)
        phi = potential(k, u, params.c_ds)
        exact = params.c_ds * 4 * math.pi / (3 - ALPHA)
        assert phi[0] == pytest.approx(exact, rel=2e-4)

    def test_zero_field(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        assert np.all(potential(kernel96, u, params.c_ds) == 0.0)

    def test_far_field_decay(self, params):
        # mass M concentrated inside r <= 1 seen from r ~ 10+: c M r^-alpha
        g = RadialGrid.uniform(512, 16.0)
        u = DensityField(g, np.where(g.centers < 1.0, 2.0, 0.0))
        k = build_kernel(g, params.s)
        phi = potential(k, u, params.c_ds)
        M = mass(u)
        sel = g.centers > 10.0
        predicted = params.c_ds * M * g.centers[sel] ** -ALPHA
        assert np.max(np.abs(phi[sel] - predicted) / predicted) < 0.01

    def test_monotone_potential_for_monotone_density(self, params, grid256,
                                                     kernel256):
        u = DensityField(grid256, np.exp(-grid256.centers ** 2))
        phi = potential(kernel256, u, params.c_ds)
        assert np.all(np.diff(phi) <= 1e-12 * phi[0])

    def test_grid_mismatch_rejected(self, params, kernel96):
        other = RadialGrid.uniform(64, 3.0)
        u = DensityField(other, np.ones(64))
        from aggdiff import GridMismatchError
        with pytest.raises(GridMismatchError):
            potential(kernel96, u, params.c_ds)


class TestInteractionEnergy:
    def test_unit_ball_against_nested_quadrature(self, params):
        g = RadialGrid.uniform(500, 1.0)
        u = DensityField(g, np.ones(500))
        k = build_kernel(g, params.s)
        assert interaction_energy(k, u) == pytest.approx(OMEGA_UNIT_BALL, rel=1e-4)

    def test_consistency_with_potential(self, params, grid256, kernel256):
        rng = np.random.default_rng(21)
        u = DensityField(grid256, random_bump_field(rng, grid256))
        omega = interaction_energy(kernel256, u)
        phi = potential(kernel256, u, params.c_ds)
        integral = float(np.dot(phi * u.values, grid256.shell_volumes))
        assert params.c_ds * omega == pytest.approx(integral, rel=1e-12)

    def test_bilinearity(self, grid96, kernel96):
        rng = np.random.default_rng(22)
        u = DensityField(grid96, random_bump_field(rng, grid96))
        scaled = u.with_values(3.0 * u.values)
        assert interaction_energy(kernel96, scaled) == pytest.approx(
            9.0 * interaction_energy(kernel96, u), rel=1e-13)

    def test_hls_bound_on_random_fields(self, params, grid96, kernel96):
        C = hls_sharp_constant(params.d, params.s)
        q = 2 * params.d / (params.d + 2 * params.s)
        rng = np.random.default_rng(23)
        for _ in range(40):
            u = DensityField(grid96, random_bump_field(rng, grid96))
            omega = interaction_energy(kernel96, u)
            assert omega <= C * lp_norm(u, q) ** 2 * 1.02

    def test_rearrangement_never_decreases_omega(self, params, grid96, kernel96):
        rng = np.random.default_rng(24)
        for _ in range(30):
            u = DensityField(grid96, random_bump_field(rng, grid96))
            u_star = rearrange(u)
            k_star = build_kernel(u_star.grid, params.s)
            assert interaction_energy(k_star, u_star) >= interaction_energy(
                kernel96, u) * (1 - 1e-9)


class TestPotentialGradient:
    def test_inward_attraction_for_decreasing_density(self, params, grid256,
                                                      kernel256):
        u = DensityField(grid256, np.exp(-grid256.centers ** 2))
        # dphi/dr at the N - 1 interior faces
        grad = np.diff(potential(kernel256, u, params.c_ds)) / grid256.center_spacing
        assert np.all(grad <= 1e-14)

    def test_zero_field_zero_gradient(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        assert np.all(np.diff(potential(kernel96, u, params.c_ds)) == 0.0)

    def test_uniform_ball_matches_quadrature_derivative(self, params):
        from scipy.integrate import quad

        g = RadialGrid.uniform(512, 2.0)
        u = DensityField(g, np.where(g.centers < 1.0, 1.0, 0.0))
        k = build_kernel(g, params.s)
        grad = np.diff(potential(k, u, params.c_ds)) / g.center_spacing

        def phi_quad(r):
            def ang(rr, pp):
                f = lambda th: math.sin(th) * (
                    rr * rr + pp * pp - 2 * rr * pp * math.cos(th)) ** (-ALPHA / 2)
                v, _ = quad(f, 0.0, math.pi, limit=200)
                return 2 * math.pi * v
            inner = lambda pp: ang(r, pp) * pp ** 2
            v1, _ = quad(inner, 0.0, min(r, 1.0), limit=200)
            v2, _ = quad(inner, min(r, 1.0), 1.0, limit=200)
            return params.c_ds * (v1 + v2)

        for idx in (120, 200, 320, 470):
            r_face = g.r_edges[idx]
            h = 1e-4
            ref = (phi_quad(r_face + h) - phi_quad(r_face - h)) / (2 * h)
            assert grad[idx - 1] == pytest.approx(ref, rel=0.02)  # edge idx


class TestWeakInteractionKernel:
    def test_quadratic_test_function_recovers_interaction(self, params, grid96,
                                                          kernel96):
        # grad(psi) = 2x makes the symmetrised difference quotient equal 2,
        # so the pair matrix must reduce to 2 * K
        M = build_weak_interaction_kernel(grid96, params.s, lambda r: 2.0 * r)
        assert np.allclose(M, 2.0 * dense_oracle(kernel96), rtol=1e-10, atol=0.0)

    def test_dimension_restriction(self):
        g = RadialGrid(d=4, r_edges=np.linspace(0, 1, 9))
        with pytest.raises(ParameterDomainError):
            build_weak_interaction_kernel(g, 1.3, lambda r: r)


def chunked_oracle(grid, eval_fn, n_rows=None):
    """Reference pair average: every node pair evaluated, in chunks of
    1024 node rows over all columns, then 0.5 * (K + K.T) for the full
    matrix."""
    n, order = grid.n_cells, riesz._GAUSS_ORDER
    nodes, weights = riesz._gauss_nodes(grid)
    rows = n if n_rows is None else n_rows
    out = np.empty((rows, n))
    step = 1024 // order
    for i0 in range(0, rows, step):
        i1 = min(i0 + step, rows)
        block = eval_fn(nodes[i0 * order:i1 * order, None], nodes[None, :])
        block = block.reshape(i1 - i0, order, n, order)
        out[i0:i1] = np.einsum("ia,iajb,jb->ij", weights[i0:i1], block, weights)
    return out if n_rows is not None else 0.5 * (out + out.T)


def graded_grid(n_cells, r_max=4.0, a=3.0):
    """Edges r_max * expm1(a i / N) / expm1(a): fine at the origin."""
    i = np.arange(n_cells + 1)
    return RadialGrid(d=3, r_edges=r_max * np.expm1(a * i / n_cells) / np.expm1(a))


def rearranged_grid(n_cells, r_max=4.0):
    uniform = RadialGrid.uniform(n_cells, r_max)
    rng = np.random.default_rng(n_cells)
    return rearrange(DensityField(uniform, random_bump_field(rng, uniform))).grid


GRID_KINDS = {"uniform": lambda n_cells: RadialGrid.uniform(n_cells, 4.0),
              "graded": graded_grid,
              "rearranged": rearranged_grid}


def assert_symmetric_near_oracle(K, oracle):
    assert np.array_equal(K, K.T)
    assert np.max(np.abs(K - oracle) / np.abs(oracle)) <= 4.5e-16


class TestPairAverageBlocks:
    @pytest.mark.parametrize("n_cells", [96, 256, 1024])
    @pytest.mark.parametrize("kind", sorted(GRID_KINDS))
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_dense_matrix_matches_chunked_oracle(self, n_cells, kind, epsilon):
        grid = GRID_KINDS[kind](n_cells)
        fn = riesz._kernel_fn(3, 3 - 2 * S, epsilon)
        assert_symmetric_near_oracle(riesz._dense_matrix(grid, S, epsilon),
                                     chunked_oracle(grid, fn))
        rows = riesz._EXACT_ROWS
        assert np.array_equal(riesz._pair_average(grid, fn, n_rows=rows),
                              chunked_oracle(grid, fn, n_rows=rows))

    @pytest.mark.parametrize("dpsi", [lambda r: 2.0 * r,
                                      lambda r: r * np.exp(-r * r)],
                             ids=["quadratic", "gaussian"])
    def test_weak_form_kernel_matches_chunked_oracle(self, grid256, monkeypatch, dpsi):
        integrands = []
        pair_average = riesz._pair_average

        def capture(grid, fn, n_rows=None):
            integrands.append(fn)
            return pair_average(grid, fn, n_rows)

        monkeypatch.setattr(riesz, "_pair_average", capture)
        M = build_weak_interaction_kernel(grid256, S, dpsi)
        assert_symmetric_near_oracle(M, chunked_oracle(grid256, integrands[0]))

    def test_general_dimension_matches_chunked_oracle(self):
        grid = RadialGrid(d=4, r_edges=np.linspace(0.0, 1.0, 9))
        K = riesz._dense_matrix(grid, 1.3, 0.0)  # tanh-sinh path, alpha = 1.4
        assert_symmetric_near_oracle(K, chunked_oracle(grid, riesz._kernel_fn(4, 1.4, 0.0)))

    @pytest.mark.parametrize("n_cells", [1024, 4096])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_head_rows_bitwise_equal_to_oracle(self, n_cells, epsilon):
        grid = RadialGrid.uniform(n_cells, 4.0)
        k = build_kernel(grid, S, epsilon=epsilon)
        assert is_structured(k)
        oracle = chunked_oracle(grid, riesz._kernel_fn(3, 3 - 2 * S, epsilon),
                                n_rows=riesz._EXACT_ROWS)
        assert np.array_equal(k._operator.head, oracle)

    @pytest.mark.parametrize("n_cells", [256, 1024])
    def test_dense_build_evaluates_little_below_the_diagonal(self, monkeypatch, n_cells):
        """The node pairs a dense build evaluates stay within 1.1x of the
        upper triangle's order^2 n (n + 1) / 2: only the blocks' diagonal
        squares evaluate pairs below the diagonal."""
        pairs = []
        kernel_fn = riesz._kernel_fn

        def counting_kernel_fn(*args):
            fn = kernel_fn(*args)

            def counted(r, rho):
                pairs.append(np.broadcast(r, rho).size)
                return fn(r, rho)

            return counted

        monkeypatch.setattr(riesz, "_kernel_fn", counting_kernel_fn)
        riesz._dense_matrix(RadialGrid.uniform(n_cells, 4.0), S, 0.0)
        triangle = riesz._GAUSS_ORDER ** 2 * n_cells * (n_cells + 1) // 2
        assert triangle <= sum(pairs) <= 1.1 * triangle


def out_of_place_power_diff(t_plus, u, p):
    """_power_diff written with fresh arrays, the reference for the
    in-place version."""
    u = np.minimum(u, 1.0)
    with np.errstate(divide="ignore"):
        return -t_plus ** p * np.expm1(p * np.log1p(-u))


def out_of_place_angular_kernel(r, rho, alpha, epsilon):
    """The d = 3 closed form A(r, rho) written with fresh arrays."""
    p = (2.0 - alpha) / 2.0
    t_plus = (r + rho) ** 2 + epsilon * epsilon
    u = 4.0 * r * rho / t_plus
    diff = out_of_place_power_diff(t_plus, u, p)
    return 2.0 * np.pi * diff / (r * rho * (2.0 - alpha))


def out_of_place_kernel_fn(alpha, epsilon):
    """A(r, rho) / omega_d for d = 3 written with fresh arrays."""
    omega_d = sphere_surface(3)
    return lambda r, rho: out_of_place_angular_kernel(r, rho, alpha, epsilon) / omega_d


class TestInPlaceKernel:
    @pytest.mark.parametrize("alpha", [3 - 2 * S, 1.0])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_node_block_bitwise_equal_to_out_of_place(self, alpha, epsilon):
        nodes, _ = riesz._gauss_nodes(rearranged_grid(96))
        r, rho = nodes[40:104, None], nodes[None, :]  # rows 40..103 hit r == rho
        r_before, rho_before = r.copy(), rho.copy()
        block = riesz._kernel_fn(3, alpha, epsilon)(r, rho)
        assert np.array_equal(block, out_of_place_kernel_fn(alpha, epsilon)(r, rho))
        assert np.array_equal(r, r_before) and np.array_equal(rho, rho_before)

    def test_power_diff_bitwise_equal_to_out_of_place(self):
        rng = np.random.default_rng(9)
        t_plus = rng.uniform(0.01, 50.0, 4096)
        u = np.concatenate(([0.0, 1.0, 1.0 + 1e-15, 1e-300],
                            rng.uniform(0.0, 1.0, 4092)))
        expected = out_of_place_power_diff(t_plus, u, 0.75)
        t_work = t_plus.copy()
        out = riesz._power_diff(t_work, u.copy(), 0.75)
        assert out is t_work
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_scalar_call_returns_the_same_float(self, alpha):
        for r, rho, eps in ((1.0, 1.0, 0.0), (0.3, 2.0, 0.1)):
            val = angular_kernel(r, rho, 3, alpha, eps)
            assert isinstance(val, float) and np.ndim(val) == 0
            ref = out_of_place_angular_kernel(np.asarray(r), np.asarray(rho), alpha, eps)
            assert val == ref
        if alpha == 0.5:  # the frozen closed-form value in the module docstring
            assert angular_kernel(1.0, 1.0, 3, alpha) == 11.847687835088976


def unbuffered_matvec(op, v, rfft=rfft, irfft=irfft):
    """The FFT matvec with fresh arrays per call, the input padded by rfft
    itself; by default on numpy.fft, the library the operator uses.  It
    forms the whole operand [conj(Y) | Y] and the whole product with the
    spectra, then sums over the stacked terms, where the operator
    accumulates one term at a time."""
    Y = rfft(op.scale * v, n=op.size)
    Z = (op.spectra * np.concatenate((Y.conj(), Y))).sum(axis=1)
    out = (op.scale * irfft(Z, n=op.size)[:, :op.n]).sum(axis=0)
    out[:riesz._EXACT_ROWS] = op.head @ v
    return out


def out_of_place_spectra(grid, alpha, epsilon):
    """The operator's spectra from separate Hankel and Toeplitz buffers,
    stacked by concatenate with a negated copy and scaled out of place."""
    n, order = grid.n_cells, riesz._GAUSS_ORDER
    h = grid.r_max / n
    x, _ = np.polynomial.legendre.leggauss(order)
    c = 0.5 * h * (1.0 + x)
    size = riesz._next_fast_len(2 * n - 1)
    G = lambda z: (z * z + epsilon * epsilon) ** (1.0 - 0.5 * alpha)
    hankel = np.zeros((order, order, size))
    hankel[..., :2 * n - 1] = G(np.arange(2 * n - 1) * h
                                + (c[:, None] + c[None, :])[..., None])
    toeplitz = np.zeros((order, order, size))
    lags = np.arange(-(n - 1), n)
    toeplitz[..., lags] = G(lags * h + (c[:, None] - c[None, :])[..., None])
    const = 2.0 * np.pi / ((2.0 - alpha) * sphere_surface(3))
    return const * rfft(np.concatenate((hankel, -toeplitz), axis=1))


class TestOperatorBuffers:
    @pytest.mark.parametrize("n_cells", [600, 4096])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_spectra_bitwise_equal_to_out_of_place(self, n_cells, epsilon):
        k = build_kernel(RadialGrid.uniform(n_cells, 4.0), S, epsilon=epsilon)
        assert is_structured(k)
        ref = out_of_place_spectra(k.grid, ALPHA, epsilon)
        assert k._operator.spectra.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_cells", [riesz.STRUCTURED_MIN_CELLS, 1024, 4096])
    def test_apply_bitwise_equal_to_unbuffered(self, n_cells):
        for epsilon in (0.0, 0.05):
            k = build_kernel(RadialGrid.uniform(n_cells, 4.0), S, epsilon=epsilon)
            assert is_structured(k)
            rng = np.random.default_rng(n_cells)
            for v in (rng.random(n_cells), rng.standard_normal(n_cells)):
                assert np.array_equal(k.apply(v), unbuffered_matvec(k._operator, v))

    @pytest.mark.parametrize("n_cells", [1024, 4096])
    def test_result_survives_the_next_apply(self, n_cells):
        k = build_kernel(RadialGrid.uniform(n_cells, 4.0), S)
        rng = np.random.default_rng(n_cells + 1)
        first = k.apply(rng.random(n_cells))
        kept = first.copy()
        k.apply(rng.standard_normal(n_cells))
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, k._operator._padded)


class TestFFTLibrary:
    """The operator's FFTs are numpy.fft's; scipy.fft serves as the oracle."""

    def test_next_fast_len_matches_scipy(self):
        # 8191 = 2 * 4096 - 1, the buffer target of the largest grid below
        for n in range(1, 8192):
            assert riesz._next_fast_len(n) == scipy.fft.next_fast_len(n, real=True)

    def test_buffer_length_unchanged(self):
        """The length the operator picks for every grid from the threshold to
        4096 cells, and the length a sample of built operators uses, is the
        one scipy.fft.next_fast_len gave."""
        for n in range(riesz.STRUCTURED_MIN_CELLS, 4097):
            assert riesz._next_fast_len(2 * n - 1) == scipy.fft.next_fast_len(
                2 * n - 1, real=True)
        for n in (riesz.STRUCTURED_MIN_CELLS, 577, 1000, 1024, 2049, 3001, 4096):
            op = build_kernel(RadialGrid.uniform(n, 4.0), S)._operator
            assert op.size == scipy.fft.next_fast_len(2 * n - 1, real=True)
            assert op.spectra.shape[-1] == op.size // 2 + 1

    @pytest.mark.parametrize("n_cells", [1024, 4096])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_matvec_matches_scipy_fft(self, n_cells, epsilon):
        k = build_kernel(RadialGrid.uniform(n_cells, 4.0), S, epsilon=epsilon)
        rng = np.random.default_rng(n_cells + 2)
        for v in (rng.random(n_cells), rng.standard_normal(n_cells)):
            Kv = k.apply(v)
            ref = unbuffered_matvec(k._operator, v, scipy.fft.rfft, scipy.fft.irfft)
            assert np.max(np.abs(Kv - ref)) <= 1e-14 * np.max(np.abs(Kv))


BUILD_CASES = {
    "fft4096": lambda: build_kernel(RadialGrid.uniform(4096, 4.0), S),
    "dense256": lambda: build_kernel(RadialGrid.uniform(256, 4.0), S),
    "graded1024": lambda: build_kernel(graded_grid(1024), S),
    "weak512": lambda: build_weak_interaction_kernel(
        RadialGrid.uniform(512, 4.0), S, lambda r: 2.0 * r),
}


# Transient budget per case, MiB.  dense256 and fft4096 measure 0.53 and
# 1.00; 2^16-pair blocks at every grid size and a generator array kept
# alive under the FFT operator's head rows took 1.51 and 2.32.
BUILD_BUDGETS_MIB = {"dense256": 1.0, "fft4096": 1.5, "graded1024": 8.0, "weak512": 8.0}


@pytest.mark.parametrize("case", sorted(BUILD_CASES))
def test_build_transient_memory_budget(case):
    """Traced allocations of a build, beyond what the result keeps, stay
    within the case's budget: 8 MiB at any grid size, and at most twice the
    kept matrix for a small dense build."""
    tracemalloc.start()
    try:
        result = BUILD_CASES[case]()  # still alive: `held` counts what it keeps
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= BUILD_BUDGETS_MIB[case] * 2 ** 20
