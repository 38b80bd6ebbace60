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

import numpy as np
import pytest

from aggdiff import (
    DensityField,
    ParameterDomainError,
    RadialGrid,
    RieszKernel,
    angular_kernel,
    build_kernel,
    hls_sharp_constant,
    interaction_energy,
    load_kernel,
    lp_norm,
    mass,
    potential,
    potential_gradient,
    rearrange,
    save_kernel,
    vhls_ratio,
)
from aggdiff import riesz
from aggdiff.riesz import build_weak_interaction_kernel
from conftest import random_bump_field

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


class TestKernelMatrix:
    def test_symmetric_positive_finite(self, kernel256):
        K = kernel256.K
        assert np.array_equal(K, K.T)
        assert np.all(K > 0)
        assert np.all(np.isfinite(K))

    def test_rows_decay_outward(self, kernel256):
        # at fixed r the sphere-averaged kernel decays as rho moves out
        # past r; toward the origin it instead climbs to r^-alpha, so
        # only the outward direction is monotone
        K = kernel256.K
        for i in (0, 64, 128, 255):
            right = K[i, i:]
            assert np.all(np.diff(right) <= 1e-12 * K[i, i])
        r0 = kernel256.grid.centers[128]
        assert K[128, 0] == pytest.approx(r0 ** -ALPHA, rel=1e-3)

    def test_epsilon_monotone_entrywise(self, grid96):
        k_small = build_kernel(grid96, 1.25, epsilon=0.05)
        k_large = build_kernel(grid96, 1.25, epsilon=0.2)
        assert np.all(k_small.K >= k_large.K)

    def test_alpha_restriction(self):
        g = RadialGrid(d=5, r_edges=np.linspace(0, 1, 9))
        with pytest.raises(ParameterDomainError):
            build_kernel(g, 1.2)  # alpha = 2.6

    def test_negative_epsilon_rejected(self, grid96):
        with pytest.raises(ParameterDomainError, match="epsilon"):
            build_kernel(grid96, 1.25, epsilon=-0.1)

    def test_cache_roundtrip(self, tmp_path, grid96, kernel96):
        path = tmp_path / "kernel.npz"
        save_kernel(kernel96, path)
        back = load_kernel(path)
        assert np.array_equal(back.K, kernel96.K)
        assert back.grid.same_as(grid96)
        assert back.s == kernel96.s

    def test_matrix_is_read_only(self, kernel96):
        with pytest.raises(ValueError):
            kernel96.K[0, 0] = 1.0

    def test_kernel_needs_exactly_one_representation(self, grid96, kernel96):
        with pytest.raises(ValueError, match="exactly one"):
            RieszKernel(grid96, kernel96.s, kernel96.epsilon)


def _write_kernel_file(path, K, r_edges, meta):
    np.savez_compressed(path, K=K, r_edges=r_edges, meta=np.asarray(meta, dtype=float))


class TestKernelFile:
    def test_roundtrip_keeps_gauss_order(self, tmp_path, grid96):
        k = build_kernel(grid96, 1.25, epsilon=0.05, gauss_order=3)
        path = tmp_path / "kernel.npz"
        save_kernel(k, path)
        back = load_kernel(path)
        assert back.gauss_order == 3
        assert (back.s, back.epsilon) == (1.25, 0.05)
        assert np.array_equal(back.K, k.K)
        assert not back.structured

    def test_file_without_order_loads_as_order_two(self, tmp_path, grid96, kernel96):
        path = tmp_path / "old.npz"
        _write_kernel_file(path, kernel96.K, grid96.r_edges, [3, kernel96.s, 0.0])
        back = load_kernel(path)
        assert back.gauss_order == 2
        assert np.array_equal(back.K, kernel96.K)

    def test_wrong_shape_rejected(self, tmp_path, grid96, kernel96):
        path = tmp_path / "k.npz"
        _write_kernel_file(path, kernel96.K[:-1, :-1], grid96.r_edges, [3, 1.25, 0.0, 2])
        with pytest.raises(ValueError, match=r"shape \(95, 95\), expected \(96, 96\)"):
            load_kernel(path)

    def test_non_finite_rejected(self, tmp_path, grid96, kernel96):
        K = kernel96.K.copy()
        K[3, 3] = np.inf
        path = tmp_path / "k.npz"
        _write_kernel_file(path, K, grid96.r_edges, [3, 1.25, 0.0, 2])
        with pytest.raises(ValueError, match="non-finite"):
            load_kernel(path)

    def test_asymmetric_rejected(self, tmp_path, grid96, kernel96):
        K = kernel96.K.copy()
        K[0, -1] *= 1.0 + 1e-15
        path = tmp_path / "k.npz"
        _write_kernel_file(path, K, grid96.r_edges, [3, 1.25, 0.0, 2])
        with pytest.raises(ValueError, match="not exactly symmetric"):
            load_kernel(path)


def _dense_twin(kernel):
    """The same kernel on its dense oracle matrix."""
    return RieszKernel(kernel.grid, kernel.s, kernel.epsilon, kernel.K,
                       kernel.gauss_order)


class TestStructuredOperator:
    @pytest.mark.parametrize("n_cells", [1024, 1536])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("order", [2, 3])
    def test_matches_dense_oracle(self, n_cells, epsilon, order):
        g = RadialGrid.uniform(n_cells, 4.0)
        k = build_kernel(g, 1.25, epsilon=epsilon, gauss_order=order)
        assert k.structured
        K = k.K
        rng = np.random.default_rng(n_cells + order)
        for v in (rng.random(n_cells), rng.random(n_cells) * g.shell_volumes,
                  rng.standard_normal(n_cells)):
            ref = K @ v
            assert np.max(np.abs(k.apply(v) - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_bilinear_symmetry(self, params):
        g = RadialGrid.uniform(1024, 4.0)
        k = build_kernel(g, params.s, epsilon=0.1)
        rng = np.random.default_rng(31)
        for _ in range(5):
            u, v = rng.random(1024), rng.random(1024)
            uKv = u @ k.apply(v)
            assert abs(uKv - v @ k.apply(u)) <= 1e-13 * abs(uKv)

    def test_dense_oracle_is_built_on_first_access(self, params):
        k = build_kernel(RadialGrid.uniform(1024, 4.0), params.s)
        assert k._K is None
        K = k.K
        assert K is k.K and K.shape == (1024, 1024)

    @pytest.mark.parametrize("n_cells", [96, 256, 512])
    def test_small_uniform_grids_stay_dense(self, params, n_cells):
        g = RadialGrid.uniform(n_cells, 4.0)
        k = build_kernel(g, params.s)
        assert not k.structured
        u = DensityField(g, np.exp(-g.centers ** 2))
        phi = potential(k, u, params.c_ds)
        assert np.array_equal(phi, params.c_ds * (k.K @ (u.values * g.shell_volumes)))

    def test_dispatch_rule(self, params, monkeypatch):
        """Only uniform d = 3 grids of at least STRUCTURED_MIN_CELLS cells take
        the FFT path; rearranged grids and d = 5 keep the dense matrix."""
        monkeypatch.setattr(riesz, "STRUCTURED_MIN_CELLS", 16)
        uniform = RadialGrid.uniform(96, 3.0)
        assert build_kernel(uniform, params.s).structured
        assert not build_kernel(RadialGrid.uniform(12, 3.0), params.s).structured
        rng = np.random.default_rng(32)
        u = rearrange(DensityField(uniform, random_bump_field(rng, uniform)))
        assert not np.array_equal(u.grid.r_edges, uniform.r_edges)
        g5 = RadialGrid.uniform(16, 1.0, d=5)
        u5 = DensityField(g5, np.exp(-g5.centers ** 2))
        for field, s in ((u, params.s), (u5, 2.0)):
            k = build_kernel(field.grid, s)
            assert not k.structured
            phi = potential(k, field, params.c_ds)
            ref = params.c_ds * (k.K @ (field.values * field.grid.shell_volumes))
            assert np.array_equal(phi, ref)

    def test_matches_oracle_below_threshold_when_forced(self, params, monkeypatch):
        monkeypatch.setattr(riesz, "STRUCTURED_MIN_CELLS", 8)
        for n_cells in (8, 40, 96):
            g = RadialGrid.uniform(n_cells, 3.0)
            k = build_kernel(g, params.s)
            assert k.structured
            v = np.random.default_rng(n_cells).random(n_cells)
            ref = k.K @ v
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
        grad = potential_gradient(kernel256, u, params.c_ds)
        assert grad[0] == 0.0 and grad[-1] == 0.0
        assert np.all(grad <= 1e-14)

    def test_zero_field_zero_gradient(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        assert np.all(potential_gradient(kernel96, u, params.c_ds) == 0.0)

    def test_uniform_ball_matches_quadrature_derivative(self, params):
        from scipy.integrate import quad

        g = RadialGrid.uniform(512, 2.0)
        u = DensityField(g, np.where(g.centers < 1.0, 1.0, 0.0))
        k = build_kernel(g, params.s)
        grad = potential_gradient(k, u, params.c_ds)

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
            assert grad[idx] == pytest.approx(ref, rel=0.02)


class TestWeakInteractionKernel:
    def test_quadratic_test_function_recovers_interaction(self, params, grid96,
                                                          kernel96):
        # grad(psi) = 2x makes the symmetrised difference quotient equal 2,
        # so the pair matrix must reduce to 2 * K
        M = build_weak_interaction_kernel(grid96, params.s, lambda r: 2.0 * r)
        assert np.allclose(M, 2.0 * kernel96.K, rtol=1e-10, atol=0.0)

    def test_dimension_restriction(self):
        g = RadialGrid(d=4, r_edges=np.linspace(0, 1, 9))
        with pytest.raises(ParameterDomainError):
            build_weak_interaction_kernel(g, 1.3, lambda r: r)
