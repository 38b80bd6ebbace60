"""Free energy split, chemical potential, dissipation, sharp ratios."""


import numpy as np
import pytest

from aggdiff import (
    DensityField,
    GridMismatchError,
    RadialGrid,
    RieszKernel,
    barenblatt_profile,
    blowup_initial_data,
    build_kernel,
    chemical_potential,
    dissipation,
    energy_report,
    free_energy,
    hls_sharp_constant,
    interaction_energy,
    lp_norm,
    lr_lower_bound,
    mass,
    scale,
    second_moment,
    vhls_ratio,
)
from aggdiff.solver import _diag_row
from conftest import is_structured, random_bump_field


class TestFreeEnergy:
    def test_zero_field(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        assert free_energy(u, kernel96, params) == 0.0

    def test_negative_above_critical_mass(self, params, grid256, kernel256,
                                          critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 1.5 * M_c, params)
        assert free_energy(u0, kernel256, params) < 0.0

    def test_positive_below_critical_mass(self, params, grid256, kernel256,
                                          critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 0.5 * M_c, params)
        assert free_energy(u0, kernel256, params) > 0.0

    def test_entropy_dominates_at_small_amplitude(self, params, grid96, kernel96):
        # a^m beats a^2 as a -> 0 for m < 2, so F(a u) > 0 eventually
        rng = np.random.default_rng(31)
        u = DensityField(grid96, random_bump_field(rng, grid96))
        for a in (1e-3, 1e-5):
            assert free_energy(u.with_values(a * u.values), kernel96, params) > 0.0

    def test_report_split_exact(self, params, grid96, kernel96):
        rng = np.random.default_rng(32)
        u = DensityField(grid96, random_bump_field(rng, grid96))
        rep = energy_report(u, kernel96, params)
        assert rep.F == rep.S - rep.W
        assert rep.D >= 0.0

    def test_report_does_one_matvec(self, params, grid96, kernel96, monkeypatch):
        calls = []
        apply = RieszKernel.apply
        monkeypatch.setattr(RieszKernel, "apply",
                            lambda self, x: calls.append(1) or apply(self, x))
        u = DensityField(grid96, random_bump_field(np.random.default_rng(33), grid96))
        energy_report(u, kernel96, params)
        assert len(calls) == 1

    def test_report_equals_the_separate_functionals(self, params, grid96, kernel96):
        # same operands as free_energy / dissipation: bitwise equal
        rng = np.random.default_rng(34)
        for _ in range(5):
            u = DensityField(grid96, random_bump_field(rng, grid96))
            rep = energy_report(u, kernel96, params)
            assert rep.F == free_energy(u, kernel96, params)
            assert rep.W == 0.5 * params.c_ds * interaction_energy(kernel96, u)
            assert rep.D == dissipation(u, chemical_potential(u, kernel96, params))

    @pytest.mark.parametrize("n_cells", [96, 576])  # dense, FFT operator
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_free_energy_is_the_reports_F_bit_for_bit(self, params, n_cells,
                                                      epsilon):
        grid = RadialGrid.uniform(n_cells, 3.0)
        kernel = build_kernel(grid, params.s, epsilon=epsilon)
        assert is_structured(kernel) == (n_cells == 576)
        rng = np.random.default_rng(n_cells)
        m = params.m
        for _ in range(5):
            u = DensityField(grid, random_bump_field(rng, grid))
            F = free_energy(u, kernel, params)
            assert F == energy_report(u, kernel, params).F
            # the former free_energy: S and W formed on their own
            S = float(np.dot(u.values ** m, grid.shell_volumes) / (m - 1.0))
            W = float(0.5 * params.c_ds * interaction_energy(kernel, u))
            assert F == S - W

    def test_part_scalings(self, params):
        # S -> lam^m mu^-d S and W -> lam^2 mu^-(d+2s) W under lam*u(mu r)
        g = RadialGrid.uniform(128, 3.0)
        k = build_kernel(g, params.s)
        rng = np.random.default_rng(33)
        u = DensityField(g, random_bump_field(rng, g))
        rep = energy_report(u, k, params)
        lam, mu = 1.7, 2.0
        us = scale(u, lam, mu)
        ks = build_kernel(us.grid, params.s)
        rep_s = energy_report(us, ks, params)
        d, s, m = params.d, params.s, params.m
        assert rep_s.S == pytest.approx(lam ** m * mu ** -d * rep.S, rel=1e-12)
        assert rep_s.W == pytest.approx(lam ** 2 * mu ** -(d + 2 * s) * rep.W,
                                        rel=1e-12)


class TestChemicalPotential:
    def test_zero_field(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        assert np.all(chemical_potential(u, kernel96, params) == 0.0)

    def test_constant_on_steady_support(self, params, grid256, kernel256,
                                        critical256):
        _, result = critical256
        U = result.U
        mu = chemical_potential(U, kernel256, params)
        core = U.values > 1e-3 * U.values.max()
        spread = float(np.ptp(mu[core]))
        assert spread <= 2e-3 * abs(result.lambda_bar)
        assert np.mean(mu[core]) == pytest.approx(result.lambda_bar, rel=1e-3)

    def test_monotone_in_density_without_attraction(self, params, grid96,
                                                    kernel96_no_attraction):
        rng = np.random.default_rng(34)
        u = DensityField(grid96, random_bump_field(rng, grid96) + 0.01)
        mu = chemical_potential(u, kernel96_no_attraction, params)
        order = np.argsort(u.values)
        assert np.all(np.diff(mu[order]) >= -1e-14)


class TestDissipation:
    def test_zero_field(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        mu = chemical_potential(u, kernel96, params)
        assert dissipation(u, mu) == 0.0

    def test_steady_profile_nearly_dissipationless(self, params, kernel256,
                                                   critical256):
        _, result = critical256
        U = result.U
        mu = chemical_potential(U, kernel256, params)
        D = dissipation(U, mu)
        # normalise by a crude flow scale: |F| of the 1.5x supercritical companion
        scale_F = abs(free_energy(
            blowup_initial_data(U, 1.5 * mass(U), params), kernel256, params))
        assert D <= 1e-4 * scale_F

    def test_positive_on_relaxing_profile(self, params, grid96,
                                          kernel96_no_attraction):
        u = barenblatt_profile(grid96, 10.0, 1.0, params.m)
        mu = chemical_potential(u, kernel96_no_attraction, params)
        assert dissipation(u, mu) > 0.0


class TestVhlsRatio:
    def test_scale_invariance_exact(self, params, grid256, kernel256):
        rng = np.random.default_rng(35)
        u = DensityField(grid256, random_bump_field(rng, grid256))
        J0 = vhls_ratio(u, kernel256, params)
        for lam, mu in ((0.5, 0.5), (2.0, 0.5), (0.5, 2.0), (2.0, 2.0)):
            us = scale(u, lam, mu)
            ks = build_kernel(us.grid, params.s)
            assert vhls_ratio(us, ks, params) == pytest.approx(J0, rel=1e-12)

    def test_bounded_by_sharp_constant(self, params, grid96, kernel96):
        C = hls_sharp_constant(params.d, params.s)
        rng = np.random.default_rng(36)
        for _ in range(30):
            u = DensityField(grid96, random_bump_field(rng, grid96))
            assert vhls_ratio(u, kernel96, params) <= C * 1.02

    def test_zero_field_rejected(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        with pytest.raises(ValueError):
            vhls_ratio(u, kernel96, params)

    def test_field_on_another_grid_rejected(self, params, grid256, kernel96):
        u = DensityField(grid256, np.ones(256))
        with pytest.raises(GridMismatchError):
            vhls_ratio(u, kernel96, params)

    def test_overflowing_interaction_energy_rejected(self, params, grid96,
                                                      kernel96):
        # finite values whose omega overflows have no ratio, not NaN
        values = np.ones(96)
        values[0] = 1.5e308
        u = DensityField(grid96, values)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflows"):
                vhls_ratio(u, kernel96, params)

    def test_underflowing_denominator_rejected(self, params, grid96, kernel96):
        # M^(2s/d) ||u||_m^m of a field of mass ~1e-300 rounds to 0: no ratio,
        # not a ZeroDivisionError
        u = DensityField(grid96, np.full(96, 1e-300))
        with pytest.raises(ValueError, match="underflows"):
            vhls_ratio(u, kernel96, params)


class TestVirialRhs:
    """The virial right-hand side 2 (d - 2s) F(u) of a diagnostics row."""

    @staticmethod
    def virial_rhs(u, kernel, params):
        return _diag_row(u, kernel, params, 0.0, 0.0).virial_rhs

    def test_zero_field(self, params, grid96, kernel96):
        u = DensityField(grid96, np.zeros(96))
        assert self.virial_rhs(u, kernel96, params) == 0.0

    def test_sign_follows_free_energy(self, params, grid256, kernel256,
                                      critical256):
        M_c, result = critical256
        u0 = blowup_initial_data(result.U, 1.5 * M_c, params)
        assert free_energy(u0, kernel256, params) < 0.0
        assert self.virial_rhs(u0, kernel256, params) < 0.0

    def test_expanded_form_identity(self, params, grid96, kernel96):
        # 2(d-2s) F == 2d int u^m - (d-2s) c_ds omega, via 1/(m-1) = d/(d-2s)
        rng = np.random.default_rng(37)
        u = DensityField(grid96, random_bump_field(rng, grid96))
        d, s, m = params.d, params.s, params.m
        lhs = self.virial_rhs(u, kernel96, params)
        expanded = (2 * d * float(np.dot(u.values ** m, grid96.shell_volumes))
                    - (d - 2 * s) * params.c_ds * interaction_energy(kernel96, u))
        assert lhs == pytest.approx(expanded, rel=1e-12)


class TestLrLowerBound:
    def test_diverges_as_m2_collapses(self):
        r, d = 7 / 6, 3
        p = d * (r - 1) / r
        vals = [lr_lower_bound(10.0, m2, r, d) for m2 in (1.0, 0.1, 0.01)]
        assert vals[0] < vals[1] < vals[2]
        # divergence rate m2^{-p/2} as the second moment collapses
        assert vals[2] / vals[0] == pytest.approx(100.0 ** (p / 2), rel=1e-12)

    def test_mass_scaling_exponent(self):
        r, d = 1.5, 3
        p = d * (r - 1) / r
        ratio = lr_lower_bound(20.0, 1.0, r, d) / lr_lower_bound(10.0, 1.0, r, d)
        assert ratio == pytest.approx(2.0 ** ((p + 2) / 2), rel=1e-12)

    def test_is_true_lower_bound_on_random_fields(self):
        rng = np.random.default_rng(38)
        for _ in range(1000):
            n = 48
            g = RadialGrid.uniform(n, rng.uniform(1.0, 5.0))
            vals = rng.uniform(0, 1, n) * (rng.uniform(0, 1, n) > 0.3)
            if not np.any(vals > 0):
                continue
            u = DensityField(g, vals)
            r = rng.uniform(1.05, 3.0)
            bound = lr_lower_bound(mass(u), second_moment(u), r, 3)
            assert bound <= lp_norm(u, r) * (1 + 1e-12)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            lr_lower_bound(0.0, 1.0, 2.0, 3)
        with pytest.raises(ValueError):
            lr_lower_bound(1.0, -1.0, 2.0, 3)
        with pytest.raises(ValueError):
            lr_lower_bound(1.0, 1.0, 1.0, 3)
