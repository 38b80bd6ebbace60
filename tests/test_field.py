"""Grids, fields, rearrangement, scaling, and reference profiles."""

import math

import numpy as np
import pytest

from aggdiff import (
    DensityField,
    GridMismatchError,
    RadialGrid,
    barenblatt_profile,
    hls_extremizer_profile,
    lp_norm,
    mass,
    project_onto,
    read_field_csv,
    rearrange,
    scale,
    second_moment,
    write_field_csv,
)
from conftest import random_bump_field


def ball_indicator(grid, value=1.0, radius=1.0):
    return DensityField(grid, np.where(grid.centers < radius, value, 0.0))


class TestGrid:
    def test_shell_volumes_sum_to_ball(self):
        g = RadialGrid.uniform(128, 2.5)
        assert g.total_volume == pytest.approx(4 * math.pi / 3 * 2.5 ** 3, rel=1e-13)
        assert np.all(g.shell_volumes > 0)

    def test_centroids_inside_cells(self):
        g = RadialGrid.uniform(64, 1.0)
        assert np.all(g.centers > g.r_edges[:-1])
        assert np.all(g.centers < g.r_edges[1:])

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            RadialGrid(d=3, r_edges=np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            RadialGrid(d=3, r_edges=np.array([0.0, 0.5, 0.5]))

    def test_negative_values_rejected(self):
        g = RadialGrid.uniform(8, 1.0)
        with pytest.raises(ValueError):
            DensityField(g, -np.ones(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        vals = np.ones(8)
        vals[3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            DensityField(RadialGrid.uniform(8, 1.0), vals)

    @pytest.mark.parametrize("name", ["r_edges", "widths", "shell_volumes", "centers",
                                      "center_spacing", "mean_r2", "face_areas"])
    def test_geometry_arrays_read_only(self, name):
        g = RadialGrid.uniform(16, 1.0)
        arr = getattr(g, name)
        assert getattr(g, name) is arr  # computed once, then cached
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = 7.0

    def test_caller_edges_copied(self):
        edges = np.linspace(0.0, 2.0, 17)
        g = RadialGrid(d=3, r_edges=edges)
        edges[5] = 0.6
        edges *= 3.0
        assert np.array_equal(g.r_edges, np.linspace(0.0, 2.0, 17))
        assert np.array_equal(g.shell_volumes, RadialGrid.uniform(16, 2.0).shell_volumes)
        assert g.total_volume == pytest.approx(4 * math.pi / 3 * 8.0, rel=1e-13)


    def test_equality_follows_same_as(self):
        a, b = RadialGrid.uniform(8, 1.0), RadialGrid.uniform(8, 1.0)
        assert a == b and not a != b
        assert a != RadialGrid.uniform(8, 2.0)
        assert a != RadialGrid.uniform(9, 1.0)
        assert a != RadialGrid.uniform(8, 1.0, d=4)
        assert a != "not a grid"

    def test_hash_consistent_with_equality(self):
        a, b = RadialGrid.uniform(8, 1.0), RadialGrid.uniform(8, 1.0)
        assert hash(a) == hash(b)
        assert len({a, b, RadialGrid.uniform(8, 2.0)}) == 2
        signed_zero = RadialGrid(d=3, r_edges=np.concatenate(([-0.0], a.r_edges[1:])))
        assert signed_zero == a and hash(signed_zero) == hash(a)

    def test_nan_edges_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RadialGrid(d=3, r_edges=np.array([0.0, 0.5, np.nan, 1.0]))

class TestMass:
    def test_unit_ball(self):
        g = RadialGrid.uniform(200, 1.0)  # edge aligns with r = 1
        assert mass(ball_indicator(g)) == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_zero_field(self):
        g = RadialGrid.uniform(16, 1.0)
        assert mass(DensityField(g, np.zeros(16))) == 0.0

    def test_linearity(self):
        g = RadialGrid.uniform(64, 2.0)
        rng = np.random.default_rng(3)
        u = DensityField(g, rng.uniform(0, 1, 64))
        assert mass(u.with_values(3.5 * u.values)) == pytest.approx(3.5 * mass(u),
                                                                    rel=1e-14)


class TestLpNorm:
    def test_constant_on_ball(self):
        g = RadialGrid.uniform(200, 1.0)
        u = ball_indicator(g, value=2.0)
        assert lp_norm(u, 2) == pytest.approx(2 * (4 * math.pi / 3) ** 0.5, rel=1e-12)

    def test_p1_equals_mass(self):
        g = RadialGrid.uniform(64, 2.0)
        u = DensityField(g, np.random.default_rng(1).uniform(0, 2, 64))
        assert lp_norm(u, 1) == pytest.approx(mass(u), rel=1e-14)

    def test_sup_norm_of_extremizer(self):
        g = RadialGrid.uniform(1024, 50.0)
        f = hls_extremizer_profile(g, 1.0, 1.0, 1.25)
        # cell averaging shaves O(dr^2) off the centre value
        assert lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-2)
        assert lp_norm(f, np.inf) <= 1.0

    def test_p_below_one_rejected(self):
        g = RadialGrid.uniform(8, 1.0)
        with pytest.raises(ValueError):
            lp_norm(DensityField(g, np.ones(8)), 0.5)


class TestSecondMoment:
    def test_unit_ball(self):
        g = RadialGrid.uniform(200, 1.0)
        assert second_moment(ball_indicator(g)) == pytest.approx(4 * math.pi / 5,
                                                                 rel=1e-12)

    def test_zero(self):
        g = RadialGrid.uniform(16, 1.0)
        assert second_moment(DensityField(g, np.zeros(16))) == 0.0

    def test_radius_scaling_at_fixed_values(self):
        g = RadialGrid.uniform(64, 2.0)
        vals = np.random.default_rng(5).uniform(0, 1, 64)
        mu = 3.0
        g_scaled = RadialGrid(d=3, r_edges=g.r_edges * mu)
        m2_ratio = second_moment(DensityField(g_scaled, vals)) / second_moment(
            DensityField(g, vals))
        # m2 picks up mu^2 on top of the mu^3 volume factor
        assert m2_ratio == pytest.approx(mu ** 5, rel=1e-12)


class TestRearrange:
    def test_non_increasing_is_fixed_point(self):
        g = RadialGrid.uniform(32, 1.0)
        u = DensityField(g, np.linspace(2.0, 0.1, 32))
        out = rearrange(u)
        assert out is u

    def test_constant_is_fixed_point(self):
        g = RadialGrid.uniform(32, 1.0)
        u = DensityField(g, np.full(32, 0.7))
        assert rearrange(u) is u

    def test_outer_shell_indicator_becomes_centered_ball(self):
        g = RadialGrid.uniform(32, 1.0)
        vals = np.zeros(32)
        vals[-1] = 2.0
        u = DensityField(g, vals)
        out = rearrange(u)
        # the value block of volume v_last moves to a centered ball of
        # the same volume and value
        v_block = g.shell_volumes[-1]
        r_block = (3 * v_block / (4 * math.pi)) ** (1 / 3)
        assert out.values[0] == 2.0
        assert out.grid.r_edges[1] == pytest.approx(r_block, rel=1e-13)
        # distribution function agrees level by level (brute force)
        for level in (0.5, 1.0, 1.9):
            vol_in = float(np.sum(u.grid.shell_volumes[u.values > level]))
            vol_out = float(np.sum(out.grid.shell_volumes[out.values > level]))
            assert vol_out == pytest.approx(vol_in, rel=1e-12, abs=1e-300)

    def test_norms_preserved_on_random_fields(self):
        g = RadialGrid.uniform(96, 3.0)
        rng = np.random.default_rng(11)
        for _ in range(25):
            u = DensityField(g, random_bump_field(rng, g))
            out = rearrange(u)
            for p in (1.0, 7 / 6, 2.0, np.inf):
                assert lp_norm(out, p) == pytest.approx(lp_norm(u, p), rel=1e-12)
            assert np.all(np.diff(out.values) <= 1e-14)

    def test_projected_variant_conserves_mass(self):
        g = RadialGrid.uniform(96, 3.0)
        rng = np.random.default_rng(12)
        u = DensityField(g, random_bump_field(rng, g))
        out = rearrange(u, onto=g)
        assert out.grid is g
        assert mass(out) == pytest.approx(mass(u), rel=1e-12)


class TestScale:
    def test_identity(self):
        g = RadialGrid.uniform(32, 2.0)
        u = DensityField(g, np.linspace(1, 0, 32))
        out = scale(u, 1.0, 1.0)
        assert np.array_equal(out.values, u.values)
        assert np.array_equal(out.grid.r_edges, g.r_edges)

    def test_mass_scaling_exact(self):
        g = RadialGrid.uniform(64, 2.0)
        u = DensityField(g, np.random.default_rng(7).uniform(0, 1, 64))
        lam, mu = 2.5, 1.7
        assert mass(scale(u, lam, mu)) == pytest.approx(
            lam * mu ** -3 * mass(u), rel=1e-13)

    def test_mass_invariant_dilation_preserves_l1(self):
        # lam = mu^d leaves the L^1 norm (p = d(2-m)/(2s) = 1) untouched
        g = RadialGrid.uniform(64, 2.0)
        u = DensityField(g, np.random.default_rng(8).uniform(0, 1, 64))
        mu = 2.0
        out = scale(u, mu ** 3, mu)
        assert lp_norm(out, 1) == pytest.approx(lp_norm(u, 1), rel=1e-13)


class TestProfiles:
    def test_extremizer_center_value_and_monotonicity(self):
        g = RadialGrid.uniform(256, 10.0)
        A, gam, s = 2.0, 1.5, 1.25
        f = hls_extremizer_profile(g, A, gam, s)
        # first cell average sits O(dr^2) under the r = 0 point value
        assert f.values[0] == pytest.approx(A * gam ** -(3 + 2 * s), rel=3e-3)
        assert f.values[0] < A * gam ** -(3 + 2 * s)
        assert np.all(np.diff(f.values) < 0)

    def test_barenblatt_mass_exact_and_compact(self):
        g = RadialGrid.uniform(256, 4.0)
        u = barenblatt_profile(g, 25.0, 1.0, 7 / 6)
        assert mass(u) == pytest.approx(25.0, rel=1e-14)
        assert np.all(u.values[g.centers > 1.0] == 0.0)
        assert np.all(np.diff(u.values) <= 0)


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        g = RadialGrid.uniform(48, 2.0)
        u = DensityField(g, np.random.default_rng(9).uniform(0, 3, 48))
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        header = path.read_text().splitlines()[0]
        assert header == "r_center,volume,value"
        back = read_field_csv(path, d=3)
        assert np.allclose(back.values, u.values, rtol=0, atol=0)
        assert np.allclose(back.grid.r_edges, g.r_edges, rtol=1e-12)

    def test_read_onto_grid_is_exact(self, tmp_path):
        g = RadialGrid.uniform(96, 4.0)
        u = DensityField(g, np.random.default_rng(9).uniform(0, 3, 96))
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        back = read_field_csv(path, grid=RadialGrid.uniform(96, 4.0))
        assert back.grid.same_as(g)
        assert np.array_equal(back.values, u.values)
        with pytest.raises(GridMismatchError, match="volumes"):
            read_field_csv(path, grid=RadialGrid.uniform(96, 4.0 * (1 + 1e-11)))
        with pytest.raises(GridMismatchError):
            read_field_csv(path, grid=RadialGrid.uniform(95, 4.0))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_field_csv(path)


class TestProjection:
    def test_projection_conserves_mass_and_smooths(self):
        fine = RadialGrid.uniform(192, 3.0)
        coarse = RadialGrid.uniform(48, 3.0)
        rng = np.random.default_rng(10)
        u = DensityField(fine, random_bump_field(rng, fine))
        out = project_onto(u, coarse)
        assert mass(out) == pytest.approx(mass(u), rel=1e-13)
        assert lp_norm(out, np.inf) <= lp_norm(u, np.inf) * (1 + 1e-12)
