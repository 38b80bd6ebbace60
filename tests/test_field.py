"""Grids, fields, rearrangement, scaling, and reference profiles."""

import math

import numpy as np
import pytest

from aggdiff import (
    DensityField,
    GridMismatchError,
    ParameterDomainError,
    RadialGrid,
    barenblatt_profile,
    build_kernel,
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
from aggdiff import riesz
from aggdiff.field import _GAUSS_LEGENDRE, _cell_average, dilate
from aggdiff.special import sphere_surface
from conftest import is_structured, random_bump_field


def ball_indicator(grid, value=1.0, radius=1.0):
    return DensityField(grid, np.where(grid.centers < radius, value, 0.0))


class TestGrid:
    def test_shell_volumes_sum_to_ball(self):
        g = RadialGrid.uniform(128, 2.5)
        assert np.sum(g.shell_volumes) == pytest.approx(4 * math.pi / 3 * 2.5 ** 3,
                                                        rel=1e-13)
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
        assert np.sum(g.shell_volumes) == pytest.approx(4 * math.pi / 3 * 8.0, rel=1e-13)


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

    def test_equal_copies_and_one_edge_off(self):
        a = RadialGrid.uniform(8, 1.0)
        copy = RadialGrid(d=3, r_edges=a.r_edges.copy())
        assert a == a and a == copy and hash(copy) == hash(a)
        edges = a.r_edges.copy()
        edges[4] = np.nextafter(edges[4], 1.0)
        assert a != RadialGrid(d=3, r_edges=edges)

    def test_nan_edges_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RadialGrid(d=3, r_edges=np.array([0.0, 0.5, np.nan, 1.0]))

    @pytest.mark.parametrize("edges", [[0.0, 0.5, 1.0, np.inf], [0.0, np.inf]])
    def test_infinite_edge_rejected(self, edges):
        with pytest.raises(ValueError, match="r_edges must be finite"):
            RadialGrid(d=3, r_edges=edges)

    @pytest.mark.parametrize("n_cells, r_max, d", [
        (64, 1e300, 3), (64, 1e103, 3), (64, 1e70, 3), (64, 1e60, 4),
        (16, 1e-300, 3),
    ])
    def test_powers_out_of_range_rejected(self, n_cells, r_max, d):
        # r_max^(d+2) overflows in mean_r2, or r_1^d underflows to a zero volume
        match = rf"r_1\^{d} > 0 and r_max\^{d + 2} finite"
        with pytest.raises(ValueError, match=match):
            RadialGrid.uniform(n_cells, r_max, d=d)

    @pytest.mark.parametrize("n_cells, r_max", [(64, 1e60), (16, 1e-90)])
    def test_powers_in_range_give_finite_geometry(self, n_cells, r_max):
        g = RadialGrid.uniform(n_cells, r_max)
        for a in (g.shell_volumes, g.centers, g.mean_r2, g.face_areas):
            assert np.isfinite(a).all()
        assert (g.shell_volumes > 0).all()

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

    def test_nan_p_rejected(self):
        g = RadialGrid.uniform(8, 1.0)
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_norm(DensityField(g, np.ones(8)), float("nan"))


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

    def test_plateaus_and_zero_tail_are_a_fixed_point(self):
        g = RadialGrid.uniform(32, 1.0)
        u = DensityField(g, np.repeat([3.0, 3.0, 1.5, 1.5, 0.2, 0.0, 0.0, 0.0], 4))
        assert rearrange(u) is u

    def test_one_ulp_rise_is_rearranged(self):
        g = RadialGrid.uniform(32, 1.0)
        vals = np.linspace(2.0, 0.1, 32)
        vals[20] = np.nextafter(vals[19], np.inf)
        out = rearrange(DensityField(g, vals))
        assert out.grid != g
        assert np.array_equal(out.values, vals[np.argsort(-vals, kind="stable")])
        assert out.values[19] == vals[20] and out.values[20] == vals[19]

    def test_signed_zero_ties_keep_the_stable_order(self):
        # -0.0 and 0.0 are ties: the stable sort keeps their order, so
        # the zero tail comes out as it went in
        g = RadialGrid.uniform(8, 1.0)
        vals = np.array([0.0, -0.0, 1.0, -0.0, 0.5, 0.0, -0.0, 0.0])
        out = rearrange(DensityField(g, vals))
        order = np.argsort(-vals, kind="stable")
        assert list(order) == [2, 4, 0, 1, 3, 5, 6, 7]
        assert np.array_equal(np.signbit(out.values), np.signbit(vals[order]))
        tied = DensityField(g, np.array([1.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0]))
        assert rearrange(tied) is tied

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

    def test_swamped_cell_gives_non_increasing_edges(self):
        # the outer shell sorts first, and the inner cell's volume vanishes
        # in the cumulative sum, so two rearranged edges coincide
        g = RadialGrid(d=3, r_edges=[0.0, 1e-8, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            rearrange(DensityField(g, np.array([1.0, 2.0])))

    def test_projected_variant_conserves_mass(self):
        g = RadialGrid.uniform(96, 3.0)
        rng = np.random.default_rng(12)
        u = DensityField(g, random_bump_field(rng, g))
        out = project_onto(rearrange(u), g)
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

    def test_barenblatt_radius_inside_first_quadrature_node_rejected(self):
        # no Gauss node of the first cell lies inside r = 1e-6: the bump is 0
        g = RadialGrid.uniform(64, 4.0)
        with pytest.raises(ParameterDomainError, match="radius 1e-06 is too small"):
            barenblatt_profile(g, 25.0, 1e-6, 7 / 6)

    def test_barenblatt_density_overflow_rejected(self):
        # mass 1 fits in this bump; 100 pushes its density past the largest double
        g = RadialGrid.uniform(64, 1e-102)
        assert np.isfinite(barenblatt_profile(g, 1.0, 5e-103, 7 / 6).values).all()
        with pytest.raises(OverflowError, match="mass 100 in radius 5e-103 overflows"):
            barenblatt_profile(g, 100.0, 5e-103, 7 / 6)


def former_gauss_nodes(grid):
    """riesz._gauss_nodes as it was coded before the shared cell Gauss map,
    with fresh arrays."""
    x, w = np.polynomial.legendre.leggauss(riesz._GAUSS_ORDER)
    lo = grid.r_edges[:-1][:, None]
    hi = grid.r_edges[1:][:, None]
    nodes = 0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w[None, :] * nodes ** (grid.d - 1)
    return nodes.ravel(), weights / weights.sum(axis=1, keepdims=True)


def former_cell_average(grid, fn):
    """field._cell_average as it was coded before the shared cell Gauss map."""
    nodes, weights = np.polynomial.legendre.leggauss(6)
    lo = grid.r_edges[:-1][:, None]
    hi = grid.r_edges[1:][:, None]
    r = 0.5 * (hi - lo) * nodes[None, :] + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights[None, :]
    d = grid.d
    num = np.sum(w * r ** (d - 1) * fn(r), axis=1)
    den = np.sum(w * r ** (d - 1), axis=1)
    return num / den


def cell_gauss_grid(kind, d):
    uniform = RadialGrid.uniform(64, 3.0, d=d)
    rng = np.random.default_rng(d)
    if kind == "uniform":
        return uniform
    if kind == "rearranged":
        return rearrange(DensityField(uniform, random_bump_field(rng, uniform))).grid
    edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 3.0, 64))))
    return RadialGrid(d=d, r_edges=edges)


class TestCellGauss:
    @pytest.mark.parametrize("order", sorted(_GAUSS_LEGENDRE))
    def test_table_bitwise_equal_to_leggauss(self, order):
        x, w = np.polynomial.legendre.leggauss(order)
        table_x, table_w = np.array(_GAUSS_LEGENDRE[order])
        assert table_x.tobytes() == x.tobytes()
        assert table_w.tobytes() == w.tobytes()

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["uniform", "rearranged", "random-edges"])
    def test_pair_average_nodes_bitwise_equal_to_former_code(self, kind, d):
        grid = cell_gauss_grid(kind, d)
        nodes, weights = riesz._gauss_nodes(grid)
        former_nodes, former_weights = former_gauss_nodes(grid)
        assert np.array_equal(nodes, former_nodes)
        assert np.array_equal(weights, former_weights)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["uniform", "rearranged", "random-edges"])
    @pytest.mark.parametrize("profile", [
        lambda r: np.clip(1.0 - (r / 1.3) ** 2, 0.0, None) ** 6.0,
        lambda r: 2.0 * (1.5 ** 2 + r * r) ** -2.75,
    ], ids=["bump", "extremizer"])
    def test_cell_average_bitwise_equal_to_former_code(self, kind, d, profile):
        grid = cell_gauss_grid(kind, d)
        assert np.array_equal(_cell_average(grid, profile),
                              former_cell_average(grid, profile))


def uniform_test_field(n_cells, d=3):
    g = RadialGrid.uniform(n_cells, 4.0, d=d)
    return DensityField(g, random_bump_field(np.random.default_rng(n_cells), g))


def graded_test_field(n_cells):
    i = np.arange(n_cells + 1)
    g = RadialGrid(d=3, r_edges=4.0 * np.expm1(3.0 * i / n_cells) / np.expm1(3.0))
    return DensityField(g, random_bump_field(np.random.default_rng(n_cells), g))


ROUND_TRIP_FIELDS = {
    "uniform-96": lambda: uniform_test_field(96),
    "uniform-576": lambda: uniform_test_field(576),
    "uniform-4096": lambda: uniform_test_field(4096),
    "uniform-96-d5": lambda: uniform_test_field(96, d=5),
    "rearranged": lambda: rearrange(uniform_test_field(96)),
    "scaled": lambda: scale(uniform_test_field(96), 2.0, 1.7),
    "graded": lambda: graded_test_field(256),
}


def csv_round_trip(u, path):
    write_field_csv(u, path)
    return read_field_csv(path, d=u.grid.d)


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        g = RadialGrid.uniform(48, 2.0)
        u = DensityField(g, np.random.default_rng(9).uniform(0, 3, 48))
        path = tmp_path / "field.csv"
        back = csv_round_trip(u, path)
        header = path.read_text().splitlines()[0]
        assert header == "r_center,volume,value,r_outer"
        columns = np.loadtxt(path, delimiter=",", skiprows=1).T
        for column, expected in zip(columns, [g.centers, g.shell_volumes, u.values,
                                              g.r_edges[1:]]):
            assert np.array_equal(column, expected)
        assert back.grid == g
        assert np.array_equal(back.values, u.values)

    @pytest.mark.parametrize("kind", ROUND_TRIP_FIELDS)
    def test_round_trip_is_exact(self, tmp_path, kind):
        u = ROUND_TRIP_FIELDS[kind]()
        back = csv_round_trip(u, tmp_path / "field.csv")
        assert back.grid == u.grid
        assert np.array_equal(back.values, u.values)

    def test_reloaded_uniform_grid_gets_fft_operator(self, tmp_path):
        back = csv_round_trip(uniform_test_field(576), tmp_path / "field.csv")
        assert is_structured(build_kernel(back.grid, 1.25))

    def test_volumes_pin_the_dimension(self, tmp_path):
        path = tmp_path / "field.csv"
        u4 = DensityField(RadialGrid.uniform(48, 2.0, d=4), np.ones(48))
        write_field_csv(u4, path)
        assert read_field_csv(path, d=4).grid == u4.grid
        for d in (3, 5):
            with pytest.raises(ValueError, match=f"d = {d} shell volumes"):
                read_field_csv(path, d=d)

    def test_three_column_file_rejected(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("r_center,volume,value\n0.5,0.5,1.0\n")
        with pytest.raises(ValueError, match="r_center,volume,value,r_outer"):
            read_field_csv(path)

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

    def test_onto_its_own_grid_is_the_interpolation_bit_for_bit(self):
        # onto the same edges the projection skips np.interp, which returns
        # the node values there; dilate(u, 1.0) interpolates at a copy of them
        g = RadialGrid.uniform(256, 3.0)
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = DensityField(g, random_bump_field(rng, g) * 10.0 ** rng.uniform(-200, 200))
            assert np.array_equal(project_onto(u, g).values, dilate(u, 1.0).values)


def projection_oracle(u, grid):
    """Volume-averaged projection by locating each target edge in the
    source cells (searchsorted) and adding the partial-shell mass."""
    d = grid.d
    src_edges_d = u.grid.r_edges ** d
    cum_mass = np.concatenate(([0.0], np.cumsum(u.values * u.grid.shell_volumes)))

    def cum_at(r):
        rd = np.asarray(r, dtype=float) ** d
        idx = np.clip(np.searchsorted(u.grid.r_edges, r, side="right") - 1,
                      0, u.grid.n_cells - 1)
        frac_vol = sphere_surface(d) / d * (np.minimum(rd, src_edges_d[idx + 1])
                                            - src_edges_d[idx])
        frac_vol = np.maximum(frac_vol, 0.0)
        out = cum_mass[idx] + u.values[idx] * frac_vol
        return np.where(np.asarray(r) >= u.grid.r_max, cum_mass[-1], out)

    new_vals = np.diff(cum_at(grid.r_edges)) / grid.shell_volumes
    return np.maximum(new_vals, 0.0)


def max_rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


SOURCE_GRIDS = [RadialGrid.uniform(96, 3.0), RadialGrid.uniform(256, 4.0),
                RadialGrid.uniform(4096, 4.0)]


class TestProjectionAgainstOracle:
    @pytest.mark.parametrize("grid", SOURCE_GRIDS, ids=lambda g: f"n{g.n_cells}")
    @pytest.mark.parametrize("mu", [0.5, 0.9, 1.1, 2.0])
    def test_dilation(self, grid, mu):
        rng = np.random.default_rng([grid.n_cells, int(10 * mu)])
        u = DensityField(grid, random_bump_field(rng, grid))
        expected = projection_oracle(scale(u, mu ** 3, mu), grid)
        assert max_rel_gap(dilate(u, mu).values, expected) <= 1e-12
        assert max_rel_gap(project_onto(scale(u, mu ** 3, mu), grid).values,
                           expected) <= 1e-12

    @pytest.mark.parametrize("grid", SOURCE_GRIDS, ids=lambda g: f"n{g.n_cells}")
    def test_rearranged_source(self, grid):
        u = DensityField(grid, random_bump_field(np.random.default_rng(grid.n_cells), grid))
        u_star = rearrange(u)
        assert u_star.grid != grid  # non-uniform edges
        coarse = RadialGrid.uniform(grid.n_cells // 2, 0.8 * grid.r_max)
        for target in (grid, coarse):
            assert max_rel_gap(project_onto(u_star, target).values,
                               projection_oracle(u_star, target)) <= 1e-12

    def test_mass_exact_when_target_covers_source(self):
        g = RadialGrid.uniform(256, 3.0)
        u = DensityField(g, random_bump_field(np.random.default_rng(21), g))
        for target in (RadialGrid.uniform(97, 3.0), RadialGrid.uniform(300, 5.0)):
            assert mass(project_onto(u, target)) == pytest.approx(mass(u), rel=1e-13)
        for mu in (1.1, 2.0):  # a contraction stays inside R_max
            assert mass(dilate(u, mu)) == pytest.approx(mass(u), rel=1e-13)

    def test_mass_beyond_target_is_dropped_like_the_oracle(self):
        g = RadialGrid.uniform(256, 3.0)
        u = DensityField(g, np.ones(256))
        target = RadialGrid.uniform(100, 1.5)
        out = project_onto(u, target)
        assert mass(out) == pytest.approx(mass(u) / 8.0, rel=1e-13)
        assert mass(out) == pytest.approx(
            float(np.dot(projection_oracle(u, target), target.shell_volumes)), rel=1e-13)
        spread = dilate(u, 0.5)  # twice as wide: only the inner 1/8 stays
        assert mass(spread) == pytest.approx(mass(u) / 8.0, rel=1e-13)
        assert max_rel_gap(spread.values,
                           projection_oracle(scale(u, 0.125, 0.5), g)) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        u = DensityField(RadialGrid.uniform(32, 2.0), np.ones(32))
        with pytest.raises(GridMismatchError):
            project_onto(u, RadialGrid.uniform(32, 2.0, d=4))
