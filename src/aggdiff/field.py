"""Radial finite-volume grids, non-negative density fields, and profiles.

A field is a cell-averaged radially symmetric density on the ball
|x| <= R_max in R^d.  Cell i covers the shell r_edges[i] < r <
r_edges[i+1] and carries the full d-dimensional shell volume, so plain
weighted sums over cells are integrals over R^d.  Cell centers follow a
fixed rule: the volume centroid of the shell,

    center_i = d (r_{i+1}^{d+1} - r_i^{d+1}) / ((d+1) (r_{i+1}^d - r_i^d)),

and second moments use the exact shell average of |x|^2 per cell.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ParameterDomainError
from .special import sphere_surface


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_increasing(edges: np.ndarray) -> None:
    if not (edges[1:] > edges[:-1]).all():  # also rejects NaN edges
        raise ValueError("r_edges must be strictly increasing")


def _shell_volumes(edges_pow_d: np.ndarray, d: int) -> np.ndarray:
    return sphere_surface(d) / d * (edges_pow_d[1:] - edges_pow_d[:-1])  # np.diff's bits


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing finite edges 0 = r_0 < ... < r_N = R_max in
    R^d.  The edges are copied and, like the cached geometry, read-only.
    Grids compare equal, and hash alike, when they have the same dimension
    and the same edges."""

    d: int
    r_edges: np.ndarray

    def __post_init__(self):
        edges = _read_only(np.array(self.r_edges, dtype=float))
        object.__setattr__(self, "r_edges", edges)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("r_edges must be a 1-d array with at least two entries")
        if edges[0] != 0.0:
            raise ValueError("grid must start at r = 0")
        _require_increasing(edges)
        if self.d < 3:
            raise ValueError(f"dimension must be >= 3, got {self.d}")
        try:  # the geometry takes the edges' powers d to d + 2
            finite = (float(edges[1]) ** self.d > 0.0
                      and float(edges[-1]) ** (self.d + 2) < np.inf)
        except OverflowError:
            finite = False
        if not finite:  # increasing edges can be infinite only at the end
            raise ValueError(f"r_edges must be finite, with r_1^{self.d} > 0 and "
                             f"r_max^{self.d + 2} finite: got r_max {edges[-1]:g}")

    @classmethod
    def uniform(cls, n_cells: int, r_max: float, d: int = 3) -> "RadialGrid":
        return cls(d=d, r_edges=np.linspace(0.0, r_max, n_cells + 1))

    @property
    def n_cells(self) -> int:
        return self.r_edges.size - 1

    @property
    def r_max(self) -> float:
        return float(self.r_edges[-1])

    @cached_property
    def widths(self) -> np.ndarray:
        return _read_only(np.diff(self.r_edges))

    @cached_property
    def edges_pow_d(self) -> np.ndarray:
        """r_edges^d, proportional to the volume inside each edge."""
        return _read_only(self.r_edges ** self.d)

    @cached_property
    def shell_volumes(self) -> np.ndarray:
        """v_i = omega_d (r_{i+1}^d - r_i^d) / d, the full shell volume."""
        return _read_only(_shell_volumes(self.edges_pow_d, self.d))

    @cached_property
    def centers(self) -> np.ndarray:
        """Volume centroids of the shells."""
        d = self.d
        num = np.diff(self.r_edges ** (d + 1))
        return _read_only(d * num / ((d + 1) * np.diff(self.edges_pow_d)))

    @cached_property
    def center_spacing(self) -> np.ndarray:
        """Distances between adjacent cell centers (the N-1 interior faces)."""
        return _read_only(np.diff(self.centers))

    @cached_property
    def mean_r2(self) -> np.ndarray:
        """Exact shell averages of |x|^2."""
        d = self.d
        num = np.diff(self.r_edges ** (d + 2))
        return _read_only(d * num / ((d + 2) * np.diff(self.edges_pow_d)))

    @cached_property
    def face_areas(self) -> np.ndarray:
        """omega_d r^{d-1} at every edge (zero at r = 0)."""
        return _read_only(sphere_surface(self.d) * self.r_edges ** (self.d - 1))

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return self.d == other.d and bool(np.array_equal(self.r_edges, other.r_edges))

    def __hash__(self) -> int:
        # r_0 is +0.0 or -0.0, which compare equal but differ in bytes
        return hash((self.d, self.r_edges[1:].tobytes()))


@dataclass(frozen=True)
class DensityField:
    """Cell-averaged non-negative density on a radial grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with "
                f"{self.grid.n_cells} cells"
            )
        # NaN fails both comparisons, so this also rejects it
        if not (vals.min() >= 0.0 and vals.max() < np.inf):
            raise ValueError("density values must be finite and non-negative")

    def with_values(self, values: np.ndarray) -> "DensityField":
        return DensityField(grid=self.grid, values=values)


def require_same_grid(a: RadialGrid, b: RadialGrid, what: str):
    if a != b:
        raise GridMismatchError(f"{what} live on different radial grids")


def mass(u: DensityField) -> float:
    return float(np.dot(u.values, u.grid.shell_volumes))


def lp_norm(u: DensityField, p: float) -> float:
    """L^p norm; p = inf returns the max cell value."""
    if p == np.inf:
        return float(np.max(u.values))
    if not p >= 1.0:  # NaN fails the comparison too
        raise ValueError(f"p must be >= 1 (or inf), got {p}")
    return float(np.dot(u.values ** p, u.grid.shell_volumes) ** (1.0 / p))


def second_moment(u: DensityField) -> float:
    return float(np.dot(u.values * u.grid.mean_r2, u.grid.shell_volumes))


def rearrange(u: DensityField) -> DensityField:
    """Symmetric decreasing rearrangement of a cell-averaged field.

    Cells are sorted by value (descending, stable) and refilled from the
    origin outward as volume blocks, so the output grid's edges are the
    cumulative-volume radii of the sorted blocks.  On that grid the
    rearranged function is represented exactly: the distribution
    function, the mass and every L^p norm are preserved to roundoff.
    """
    vals, edges, _, _ = _rearranged(u.values, u.grid)
    return u if vals is u.values else DensityField(RadialGrid(d=u.grid.d, r_edges=edges), vals)


def _rearranged(vals: np.ndarray, grid: RadialGrid):
    """Values, checked edges, shell volumes and edges^d of :func:`rearrange`
    for values ``vals`` on ``grid``; without a rise the stable sort is the
    identity, and ``vals`` and ``grid``'s own arrays come back as they are."""
    if not (vals[1:] > vals[:-1]).any():
        return vals, grid.r_edges, grid.shell_volumes, grid.edges_pow_d
    d = grid.d
    order = (-vals).argsort(kind="stable")
    cum = grid.shell_volumes[order].cumsum()
    edges = np.empty(vals.size + 1)
    edges[0] = 0.0
    edges[1:] = (d * cum / sphere_surface(d)) ** (1.0 / d)
    edges[-1] = grid.r_max  # cumulative sum closes the total volume
    _require_increasing(edges)
    pow_d = edges ** d
    return vals[order], edges, _shell_volumes(pow_d, d), pow_d


def project_onto(u: DensityField, grid: RadialGrid) -> DensityField:
    """Volume-averaged projection of a field onto another grid.

    Exactly mass conserving when the target grid covers the source
    support; mass beyond the target R_max is dropped.
    """
    if grid.d != u.grid.d:
        raise GridMismatchError("projection requires matching dimension")
    return DensityField(grid, _project(u.values, u.grid.shell_volumes, u.grid.edges_pow_d,
                                       grid.edges_pow_d, grid.shell_volumes))


def dilate(u: DensityField, mu: float) -> DensityField:
    """Mass-invariant dilation mu^d u(mu r) projected onto u's own grid
    (for mu < 1 the mass pushed beyond R_max is dropped)."""
    g = u.grid
    return DensityField(g, _project(u.values, g.shell_volumes, g.edges_pow_d,
                                    mu ** g.d * g.edges_pow_d, g.shell_volumes))


def _project(vals: np.ndarray, vols: np.ndarray, pow_d: np.ndarray,
             at_pow_d: np.ndarray, out_vols: np.ndarray) -> np.ndarray:
    """Averages over cells of volumes ``out_vols`` given that the mass inside
    each of their edges is the source cells' (values, volumes, edges^d) mass
    inside r = at_pow_d^(1/d).  That mass is exactly linear in r^d on each
    source cell, and constant beyond its R_max."""
    cum_mass = np.empty(vals.size + 1)
    cum_mass[0] = 0.0
    (vals * vols).cumsum(out=cum_mass[1:])
    # interp at its own nodes returns their values: skip it onto the same edges
    m_edges = cum_mass if at_pow_d is pow_d else np.interp(at_pow_d, pow_d, cum_mass)
    return np.maximum((m_edges[1:] - m_edges[:-1]) / out_vols, 0.0)


def scale(u: DensityField, lam: float, mu: float) -> DensityField:
    """Dilation u -> lam * u(mu r), realised on the grid with edges / mu.

    Mass transforms exactly as lam * mu^{-d} * mass(u).
    """
    if lam < 0.0 or mu <= 0.0:
        raise ValueError("scale requires lam >= 0 and mu > 0")
    new_grid = RadialGrid(d=u.grid.d, r_edges=u.grid.r_edges / mu)
    return DensityField(new_grid, lam * u.values)


# Gauss-Legendre nodes and weights on [-1, 1] by order: the doubles
# numpy.polynomial.legendre.leggauss returns, tabulated so that no kernel
# build or profile imports numpy.polynomial or calls LAPACK.
_GAUSS_LEGENDRE = {
    2: ((-0.5773502691896257, 0.5773502691896257), (1.0, 1.0)),
    6: ((-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
         0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
        (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
         0.46791393457269104, 0.3607615730481387, 0.17132449237917027)),
}


def _cell_gauss(grid: RadialGrid, order: int):
    """The order-point Gauss-Legendre rule mapped into every cell: nodes and
    volume-measure weights w r^{d-1}, each of shape (n_cells, order)."""
    x, w = np.array(_GAUSS_LEGENDRE[order])
    lo = grid.r_edges[:-1][:, None]
    hi = grid.r_edges[1:][:, None]
    nodes = 0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)
    return nodes, 0.5 * (hi - lo) * w[None, :] * nodes ** (grid.d - 1)


def _cell_average(grid: RadialGrid, fn) -> np.ndarray:
    """Volume-weighted cell averages of a radial profile, by 6-point
    Gauss-Legendre quadrature on each cell."""
    r, w = _cell_gauss(grid, 6)
    return np.sum(w * fn(r), axis=1) / np.sum(w, axis=1)


def hls_extremizer_profile(grid: RadialGrid, A: float, gamma: float, s: float) -> DensityField:
    """Cell averages of u(r) = A (gamma^2 + r^2)^{-(d+2s)/2}.

    This is the profile that saturates the sharp bilinear interaction
    inequality at kernel power d - 2s.
    """
    if A <= 0.0 or gamma == 0.0:
        raise ValueError("profile requires A > 0 and gamma != 0")
    expo = -(grid.d + 2.0 * s) / 2.0
    vals = _cell_average(grid, lambda r: A * (gamma * gamma + r * r) ** expo)
    return DensityField(grid, vals)


def barenblatt_profile(grid: RadialGrid, total_mass: float, radius: float,
                       m: float) -> DensityField:
    """Compact self-similar bump c (1 - (r/radius)^2)_+^{1/(m-1)},
    normalised so the discrete mass equals ``total_mass`` exactly.  A
    radius inside the grid's first quadrature node raises
    :class:`ParameterDomainError`, and a density beyond the largest double
    ``OverflowError``."""
    if total_mass <= 0.0 or radius <= 0.0:
        raise ValueError("barenblatt_profile requires positive mass and radius")
    power = 1.0 / (m - 1.0)
    vals = _cell_average(
        grid, lambda r: np.clip(1.0 - (r / radius) ** 2, 0.0, None) ** power
    )
    raw_mass = mass(DensityField(grid, vals))
    if raw_mass == 0.0:
        raise ParameterDomainError(f"barenblatt_profile radius {radius!r} is too "
                                   f"small for the grid: no quadrature node lies "
                                   f"inside it")
    factor = total_mass / raw_mass
    if not float(vals.max()) * factor < np.inf:
        raise OverflowError(f"barenblatt_profile of mass {total_mass:g} in radius "
                            f"{radius:g} overflows the largest double on this grid")
    return DensityField(grid, vals * factor)


def _random_bump_field(rng, grid: RadialGrid) -> np.ndarray:
    """Non-negative mixture of Gaussian bumps plus an occasional slab, as
    values at the grid's cell centers."""
    centers = grid.centers
    r_max = grid.r_max
    n_bumps = rng.integers(1, 5)
    vals = np.zeros_like(centers)
    for _ in range(n_bumps):
        c = rng.uniform(0.0, 0.6 * r_max)
        w = rng.uniform(0.05, 0.4) * r_max
        a = rng.uniform(0.1, 1.0)
        vals += a * np.exp(-0.5 * ((centers - c) / w) ** 2)
    if rng.random() < 0.3:
        edge = rng.uniform(0.1, 0.5) * r_max
        vals += rng.uniform(0.1, 1.0) * (centers < edge)
    return vals


_CSV_HEADER = ["r_center", "volume", "value", "r_outer"]


def write_field_csv(u: DensityField, path) -> None:
    """Serialise as CSV with header ``r_center,volume,value,r_outer``, every
    number written with ``repr`` so that it reads back exactly."""
    grid = u.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for row in zip(grid.centers, grid.shell_volumes, u.values, grid.r_edges[1:]):
            writer.writerow([repr(float(x)) for x in row])


def read_field_csv(path, d: int = 3) -> DensityField:
    """Rebuild a field written by :func:`write_field_csv` in dimension ``d``.
    Its grid has edges 0 and the stored ``r_outer``, so it is the writer's
    grid bit for bit, and its shell volumes equal the stored ``volume``
    column bit for bit.  Any other header, or volumes of another dimension,
    raise ``ValueError``."""
    vals, vols, outer = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"field CSV header must be {','.join(_CSV_HEADER)}, "
                             f"got {header}")
        for _, volume, value, r_outer in reader:
            vols.append(float(volume))
            vals.append(float(value))
            outer.append(float(r_outer))
    grid = RadialGrid(d=d, r_edges=[0.0, *outer])
    if not np.array_equal(grid.shell_volumes, vols):
        raise ValueError(f"volume column is not the d = {d} shell volumes of the "
                         f"r_outer edges (written in another dimension?)")
    return DensityField(grid, np.array(vals))
