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

from .errors import GridMismatchError
from .special import sphere_surface


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing edges 0 = r_0 < ... < r_N = R_max in R^d.  The
    edges are copied and, like the cached geometry, read-only.  Grids
    compare equal, and hash alike, when :meth:`same_as` holds."""

    d: int
    r_edges: np.ndarray

    def __post_init__(self):
        edges = _read_only(np.array(self.r_edges, dtype=float))
        object.__setattr__(self, "r_edges", edges)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("r_edges must be a 1-d array with at least two entries")
        if edges[0] != 0.0:
            raise ValueError("grid must start at r = 0")
        if not np.all(np.diff(edges) > 0.0):  # also rejects NaN edges
            raise ValueError("r_edges must be strictly increasing")
        if self.d < 3:
            raise ValueError(f"dimension must be >= 3, got {self.d}")

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
    def shell_volumes(self) -> np.ndarray:
        """v_i = omega_d (r_{i+1}^d - r_i^d) / d, the full shell volume."""
        rd = self.r_edges ** self.d
        return _read_only(sphere_surface(self.d) / self.d * np.diff(rd))

    @cached_property
    def centers(self) -> np.ndarray:
        """Volume centroids of the shells."""
        d = self.d
        num = np.diff(self.r_edges ** (d + 1))
        den = np.diff(self.r_edges ** d)
        return _read_only(d * num / ((d + 1) * den))

    @cached_property
    def center_spacing(self) -> np.ndarray:
        """Distances between adjacent cell centers (the N-1 interior faces)."""
        return _read_only(np.diff(self.centers))

    @cached_property
    def mean_r2(self) -> np.ndarray:
        """Exact shell averages of |x|^2."""
        d = self.d
        num = np.diff(self.r_edges ** (d + 2))
        den = np.diff(self.r_edges ** d)
        return _read_only(d * num / ((d + 2) * den))

    @cached_property
    def face_areas(self) -> np.ndarray:
        """omega_d r^{d-1} at every edge (zero at r = 0)."""
        return _read_only(sphere_surface(self.d) * self.r_edges ** (self.d - 1))

    @cached_property
    def total_volume(self) -> float:
        return float(np.sum(self.shell_volumes))

    def same_as(self, other: "RadialGrid") -> bool:
        return self.d == other.d and bool(np.array_equal(self.r_edges, other.r_edges))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return self.same_as(other)

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
        check_density(vals)

    def with_values(self, values: np.ndarray) -> "DensityField":
        return DensityField(grid=self.grid, values=values)


def check_density(values: np.ndarray) -> None:
    # NaN fails both comparisons, so this also rejects it
    if not (values.min() >= 0.0 and values.max() < np.inf):
        raise ValueError("density values must be finite and non-negative")


def require_same_grid(a: RadialGrid, b: RadialGrid, what: str = "operands"):
    if not a.same_as(b):
        raise GridMismatchError(f"{what} live on different radial grids")


def face_gradient(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Central difference across adjacent cell centers at the N+1 faces;
    zero at r = 0 (symmetry) and at the outer wall."""
    grad = np.zeros(grid.n_cells + 1)
    grad[1:-1] = (values[1:] - values[:-1]) / grid.center_spacing
    return grad


def mass(u: DensityField) -> float:
    return float(np.dot(u.values, u.grid.shell_volumes))


def lp_norm(u: DensityField, p: float) -> float:
    """L^p norm; p = inf returns the max cell value."""
    if p == np.inf:
        return float(np.max(u.values)) if u.values.size else 0.0
    if p < 1.0:
        raise ValueError(f"p must be >= 1 (or inf), got {p}")
    return float(np.dot(u.values ** p, u.grid.shell_volumes) ** (1.0 / p))


def second_moment(u: DensityField) -> float:
    return float(np.dot(u.values * u.grid.mean_r2, u.grid.shell_volumes))


def rearrange(u: DensityField, onto: RadialGrid | None = None) -> DensityField:
    """Symmetric decreasing rearrangement of a cell-averaged field.

    Cells are sorted by value (descending, stable) and refilled from the
    origin outward as volume blocks, so the output grid's edges are the
    cumulative-volume radii of the sorted blocks.  On that grid the
    rearranged function is represented exactly: the distribution
    function, the mass and every L^p norm are preserved to roundoff.

    With ``onto`` the exact rearrangement is additionally projected back
    onto a caller-supplied grid by volume averaging (mass stays exact,
    norms pick up the usual projection error).
    """
    vals = u.values
    vols = u.grid.shell_volumes
    order = np.argsort(-vals, kind="stable")
    if np.array_equal(order, np.arange(vals.size)):
        out = u  # already non-increasing; keep edges bitwise identical
    else:
        sorted_vals = vals[order]
        cum = np.cumsum(vols[order])
        d = u.grid.d
        edges = np.empty(vals.size + 1)
        edges[0] = 0.0
        edges[1:] = (d * cum / sphere_surface(d)) ** (1.0 / d)
        edges[-1] = u.grid.r_max  # cumulative sum closes the total volume
        out = DensityField(RadialGrid(d=u.grid.d, r_edges=edges), sorted_vals)
    if onto is not None:
        out = project_onto(out, onto)
    return out


def project_onto(u: DensityField, grid: RadialGrid) -> DensityField:
    """Volume-averaged projection of a field onto another grid.

    Exactly mass conserving when the target grid covers the source
    support; mass beyond the target R_max is dropped.
    """
    if grid.d != u.grid.d:
        raise GridMismatchError("projection requires matching dimension")
    d = u.grid.d
    # cumulative mass of the source at arbitrary radius, exact for
    # piecewise-constant fields
    src_edges_d = u.grid.r_edges ** d
    cell_mass = u.values * u.grid.shell_volumes
    cum_mass = np.concatenate(([0.0], np.cumsum(cell_mass)))

    def cum_at(r):
        rd = np.asarray(r, dtype=float) ** d
        idx = np.clip(np.searchsorted(u.grid.r_edges, r, side="right") - 1,
                      0, u.grid.n_cells - 1)
        frac_vol = sphere_surface(d) / d * (np.minimum(rd, src_edges_d[idx + 1])
                                            - src_edges_d[idx])
        frac_vol = np.maximum(frac_vol, 0.0)
        out = cum_mass[idx] + u.values[idx] * frac_vol
        return np.where(np.asarray(r) >= u.grid.r_max, cum_mass[-1], out)

    m_edges = cum_at(grid.r_edges)
    new_vals = np.diff(m_edges) / grid.shell_volumes
    return DensityField(grid, np.maximum(new_vals, 0.0))


def scale(u: DensityField, lam: float, mu: float) -> DensityField:
    """Dilation u -> lam * u(mu r), realised on the grid with edges / mu.

    Mass transforms exactly as lam * mu^{-d} * mass(u).
    """
    if lam < 0.0 or mu <= 0.0:
        raise ValueError("scale requires lam >= 0 and mu > 0")
    new_grid = RadialGrid(d=u.grid.d, r_edges=u.grid.r_edges / mu)
    return DensityField(new_grid, lam * u.values)


def _cell_average(grid: RadialGrid, fn, gauss_order: int = 6) -> np.ndarray:
    """Volume-weighted cell averages of a radial profile."""
    nodes, weights = np.polynomial.legendre.leggauss(gauss_order)
    lo = grid.r_edges[:-1][:, None]
    hi = grid.r_edges[1:][:, None]
    r = 0.5 * (hi - lo) * nodes[None, :] + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights[None, :]
    d = grid.d
    num = np.sum(w * r ** (d - 1) * fn(r), axis=1)
    den = np.sum(w * r ** (d - 1), axis=1)
    return num / den


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
    normalised so the discrete mass equals ``total_mass`` exactly."""
    if total_mass <= 0.0 or radius <= 0.0:
        raise ValueError("barenblatt_profile requires positive mass and radius")
    power = 1.0 / (m - 1.0)
    vals = _cell_average(
        grid, lambda r: np.clip(1.0 - (r / radius) ** 2, 0.0, None) ** power
    )
    raw = DensityField(grid, vals)
    return DensityField(grid, vals * (total_mass / mass(raw)))


def write_field_csv(u: DensityField, path) -> None:
    """Serialise as CSV with header ``r_center,volume,value``."""
    centers = u.grid.centers
    vols = u.grid.shell_volumes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r_center", "volume", "value"])
        for c, v, x in zip(centers, vols, u.values):
            writer.writerow([repr(float(c)), repr(float(v)), repr(float(x))])


def read_field_csv(path, d: int = 3, grid: RadialGrid | None = None) -> DensityField:
    """Rebuild a field from the ``r_center,volume,value`` format.

    The values go on ``grid`` if given (its shell volumes must match the
    stored ones to 1e-12 relative); otherwise edges are recovered, to
    roundoff, from the cumulative volumes in dimension ``d``.
    """
    vols = []
    vals = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["r_center", "volume", "value"]:
            raise ValueError(f"unexpected field CSV header: {header}")
        for row in reader:
            vols.append(float(row[1]))
            vals.append(float(row[2]))
    vols_arr = np.asarray(vols)
    if grid is None:
        cum = np.concatenate(([0.0], np.cumsum(vols_arr)))
        edges = (d * cum / sphere_surface(d)) ** (1.0 / d)
        grid = RadialGrid(d=d, r_edges=edges)
    elif (vols_arr.shape != grid.shell_volumes.shape
          or not np.allclose(vols_arr, grid.shell_volumes, rtol=1e-12, atol=0.0)):
        raise GridMismatchError(f"{path}: stored cell volumes do not match the grid")
    return DensityField(grid, np.asarray(vals))
