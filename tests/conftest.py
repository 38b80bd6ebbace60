import numpy as np
import pytest

from aggdiff import (
    ModelParams,
    RadialGrid,
    RieszKernel,
    build_kernel,
    derived_constants,
    find_critical_mass,
)
from aggdiff.riesz import _dense_matrix, _HankelToeplitzOperator

# The working point for everything numerical: smallest dimension with
# 2 < 2s < d, and alpha = 0.5 keeps the radial kernel in closed form.
D, S = 3, 1.25


@pytest.fixture(scope="session")
def params():
    return ModelParams(d=D, s=S)


@pytest.fixture(scope="session")
def consts(params):
    return derived_constants(params)


@pytest.fixture(scope="session")
def grid96():
    return RadialGrid.uniform(96, 3.0, d=D)


@pytest.fixture(scope="session")
def kernel96(grid96):
    return build_kernel(grid96, S)


@pytest.fixture(scope="session")
def kernel96_no_attraction(grid96):
    """A zero interaction matrix on the 96-cell grid: phi is exactly 0."""
    return RieszKernel(grid96, S, 0.0, np.zeros((96, 96)))


@pytest.fixture(scope="session")
def grid256():
    return RadialGrid.uniform(256, 4.0, d=D)


@pytest.fixture(scope="session")
def kernel256(grid256):
    return build_kernel(grid256, S)


@pytest.fixture(scope="session")
def grid512():
    return RadialGrid.uniform(512, 4.0, d=D)


@pytest.fixture(scope="session")
def kernel512(grid512):
    return build_kernel(grid512, S)


@pytest.fixture(scope="session")
def critical256(params, grid256, kernel256):
    """Measured critical mass and steady profile on the 256-cell grid."""
    return find_critical_mass(grid256, kernel256, params, rel_tol=1e-6,
                              support_radius_init=1.0)


@pytest.fixture(scope="session")
def critical512(params, grid512, kernel512):
    """Measured critical mass and steady profile at desk resolution."""
    return find_critical_mass(grid512, kernel512, params, rel_tol=1e-6,
                              support_radius_init=1.0)


def dense_oracle(kernel):
    """The kernel's N x N pair-average matrix (read-only), built by the
    function behind build_kernel's dense path, whichever operator the kernel
    holds."""
    return _dense_matrix(kernel.grid, kernel.s, kernel.epsilon)


def is_structured(kernel):
    """True when the kernel holds the FFT operator, not a dense matrix."""
    return isinstance(kernel._operator, _HankelToeplitzOperator)


def random_bump_field(rng, grid):
    """Seeded non-negative test field: Gaussian bumps plus an occasional slab."""
    centers = grid.centers
    vals = np.zeros_like(centers)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0.0, 0.6 * grid.r_max)
        w = rng.uniform(0.05, 0.3) * grid.r_max
        vals += rng.uniform(0.1, 1.0) * np.exp(-0.5 * ((centers - c) / w) ** 2)
    if rng.random() < 0.3:
        vals += rng.uniform(0.2, 1.0) * (centers < rng.uniform(0.2, 0.5) * grid.r_max)
    return vals
