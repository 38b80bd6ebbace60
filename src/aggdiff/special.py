"""Internal special functions: Gamma and sphere/ball measures.

The Gamma function is evaluated with the Lanczos approximation (g = 7,
9 coefficients) in double precision.  Measured accuracy is better than
1e-13 relative on (0, 30], which covers every argument this package
produces; the reflection formula extends the range to negative
non-integer arguments.
"""

from __future__ import annotations

import math
from functools import cache

# Lanczos coefficients for g = 7 (Godfrey's tabulation).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(x: float) -> float:
    """Gamma function for real non-pole arguments."""
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at x={x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


@cache
def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d (4*pi for d=3), cached
    per d (a call that raises caches nothing)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)


def ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d."""
    return sphere_surface(d) / d
