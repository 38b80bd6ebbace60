"""Problem parameters and closed-form constants.

The model couples porous-medium diffusion u_t = lap(u^m) to a nonlocal
attraction through the Riesz potential

    phi(x) = c_{d,s} * integral u(y) |x-y|^{-(d-2s)} dy,

at the critical diffusion exponent m = 2 - 2s/d, where the dynamics are
decided by total mass alone.  Everything here is a pure function of
(d, s) plus the optimal interaction constant, so the module doubles as
the single source of truth for the derived constants used elsewhere:

    c_ds          Riesz normalisation
    C_hls         sharp bilinear interaction constant at kernel power d-2s
    C_star_upper  closed-form upper bound for the optimal ratio
                  omega(u) / (||u||_1^{2s/d} ||u||_m^m), equal to C_hls
    M_star        critical mass separating global existence from blow-up
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterDomainError


def _check_ds(d: int, s: float) -> None:
    if int(d) != d or d < 3:
        raise ParameterDomainError(f"dimension d must be an integer >= 3, got {d!r}")
    if not (2.0 < 2.0 * s < d):
        raise ParameterDomainError(
            f"order s must satisfy 2 < 2s < d; got s={s}, d={d}"
        )


def riesz_constant(d: int, s: float) -> float:
    """Normalisation c_{d,s} = Gamma(d/2 - s) / (pi^{d/2} 4^s Gamma(s)).

    Finite for 2 < 2s < d; blows up as 2s -> d where Gamma(d/2 - s)
    approaches its pole.
    """
    _check_ds(d, s)
    return math.gamma(d / 2.0 - s) / (math.pi ** (d / 2.0) * 4.0 ** s * math.gamma(s))


def hls_sharp_constant(d: int, s: float) -> float:
    """Sharp constant of the bilinear inequality

        |iint f(x) g(y) |x-y|^{-beta} dx dy| <= C ||f||_q ||g||_q,

    evaluated at the diagonal exponent q = 2d/(2d - beta) with
    beta = d - 2s (the kernel power of the attraction), coded in s.

    The same value bounds the optimal constant of the mass-weighted
    variant

        omega(u) <= C ||u||_1^{2s/d} ||u||_m^m,   m = 2 - 2s/d.

    Whether that optimal constant attains the bound is open: the
    interpolation step loses strictness for any single profile, so the
    package treats this value as an upper bound (``C_star_upper``) and
    reports measured extremal ratios separately.
    """
    _check_ds(d, s)
    return (
        math.pi ** ((d - 2.0 * s) / 2.0)
        * math.gamma(s)
        / math.gamma((d + 2.0 * s) / 2.0)
        * (math.gamma(d / 2.0) / math.gamma(d)) ** (-2.0 * s / d)
    )


def critical_mass(d: int, s: float, C_star: float) -> float:
    """Critical mass M_* = [2 / ((m-1) C_star c_{d,s})]^{d/(2s)}.

    ``C_star`` is the interaction constant used operationally (the
    closed-form upper bound by default, or a measured extremal ratio).
    """
    m = ModelParams(d=d, s=s).m  # checks (d, s)
    if not (C_star > 0.0 and math.isfinite(C_star)):
        raise ParameterDomainError(f"C_star must be positive and finite, got {C_star}")
    return (2.0 / ((m - 1.0) * C_star * riesz_constant(d, s))) ** (d / (2.0 * s))


@dataclass(frozen=True)
class ModelParams:
    """Problem parameters: dimension and fractional order.

    The diffusion exponent is pinned to the critical value m = 2 - 2s/d
    and the kernel power to alpha = d - 2s; both are derived, never set.
    The regularisation length lives on the kernel
    (:attr:`aggdiff.riesz.RieszKernel.epsilon`), which carries it to both
    the mollifier and the solver's epsilon-Laplacian.
    """

    d: int
    s: float

    def __post_init__(self):
        _check_ds(self.d, self.s)

    @property
    def m(self) -> float:
        return 2.0 - 2.0 * self.s / self.d

    @property
    def alpha(self) -> float:
        """Kernel power d - 2s, in (0, d-2)."""
        return self.d - 2.0 * self.s

    @property
    def c_ds(self) -> float:
        return riesz_constant(self.d, self.s)


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants evaluated once per parameter set."""

    c_ds: float
    C_hls: float
    C_star_upper: float
    M_star: float


def derived_constants(params: ModelParams) -> DerivedConstants:
    C = hls_sharp_constant(params.d, params.s)
    return DerivedConstants(
        c_ds=riesz_constant(params.d, params.s),
        C_hls=C,
        C_star_upper=C,
        M_star=critical_mass(params.d, params.s, C),
    )
