"""Closed-form constants against an independent Gamma oracle.

The library evaluates Gamma with math.gamma from the C runtime, so
scipy.special.gamma (Cephes) is an independent reference for every
constant here.
"""

import math

import pytest
from scipy.special import gamma as oracle_gamma

from aggdiff import (
    ModelParams,
    ParameterDomainError,
    critical_mass,
    derived_constants,
    hls_sharp_constant,
    riesz_constant,
)
from aggdiff.field import sphere_surface
from oracles import hls_constant_beta_form


def oracle_riesz(d, s):
    return oracle_gamma(d / 2 - s) / (math.pi ** (d / 2) * 4 ** s * oracle_gamma(s))


def oracle_hls(d, s):
    beta = d - 2 * s
    return (math.pi ** (beta / 2) * oracle_gamma(d / 2 - beta / 2)
            / oracle_gamma(d - beta / 2)
            * (oracle_gamma(d / 2) / oracle_gamma(d)) ** (-1 + beta / d))


# twenty valid (d, s) pairs spread over dimension and order
SWEEP = [
    (3, 1.05), (3, 1.1), (3, 1.25), (3, 1.4), (3, 1.45),
    (4, 1.1), (4, 1.3), (4, 1.5), (4, 1.8), (4, 1.95),
    (5, 1.2), (5, 1.6), (5, 2.0), (5, 2.4), (6, 1.5),
    (6, 2.2), (6, 2.9), (8, 1.3), (8, 3.0), (10, 4.5),
]


class TestGamma:
    """The unit sphere's measure, the one Gamma expression field caches."""

    def test_cached_sphere_surface_equals_its_formula(self):
        for d in range(1, 11):
            fresh = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
            assert sphere_surface(d) == fresh and sphere_surface(d) == fresh

    @pytest.mark.parametrize("d, error", [(400, OverflowError), (0, ValueError)])
    def test_sphere_surface_errors_are_not_cached(self, d, error):
        for _ in range(2):
            with pytest.raises(error):
                sphere_surface(d)


class TestCriticalExponent:
    """m = 2 - 2s/d is ModelParams.m, the one coding critical_mass reads."""

    def test_values(self):
        assert ModelParams(3, 1.25).m == pytest.approx(7.0 / 6.0, rel=1e-15)
        assert ModelParams(4, 1.5).m == pytest.approx(1.25, rel=1e-15)

    def test_boundary_rejected(self):
        for d, s in [(3, 1.5), (3, 1.0), (2, 1.2)]:  # 2s = d, 2s = 2, d = 2
            with pytest.raises(ParameterDomainError):
                ModelParams(d, s)
            with pytest.raises(ParameterDomainError):
                critical_mass(d, s, 1.0)


class TestRieszConstant:
    def test_working_point(self):
        # frozen from the math.gamma oracle
        assert riesz_constant(3, 1.25) == pytest.approx(0.1269872718684819, rel=1e-10)

    def test_near_pole_is_large(self):
        val = riesz_constant(3, 1.49)
        assert val == pytest.approx(oracle_riesz(3, 1.49), rel=1e-10)
        assert val > 2.0  # Gamma(0.01) dominates

    def test_pole_rejected(self):
        with pytest.raises(ParameterDomainError):
            riesz_constant(3, 1.5)

    def test_oracle_sweep(self):
        for d, s in SWEEP:
            assert riesz_constant(d, s) == pytest.approx(oracle_riesz(d, s), rel=1e-10)


class TestHlsConstant:
    def test_working_point(self):
        assert hls_sharp_constant(3, 1.25) == pytest.approx(1.4784148748234225,
                                                            rel=1e-10)

    def test_two_closed_forms_coincide(self):
        # d/2 - beta/2 = s, d - beta/2 = (d+2s)/2, -1 + beta/d = -2s/d
        for d, s in SWEEP:
            a = hls_sharp_constant(d, s)
            b = hls_constant_beta_form(d, s)
            assert abs(a - b) / a < 1e-12

    @pytest.mark.parametrize("d, s", [(3, 1.25), (3, 1.45), (4, 1.25), (4, 1.9),
                                      (5, 2.0), (3, 1.05)])
    def test_two_codings_agree_to_the_last_bit(self, d, s):
        # the library codes the constant in s, the oracle in beta = d - 2s;
        # the two roundings part by 1 ulp at (3, 1.05)
        a = hls_sharp_constant(d, s)
        b = hls_constant_beta_form(d, s)
        if (d, s) == (3, 1.05):
            assert abs(a - b) <= math.ulp(a)
        else:
            assert a == b

    def test_high_dimension_finite(self):
        val = hls_sharp_constant(5, 1.2)
        assert val == pytest.approx(oracle_hls(5, 1.2), rel=1e-10)
        assert math.isfinite(val) and val > 0

    def test_oracle_sweep(self):
        for d, s in SWEEP:
            assert hls_sharp_constant(d, s) == pytest.approx(oracle_hls(d, s),
                                                             rel=1e-10)


class TestCriticalMass:
    def test_working_point(self):
        C = hls_constant_beta_form(3, 1.25)
        # frozen from the oracle composition, exponent d/(2s) = 1.2
        assert critical_mass(3, 1.25, C) == pytest.approx(146.80798415298818,
                                                          rel=1e-8)

    def test_scale_covariance_exact(self):
        d, s = 3, 1.25
        C = 1.3
        ratio = critical_mass(d, s, 2 * C) / critical_mass(d, s, C)
        assert ratio == pytest.approx(2.0 ** (-d / (2 * s)), rel=1e-13)

    def test_monotone_decreasing_in_constant(self):
        vals = [critical_mass(3, 1.25, C) for C in (0.5, 1.0, 1.5, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ParameterDomainError):
            critical_mass(3, 1.25, 0.0)
        with pytest.raises(ParameterDomainError):
            critical_mass(3, 1.25, -1.0)


class TestModelParams:
    def test_derived_quantities(self):
        p = ModelParams(d=3, s=1.25)
        assert p.m == pytest.approx(7 / 6, rel=1e-15)
        assert p.alpha == pytest.approx(0.5, rel=1e-15)
        assert 1.0 < p.m < 2.0
        assert 0.0 < p.alpha < p.d - 2

    def test_invalid_rejected(self):
        with pytest.raises(ParameterDomainError):
            ModelParams(d=3, s=1.5)
        with pytest.raises(ParameterDomainError):
            ModelParams(d=3, s=0.9)

    def test_derived_constants_positive_finite(self):
        dc = derived_constants(ModelParams(d=3, s=1.25))
        for v in (dc.c_ds, dc.C_hls, dc.C_star_upper, dc.M_star):
            assert math.isfinite(v) and v > 0
