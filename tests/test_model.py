"""Closed-form constants against an independent Gamma oracle.

The library evaluates Gamma internally (Lanczos), so math.gamma from the
C runtime is a genuinely independent reference for every constant here.
"""

import math

import numpy as np
import pytest

from aggdiff import (
    ModelParams,
    ParameterDomainError,
    critical_exponent,
    critical_mass,
    derived_constants,
    hls_sharp_constant,
    riesz_constant,
    vhls_constant_upper,
)
from aggdiff.special import gamma as lanczos_gamma


def oracle_riesz(d, s):
    return math.gamma(d / 2 - s) / (math.pi ** (d / 2) * 4 ** s * math.gamma(s))


def oracle_hls(d, s):
    beta = d - 2 * s
    return (math.pi ** (beta / 2) * math.gamma(d / 2 - beta / 2)
            / math.gamma(d - beta / 2)
            * (math.gamma(d / 2) / math.gamma(d)) ** (-1 + beta / d))


# twenty valid (d, s) pairs spread over dimension and order
SWEEP = [
    (3, 1.05), (3, 1.1), (3, 1.25), (3, 1.4), (3, 1.45),
    (4, 1.1), (4, 1.3), (4, 1.5), (4, 1.8), (4, 1.95),
    (5, 1.2), (5, 1.6), (5, 2.0), (5, 2.4), (6, 1.5),
    (6, 2.2), (6, 2.9), (8, 1.3), (8, 3.0), (10, 4.5),
]


class TestGamma:
    def test_against_math_gamma_on_unit_interval_to_thirty(self):
        xs = np.linspace(0.02, 30.0, 1499)
        worst = max(abs(lanczos_gamma(float(x)) - math.gamma(x)) / math.gamma(x)
                    for x in xs)
        assert worst < 1e-13

    def test_reflection_branch(self):
        for x in (0.25, 0.1, 0.49, -0.5, -1.3):
            assert lanczos_gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            lanczos_gamma(0.0)
        with pytest.raises(ValueError):
            lanczos_gamma(-2.0)


class TestCriticalExponent:
    def test_values(self):
        assert critical_exponent(3, 1.25) == pytest.approx(7.0 / 6.0, rel=1e-15)
        assert critical_exponent(4, 1.5) == pytest.approx(1.25, rel=1e-15)

    def test_boundary_rejected(self):
        with pytest.raises(ParameterDomainError):
            critical_exponent(3, 1.5)  # 2s = d
        with pytest.raises(ParameterDomainError):
            critical_exponent(3, 1.0)  # 2s = 2
        with pytest.raises(ParameterDomainError):
            critical_exponent(2, 1.2)


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
            b = vhls_constant_upper(d, s)
            assert abs(a - b) / a < 1e-12

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
        C = vhls_constant_upper(3, 1.25)
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
