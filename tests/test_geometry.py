import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

import reference_data as ref
from strategies import CORRUGATED, profiles

from capflow import (
    NonPositiveLengthError,
    NonPositiveRadiusError,
    OutOfDomainError,
    RadiusOrderError,
    ShapeKind,
    StraightRadiusMismatchError,
    TooFewSamplesError,
    make_profile,
    radius_array,
    radius_at,
    sample_profile,
    shape_parameters,
)

ALL_KINDS = list(ShapeKind)


def canonical(kind):
    return make_profile(kind, ref.R_MIN, ref.R_MAX, ref.LENGTH)


class TestMakeProfile:
    def test_valid(self):
        p = make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)
        assert p.r_min == 1e-3
        assert p.r_max == 2e-3
        assert p.length == 0.1
        assert p.half_length == 0.05

    def test_radius_order(self):
        with pytest.raises(RadiusOrderError):
            make_profile(ShapeKind.CONICAL, 2e-3, 1e-3, 0.1)

    @pytest.mark.parametrize("rmin", [0.0, -1e-3, math.nan])
    def test_nonpositive_rmin(self, rmin):
        with pytest.raises(NonPositiveRadiusError):
            make_profile(ShapeKind.SINUSOIDAL, rmin, 1e-3, 0.1)

    def test_nonfinite_rmax(self):
        with pytest.raises(NonPositiveRadiusError):
            make_profile(ShapeKind.CONICAL, 1e-3, math.inf, 0.1)

    @pytest.mark.parametrize("length", [0.0, -0.1, math.inf])
    def test_nonpositive_length(self, length):
        with pytest.raises(NonPositiveLengthError):
            make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, length)

    def test_straight_requires_equal_radii(self):
        with pytest.raises(StraightRadiusMismatchError):
            make_profile(ShapeKind.STRAIGHT, 1e-3, 2e-3, 0.1)
        p = make_profile(ShapeKind.STRAIGHT, 1e-3, 1e-3, 0.1)
        assert p.r_max == p.r_min

    def test_degenerate_allowed_for_all_kinds(self):
        for kind in ALL_KINDS:
            p = make_profile(kind, 1e-3, 1e-3, 0.1)
            assert p.r_min == p.r_max

    def test_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            make_profile(ShapeKind.CONICAL, 2e-3, 1e-3, 0.1)


class TestShapeParameters:
    def test_conical(self):
        p = shape_parameters(canonical(ShapeKind.CONICAL))
        assert p.a == 1e-3
        assert p.b == pytest.approx(2.0 * 1e-3 / 0.1, rel=1e-15)

    def test_parabolic(self):
        p = shape_parameters(canonical(ShapeKind.PARABOLIC))
        assert p.a == 1e-3
        assert p.b == pytest.approx((2.0 / 0.1) ** 2 * 1e-3, rel=1e-15)

    def test_hyperbolic(self):
        p = shape_parameters(canonical(ShapeKind.HYPERBOLIC))
        assert p.a == pytest.approx(1e-6, rel=1e-15)
        assert p.b == pytest.approx(400.0 * 3e-6, rel=1e-15)

    def test_cosh(self):
        p = shape_parameters(canonical(ShapeKind.HYPERBOLIC_COSINE))
        assert p.a == 1e-3
        # arccosh(2) = ln(2 + sqrt(3))
        assert p.b == pytest.approx(20.0 * math.log(2.0 + math.sqrt(3.0)), rel=1e-14)

    def test_sinusoidal(self):
        p = shape_parameters(canonical(ShapeKind.SINUSOIDAL))
        assert p.a == pytest.approx(1.5e-3, rel=1e-15)
        assert p.b == pytest.approx(0.5e-3, rel=1e-15)
        assert p.wavenumber == pytest.approx(2.0 * math.pi / 0.1, rel=1e-15)
        assert p.cos_offset == pytest.approx(-3.0, rel=1e-14)

    def test_sinusoidal_degenerate_offset(self):
        p = shape_parameters(make_profile(ShapeKind.SINUSOIDAL, 1e-3, 1e-3, 0.1))
        assert p.b == 0.0
        assert p.cos_offset == -math.inf

    def test_straight(self):
        p = shape_parameters(make_profile(ShapeKind.STRAIGHT, 1e-3, 1e-3, 0.1))
        assert p.a == 1e-3
        assert p.b == 0.0
        assert p.wavenumber is None

    def test_corrugated_offset_below_minus_one(self):
        p = shape_parameters(canonical(ShapeKind.SINUSOIDAL))
        assert p.cos_offset < -1.0


class TestRadiusAt:
    def test_conical_waist(self):
        assert radius_at(canonical(ShapeKind.CONICAL), 0.0) == 1e-3

    def test_sinusoidal_end(self):
        assert radius_at(canonical(ShapeKind.SINUSOIDAL), 0.05) == pytest.approx(2e-3, rel=1e-12)

    def test_hyperbolic_quarter(self):
        r = radius_at(canonical(ShapeKind.HYPERBOLIC), 0.025)
        assert r == pytest.approx(1.3229e-3, rel=1e-4)
        assert r == pytest.approx(ref.RADIUS_AT_QUARTER["hyperbolic"], rel=1e-14)

    def test_cosh_quarter(self):
        r = radius_at(canonical(ShapeKind.HYPERBOLIC_COSINE), 0.025)
        assert r == pytest.approx(ref.RADIUS_AT_QUARTER["cosh"], rel=1e-14)

    def test_sinusoidal_quarter(self):
        r = radius_at(canonical(ShapeKind.SINUSOIDAL), 0.025)
        assert r == pytest.approx(ref.RADIUS_AT_QUARTER["sinusoidal"], rel=1e-14)

    def test_out_of_domain(self):
        p = canonical(ShapeKind.CONICAL)
        with pytest.raises(OutOfDomainError):
            radius_at(p, 0.05 * (1.0 + 1e-9))
        with pytest.raises(OutOfDomainError):
            radius_at(p, -0.051)

    def test_domain_tolerance_absorbs_endpoint_drift(self):
        p = canonical(ShapeKind.CONICAL)
        assert radius_at(p, 0.05 * (1.0 + 1e-13)) == pytest.approx(2e-3, rel=1e-12)

    @pytest.mark.parametrize("kind", CORRUGATED)
    def test_boundary_values(self, kind):
        p = canonical(kind)
        assert radius_at(p, 0.0) == pytest.approx(p.r_min, rel=1e-12)
        assert radius_at(p, p.half_length) == pytest.approx(p.r_max, rel=1e-12)
        assert radius_at(p, -p.half_length) == pytest.approx(p.r_max, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_degenerate_constant(self, kind):
        p = make_profile(kind, 1e-3, 1e-3, 0.1)
        for x in np.linspace(-0.05, 0.05, 11):
            assert radius_at(p, float(x)) == 1e-3

    def test_straight_everywhere(self):
        p = make_profile(ShapeKind.STRAIGHT, 2e-3, 2e-3, 0.3)
        assert radius_at(p, 0.11) == 2e-3


@given(profiles(), st.floats(0.0, 1.0))
def test_symmetry(profile, t):
    x = t * profile.half_length
    left = radius_at(profile, -x)
    right = radius_at(profile, x)
    assert left == pytest.approx(right, rel=1e-15)


@given(profiles(kinds=ALL_KINDS), st.floats(-1.0, 1.0))
def test_bounds(profile, t):
    r = radius_at(profile, t * profile.half_length)
    assert profile.r_min <= r <= profile.r_max


@given(profiles())
def test_vectorized_matches_scalar(profile):
    xs = np.linspace(-profile.half_length, profile.half_length, 7)
    rs = radius_array(profile, xs)
    for x, r in zip(xs, rs):
        assert float(r) == radius_at(profile, float(x))


class TestSampleProfile:
    def test_two_samples_are_endpoints(self):
        t = sample_profile(canonical(ShapeKind.CONICAL), 2)
        assert list(t.x) == [-0.05, 0.05]
        assert list(t.r) == [2e-3, 2e-3]

    def test_three_samples_hit_waist(self):
        t = sample_profile(canonical(ShapeKind.PARABOLIC), 3)
        assert t.x[1] == 0.0
        assert t.r[1] == 1e-3

    def test_conical_five_samples(self):
        t = sample_profile(canonical(ShapeKind.CONICAL), 5)
        assert len(t) == 5
        assert t.r == pytest.approx([2e-3, 1.5e-3, 1e-3, 1.5e-3, 2e-3], rel=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            sample_profile(canonical(ShapeKind.CONICAL), 1)

    def test_rows_iterates_pairs(self):
        t = sample_profile(canonical(ShapeKind.CONICAL), 3)
        rows = list(t.rows())
        assert rows[0] == (-0.05, 2e-3)
        assert all(isinstance(v, float) for row in rows for v in row)

    def test_table_is_read_only(self):
        t = sample_profile(canonical(ShapeKind.CONICAL), 3)
        with pytest.raises(ValueError):
            t.r[0] = 5.0

    @given(profiles(kinds=ALL_KINDS), st.integers(2, 50))
    def test_same_radii_as_radius_array(self, profile, n):
        t = sample_profile(profile, n)
        assert np.array_equal(t.r, radius_array(profile, t.x))

    @given(profiles(kinds=ALL_KINDS), st.integers(2, 50))
    def test_endpoints_and_bounds(self, profile, n):
        t = sample_profile(profile, n)
        assert t.x[0] == -profile.half_length
        assert t.x[-1] == profile.half_length
        assert np.all(t.r >= profile.r_min)
        assert np.all(t.r <= profile.r_max)
