import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import reference_data as ref
from strategies import CORRUGATED, profiles

from capflow import (
    CapillaryFlowError,
    GeometryRangeError,
    NonPositiveLengthError,
    NonPositiveRadiusError,
    OutOfDomainError,
    RadiusOrderError,
    RadiusProfile,
    ShapeKind,
    StraightRadiusMismatchError,
    TooFewSamplesError,
    TooManySamplesError,
    UnknownShapeError,
    make_profile,
    radius_array,
    radius_at,
    sample_profile,
)
from capflow import geometry
from capflow.geometry import DOMAIN_TOLERANCE, MAX_SAMPLES, _cosh_rate, _dimensionless

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

    @pytest.mark.parametrize("value", [None, "1e-3"])
    @pytest.mark.parametrize(
        "field,error",
        [("r_min", NonPositiveRadiusError), ("r_max", NonPositiveRadiusError), ("length", NonPositiveLengthError)],
    )
    def test_non_number_is_typed(self, field, error, value):
        # RadiusProfile itself, which takes its values as given (make_profile converts with float()).
        args = {"kind": ShapeKind.CONICAL, "r_min": 1e-3, "r_max": 2e-3, "length": 0.1, field: value}
        with pytest.raises(error, match=f"^{field} must be a positive finite length, got {re.escape(repr(value))}$"):
            RadiusProfile(**args)

    @pytest.mark.parametrize("value", [None, "abc"])
    @pytest.mark.parametrize(
        "field,error",
        [("r_min", NonPositiveRadiusError), ("r_max", NonPositiveRadiusError), ("length", NonPositiveLengthError)],
    )
    def test_make_profile_non_number_is_typed(self, field, error, value):
        args = {"r_min": 1e-3, "r_max": 2e-3, "length": 0.1, field: value}
        with pytest.raises(error, match=f"^{field} must be a positive finite length, got {re.escape(repr(value))}$"):
            make_profile(ShapeKind.CONICAL, **args)

    def test_make_profile_numeric_strings(self):
        p = make_profile(ShapeKind.CONICAL, "1e-3", "2e-3", "0.1")
        assert p == make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)
        assert type(p.r_min) is type(p.r_max) is type(p.length) is float

    def test_make_profile_names_the_first_non_number(self):
        # The numeric strings beside a non-number are still converted, so only the non-number breaks a rule.
        with pytest.raises(NonPositiveRadiusError, match="^r_max must be a positive finite length, got None$"):
            make_profile(ShapeKind.CONICAL, "1e-3", None, "0.1")
        with pytest.raises(NonPositiveRadiusError, match="^r_min must be a positive finite length, got 'abc'$"):
            make_profile(ShapeKind.CONICAL, "abc", None, "x")
        with pytest.raises(RadiusOrderError):
            make_profile(ShapeKind.CONICAL, "2e-3", "1e-3", None)

    @pytest.mark.parametrize("kind", ["conical", None, 3, [1]], ids=["str", "None", "int", "list"])
    def test_unknown_kind_is_typed(self, kind):
        names = "straight, conical, parabolic, hyperbolic, cosh, sinusoidal"
        message = f"^kind must be a ShapeKind \\({names}\\), got {re.escape(repr(kind))}$"
        for build in (make_profile, RadiusProfile):
            with pytest.raises(UnknownShapeError, match=message) as caught:
                build(kind, 1e-3, 2e-3, 0.1)
            assert isinstance(caught.value, CapillaryFlowError) and isinstance(caught.value, ValueError)

    def test_unknown_kind_is_checked_last(self):
        # Every input that broke a rule while the kind went unchecked still raises that rule's error.
        with pytest.raises(NonPositiveRadiusError, match="^r_min "):
            RadiusProfile("conical", -1e-3, 2e-3, 0.1)
        with pytest.raises(NonPositiveRadiusError, match="^r_max "):
            RadiusProfile(None, 1e-3, math.nan, 0.1)
        with pytest.raises(RadiusOrderError):
            RadiusProfile([1], 2e-3, 1e-3, 0.1)
        with pytest.raises(NonPositiveLengthError):
            make_profile("straight", 1e-3, 2e-3, None)


def canonical_f(token):
    """F = I r_min^4 / L of the canonical tube, from the frozen reference."""
    return ref.INTEGRAL[token] * ref.R_MIN**4 / ref.LENGTH


class TestShapeParameters:
    """Each shape's dimensionless parameter d, rho(t; d) and F(d) for the
    canonical tube, where d = (2e-3 - 1e-3)/1e-3 = 1."""

    T = (0.0, 0.5, 1.0)

    def rho(self, shape, d):
        """rho at each t of T."""
        return list(map(shape.rho(d), self.T))

    def test_conical(self):
        shape, d = _dimensionless(canonical(ShapeKind.CONICAL))
        assert d == 1.0
        assert self.rho(shape, d) == [1.0, 1.5, 2.0]
        assert shape.F(d) == pytest.approx(7.0 / 24.0, rel=1e-15)

    def test_parabolic(self):
        shape, d = _dimensionless(canonical(ShapeKind.PARABOLIC))
        assert self.rho(shape, d) == [1.0, 1.25, 2.0]
        assert shape.F(d) == pytest.approx(canonical_f("parabolic"), rel=1e-15)

    def test_hyperbolic(self):
        shape, d = _dimensionless(canonical(ShapeKind.HYPERBOLIC))
        assert self.rho(shape, d) == pytest.approx([1.0, math.sqrt(1.75), 2.0], rel=1e-15)
        assert shape.F(d) == pytest.approx(canonical_f("hyperbolic"), rel=1e-15)

    def test_cosh(self):
        shape, d = _dimensionless(canonical(ShapeKind.HYPERBOLIC_COSINE))
        # arccosh(2) = ln(2 + sqrt(3)), and cosh(w/2) = sqrt((cosh(w) + 1)/2)
        assert _cosh_rate(d) == pytest.approx(math.log(2.0 + math.sqrt(3.0)), rel=1e-15)
        assert self.rho(shape, d) == pytest.approx([1.0, math.sqrt(1.5), 2.0], rel=1e-15)
        assert shape.F(d) == pytest.approx(canonical_f("cosh"), rel=1e-15)

    def test_sinusoidal(self):
        shape, d = _dimensionless(canonical(ShapeKind.SINUSOIDAL))
        assert self.rho(shape, d) == pytest.approx([1.0, 1.5, 2.0], rel=1e-15)
        assert shape.F(d) == pytest.approx(canonical_f("sinusoidal"), rel=1e-15)

    def test_sinusoidal_degenerate_offset(self):
        shape, d = _dimensionless(make_profile(ShapeKind.SINUSOIDAL, 1e-3, 1e-3, 0.1))
        assert d == 0.0
        assert self.rho(shape, d) == [1.0, 1.0, 1.0]
        assert shape.F(d) == 1.0

    def test_straight(self):
        shape, d = _dimensionless(make_profile(ShapeKind.STRAIGHT, 1e-3, 1e-3, 0.1))
        assert d == 0.0
        assert self.rho(shape, d) == [1.0, 1.0, 1.0]
        assert shape.F(d) == 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_f_is_one_at_d_zero(self, kind):
        shape, d = _dimensionless(make_profile(kind, 1e-3, 1e-3, 0.1))
        assert shape.F(d) == 1.0


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

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_typed_errors_at_the_domain_edge(self, kind):
        p = canonical(kind) if kind is not ShapeKind.STRAIGHT else make_profile(kind, 1e-3, 1e-3, 0.1)
        edge = p.half_length * (1.0 + DOMAIN_TOLERANCE)
        for x in (edge, -edge):
            assert radius_at(p, x) == p.r_max
            with pytest.raises(OutOfDomainError):
                radius_at(p, math.nextafter(x, math.copysign(math.inf, x)))
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfDomainError):
                radius_at(p, x)
            with pytest.raises(OutOfDomainError):
                radius_array(p, [0.0, x])

    def test_returns_a_float(self):
        assert type(radius_at(canonical(ShapeKind.CONICAL), np.float64(0.01))) is float


@settings(deadline=None)
@given(profiles(kinds=ALL_KINDS), st.integers(2, 50))
def test_radius_at_matches_sample_profile(profile, n):
    for x, r in sample_profile(profile, n).rows():
        assert radius_at(profile, x) == r


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

    def test_nan_count_is_too_few(self):
        # A float count is truncated as before; NaN is refused by type, not by int().
        p = canonical(ShapeKind.CONICAL)
        with pytest.raises(TooFewSamplesError, match="need at least 2 samples, got nan"):
            sample_profile(p, math.nan)
        assert len(sample_profile(p, 2.5)) == 2

    @pytest.mark.parametrize("count", ["5", None])
    def test_non_number_count_is_too_few(self, count):
        with pytest.raises(TooFewSamplesError, match=f"need at least 2 samples, got {re.escape(repr(count))}$"):
            sample_profile(canonical(ShapeKind.CONICAL), count)

    def test_rows_iterates_pairs(self):
        t = sample_profile(canonical(ShapeKind.CONICAL), 3)
        rows = list(t.rows())
        assert rows[0] == (-0.05, 2e-3)
        assert all(isinstance(v, float) for row in rows for v in row)

    def test_table_is_read_only(self):
        t = sample_profile(canonical(ShapeKind.CONICAL), 3)
        assert type(t.x) is type(t.r) is tuple
        with pytest.raises(TypeError):
            t.r[0] = 5.0

    def test_grid_is_numpys_linspace(self):
        for half in (0.05, 0.385, 1e-320, 5e-324, sys.float_info.max / 2.0):
            for n in (2, 3, 7, 101):
                xs = sample_profile(make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 2.0 * half), n).x
                with np.errstate(over="ignore"):
                    assert xs == tuple(np.linspace(-half, half, n).tolist()), (half, n)

    def test_sample_limit(self, monkeypatch):
        # The limit is checked before anything is built: a stand-in for the
        # grid shows that no call over the limit gets that far.
        def no_grid(half, n):
            raise AssertionError(f"built a grid of {n} points")

        p = canonical(ShapeKind.CONICAL)
        monkeypatch.setattr(geometry, "_grid", no_grid)
        for n in (MAX_SAMPLES + 1, 10**12):
            with pytest.raises(TooManySamplesError, match=f"at most {MAX_SAMPLES} samples"):
                sample_profile(p, n)
        monkeypatch.undo()
        monkeypatch.setattr(geometry, "MAX_SAMPLES", 5)
        assert len(sample_profile(p, 5)) == 5
        with pytest.raises(TooManySamplesError):
            sample_profile(p, 6)

    @given(profiles(kinds=ALL_KINDS), st.integers(2, 50))
    def test_same_radii_as_radius_array(self, profile, n):
        t = sample_profile(profile, n)
        assert np.array_equal(t.r, radius_array(profile, t.x))

    @given(profiles(kinds=ALL_KINDS), st.integers(2, 50))
    def test_endpoints_and_bounds(self, profile, n):
        t = sample_profile(profile, n)
        assert t.x[0] == -profile.half_length
        assert t.x[-1] == profile.half_length
        assert t.r[0] == t.r[-1] == profile.r_max
        assert all(profile.r_min <= r <= profile.r_max for r in t.r)


POSITIVE_DOUBLES = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)


class TestSamplerRange:
    """Over the whole positive double range, each sampler gives finite radii
    in [r_min, r_max] or raises a CapillaryFlowError, and never warns."""

    @settings(max_examples=600, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        radii=st.tuples(POSITIVE_DOUBLES, POSITIVE_DOUBLES).map(sorted),
        length=POSITIVE_DOUBLES,
        t=st.floats(-1.0, 1.0),
        n=st.integers(2, 9),
    )
    def test_finite_radii_or_a_typed_error(self, kind, radii, length, t, n):
        r_min, r_max = radii
        profile = make_profile(kind, r_min, r_min if kind is ShapeKind.STRAIGHT else r_max, length)
        positions = np.array([-1.0, t, 0.0, 1.0]) * profile.half_length
        samplers = (
            lambda: [radius_at(profile, t * profile.half_length)],
            lambda: radius_array(profile, positions),
            lambda: sample_profile(profile, n).r,
        )
        for sampler in samplers:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    r = np.asarray(sampler())
                except CapillaryFlowError:
                    continue
            assert np.isfinite(r).all()
            assert (profile.r_min <= r).all() and (r <= profile.r_max).all()

    @pytest.mark.parametrize(
        "kind, r_min, r_max, length",
        [
            (ShapeKind.HYPERBOLIC_COSINE, 1e-300, 1e300, 1.0),  # d = r_max/r_min - 1 overflows
            (ShapeKind.HYPERBOLIC, 1e-300, 1e300, 1e-300),  # d overflows
        ],
    )
    def test_out_of_range_profiles_raise(self, kind, r_min, r_max, length):
        profile = make_profile(kind, r_min, r_max, length)
        with pytest.raises(GeometryRangeError):
            sample_profile(profile, 3)
        with pytest.raises(GeometryRangeError):
            radius_at(profile, 0.25 * profile.half_length)

    @pytest.mark.parametrize(
        "kind",
        [ShapeKind.CONICAL, ShapeKind.PARABOLIC, ShapeKind.HYPERBOLIC, ShapeKind.SINUSOIDAL],
        ids=lambda kind: kind.value,
    )
    def test_ends_at_the_largest_double(self, kind):
        # Once raised: r_min rho(1; d) rounded past the largest double.  It
        # exceeds r_max by rho's drift only, which the clamp takes off.
        big = sys.float_info.max
        profile = make_profile(kind, 3.0, big, 1.0)
        assert sample_profile(profile, 3).r == (big, 3.0, big)
        assert radius_at(profile, profile.half_length) == big

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("r_min, r_max", [(1e-3, 1e297), (1.0, sys.float_info.max)], ids=["1e297", "max"])
    def test_ends_are_r_max(self, kind, r_min, r_max):
        # cosh(w t) magnifies the rounding of w by w t: rho(1; d) came out
        # ~350 ulp short of 1 + d at r_max = 1e297.  The end is r_max itself.
        if kind is ShapeKind.STRAIGHT:
            r_min = r_max
        profile = make_profile(kind, r_min, r_max, 1.0)
        for n in (2, 3, 101):
            table = sample_profile(profile, n)
            assert table.r[0] == table.r[-1] == r_max
        assert radius_at(profile, profile.half_length) == radius_at(profile, -profile.half_length) == r_max

    @pytest.mark.parametrize(
        "kind, r_min, r_max, length, quarter",
        [
            # Once raised: the slope 2(r_max - r_min)/L overflowed.
            (ShapeKind.CONICAL, 1e-3, 1.0, 1e-310, 1e-3 * (1.0 + 999.0 / 4.0)),
            # Once raised: x**2 overflowed along the tube.
            (ShapeKind.PARABOLIC, 1e-3, 1e-2, 1e160, 1e-3 * (1.0 + 9.0 / 16.0)),
        ],
        ids=["conical-tiny-length", "parabolic-huge-length"],
    )
    def test_extreme_lengths_sample(self, kind, r_min, r_max, length, quarter):
        # r depends on x only through t = 2|x|/L, so no length is out of range.
        profile = make_profile(kind, r_min, r_max, length)
        assert sample_profile(profile, 3).r == (r_max, r_min, r_max)
        assert radius_at(profile, 0.25 * profile.half_length) == pytest.approx(quarter, rel=1e-15)

    @pytest.mark.parametrize(
        "rho", [lambda t: math.inf, lambda t: math.nan, lambda t: math.cosh(1e4)], ids=["inf", "nan", "overflow"]
    )
    def test_non_finite_rho_is_a_range_error(self, rho, monkeypatch):
        # No real shape is known to get here, so a stub rho stands in: the
        # clamp must not turn its inf or NaN into r_max.
        kind = ShapeKind.CONICAL
        monkeypatch.setitem(geometry._SHAPES, kind, geometry._SHAPES[kind]._replace(rho=lambda d: rho))
        profile = canonical(kind)
        samplers = (
            lambda: radius_at(profile, 0.01),
            lambda: radius_array(profile, [profile.half_length, 0.0]),
            lambda: sample_profile(profile, 5),
        )
        for sampler in samplers:
            with pytest.raises(GeometryRangeError, match=r"the values of r\(x\) are not finite doubles for conical"):
                sampler()

    def test_nan_position_is_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            radius_at(canonical(ShapeKind.CONICAL), math.nan)

    @pytest.mark.parametrize("x", [10**400, -(10**400), [0.0, 10**400]], ids=["int", "negative-int", "in-array"])
    def test_integer_beyond_double_range_is_out_of_domain(self, x):
        profile = canonical(ShapeKind.CONICAL)
        with pytest.raises(OutOfDomainError):
            radius_at(profile, x) if isinstance(x, int) else radius_array(profile, x)

    def test_hyperbolic_tiny_rmin_is_exact(self):
        # r_min^2 = 1e-400 underflows to 0, which once made r(5e-101) come out
        # as r_min = 1e-200 where the definition gives sqrt(2) * 1e-200; with
        # rho no square of a radius is formed.
        profile = make_profile(ShapeKind.HYPERBOLIC, 1e-200, 1e-100, 1.0)
        assert radius_at(profile, 5e-101) == pytest.approx(1e-200 * math.sqrt(2.0), rel=1e-15)
        assert sample_profile(profile, 3).r == (1e-100, 1e-200, 1e-100)

    @pytest.mark.parametrize("r_min", [1.5e-154, 1e-150, 1e-3])
    def test_hyperbolic_normal_rmin_squared_is_kept(self, r_min):
        profile = make_profile(ShapeKind.HYPERBOLIC, r_min, 2.0 * r_min, 1.0)
        r = radius_at(profile, 0.25)
        assert r == pytest.approx(r_min * math.sqrt(1.0 + 3.0 * 0.25), rel=1e-15)
