import math
import re
import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

import reference_data as ref
from strategies import CORRUGATED, profiles

from capflow import (
    CapillaryFlowError,
    Fluid,
    FlowRangeError,
    GeometryRangeError,
    NonPositiveLengthError,
    NonPositiveRadiusError,
    NonPositiveViscosityError,
    QuadratureConfig,
    ShapeKind,
    equivalent_radius,
    flow_rate,
    hydraulic_resistance,
    integrate_inverse_r4,
    inverse_r4_integral,
    make_profile,
    poiseuille_pressure_drop,
    pressure_drop,
)

ALL_KINDS = list(ShapeKind)
KIND_BY_TOKEN = {kind.value: kind for kind in ShapeKind}

WATER = Fluid(viscosity=ref.VISCOSITY)


def canonical(token):
    kind = KIND_BY_TOKEN[token]
    r_max = ref.R_MIN if kind is ShapeKind.STRAIGHT else ref.R_MAX
    return make_profile(kind, ref.R_MIN, r_max, ref.LENGTH)


class TestFluid:
    def test_valid(self):
        assert Fluid(1e-3).viscosity == 1e-3

    @pytest.mark.parametrize("mu", [0.0, -1e-3, math.nan, math.inf, "1", None])
    def test_invalid(self, mu):
        with pytest.raises(NonPositiveViscosityError, match=f"got {re.escape(repr(mu))}$"):
            Fluid(mu)


class TestPoiseuille:
    def test_canonical_value(self):
        p = poiseuille_pressure_drop(1e-3, 0.1, 1e-9, WATER)
        assert p == pytest.approx(0.254648, rel=1e-5)
        assert p == pytest.approx(ref.PRESSURE["straight"], rel=1e-14)

    def test_double_radius(self):
        p = poiseuille_pressure_drop(2e-3, 0.1, 1e-9, WATER)
        assert p == pytest.approx(0.0159155, rel=1e-5)

    def test_zero_flow(self):
        assert poiseuille_pressure_drop(1e-3, 0.1, 0.0, WATER) == 0.0

    def test_bad_radius(self):
        with pytest.raises(NonPositiveRadiusError):
            poiseuille_pressure_drop(0.0, 0.1, 1e-9, WATER)

    def test_bad_length(self):
        with pytest.raises(NonPositiveLengthError):
            poiseuille_pressure_drop(1e-3, -0.1, 1e-9, WATER)

    @pytest.mark.parametrize("radius", [1e100, 1e-100], ids=["huge", "tiny"])
    def test_out_of_range_radius(self, radius):
        # R^4 overflows or underflows; both leave double range typed.
        with pytest.raises(GeometryRangeError, match="straight"):
            poiseuille_pressure_drop(radius, 1.0, 1.0, Fluid(1.0))

    def test_equals_straight_pressure_drop(self):
        profile = make_profile(ShapeKind.STRAIGHT, 2e-3, 2e-3, 0.1)
        assert poiseuille_pressure_drop(2e-3, 0.1, 1e-9, WATER) == pressure_drop(profile, 1e-9, WATER)


class TestInverseR4Integral:
    @pytest.mark.parametrize("token", sorted(ref.INTEGRAL))
    def test_frozen(self, token):
        got = inverse_r4_integral(canonical(token))
        assert got == pytest.approx(ref.INTEGRAL[token], rel=1e-14)

    def test_conical_literal(self):
        got = inverse_r4_integral(canonical("conical"))
        assert got == pytest.approx(2.9167e10, rel=1e-4)

    def test_straight_is_length_over_r4(self):
        p = make_profile(ShapeKind.STRAIGHT, 1e-3, 1e-3, 0.1)
        assert inverse_r4_integral(p) == 0.1 / (1e-3) ** 4

    @pytest.mark.parametrize("eps", sorted(ref.NEAR_DEGENERATE_INTEGRAL))
    @pytest.mark.parametrize("token", sorted(ref.NEAR_DEGENERATE_INTEGRAL[1e-4]))
    def test_near_degenerate_frozen(self, eps, token):
        r_max = 1e-3 * (1.0 + eps)
        got = inverse_r4_integral(make_profile(KIND_BY_TOKEN[token], 1e-3, r_max, 0.1))
        assert got == pytest.approx(ref.NEAR_DEGENERATE_INTEGRAL[eps][token], rel=1e-14)

    @pytest.mark.parametrize("token", sorted(ref.WIDE_INTEGRAL))
    def test_wide_geometry_frozen(self, token):
        r_min, r_max, length = ref.WIDE_GEOMETRY
        got = inverse_r4_integral(make_profile(KIND_BY_TOKEN[token], r_min, r_max, length))
        assert got == pytest.approx(ref.WIDE_INTEGRAL[token], rel=1e-14)


# Valid geometries whose closed form under- or overflows double precision:
# (kind, r_min, r_max, length).
OUT_OF_RANGE = [
    pytest.param(ShapeKind.CONICAL, 1e-200, 1e-100, 1.0, id="conical-tiny"),
    pytest.param(ShapeKind.STRAIGHT, 1e-100, 1e-100, 1.0, id="straight-tiny"),
    pytest.param(ShapeKind.CONICAL, 1e100, 1e101, 1.0, id="conical-huge"),
    pytest.param(ShapeKind.STRAIGHT, 1e100, 1e100, 1e-300, id="straight-huge"),
]


class TestRangeError:
    @pytest.mark.parametrize("kind,r_min,r_max,length", OUT_OF_RANGE)
    def test_every_entry_point_raises(self, kind, r_min, r_max, length):
        profile = make_profile(kind, r_min, r_max, length)
        for call in (
            lambda: inverse_r4_integral(profile),
            lambda: pressure_drop(profile, 1.0, WATER),
            lambda: flow_rate(profile, 1.0, WATER),
            lambda: hydraulic_resistance(profile, WATER),
        ):
            with pytest.raises(GeometryRangeError, match=kind.value):
                call()

    @pytest.mark.parametrize("kind,r_min,r_max,length", OUT_OF_RANGE)
    def test_equivalent_radius_stays_in_range(self, kind, r_min, r_max, length):
        # r_min F(d)^(-1/4) involves neither L nor r_min^4.
        profile = make_profile(kind, r_min, r_max, length)
        assert r_min <= equivalent_radius(profile) <= r_max

    @pytest.mark.parametrize("r_max", [1e200, 1e300])
    def test_cosh_huge_ratio_is_finite(self, r_max):
        # arccosh(r_max/r_min) once overflowed through d (d + 2); the closed
        # form now agrees with the oracle there.
        profile = make_profile(ShapeKind.HYPERBOLIC_COSINE, 1e-3, r_max, 1.0)
        oracle = integrate_inverse_r4(profile, QuadratureConfig(rel_tol=1e-13))
        assert oracle.converged
        assert inverse_r4_integral(profile) == pytest.approx(oracle.value, rel=1e-12)

    def test_ratio_beyond_double_range_raises(self):
        profile = make_profile(ShapeKind.CONICAL, 1e-300, 1e300, 1.0)
        for call in (lambda: inverse_r4_integral(profile), lambda: equivalent_radius(profile)):
            with pytest.raises(GeometryRangeError, match="r_max/r_min exceeds the double range"):
                call()

    def test_is_a_typed_value_error(self):
        assert issubclass(GeometryRangeError, CapillaryFlowError)
        assert issubclass(GeometryRangeError, ValueError)


class TestFlowRangeError:
    CONICAL = make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)

    def test_is_a_typed_value_error(self):
        assert issubclass(FlowRangeError, CapillaryFlowError)
        assert issubclass(FlowRangeError, ValueError)

    def test_pressure_drop_overflow(self):
        with pytest.raises(FlowRangeError, match="pressure drop inf"):
            pressure_drop(self.CONICAL, 1e300, Fluid(1e3))

    def test_poiseuille_overflow(self):
        with pytest.raises(FlowRangeError, match="pressure drop"):
            poiseuille_pressure_drop(1e-3, 0.1, 1e300, Fluid(1e3))

    def test_flow_rate_overflow(self):
        with pytest.raises(FlowRangeError, match="flow rate inf"):
            flow_rate(self.CONICAL, 1e300, Fluid(1e-300))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs(self, value):
        with pytest.raises(FlowRangeError):
            pressure_drop(self.CONICAL, value, WATER)
        with pytest.raises(FlowRangeError):
            flow_rate(self.CONICAL, value, WATER)

    def test_resistance_methods_match_the_functions(self):
        res = hydraulic_resistance(self.CONICAL, WATER)
        assert res.flow_rate(ref.PRESSURE["conical"]) == flow_rate(self.CONICAL, ref.PRESSURE["conical"], WATER)
        assert res.pressure_drop(ref.FLOW) == res.resistance * ref.FLOW
        with pytest.raises(FlowRangeError):
            res.pressure_drop(math.nan)

    def test_large_finite_answers_still_pass(self):
        assert pressure_drop(self.CONICAL, 1e290, Fluid(1e3)) > 1e290


class TestResistanceRange:
    CONICAL = make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)

    def test_overflowing_resistance(self):
        with pytest.raises(FlowRangeError, match="resistance inf"):
            hydraulic_resistance(self.CONICAL, Fluid(1e300))

    def test_flow_rate_through_overflowing_resistance(self):
        with pytest.raises(FlowRangeError, match="resistance inf"):
            flow_rate(self.CONICAL, 1.0, Fluid(1e300))

    def test_underflowing_resistance(self):
        wide = make_profile(ShapeKind.STRAIGHT, 1e70, 1e70, 1e-3)
        with pytest.raises(FlowRangeError, match="resistance 0.0"):
            hydraulic_resistance(wide, Fluid(1e-300))

    def test_overflowing_geometric_factor(self):
        # I = L/r^4 = 1e308 is finite, G = (8/pi) I is not
        narrow = make_profile(ShapeKind.STRAIGHT, 1e-77, 1e-77, 1.0)
        assert inverse_r4_integral(narrow) == pytest.approx(1e308, rel=1e-15)
        with pytest.raises(GeometryRangeError, match="G = inf"):
            hydraulic_resistance(narrow, WATER)

    def test_extreme_but_finite_resistance_passes(self):
        res = hydraulic_resistance(self.CONICAL, Fluid(1e290))
        assert res.resistance == 1e290 * res.geometric_factor


def outcome(call):
    """The float a call returns, or the type and message of the CapillaryFlowError it raises."""
    try:
        return call()
    except CapillaryFlowError as exc:
        return type(exc), str(exc)


class TestFlowRateEquivalence:
    """flow_rate(p, P, fluid) builds no record, yet answers as the record does:
    the same float, or the same error with the same message, first check first."""

    CONICAL = make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)
    TUBES = {
        "plain": (CONICAL, WATER),
        "G-overflows": (make_profile(ShapeKind.STRAIGHT, 1e-77, 1e-77, 1.0), WATER),
        "muG-overflows": (CONICAL, Fluid(1e300)),
        "muG-underflows": (make_profile(ShapeKind.STRAIGHT, 1e70, 1e70, 1e-3), Fluid(1e-300)),
        "Q-overflows": (CONICAL, Fluid(1e-300)),
        "subnormal-I": (make_profile(ShapeKind.STRAIGHT, 1e80, 1e80, 1.0), Fluid(1.0)),
    }
    PRESSURES = [1.0, -1.0, 0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("tube", sorted(TUBES))
    def test_same_answer_or_error(self, tube):
        profile, fluid = self.TUBES[tube]
        for pressure in self.PRESSURES:
            expected = outcome(lambda: hydraulic_resistance(profile, fluid).flow_rate(pressure))
            assert outcome(lambda: flow_rate(profile, pressure, fluid)) == expected, pressure

    def test_cases_reach_every_outcome(self):
        assert 0.0 < inverse_r4_integral(self.TUBES["subnormal-I"][0]) < sys.float_info.min
        seen = set()
        for profile, fluid in self.TUBES.values():
            for pressure in self.PRESSURES:
                result = outcome(lambda: flow_rate(profile, pressure, fluid))
                seen.add("answer" if isinstance(result, float) else result[1].split(" ")[0])
        assert seen == {"answer", "geometric", "resistance", "flow"}


class TestPressureDrop:
    @pytest.mark.parametrize("token", sorted(ref.PRESSURE))
    def test_frozen(self, token):
        got = pressure_drop(canonical(token), ref.FLOW, WATER)
        assert got == pytest.approx(ref.PRESSURE[token], rel=1e-13)

    @pytest.mark.parametrize(
        "token,literal",
        [
            ("straight", 2.5465e-1),
            ("conical", 7.4272e-2),
            ("parabolic", 1.2085e-1),
            ("hyperbolic", 1.0882e-1),
            ("cosh", 1.2560e-1),
            ("sinusoidal", 8.8627e-2),
        ],
    )
    def test_rounded_literals(self, token, literal):
        got = pressure_drop(canonical(token), ref.FLOW, WATER)
        assert got == pytest.approx(literal, rel=1e-4)

    def test_negative_flow_flips_sign_exactly(self):
        p = canonical("conical")
        forward = pressure_drop(p, ref.FLOW, WATER)
        backward = pressure_drop(p, -ref.FLOW, WATER)
        assert backward == -forward
        assert backward < 0.0

    def test_zero_flow(self):
        assert pressure_drop(canonical("cosh"), 0.0, WATER) == 0.0

    @given(profiles(kinds=ALL_KINDS))
    def test_degenerate_reduces_to_poiseuille(self, profile):
        squeezed = make_profile(profile.kind, profile.r_min, profile.r_min, profile.length)
        expected = poiseuille_pressure_drop(profile.r_min, profile.length, ref.FLOW, WATER)
        got = pressure_drop(squeezed, ref.FLOW, WATER)
        assert got == pytest.approx(expected, rel=1e-12)

    @given(profiles(min_ratio=1.0 + 1e-9))
    def test_strict_poiseuille_bracket(self, profile):
        got = pressure_drop(profile, ref.FLOW, WATER)
        wide = poiseuille_pressure_drop(profile.r_max, profile.length, ref.FLOW, WATER)
        narrow = poiseuille_pressure_drop(profile.r_min, profile.length, ref.FLOW, WATER)
        assert wide < got < narrow

    @given(
        profiles(kinds=ALL_KINDS),
        st.floats(1e-6, 1e6),
        st.floats(-1e-6, 1e-3).filter(lambda q: q != 0.0),
    )
    def test_linearity_in_flow(self, profile, scale, flow):
        direct = pressure_drop(profile, scale * flow, WATER)
        scaled = scale * pressure_drop(profile, flow, WATER)
        assert direct == pytest.approx(scaled, rel=1e-15)

    def test_linear_in_viscosity(self):
        p = canonical("parabolic")
        thin = pressure_drop(p, ref.FLOW, Fluid(1e-3))
        thick = pressure_drop(p, ref.FLOW, Fluid(2e-3))
        assert thick == 2.0 * thin


class TestFlowRate:
    def test_straight_recovers_flow(self):
        q = flow_rate(canonical("straight"), ref.PRESSURE["straight"], WATER)
        assert q == pytest.approx(ref.FLOW, rel=1e-12)

    def test_conical_recovers_flow(self):
        q = flow_rate(canonical("conical"), ref.PRESSURE["conical"], WATER)
        assert q == pytest.approx(ref.FLOW, rel=1e-12)

    def test_zero_pressure(self):
        assert flow_rate(canonical("conical"), 0.0, WATER) == 0.0

    def test_negative_pressure(self):
        q = flow_rate(canonical("sinusoidal"), -0.1, WATER)
        assert q < 0.0

    @given(profiles(kinds=ALL_KINDS), st.floats(1e-12, 1e-3))
    def test_round_trip(self, profile, flow):
        p = pressure_drop(profile, flow, WATER)
        assert flow_rate(profile, p, WATER) == pytest.approx(flow, rel=1e-12)


class TestHydraulicResistance:
    def test_straight_frozen(self):
        r = hydraulic_resistance(canonical("straight"), WATER)
        assert r.resistance == pytest.approx(ref.STRAIGHT_RESISTANCE, rel=1e-14)
        assert r.resistance == pytest.approx(2.5465e8, rel=1e-4)

    def test_sinusoidal_literal(self):
        r = hydraulic_resistance(canonical("sinusoidal"), WATER)
        assert r.resistance == pytest.approx(8.8627e7, rel=1e-4)

    def test_geometric_factor_is_fluid_free(self):
        p = canonical("hyperbolic")
        thin = hydraulic_resistance(p, Fluid(1e-3))
        thick = hydraulic_resistance(p, Fluid(2e-3))
        assert thick.geometric_factor == thin.geometric_factor
        assert thick.resistance == 2.0 * thin.resistance

    def test_factor_definition(self):
        p = canonical("cosh")
        r = hydraulic_resistance(p, WATER)
        assert r.geometric_factor == pytest.approx(
            (8.0 / math.pi) * inverse_r4_integral(p), rel=1e-15
        )

    @given(profiles(kinds=ALL_KINDS), st.floats(1e-12, 1e-3))
    def test_resistance_times_flow_is_pressure(self, profile, flow):
        r = hydraulic_resistance(profile, WATER)
        assert r.resistance * flow == pytest.approx(
            pressure_drop(profile, flow, WATER), rel=1e-14
        )


class TestEquivalentRadius:
    def test_straight_is_exact(self):
        p = make_profile(ShapeKind.STRAIGHT, 1e-3, 1e-3, 0.1)
        assert equivalent_radius(p) == 1e-3

    @pytest.mark.parametrize("kind", CORRUGATED)
    def test_degenerate_is_exact(self, kind):
        p = make_profile(kind, 7e-4, 7e-4, 0.3)
        assert equivalent_radius(p) == 7e-4

    def test_conical_frozen(self):
        got = equivalent_radius(canonical("conical"))
        assert got == pytest.approx(ref.CONICAL_EQUIVALENT_RADIUS, rel=1e-14)
        assert got == pytest.approx(1.3607e-3, rel=1e-4)

    def test_matches_equal_resistance_straight_tube(self):
        p = canonical("sinusoidal")
        r_eq = equivalent_radius(p)
        straight = make_profile(ShapeKind.STRAIGHT, r_eq, r_eq, p.length)
        want = hydraulic_resistance(p, WATER).resistance
        got = hydraulic_resistance(straight, WATER).resistance
        assert got == pytest.approx(want, rel=1e-12)

    @given(profiles())
    def test_bounded_by_radii(self, profile):
        r_eq = equivalent_radius(profile)
        assert profile.r_min <= r_eq <= profile.r_max
