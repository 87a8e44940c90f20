"""Every public call over the full double range: a finite answer or a typed
error, and never a warning.

Hypothesis draws radii and lengths from all positive doubles, and flows,
pressures, viscosities and positions from all doubles, NaN and the
infinities included; each numeric argument is also given +-10**400, an int
beyond the double range, and +-10**5000, one too long for repr to print.
Each call below must return a finite answer or raise a CapillaryFlowError
while warnings are errors.  The oracle must also stay
within 20 000 integrand evaluations, a converged oracle result must agree
with a finite closed form within 1e-12, and a sampled radius must lie in
[r_min, r_max].
"""

import math
import sys
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from capflow import (
    CapillaryFlowError,
    Fluid,
    HydraulicResistance,
    Parallel,
    QuadratureConfig,
    RadiusProfile,
    Series,
    ShapeKind,
    Tube,
    adaptive_integrate,
    equivalent_radius,
    flow_rate,
    hydraulic_resistance,
    integrate_inverse_r4,
    inverse_r4_integral,
    make_profile,
    network_flow_rate,
    network_pressure_drop,
    network_resistance,
    numeric_pressure_drop,
    poiseuille_pressure_drop,
    pressure_drop,
    radius_array,
    radius_at,
    sample_profile,
    verify_analytic,
)

POSITIVE = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)
MAX_EVALUATIONS = 20_000


@st.composite
def tubes(draw):
    kind = draw(st.sampled_from(list(ShapeKind)))
    r_min, r_max = sorted(draw(st.tuples(POSITIVE, POSITIVE)))
    return make_profile(kind, r_min, r_min if kind is ShapeKind.STRAIGHT else r_max, draw(POSITIVE))


def outcome(call):
    """The call's result, or None for a CapillaryFlowError; a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except CapillaryFlowError:
            return None


@settings(max_examples=400, deadline=None)
@given(profile=tubes(), viscosity=st.floats(), given_value=st.floats())
def test_closed_forms(profile, viscosity, given_value):
    fluid = outcome(lambda: Fluid(viscosity))
    if fluid is None:
        return
    for call in (
        lambda: inverse_r4_integral(profile),
        lambda: pressure_drop(profile, given_value, fluid),
        lambda: flow_rate(profile, given_value, fluid),
        lambda: hydraulic_resistance(profile, fluid).resistance,
        lambda: hydraulic_resistance(profile, fluid).geometric_factor,
    ):
        value = outcome(call)
        assert value is None or math.isfinite(value)
    r_eq = outcome(lambda: equivalent_radius(profile))
    assert r_eq is None or profile.r_min <= r_eq <= profile.r_max


@settings(max_examples=200, deadline=None)
@given(profile=tubes(), flow=st.floats())
def test_oracle(profile, flow):
    result = outcome(lambda: integrate_inverse_r4(profile))
    if result is not None:
        assert 0.0 < result.value < math.inf
        assert math.isfinite(result.error_estimate)
        assert result.evaluations <= MAX_EVALUATIONS
        closed = outcome(lambda: inverse_r4_integral(profile))
        if result.converged and closed is not None:
            assert result.value == pytest.approx(closed, rel=1e-12)
    fluid = Fluid(1e-3)
    numeric = outcome(lambda: numeric_pressure_drop(profile, flow, fluid))
    assert numeric is None or math.isfinite(numeric)
    report = outcome(lambda: verify_analytic(profile, 1e-9))
    if report is not None:
        fields = (report.analytic_pressure_drop, report.numeric_pressure_drop,
                  report.relative_discrepancy, report.oracle_error_estimate)
        assert all(math.isfinite(field) for field in fields)
        assert report.evaluations <= MAX_EVALUATIONS


@settings(max_examples=300, deadline=None)
@given(profile=tubes(), t=st.floats(-1.0, 1.0), x=st.floats(), n=st.integers(2, 5))
def test_samplers(profile, t, x, n):
    inside = t * profile.half_length
    for call in (
        lambda: [radius_at(profile, inside)],
        lambda: [radius_at(profile, x)],
        lambda: radius_array(profile, [x, inside, -inside, 0.0]),
        lambda: sample_profile(profile, n).r,
    ):
        radii = outcome(call)
        assert radii is None or all(profile.r_min <= r <= profile.r_max for r in radii)


networks = st.recursive(
    tubes().map(Tube),
    lambda children: st.lists(children, min_size=1, max_size=3).flatmap(
        lambda elements: st.sampled_from([Series(elements), Parallel(elements)])
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(network=networks, viscosity=st.floats(), given_value=st.floats())
def test_networks(network, viscosity, given_value):
    fluid = outcome(lambda: Fluid(viscosity))
    if fluid is None:
        return
    for call in (
        lambda: network_resistance(network, fluid).resistance,
        lambda: network_resistance(network, fluid).geometric_factor,
        lambda: network_pressure_drop(network, given_value, fluid),
        lambda: network_flow_rate(network, given_value, fluid),
    ):
        value = outcome(call)
        assert value is None or math.isfinite(value)


# Each numeric argument of each entry point, set to an int beyond the double
# range or to an infinity while the others stay valid.
CONICAL = make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)
WATER = Fluid(1e-3)
NETWORK = Series([Tube(CONICAL), Parallel([Tube(CONICAL), Tube(CONICAL)])])
BEYOND_DOUBLE = {
    "RadiusProfile.r_min": lambda v: RadiusProfile(ShapeKind.CONICAL, v, 2e-3, 0.1).r_min,
    "RadiusProfile.r_max": lambda v: RadiusProfile(ShapeKind.CONICAL, 1e-3, v, 0.1).r_max,
    "RadiusProfile.length": lambda v: RadiusProfile(ShapeKind.CONICAL, 1e-3, 2e-3, v).length,
    "make_profile.r_min": lambda v: make_profile(ShapeKind.CONICAL, v, 2e-3, 0.1).r_min,
    "make_profile.r_max": lambda v: make_profile(ShapeKind.CONICAL, 1e-3, v, 0.1).r_max,
    "make_profile.length": lambda v: make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, v).length,
    "poiseuille_pressure_drop.radius": lambda v: poiseuille_pressure_drop(v, 0.1, 1e-9, WATER),
    "poiseuille_pressure_drop.length": lambda v: poiseuille_pressure_drop(1e-3, v, 1e-9, WATER),
    "poiseuille_pressure_drop.flow_rate": lambda v: poiseuille_pressure_drop(1e-3, 0.1, v, WATER),
    "Fluid": lambda v: Fluid(v).viscosity,
    "QuadratureConfig.rel_tol": lambda v: QuadratureConfig(rel_tol=v).rel_tol,
    "QuadratureConfig.abs_tol": lambda v: QuadratureConfig(abs_tol=v).abs_tol,
    "pressure_drop": lambda v: pressure_drop(CONICAL, v, WATER),
    "flow_rate": lambda v: flow_rate(CONICAL, v, WATER),
    "numeric_pressure_drop": lambda v: numeric_pressure_drop(CONICAL, v, WATER),
    "HydraulicResistance.pressure_drop": lambda v: hydraulic_resistance(CONICAL, WATER).pressure_drop(v),
    "HydraulicResistance.flow_rate": lambda v: hydraulic_resistance(CONICAL, WATER).flow_rate(v),
    "network_pressure_drop": lambda v: network_pressure_drop(NETWORK, v, WATER),
    "network_flow_rate": lambda v: network_flow_rate(NETWORK, v, WATER),
    "adaptive_integrate.lower": lambda v: adaptive_integrate(lambda x: 1.0, v, 1.0).value,
    "adaptive_integrate.upper": lambda v: adaptive_integrate(lambda x: 1.0, 0.0, v).value,
    "radius_at": lambda v: radius_at(CONICAL, v),
    "sample_profile": lambda v: len(sample_profile(CONICAL, v)),
}


@pytest.mark.parametrize(
    "given",
    [10**400, -(10**400), math.inf, -math.inf, 10**5000, -(10**5000)],
    ids=["int-plus", "int-minus", "inf-plus", "inf-minus", "long-int-plus", "long-int-minus"],
)
@pytest.mark.parametrize("name", sorted(BEYOND_DOUBLE))
def test_beyond_the_double_range(name, given):
    value = outcome(lambda: BEYOND_DOUBLE[name](given))
    assert value is None or math.isfinite(value)
