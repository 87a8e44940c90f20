"""Every public call over the full double range: a finite answer or a typed
error, and never a warning.

Hypothesis draws radii and lengths from all positive doubles, and flows,
pressures, viscosities and positions from all doubles, NaN and the
infinities included.  Each call below must return a finite answer or raise
a CapillaryFlowError while warnings are errors.  The oracle must also stay
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
    Parallel,
    Series,
    ShapeKind,
    Tube,
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
