"""A profile evaluates its F(d) once, when it is built, and every closed form reads it.

The closed forms must give the bits, or raise the error type and message,
of the path they replace, which formed d, looked up the shape and
evaluated F on every call: I = _integral(p, F(d), "closed-form") with
(shape, d) from ``_dimensionless``, and GeometryRangeError from
``_dimensionless`` where d exceeds the double range.
"""

import copy
import math
import pickle

import pytest

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
    inverse_r4_integral,
    make_profile,
    network_resistance,
    pressure_drop,
)
from capflow import geometry
from capflow.analytic import HydraulicResistance, _flow_rate_of, _integral, _pressure_drop_of, _resistance_of
from capflow.geometry import _dimensionless

CORRUGATED = [kind for kind in ShapeKind if kind is not ShapeKind.STRAIGHT]
BIGGEST = 1.7976931348623157e308
FLUID = Fluid(1e-3)
FLOW = 1e-9
PRESSURE = 1.0

# (label, r_min, r_max): d = r_max - 1 exactly for r_max in [1, 2], and d = r_max once r_max >= 2^53.
SPREAD = [
    ("d=0", 1.0, 1.0),
    ("d=1e-12", 1.0, 1.0 + 1e-12),
    ("d=1e-7", 1.0, 1.0 + 1e-7),
    ("d<1e-6", 1.0, math.nextafter(1.0 + 1e-6, 0.0)),
    ("d>1e-6", 1.0, math.nextafter(1.0 + 1e-6, 2.0)),
    ("d=1", 1.0, 2.0),
    ("d=99", 1.0, 100.0),
    ("d=1e150", 1.0, 1e150),
    ("d=1.8e308", 1.0, BIGGEST),
    ("d=99,I-overflow", 1e-80, 1e-78),
    ("d=99,I-underflow", 1e80, 1e82),
    ("d-overflow", 1e-300, 1e300),
]
CASES = [(kind, *geometry_) for kind in CORRUGATED for geometry_ in SPREAD]
CASES.append((ShapeKind.STRAIGHT, "d=0", 1.0, 1.0))


def reference(profile):
    """Each closed form as computed before a profile kept its F: d, lookup and F on every call."""

    def integral():
        shape, d = _dimensionless(profile)
        return _integral(profile, shape.F(d), "closed-form")

    def radius():
        shape, d = _dimensionless(profile)
        return min(max(profile.r_min * shape.F(d) ** -0.25, profile.r_min), profile.r_max)

    def resistance():
        g = (8.0 / math.pi) * integral()
        return HydraulicResistance(_resistance_of(g, FLUID), g)

    return {
        "inverse_r4_integral": integral,
        "pressure_drop": lambda: _pressure_drop_of(integral(), FLOW, FLUID),
        "hydraulic_resistance": resistance,
        "flow_rate": lambda: _flow_rate_of(_resistance_of((8.0 / math.pi) * integral(), FLUID), PRESSURE),
        "equivalent_radius": radius,
        "network_resistance": resistance,
    }


def closed_forms(profile):
    return {
        "inverse_r4_integral": lambda: inverse_r4_integral(profile),
        "pressure_drop": lambda: pressure_drop(profile, FLOW, FLUID),
        "hydraulic_resistance": lambda: hydraulic_resistance(profile, FLUID),
        "flow_rate": lambda: flow_rate(profile, PRESSURE, FLUID),
        "equivalent_radius": lambda: equivalent_radius(profile),
        "network_resistance": lambda: network_resistance(Tube(profile), FLUID),
    }


def outcome(call):
    """The result's bits, or the error's type and message."""
    try:
        value = call()
    except CapillaryFlowError as exc:
        return type(exc), str(exc)
    if isinstance(value, HydraulicResistance):
        return value.resistance.hex(), value.geometric_factor.hex()
    return value.hex()


@pytest.mark.parametrize("kind,label,r_min,r_max", CASES, ids=[f"{c[0].value}-{c[1]}" for c in CASES])
def test_closed_forms_give_the_bits_of_f_on_every_call(kind, label, r_min, r_max):
    profile = make_profile(kind, r_min, r_max, 0.1)
    d = (r_max - r_min) / r_min
    if label == "d-overflow":
        assert d == math.inf and profile._f is None
    else:
        assert profile._f.hex() == geometry._SHAPES[kind].F(d).hex()
    if label in ("d<1e-6", "d>1e-6"):
        assert (d < 1e-6) == (label == "d<1e-6")  # the two straddle the series switch
    expected = {name: outcome(call) for name, call in reference(profile).items()}
    assert {name: outcome(call) for name, call in closed_forms(profile).items()} == expected


def test_the_spread_reaches_each_outcome():
    outcomes = [outcome(call) for kind, _, r_min, r_max in CASES
                for call in closed_forms(make_profile(kind, r_min, r_max, 0.1)).values()]
    messages = [o[1] for o in outcomes if isinstance(o, tuple) and isinstance(o[0], type)]
    assert any("r_max/r_min exceeds the double range" in m for m in messages)
    assert any("closed-form I = integral dx/r^4 is not a positive finite double" in m for m in messages)
    assert sum(isinstance(o, str) for o in outcomes) > len(CASES)


@pytest.fixture
def evaluations(monkeypatch):
    """Patch every shape's F with a counter; the list of the d it was called with."""
    calls = []
    for kind, shape in list(geometry._SHAPES.items()):
        def counted(d, _f=shape.F):
            calls.append(d)
            return _f(d)

        monkeypatch.setitem(geometry._SHAPES, kind, shape._replace(F=counted))
    return calls


@pytest.mark.parametrize("kind", list(ShapeKind), ids=lambda kind: kind.value)
def test_f_is_evaluated_once_per_profile(kind, evaluations):
    profile = make_profile(kind, 1e-3, 1e-3 if kind is ShapeKind.STRAIGHT else 2e-3, 0.1)
    assert len(evaluations) == 1
    evaluations.clear()
    pressure_drop(profile, FLOW, FLUID)
    hydraulic_resistance(profile, FLUID)
    flow_rate(profile, PRESSURE, FLUID)
    equivalent_radius(profile)
    inverse_r4_integral(profile)
    network_resistance(Tube(profile), FLUID)
    network_resistance(Series([Tube(profile), Parallel([Tube(profile), Tube(profile)])]), FLUID)
    assert evaluations == []


def test_f_is_not_evaluated_where_d_overflows(evaluations):
    profile = make_profile(ShapeKind.CONICAL, 1e-300, 1e300, 0.1)
    assert evaluations == [] and profile._f is None


@pytest.mark.parametrize("kind,label,r_min,r_max", CASES, ids=[f"{c[0].value}-{c[1]}" for c in CASES])
def test_pickled_and_copied_profiles_keep_their_f(kind, label, r_min, r_max):
    profile = make_profile(kind, r_min, r_max, 0.1)
    for clone in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile), copy.copy(profile)):
        assert clone == profile and hash(clone) == hash(profile) and repr(clone) == repr(profile)
        if profile._f is None:
            assert clone._f is None
        else:
            assert clone._f.hex() == profile._f.hex()


def test_f_is_no_field():
    profile = make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)
    assert profile._fields == ("kind", "r_min", "r_max", "length")
    assert "_f" not in repr(profile)
    assert profile.__reduce__()[1] == (ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)
    with pytest.raises(AttributeError):
        profile._f = 1.0
