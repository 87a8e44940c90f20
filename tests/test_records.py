"""Value semantics of the 11 records: equality, hashing, repr, immutability, pickling and copying.

Each record must behave as the frozen dataclass it replaced did: equal
only to a record of the same class with equal fields (so a Series never
equals a Parallel of the same elements, and no record equals a plain
tuple), hashed by its fields, shown with the dataclass repr (the literals
below were printed by the dataclasses), and rebuilt equal by pickle and
deepcopy.
"""

import ast
import collections
import copy
import pathlib
import pickle

import pytest

import capflow
from capflow import (
    Fluid,
    Parallel,
    ProfileTable,
    QuadratureConfig,
    QuadratureResult,
    RadiusProfile,
    Series,
    ShapeKind,
    Tube,
    VerificationReport,
    equivalent_radius,
    flow_rate,
    hydraulic_resistance,
    integrate_inverse_r4,
    make_profile,
    pressure_drop,
    sample_profile,
    verify_analytic,
)
from capflow._record import _Record
from capflow.analytic import HydraulicResistance
from capflow.network import _Composite

CONICAL = "RadiusProfile(kind=<ShapeKind.CONICAL: 'conical'>, r_min=0.001, r_max=0.002, length=0.1)"
STRAIGHT = "RadiusProfile(kind=<ShapeKind.STRAIGHT: 'straight'>, r_min=0.001, r_max=0.001, length=0.05)"


def conical():
    return make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)


def straight():
    return make_profile(ShapeKind.STRAIGHT, 1e-3, 1e-3, 0.05)


# name -> (build a record, build one that differs, the dataclass repr of the first)
RECORDS = {
    "RadiusProfile": (conical, straight, CONICAL),
    "ProfileTable": (lambda: sample_profile(conical(), 3), lambda: sample_profile(conical(), 4),
                     "ProfileTable(x=(-0.05, 0.0, 0.05), r=(0.002, 0.001, 0.002))"),
    "Fluid": (lambda: Fluid(1e-3), lambda: Fluid(2e-3), "Fluid(viscosity=0.001)"),
    "HydraulicResistance": (
        lambda: hydraulic_resistance(conical(), Fluid(1e-3)),
        lambda: hydraulic_resistance(straight(), Fluid(1e-3)),
        "HydraulicResistance(resistance=74272306.77621782, geometric_factor=74272306776.21782)",
    ),
    "Tube": (lambda: Tube(conical()), lambda: Tube(straight()), f"Tube(profile={CONICAL})"),
    "_Composite": (lambda: _Composite([Tube(conical())]), lambda: _Composite([Tube(straight())]),
                   f"_Composite(elements=(Tube(profile={CONICAL}),))"),
    "Series": (lambda: Series([Tube(conical()), Tube(straight())]), lambda: Series([Tube(conical())]),
               f"Series(elements=(Tube(profile={CONICAL}), Tube(profile={STRAIGHT})))"),
    "Parallel": (lambda: Parallel([Tube(conical())]), lambda: Parallel([Tube(conical()), Tube(conical())]),
                 f"Parallel(elements=(Tube(profile={CONICAL}),))"),
    "QuadratureConfig": (QuadratureConfig, lambda: QuadratureConfig(rel_tol=1e-8, abs_tol=1e-30, max_depth=12),
                         "QuadratureConfig(rel_tol=1e-10, abs_tol=0.0, max_depth=48)"),
    "QuadratureResult": (
        lambda: integrate_inverse_r4(conical()),
        lambda: integrate_inverse_r4(straight()),
        "QuadratureResult(value=29166666666.666656, error_estimate=0.2632595530460691, evaluations=45, "
        "stop_reason='converged')",
    ),
    "VerificationReport": (
        lambda: verify_analytic(conical(), 1e-9),
        lambda: verify_analytic(straight(), 1e-9),
        f"VerificationReport(profile={CONICAL}, analytic_pressure_drop=74272306776.21782, "
        "numeric_pressure_drop=74272306776.2178, relative_discrepancy=2.0544385552039844e-16, "
        "oracle_error_estimate=0.2632595530460691, converged=True, passed=True, evaluations=45)",
    ),
}


def fields(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_is_covered():
    classes = {RadiusProfile, ProfileTable, Fluid, HydraulicResistance, Tube, _Composite, Series, Parallel,
               QuadratureConfig, QuadratureResult, VerificationReport}
    assert {cls.__name__ for cls in classes} == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash(name):
    build, other, _ = RECORDS[name]
    a, b, c = build(), build(), other()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert a != fields(a) and fields(a) != a
    assert a != None  # noqa: E711


def test_equality_is_per_class():
    elements = [Tube(conical())]
    assert Series(elements) != Parallel(elements)
    assert Series(elements) != _Composite(elements)
    assert Series(elements) == Series(tuple(elements))
    assert Fluid(1.0) != HydraulicResistance(1.0, 1.0)
    assert conical() != (ShapeKind.CONICAL, 1e-3, 2e-3, 0.1)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_the_dataclass_repr(name):
    build, _, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert record == RECORDS[name][0]()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_deepcopy_round_trip(name):
    record = RECORDS[name][0]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)


def test_keyword_and_positional_construction():
    p = conical()
    assert RadiusProfile(kind=ShapeKind.CONICAL, r_min=1e-3, r_max=2e-3, length=0.1) == p
    assert RadiusProfile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1) == p
    assert p.half_length == 0.05
    assert QuadratureConfig(1e-10, 0.0, 48) == QuadratureConfig() == QuadratureConfig(max_depth=48)
    assert HydraulicResistance(resistance=2.0, geometric_factor=3.0) == HydraulicResistance(2.0, 3.0)
    result = QuadratureResult(value=1.0, error_estimate=0.0, evaluations=15, stop_reason="max_depth")
    assert not result.converged and QuadratureResult(1.0, 0.0, 15, "converged").converged
    report = verify_analytic(p, 1e-9)
    assert VerificationReport(**{name: getattr(report, name) for name in report._fields}) == report
    table = ProfileTable(x=(0.0, 1.0), r=(1.0, 2.0))
    assert len(table) == 2 and list(table.rows()) == [(0.0, 1.0), (1.0, 2.0)]


def record_classes():
    """Every _Record subclass, found by walking __subclasses__ from the base."""
    found, todo = [], [_Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.append(cls)
            todo.append(cls)
    return found


def test_setters_store_exactly_the_fields_in_order():
    classes = record_classes()
    assert {cls.__name__ for cls in classes} == set(RECORDS)
    for cls in classes:
        # A bound slot setter is the __set__ of the field's member descriptor.
        assert [setter.__self__ for setter in cls._setters] == [getattr(cls, name) for name in cls._fields]
        assert {setter.__name__ for setter in cls._setters} <= {"__set__"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_construction_sets_every_slot(name):
    record = RECORDS[name][0]()
    slots = [slot for cls in type(record).__mro__ for slot in cls.__dict__.get("__slots__", ())]
    assert sorted(slots) == sorted(record._fields)
    for slot in slots:
        getattr(record, slot)  # AttributeError if the slot was left unset


def test_no_module_stores_through_object_setattr():
    modules = sorted(pathlib.Path(capflow.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"))
        uses = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
        ]
        assert uses == [], module.name


def test_records_built_per_tube_query(monkeypatch):
    """One tube query (as the tube workload makes it) builds one RadiusProfile
    and one HydraulicResistance; the float-valued relations build none."""
    built = collections.Counter()
    for cls in record_classes():
        if "__init__" in cls.__dict__:
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built[type(self).__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

    def taken():
        counts = dict(built)
        built.clear()
        return counts

    fluid = Fluid(1e-3)
    for kind in ShapeKind:
        taken()
        profile = make_profile(kind, 1e-3, 1e-3 if kind is ShapeKind.STRAIGHT else 2e-3, 0.1)
        assert taken() == {"RadiusProfile": 1}
        pressure_drop(profile, 1e-9, fluid)
        assert taken() == {}
        hydraulic_resistance(profile, fluid)
        assert taken() == {"HydraulicResistance": 1}
        flow_rate(profile, 1.0, fluid)
        assert taken() == {}
        equivalent_radius(profile)
        assert taken() == {}
