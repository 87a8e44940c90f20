"""The public surface of ``capflow``, pinned: the names of ``dir(capflow)``
and ``capflow.__all__`` after a fresh ``import capflow``, and the
``__init__`` generated from its fields for each record that validates
nothing.
"""

import inspect
import json
import subprocess
import sys

import pytest

from procenv import ENV

from capflow import ProfileTable, QuadratureResult, Tube, VerificationReport
from capflow.analytic import HydraulicResistance

# The public part of dir(capflow) (names without a leading underscore):
# every export, and the four submodules the eager exports come from.
PUBLIC_DIR = [
    "CORRUGATED", "CapillaryFlowError", "DEFAULT_CONFIG", "EmptyCompositeError", "FlowRangeError", "Fluid",
    "GeometryRangeError", "HydraulicResistance", "NetworkElement", "NetworkSpecError", "NonPositiveLengthError",
    "NonPositiveRadiusError", "NonPositiveViscosityError", "NotConvergedError", "OutOfDomainError", "Parallel",
    "ProfileTable", "QuadratureConfig", "QuadratureInputError", "QuadratureResult", "RadiusOrderError",
    "RadiusProfile", "Series", "ShapeKind", "StraightRadiusMismatchError", "TooFewSamplesError",
    "TooManySamplesError", "Tube", "UnknownShapeError", "VerificationReport", "adaptive_integrate", "analytic",
    "equivalent_radius", "errors", "flow_rate", "geometry", "hydraulic_resistance", "integrate_inverse_r4",
    "inverse_r4_integral", "make_profile", "network", "network_flow_rate", "network_pressure_drop",
    "network_resistance", "numeric_pressure_drop", "poiseuille_pressure_drop", "pressure_drop", "radius_array",
    "radius_at", "random_profile", "sample_profile", "verification_sweep", "verify_analytic",
]

ALL = [
    "__version__",
    "ShapeKind", "CORRUGATED", "RadiusProfile", "ProfileTable", "make_profile", "radius_at", "radius_array",
    "sample_profile",
    "Fluid", "HydraulicResistance", "poiseuille_pressure_drop", "pressure_drop", "flow_rate",
    "hydraulic_resistance", "equivalent_radius", "inverse_r4_integral",
    "QuadratureConfig", "QuadratureResult", "VerificationReport", "DEFAULT_CONFIG", "adaptive_integrate",
    "integrate_inverse_r4", "numeric_pressure_drop", "verify_analytic", "random_profile", "verification_sweep",
    "Tube", "Series", "Parallel", "NetworkElement", "network_resistance", "network_pressure_drop",
    "network_flow_rate",
    "CapillaryFlowError", "NonPositiveRadiusError", "RadiusOrderError", "StraightRadiusMismatchError",
    "UnknownShapeError", "NonPositiveLengthError", "NonPositiveViscosityError", "OutOfDomainError",
    "GeometryRangeError", "FlowRangeError", "TooFewSamplesError", "TooManySamplesError", "QuadratureInputError",
    "EmptyCompositeError", "NotConvergedError", "NetworkSpecError",
]


def test_public_dir_and_all_after_a_fresh_import():
    code = (
        "import capflow, json; "
        "print(json.dumps([[n for n in dir(capflow) if not n.startswith('_')], capflow.__all__]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    public_dir, all_names = json.loads(proc.stdout)
    assert public_dir == PUBLIC_DIR
    assert all_names == ALL


@pytest.mark.parametrize("cls", [HydraulicResistance, QuadratureResult, VerificationReport, ProfileTable, Tube])
def test_records_that_validate_nothing_get_a_generated_init(cls):
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert list(inspect.signature(cls.__init__).parameters) == ["self", *cls._fields]
    values = tuple(range(len(cls._fields)))
    record = cls(*values)
    assert record._values() == values
    assert cls(**dict(zip(cls._fields, values))) == record
    with pytest.raises(TypeError):
        cls(*values[:-1])
