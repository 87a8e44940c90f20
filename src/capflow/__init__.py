"""Pressure-drop/flow-rate relations for converging-diverging capillaries.

Closed-form laminar-flow solutions for five axisymmetric corrugation
profiles, an adaptive-quadrature evaluator of the underlying integral that
doubles as an independent check on them, and series/parallel composition
of tubes into hydraulic networks.

The quadrature exports load on first access (PEP 562), so ``import
capflow`` and the closed forms never import the quadrature module.  No
module imports numpy.
"""

from .analytic import (
    Fluid,
    HydraulicResistance,
    equivalent_radius,
    flow_rate,
    hydraulic_resistance,
    inverse_r4_integral,
    poiseuille_pressure_drop,
    pressure_drop,
)
from .errors import (
    CapillaryFlowError,
    EmptyCompositeError,
    FlowRangeError,
    GeometryRangeError,
    NetworkSpecError,
    NonPositiveLengthError,
    NonPositiveRadiusError,
    NonPositiveViscosityError,
    NotConvergedError,
    OutOfDomainError,
    QuadratureInputError,
    RadiusOrderError,
    StraightRadiusMismatchError,
    TooFewSamplesError,
    TooManySamplesError,
)
from .geometry import (
    CORRUGATED,
    ProfileTable,
    RadiusProfile,
    ShapeKind,
    make_profile,
    radius_array,
    radius_at,
    sample_profile,
)
from .network import (
    NetworkElement,
    Parallel,
    Series,
    Tube,
    network_flow_rate,
    network_pressure_drop,
    network_resistance,
)

__version__ = "0.1.0"

# Served by __getattr__, so that the quadrature module loads only when one is first used.
_QUADRATURE_EXPORTS = (
    "QuadratureConfig",
    "QuadratureResult",
    "VerificationReport",
    "DEFAULT_CONFIG",
    "adaptive_integrate",
    "integrate_inverse_r4",
    "numeric_pressure_drop",
    "verify_analytic",
    "random_profile",
    "verification_sweep",
)

__all__ = [
    "__version__",
    # geometry
    "ShapeKind",
    "CORRUGATED",
    "RadiusProfile",
    "ProfileTable",
    "make_profile",
    "radius_at",
    "radius_array",
    "sample_profile",
    # analytic
    "Fluid",
    "HydraulicResistance",
    "poiseuille_pressure_drop",
    "pressure_drop",
    "flow_rate",
    "hydraulic_resistance",
    "equivalent_radius",
    "inverse_r4_integral",
    # quadrature
    *_QUADRATURE_EXPORTS,
    # network
    "Tube",
    "Series",
    "Parallel",
    "NetworkElement",
    "network_resistance",
    "network_pressure_drop",
    "network_flow_rate",
    # errors
    "CapillaryFlowError",
    "NonPositiveRadiusError",
    "RadiusOrderError",
    "StraightRadiusMismatchError",
    "NonPositiveLengthError",
    "NonPositiveViscosityError",
    "OutOfDomainError",
    "GeometryRangeError",
    "FlowRangeError",
    "TooFewSamplesError",
    "TooManySamplesError",
    "QuadratureInputError",
    "EmptyCompositeError",
    "NotConvergedError",
    "NetworkSpecError",
]


def __getattr__(name: str):
    """Serve the quadrature exports, loading the quadrature module on first access."""
    if name in _QUADRATURE_EXPORTS:
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()).union(_QUADRATURE_EXPORTS))
