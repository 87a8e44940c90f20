"""Pressure-drop/flow-rate relations for converging-diverging capillaries.

Closed-form laminar-flow solutions for five axisymmetric corrugation
profiles, an adaptive-quadrature evaluator of the underlying integral that
doubles as an independent check on them, and series/parallel composition
of tubes into hydraulic networks.

``_EXPORTS`` names each public name once, with the submodule that defines
it; ``__all__``, the names bound here and the lazy ones all come from it.
The quadrature exports load on first access (PEP 562), so ``import
capflow`` and the closed forms never import the quadrature module.  No
module imports numpy, click or dataclasses.
"""

from . import analytic, errors, geometry, network

__version__ = "0.1.0"

# Public name -> defining submodule, in __all__ order.
_EXPORTS = {
    name: module
    for module, names in (
        ("geometry", "ShapeKind CORRUGATED RadiusProfile ProfileTable make_profile radius_at radius_array"
                     " sample_profile"),
        ("analytic", "Fluid HydraulicResistance poiseuille_pressure_drop pressure_drop flow_rate"
                     " hydraulic_resistance equivalent_radius inverse_r4_integral"),
        ("quadrature", "QuadratureConfig QuadratureResult VerificationReport DEFAULT_CONFIG adaptive_integrate"
                       " integrate_inverse_r4 numeric_pressure_drop verify_analytic random_profile"
                       " verification_sweep"),
        ("network", "Tube Series Parallel NetworkElement network_resistance network_pressure_drop"
                    " network_flow_rate"),
        ("errors", "CapillaryFlowError NonPositiveRadiusError RadiusOrderError StraightRadiusMismatchError"
                   " UnknownShapeError NonPositiveLengthError NonPositiveViscosityError OutOfDomainError"
                   " GeometryRangeError FlowRangeError TooFewSamplesError TooManySamplesError"
                   " QuadratureInputError EmptyCompositeError NotConvergedError NetworkSpecError"),
    )
    for name in names.split()
}

# Every name but the quadrature module's (served by __getattr__) is bound now.
globals().update(
    (name, getattr(globals()[module], name)) for name, module in _EXPORTS.items() if module != "quadrature"
)

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Serve the quadrature exports, loading the quadrature module on first access."""
    if _EXPORTS.get(name) == "quadrature":
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
