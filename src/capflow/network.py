"""Series/parallel composition of tube elements.

Flow through a series chain is at constant volumetric rate, so pressure
drops (and therefore resistances) add; a parallel junction holds a common
pressure drop, so flow rates (reciprocal resistances) add.  Composition is
done on the fluid-independent geometric factors and multiplied by the
viscosity once at the end, keeping resistance = mu * G exact.

Networks are restricted to finite series-parallel trees; arbitrary graphs
would need a linear solver and are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .analytic import Fluid, HydraulicResistance, inverse_r4_integral
from .errors import EmptyCompositeError
from .geometry import RadiusProfile
from .summation import neumaier_sum

__all__ = [
    "Tube",
    "Series",
    "Parallel",
    "NetworkElement",
    "network_resistance",
    "network_pressure_drop",
    "network_flow_rate",
]


@dataclass(frozen=True)
class Tube:
    """A leaf element: one capillary."""

    profile: RadiusProfile


@dataclass(frozen=True, init=False)
class Series:
    """Elements traversed one after another (pressure drops add)."""

    elements: tuple["NetworkElement", ...]

    def __init__(self, elements: Iterable["NetworkElement"]):
        elements = tuple(elements)
        if not elements:
            raise EmptyCompositeError("a series node needs at least one element")
        object.__setattr__(self, "elements", elements)


@dataclass(frozen=True, init=False)
class Parallel:
    """Elements sharing inlet and outlet (flow rates add)."""

    elements: tuple["NetworkElement", ...]

    def __init__(self, elements: Iterable["NetworkElement"]):
        elements = tuple(elements)
        if not elements:
            raise EmptyCompositeError("a parallel node needs at least one element")
        object.__setattr__(self, "elements", elements)


NetworkElement = Union[Tube, Series, Parallel]


def _geometric_factor(element: NetworkElement) -> float:
    """The composed G = (8/pi) * I of the subtree, in 1/m^3.

    Child contributions are accumulated with compensated summation in the
    stored child order, so permuting children moves the result by at most
    one final rounding.
    """
    if isinstance(element, Tube):
        return (8.0 / math.pi) * inverse_r4_integral(element.profile)
    if isinstance(element, Series):
        return neumaier_sum(_geometric_factor(child) for child in element.elements)
    if isinstance(element, Parallel):
        return 1.0 / neumaier_sum(
            1.0 / _geometric_factor(child) for child in element.elements
        )
    raise TypeError(f"not a network element: {element!r}")


def network_resistance(element: NetworkElement, fluid: Fluid) -> HydraulicResistance:
    """Total resistance of the tree: tubes compose by series/parallel rules."""
    g = _geometric_factor(element)
    return HydraulicResistance(resistance=fluid.viscosity * g, geometric_factor=g)


def network_pressure_drop(element: NetworkElement, flow_rate: float, fluid: Fluid) -> float:
    """P = resistance * Q across the whole network, in Pa.

    Raises FlowRangeError when Q is NaN or P overflows.
    """
    return network_resistance(element, fluid).pressure_drop(flow_rate)


def network_flow_rate(element: NetworkElement, pressure_drop: float, fluid: Fluid) -> float:
    """Q = P / resistance through the whole network, in m^3/s.

    Raises FlowRangeError when P is NaN or Q overflows.
    """
    return network_resistance(element, fluid).flow_rate(pressure_drop)
