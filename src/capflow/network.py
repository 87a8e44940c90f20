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

from .analytic import Fluid, HydraulicResistance, _resistance_of, inverse_r4_integral
from .errors import EmptyCompositeError, GeometryRangeError
from .geometry import RadiusProfile

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
    """The composed G = (8/pi) * I of the tree, in 1/m^3.

    A post-order walk with an explicit stack, so a tree of any depth
    composes.  Series factors and parallel reciprocals are summed by
    math.fsum, which rounds correctly, so the order of children cannot
    change the result.  Raises GeometryRangeError when a sum overflows or a
    parallel child's factor is 0.
    """
    # Each frame is (is_series, remaining children, factors of the children
    # done so far); the root sits alone in a series frame, which passes its
    # factor through unchanged.
    stack = [(True, iter((element,)), [])]
    try:
        while True:
            is_series, remaining, factors = stack[-1]
            for node in remaining:
                if isinstance(node, Tube):
                    factors.append((8.0 / math.pi) * inverse_r4_integral(node.profile))
                elif isinstance(node, Series):
                    stack.append((True, iter(node.elements), []))
                    break
                elif isinstance(node, Parallel):
                    stack.append((False, iter(node.elements), []))
                    break
                else:
                    raise TypeError(f"not a network element: {node!r}")
            else:
                stack.pop()
                if is_series:
                    g = math.fsum(factors)
                else:
                    g = 1.0 / math.fsum([1.0 / f for f in factors])
                if not stack:
                    return g
                stack[-1][2].append(g)
    except (OverflowError, ZeroDivisionError) as exc:
        raise GeometryRangeError(
            "the composed geometric factor G of a subtree leaves the double range"
        ) from exc


def network_resistance(element: NetworkElement, fluid: Fluid) -> HydraulicResistance:
    """Total resistance of the tree: tubes compose by series/parallel rules.

    Raises GeometryRangeError when the composed G is no positive finite
    double, and FlowRangeError when mu * G is not.
    """
    return _resistance_of(_geometric_factor(element), fluid)


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
