"""Series/parallel composition of tube elements.

Flow through a series chain is at constant volumetric rate, so pressure
drops (and therefore resistances) add; a parallel junction holds a common
pressure drop, so flow rates (reciprocal resistances) add.  Composition is
done on the fluid-independent geometric factors and multiplied by the
viscosity once at the end, keeping resistance = mu * G exact.

Networks are restricted to finite series-parallel trees; arbitrary graphs
would need a linear solver and are out of scope.

A network spec is a JSON document of such a tree (the format ``capflow
network`` reads): ``parse_network_text`` builds the elements from its
text, and reports every problem as a NetworkSpecError at a document path.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

from ._record import _Record, _set
from .analytic import Fluid, HydraulicResistance, _resistance_of, inverse_r4_integral
from .errors import CapillaryFlowError, EmptyCompositeError, GeometryRangeError, NetworkSpecError
from .geometry import RadiusProfile, ShapeKind

__all__ = [
    "Tube",
    "Series",
    "Parallel",
    "NetworkElement",
    "network_resistance",
    "network_pressure_drop",
    "network_flow_rate",
    "parse_network_text",
]


class Tube(_Record):
    """A leaf element: one capillary."""

    __slots__ = ("profile",)

    def __init__(self, profile: RadiusProfile):
        _set(self, "profile", profile)


class _Composite(_Record):
    """A node of one or more elements; Series and Parallel differ only in how they compose."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable["NetworkElement"]):
        elements = tuple(elements)
        if not elements:
            raise EmptyCompositeError(f"a {type(self).__name__.lower()} node needs at least one element")
        _set(self, "elements", elements)


class Series(_Composite):
    """Elements traversed one after another (pressure drops add)."""

    __slots__ = ()


class Parallel(_Composite):
    """Elements sharing inlet and outlet (flow rates add)."""

    __slots__ = ()


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


# --- spec documents -------------------------------------------------------

# Shape tokens, as spec documents and the CLI name the shapes.
_TOKEN_TO_KIND = {kind.value: kind for kind in ShapeKind}
_TUBE_KEYS = frozenset(("type", "shape", "rmin", "rmax", "length"))
_COMPOSITE_KEYS = frozenset(("type", "elements"))
_FACTORIES = {"series": Series, "parallel": Parallel}


def _spec_error(message: str, frame) -> NetworkSpecError:
    """The error for the node being parsed in a _build_network frame, at its document path.

    That node is the frame's next child, at index len(children); each
    enclosing frame's node sits at the same index of its own frame.
    """
    indices = []
    while frame[3] is not None:
        indices.append(len(frame[2]))
        frame = frame[3]
    return NetworkSpecError(message, "$" + "".join(f".elements[{i}]" for i in reversed(indices)))


class _LongInteger(str):
    """The digits of an integer literal longer than int() converts; no double is that large."""

    __repr__ = str.__str__


def _integer(digits: str):
    try:
        return int(digits)
    except ValueError:
        return _LongInteger(digits)


def _spec_number(node: dict, key: str, frame) -> float:
    value = node[key]
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    elif type(value) is not _LongInteger:
        raise _spec_error(f'"{key}" must be a number, got {value!r}', frame)
    raise _spec_error(f'"{key}" is outside the double range, got {value!r}', frame)


def _tube(node: dict, frame) -> Tube:
    if node.keys() != _TUBE_KEYS:
        for key in ("shape", "rmin", "rmax", "length"):
            if key not in node:
                raise _spec_error(f'tube node missing "{key}"', frame)
        raise _spec_error(f'unknown key "{min(node.keys() - _TUBE_KEYS)}" in tube node', frame)
    shape = node["shape"]
    kind = _TOKEN_TO_KIND.get(shape) if type(shape) is str else None
    if kind is None:
        raise _spec_error(f'unknown shape {shape!r}; valid: {", ".join(_TOKEN_TO_KIND)}', frame)
    rmin, rmax, length = node["rmin"], node["rmax"], node["length"]
    if not (type(rmin) is type(rmax) is type(length) is float):
        rmin, rmax, length = [_spec_number(node, key, frame) for key in ("rmin", "rmax", "length")]
    try:
        return Tube(RadiusProfile(kind, rmin, rmax, length))
    except CapillaryFlowError as exc:
        raise _spec_error(f"{type(exc).__name__}: {exc}", frame) from exc


def _build_network(doc) -> NetworkElement:
    """The element tree of a decoded spec, by one walk with an explicit stack.

    Nodes are checked in document order, each before its children, so the
    first problem in the document is the one reported.
    """
    # A frame is (factory, remaining JSON elements, children built so far,
    # enclosing frame); the document sits alone in a root frame, which has
    # no enclosing one.
    stack = [(None, iter((doc,)), [], None)]
    while True:
        frame = stack[-1]
        build, remaining, children, enclosing = frame
        for node in remaining:
            if type(node) is not dict:
                raise _spec_error(f"expected an object, got {type(node).__name__}", frame)
            if "type" not in node:
                raise _spec_error('missing "type"', frame)
            node_type = node["type"]
            if node_type == "tube":
                children.append(_tube(node, frame))
                continue
            factory = _FACTORIES.get(node_type) if type(node_type) is str else None
            if factory is None:
                raise _spec_error(
                    f'unknown node type {node_type!r}; expected "tube", "series", or "parallel"',
                    frame,
                )
            if node.keys() != _COMPOSITE_KEYS:
                unknown = node.keys() - _COMPOSITE_KEYS
                if unknown:
                    raise _spec_error(f'unknown key "{min(unknown)}" in {node_type} node', frame)
                raise _spec_error(f'{node_type} node missing "elements"', frame)
            elements = node["elements"]
            if type(elements) is not list:
                raise _spec_error('"elements" must be an array', frame)
            stack.append((factory, iter(elements), [], frame))
            break
        else:
            # Every child of this frame is built.
            stack.pop()
            if enclosing is None:
                return children[0]
            try:
                element = build(children)
            except CapillaryFlowError as exc:
                raise _spec_error(f"{type(exc).__name__}: {exc}", enclosing) from exc
            enclosing[2].append(element)


def parse_network_text(text: str) -> NetworkElement:
    """Parse a network spec document (JSON) into a NetworkElement tree.

    Raises NetworkSpecError with a document location on any syntax or
    validation problem.  The tree is built without recursion, so the only
    depth limit is the JSON decoder's: nesting it cannot follow (about 490
    series/parallel levels) is reported as "nesting too deep to parse".
    """
    import json

    try:
        # An integer literal longer than int() converts stays text, so that
        # the node holding it reports it as outside the double range.
        doc = json.loads(text, parse_int=_integer)
    except json.JSONDecodeError as exc:
        raise NetworkSpecError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise NetworkSpecError("nesting too deep to parse", "$") from exc
    return _build_network(doc)


def _read_spec(path: str) -> str:
    """The file's text, newlines translated as a text-mode read translates them.

    Invalid UTF-8 is a NetworkSpecError at the line and column of the first
    bad byte.  CR and LF bytes occur in UTF-8 only as themselves, so the
    translation can run before decoding.
    """
    with open(path, "rb") as handle:
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        line = head.count("\n") + 1
        column = len(head) - head.rfind("\n")
        raise NetworkSpecError(f"invalid UTF-8: {exc.reason}", f"line {line} column {column}") from exc
