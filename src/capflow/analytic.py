"""Closed-form pressure-drop, flow-rate, and resistance relations.

For laminar Newtonian flow at volumetric rate Q (m^3/s) through a tube with
axial radius profile r(x), the pressure drop is

    P = (8 Q mu / pi) * I,      I = integral dx / r(x)^4   over [-L/2, L/2]

with mu the viscosity (Pa*s).  A straight tube gives I = L/R^4 and the
familiar P = 8 Q mu L / (pi R^4).  Every profile has a closed form
I = L F(d) / r_min^4, with d = (r_max - r_min)/r_min and the dimensionless
F(d) in (0, 1] of the profile's entry in ``geometry._SHAPES`` (see the
``geometry`` docstring for the table; F = 1 at d = 0, so each reduces to
L/R^4).  The profile evaluated its F once, when it was built; the closed
forms read that value.  The scaling L/r_min^4 is applied once, through
frexp/ldexp, so only I itself is rounded into the double range; the
quadrature oracle scales its integral of F the same way.  The resistance
factors as P/Q = mu * G with the fluid-independent geometric factor
G = (8/pi) I (units 1/m^3).
"""

from __future__ import annotations

import math
from math import frexp, ldexp

from ._record import _Record
from .errors import FlowRangeError, GeometryRangeError, NonPositiveViscosityError, _shown
from .geometry import (
    _INF, _STRAIGHT, RadiusProfile, _finite_above, _range_error, _ratio_range_error, make_profile,
)

__all__ = [
    "Fluid",
    "HydraulicResistance",
    "poiseuille_pressure_drop",
    "pressure_drop",
    "flow_rate",
    "hydraulic_resistance",
    "equivalent_radius",
    "inverse_r4_integral",
]

class Fluid(_Record):
    """A Newtonian fluid, described by its dynamic viscosity in Pa*s."""

    __slots__ = ("viscosity",)

    def __init__(self, viscosity: float):
        if not _finite_above(viscosity, 0.0):
            raise NonPositiveViscosityError(f"viscosity must be positive and finite, got {_shown(viscosity)}")
        self._setters[0](self, viscosity)


def _flow_range_error(quantity: str, value: float | None, **inputs: float) -> FlowRangeError:
    """The error of a flow quantity that is no finite double; its value None where the arithmetic overflowed."""
    given = ", ".join(f"{name}={_shown(v)}" for name, v in inputs.items())
    if value is None:
        return FlowRangeError(f"{quantity} is not a finite double for {given}: an input exceeds the double range")
    return FlowRangeError(f"{quantity} {value!r} is not a finite double for {given}")


class HydraulicResistance(_Record):
    """P/Q for a tube or network.

    ``resistance`` is mu * geometric_factor (Pa*s/m^3);
    ``geometric_factor`` is the fluid-independent G = (8/pi) I (1/m^3).
    """

    __slots__ = ("resistance", "geometric_factor")

    def pressure_drop(self, flow_rate: float) -> float:
        """P = resistance * Q, in Pa; FlowRangeError unless finite."""
        try:
            value = self.resistance * flow_rate
        except OverflowError:  # an int beyond the double range
            raise _flow_range_error(
                "pressure drop", None, resistance=self.resistance, flow_rate=flow_rate
            ) from None
        if not math.isfinite(value):
            raise _flow_range_error("pressure drop", value, resistance=self.resistance, flow_rate=flow_rate)
        return value

    def flow_rate(self, pressure_drop: float) -> float:
        """Q = P / resistance, in m^3/s; FlowRangeError unless finite."""
        return _flow_rate_of(self.resistance, pressure_drop)


def _flow_rate_of(resistance: float, pressure_drop: float) -> float:
    """Q = P / resistance for a given resistance; FlowRangeError unless finite."""
    try:
        value = pressure_drop / resistance
    except OverflowError:  # an int beyond the double range
        raise _flow_range_error(
            "flow rate", None, resistance=resistance, pressure_drop=pressure_drop
        ) from None
    if not math.isfinite(value):
        raise _flow_range_error("flow rate", value, resistance=resistance, pressure_drop=pressure_drop)
    return value


def _integral(profile: RadiusProfile, f: float, source: str = "") -> float:
    """I = L f / r_min^4 from the dimensionless f = F(d), or from its error.

    Through frexp/ldexp: r_min^4 is never formed, so only the result is
    rounded into the double range (and f's last bits only when f itself
    is subnormal).  Given a ``source`` of f, raises GeometryRangeError
    naming it unless I is a positive finite double; without one, gives
    inf where I overflows.
    """
    length, length_exp = frexp(profile.length)
    radius, radius_exp = frexp(profile.r_min)
    try:
        value = ldexp(length * f / radius ** 4, length_exp - 4 * radius_exp)
    except OverflowError:
        value = math.inf
    # One comparison: false for 0, inf and nan alike.
    if source and not 0.0 < value < _INF:
        raise _range_error(profile, f"{source} I = integral dx/r^4 is not a positive finite double")
    return value


def inverse_r4_integral(profile: RadiusProfile) -> float:
    """Closed-form I = integral of dx/r(x)^4 over [-L/2, L/2], in 1/m^3.

    Raises GeometryRangeError when I, or r_max/r_min, is no positive
    finite double; a subnormal I is returned.
    """
    f = profile._f
    if f is None:
        raise _ratio_range_error(profile)
    return _integral(profile, f, "closed-form")


def poiseuille_pressure_drop(radius: float, length: float, flow_rate: float, fluid: Fluid) -> float:
    """Straight-tube pressure drop P = 8 Q mu L / (pi R^4), in Pa.

    The straight-tube case of :func:`pressure_drop`, with its validation and
    range checks.

    Args:
        radius: tube radius R (m), > 0.
        length: tube length L (m), > 0.
        flow_rate: volumetric rate Q (m^3/s), signed.
        fluid: the fluid; its viscosity scales P linearly.
    """
    return pressure_drop(make_profile(_STRAIGHT, radius, radius, length), flow_rate, fluid)


def pressure_drop(profile: RadiusProfile, flow_rate: float, fluid: Fluid) -> float:
    """Closed-form pressure drop P = (8 Q mu / pi) * I for the profile, in Pa.

    Linear in both Q and mu; sign follows Q; equals the straight-tube value
    when r_min == r_max.  Raises FlowRangeError when Q is NaN or P
    overflows.
    """
    return _pressure_drop_of(inverse_r4_integral(profile), flow_rate, fluid)


def _pressure_drop_of(integral: float, flow_rate: float, fluid: Fluid) -> float:
    """P = (8 Q mu / pi) * I for a given I; FlowRangeError unless finite."""
    try:
        value = (8.0 * flow_rate * fluid.viscosity / math.pi) * integral
    except OverflowError:  # an int beyond the double range
        raise _flow_range_error(
            "pressure drop", None, flow_rate=flow_rate, viscosity=fluid.viscosity
        ) from None
    if not math.isfinite(value):
        raise _flow_range_error("pressure drop", value, flow_rate=flow_rate, viscosity=fluid.viscosity)
    return value


def flow_rate(profile: RadiusProfile, pressure_drop: float, fluid: Fluid) -> float:
    """Flow rate Q = P / resistance, in m^3/s; the exact linear inverse.

    Raises what ``hydraulic_resistance(profile, fluid).flow_rate(pressure_drop)``
    raises, in the same order, without building the record: GeometryRangeError
    or FlowRangeError for G or mu * G, then FlowRangeError when P is NaN or Q
    overflows.
    """
    return _flow_rate_of(_resistance_of((8.0 / math.pi) * inverse_r4_integral(profile), fluid), pressure_drop)


def hydraulic_resistance(profile: RadiusProfile, fluid: Fluid) -> HydraulicResistance:
    """Resistance P/Q = mu * G with G = (8/pi) * I, both strictly positive.

    Raises GeometryRangeError when G, and FlowRangeError when mu * G, is no
    positive finite double.
    """
    g = (8.0 / math.pi) * inverse_r4_integral(profile)
    return HydraulicResistance(_resistance_of(g, fluid), g)


def _resistance_of(g: float, fluid: Fluid) -> float:
    """The resistance mu * G of a geometric factor G = g in 1/m^3, in Pa*s/m^3.

    Raises GeometryRangeError unless G, and FlowRangeError unless mu * G,
    is a positive finite double.
    """
    if not 0.0 < g < _INF:
        raise GeometryRangeError(f"geometric factor G = {g!r} is not a positive finite double")
    resistance = fluid.viscosity * g
    if not 0.0 < resistance < _INF:
        raise FlowRangeError(
            f"resistance {resistance!r} is not a positive finite double "
            f"for viscosity={fluid.viscosity!r}, geometric_factor={g!r}"
        )
    return resistance


def equivalent_radius(profile: RadiusProfile) -> float:
    """Radius of the straight tube with equal length and equal resistance.

    R_eq = (L / I)^(1/4) = r_min F(d)^(-1/4), which stays in range even
    where I does not; clamped into [r_min, r_max] to absorb the ~1 ulp the
    root arithmetic can drift on degenerate profiles.  Raises
    GeometryRangeError only when r_max/r_min exceeds the double range.
    """
    f = profile._f
    if f is None:
        raise _ratio_range_error(profile)
    r_eq = profile.r_min * f ** -0.25
    return min(max(r_eq, profile.r_min), profile.r_max)
