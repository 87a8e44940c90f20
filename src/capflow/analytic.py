"""Closed-form pressure-drop, flow-rate, and resistance relations.

For laminar Newtonian flow at volumetric rate Q (m^3/s) through a tube with
axial radius profile r(x), the pressure drop is

    P = (8 Q mu / pi) * I,      I = integral dx / r(x)^4   over [-L/2, L/2]

with mu the viscosity (Pa*s).  A straight tube gives I = L/R^4 and the
familiar P = 8 Q mu L / (pi R^4).  Each corrugation profile admits a closed
form for I (all reduce to L/R^4 at r_min = r_max):

    straight     I = L / R^4
    conical      I = (L/3) (r_max^2 + r_max r_min + r_min^2) / (r_min^3 r_max^3)
    parabolic    I = (L/2) [ 1/(3 r_min r_max^3) + 5/(12 r_min^2 r_max^2)
                             + 5/(8 r_min^3 r_max) + 5 g(u)/(8 r_min^4) ],
                 u = (r_max - r_min)/r_min,  g(u) = arctan(sqrt(u))/sqrt(u)
    hyperbolic   I = (L/2) [ 1/(r_min^2 r_max^2) + g(v)/r_min^4 ],
                 v = (r_max^2 - r_min^2)/r_min^2
    cosh         I = (L/3) h(w) / r_min^4,   w = arccosh(r_max/r_min),
                 h(w) = tanh(w) (sech^2(w) + 2) / w
    sinusoidal   I = L [ 2 (r_max+r_min)^3 + 3 (r_max+r_min)(r_max-r_min)^2 ]
                     / (16 (r_max r_min)^(7/2))

The conical form above is the cancellation-free rewrite of the difference
of inverse cubes; g and h switch to Maclaurin series near the degenerate
limit (see the helpers).  The resistance factors as P/Q = mu * G with the
fluid-independent geometric factor G = (8/pi) I (units 1/m^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    FlowRangeError,
    GeometryRangeError,
    NonPositiveViscosityError,
)
from .geometry import RadiusProfile, ShapeKind, _acosh_of_ratio, make_profile

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

# Below this value of u (or v, or w^2) the arctan/tanh brackets switch to
# series; truncation error at the switch point is ~1e-25 relative.
_SERIES_SWITCH = 1e-6


@dataclass(frozen=True)
class Fluid:
    """A Newtonian fluid, described by its dynamic viscosity in Pa*s."""

    viscosity: float

    def __post_init__(self):
        if not (self.viscosity > 0.0) or not math.isfinite(self.viscosity):
            raise NonPositiveViscosityError(
                f"viscosity must be positive and finite, got {self.viscosity!r}"
            )


def _flow_range_error(quantity: str, value: float, **inputs: float) -> FlowRangeError:
    given = ", ".join(f"{name}={v!r}" for name, v in inputs.items())
    return FlowRangeError(f"{quantity} {value!r} is not a finite double for {given}")


@dataclass(frozen=True)
class HydraulicResistance:
    """P/Q for a tube or network.

    ``resistance`` is mu * geometric_factor (Pa*s/m^3);
    ``geometric_factor`` is the fluid-independent G = (8/pi) I (1/m^3).
    """

    resistance: float
    geometric_factor: float

    def pressure_drop(self, flow_rate: float) -> float:
        """P = resistance * Q, in Pa; FlowRangeError unless finite."""
        value = self.resistance * flow_rate
        if not math.isfinite(value):
            raise _flow_range_error("pressure drop", value, resistance=self.resistance, flow_rate=flow_rate)
        return value

    def flow_rate(self, pressure_drop: float) -> float:
        """Q = P / resistance, in m^3/s; FlowRangeError unless finite."""
        value = pressure_drop / self.resistance
        if not math.isfinite(value):
            raise _flow_range_error("flow rate", value, resistance=self.resistance, pressure_drop=pressure_drop)
        return value


def _arctan_bracket(u: float) -> float:
    """arctan(sqrt(u))/sqrt(u) for u >= 0.

    Series 1 - u/3 + u^2/5 - u^3/7 below the switch point, avoiding the
    0/0 form while keeping ~1e-16 relative accuracy there.
    """
    if u < _SERIES_SWITCH:
        return 1.0 - u / 3.0 + u * u / 5.0 - u * u * u / 7.0
    s = math.sqrt(u)
    return math.atan(s) / s


def _cosh_bracket(w: float) -> float:
    """tanh(w) * (sech(w)^2 + 2) / w for w >= 0; -> 3 as w -> 0.

    Maclaurin series 3 - 2 w^2 + (7/5) w^4 below the switch point.
    """
    if w < _SERIES_SWITCH:
        w2 = w * w
        return 3.0 - 2.0 * w2 + 1.4 * w2 * w2
    sech2 = 1.0 / math.cosh(w) ** 2
    return math.tanh(w) * (sech2 + 2.0) / w


def inverse_r4_integral(profile: RadiusProfile) -> float:
    """Closed-form I = integral of dx/r(x)^4 over [-L/2, L/2], in 1/m^3.

    Raises GeometryRangeError when the closed form does not give a
    positive finite double: float division by an underflowed zero and a
    power that overflows raise, while other steps quietly give 0 or inf.
    """
    rmin, rmax, length = profile.r_min, profile.r_max, profile.length
    kind = profile.kind

    try:
        if kind is ShapeKind.STRAIGHT:
            value = length / rmin ** 4

        elif kind is ShapeKind.CONICAL:
            num = rmax * rmax + rmax * rmin + rmin * rmin
            value = (length / 3.0) * num / (rmin ** 3 * rmax ** 3)

        elif kind is ShapeKind.PARABOLIC:
            u = (rmax - rmin) / rmin
            bracket = (
                1.0 / (3.0 * rmin * rmax ** 3)
                + 5.0 / (12.0 * rmin ** 2 * rmax ** 2)
                + 5.0 / (8.0 * rmin ** 3 * rmax)
                + 5.0 * _arctan_bracket(u) / (8.0 * rmin ** 4)
            )
            value = 0.5 * length * bracket

        elif kind is ShapeKind.HYPERBOLIC:
            # exact gap product, see geometry.shape_parameters
            v = (rmax - rmin) * (rmax + rmin) / (rmin * rmin)
            bracket = 1.0 / (rmin * rmin * rmax * rmax) + _arctan_bracket(v) / rmin ** 4
            value = 0.5 * length * bracket

        elif kind is ShapeKind.HYPERBOLIC_COSINE:
            w = _acosh_of_ratio(rmax, rmin)
            value = (length / 3.0) * _cosh_bracket(w) / rmin ** 4

        elif kind is ShapeKind.SINUSOIDAL:
            rsum = rmax + rmin
            rdiff = rmax - rmin
            num = 2.0 * rsum ** 3 + 3.0 * rsum * rdiff * rdiff
            rprod = rmax * rmin
            value = length * num / (16.0 * rprod ** 3 * math.sqrt(rprod))

        else:
            raise AssertionError(f"unhandled shape kind {kind!r}")
    except (ZeroDivisionError, OverflowError):
        value = math.nan

    # One comparison: false for 0, inf and nan alike.
    if not 0.0 < value < math.inf:
        raise GeometryRangeError(
            f"closed-form I = integral dx/r^4 is not a positive finite double "
            f"for {kind.value} tube r_min={rmin!r}, r_max={rmax!r}, length={length!r}"
        )
    return value


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
    return pressure_drop(make_profile(ShapeKind.STRAIGHT, radius, radius, length), flow_rate, fluid)


def pressure_drop(profile: RadiusProfile, flow_rate: float, fluid: Fluid) -> float:
    """Closed-form pressure drop P = (8 Q mu / pi) * I for the profile, in Pa.

    Linear in both Q and mu; sign follows Q; equals the straight-tube value
    when r_min == r_max.  Raises FlowRangeError when Q is NaN or P
    overflows.
    """
    value = (8.0 * flow_rate * fluid.viscosity / math.pi) * inverse_r4_integral(profile)
    if not math.isfinite(value):
        raise _flow_range_error("pressure drop", value, flow_rate=flow_rate, viscosity=fluid.viscosity)
    return value


def flow_rate(profile: RadiusProfile, pressure_drop: float, fluid: Fluid) -> float:
    """Flow rate Q = P / resistance, in m^3/s; the exact linear inverse.

    Raises FlowRangeError when P is NaN or Q overflows.
    """
    return hydraulic_resistance(profile, fluid).flow_rate(pressure_drop)


def hydraulic_resistance(profile: RadiusProfile, fluid: Fluid) -> HydraulicResistance:
    """Resistance P/Q = mu * G with G = (8/pi) * I, both strictly positive.

    Raises GeometryRangeError when G, and FlowRangeError when mu * G, is no
    positive finite double.
    """
    return _resistance_of((8.0 / math.pi) * inverse_r4_integral(profile), fluid)


def _resistance_of(g: float, fluid: Fluid) -> HydraulicResistance:
    """The HydraulicResistance mu * G of a geometric factor G = g, in 1/m^3.

    Raises GeometryRangeError unless G, and FlowRangeError unless mu * G,
    is a positive finite double.
    """
    if not 0.0 < g < math.inf:
        raise GeometryRangeError(f"geometric factor G = {g!r} is not a positive finite double")
    resistance = fluid.viscosity * g
    if not 0.0 < resistance < math.inf:
        raise FlowRangeError(
            f"resistance {resistance!r} is not a positive finite double "
            f"for viscosity={fluid.viscosity!r}, geometric_factor={g!r}"
        )
    return HydraulicResistance(resistance=resistance, geometric_factor=g)


def equivalent_radius(profile: RadiusProfile) -> float:
    """Radius of the straight tube with equal length and equal resistance.

    R_eq = (8 L / (pi G))^(1/4) = (L / I)^(1/4), clamped into
    [r_min, r_max] to absorb the ~1 ulp the root arithmetic can drift on
    degenerate profiles.
    """
    r_eq = (profile.length / inverse_r4_integral(profile)) ** 0.25
    return min(max(r_eq, profile.r_min), profile.r_max)
