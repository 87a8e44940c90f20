"""Exception types raised by capflow.

Every domain error derives from :class:`CapillaryFlowError` and, where it
signals a bad input value, also from :class:`ValueError`, so callers can
catch either the package hierarchy or the builtin one.
"""

from __future__ import annotations


class CapillaryFlowError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveRadiusError(CapillaryFlowError, ValueError):
    """A radius was zero or negative."""


class RadiusOrderError(CapillaryFlowError, ValueError):
    """r_max was smaller than r_min."""


class StraightRadiusMismatchError(CapillaryFlowError, ValueError):
    """A straight profile was given r_min != r_max."""


class NonPositiveLengthError(CapillaryFlowError, ValueError):
    """A tube length was zero or negative."""


class NonPositiveViscosityError(CapillaryFlowError, ValueError):
    """A fluid viscosity was zero or negative."""


class OutOfDomainError(CapillaryFlowError, ValueError):
    """An axial position fell outside [-L/2, L/2]."""


class GeometryRangeError(CapillaryFlowError, ValueError):
    """The closed form for I = integral dx/r^4 gave no positive finite double.

    The radii and length are valid on their own, but evaluating the closed
    form for this combination of them under- or overflows double precision.
    Also raised when a network's composed geometric factor leaves the
    positive finite doubles.
    """


class FlowRangeError(CapillaryFlowError, ValueError):
    """A pressure drop, flow rate or resistance came out as no finite double.

    Either an input was NaN, or the product or quotient of finite inputs
    overflowed double precision; a resistance that underflows to 0 is out
    of range too.
    """


class TooFewSamplesError(CapillaryFlowError, ValueError):
    """A profile table was requested with fewer than two samples."""


class EmptyCompositeError(CapillaryFlowError, ValueError):
    """A series or parallel network node had no elements."""


class NotConvergedError(CapillaryFlowError, RuntimeError):
    """Adaptive integration stopped before reaching the requested tolerance.

    The partial result (best value so far, with ``converged=False``) is
    attached as :attr:`result`.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class NetworkSpecError(CapillaryFlowError, ValueError):
    """A network spec document failed to parse or validate.

    :attr:`location` holds a path into the document (e.g.
    ``elements[2].rmin``) or a line/column reference for syntax errors.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
