"""Exception types raised by capflow.

Every domain error derives from :class:`CapillaryFlowError` and, where it
signals a bad input value, also from :class:`ValueError`, so callers can
catch either the package hierarchy or the builtin one.  An input that is
no number at all, given to ``RadiusProfile``, ``make_profile`` or another
constructor, raises the error of a bad value of that input; a profile
kind that is no ``ShapeKind`` raises :class:`UnknownShapeError`.

A message shows an input as ``repr`` prints it (see ``_shown``); an int
too long to print (more digits than ``sys.get_int_max_str_digits()``
allows) is named, as ``<int too long to print>``, not shown.
"""

from __future__ import annotations


def _shown(value) -> str:
    """An input as a message shows it: its repr, or its type named where repr cannot print it."""
    try:
        return repr(value)
    except ValueError:  # an int, or a container of one, with too many digits
        return f"<{type(value).__name__} too long to print>"


class CapillaryFlowError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveRadiusError(CapillaryFlowError, ValueError):
    """A radius was zero, negative, NaN or infinite, or not a number at all."""


class RadiusOrderError(CapillaryFlowError, ValueError):
    """r_max was smaller than r_min."""


class StraightRadiusMismatchError(CapillaryFlowError, ValueError):
    """A straight profile was given r_min != r_max."""


class NonPositiveLengthError(CapillaryFlowError, ValueError):
    """A tube length was zero, negative, NaN or infinite, or not a number at all."""


class NonPositiveViscosityError(CapillaryFlowError, ValueError):
    """A fluid viscosity was zero, negative, NaN or infinite, or not a number at all."""


class UnknownShapeError(CapillaryFlowError, ValueError):
    """A profile's kind was no ``ShapeKind``: a shape token string, None or any other value."""


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

    Either an input was NaN or beyond the double range (an int such as
    10**400), or the product or quotient of finite inputs overflowed double
    precision; a resistance that underflows to 0 is out of range too.
    """


class TooFewSamplesError(CapillaryFlowError, ValueError):
    """A profile table was requested with fewer than two samples, NaN of them, or no number of them."""


class TooManySamplesError(CapillaryFlowError, ValueError):
    """A profile table was requested with more than ``geometry.MAX_SAMPLES`` samples."""


class QuadratureInputError(CapillaryFlowError, ValueError):
    """A setting of the integrator or the sweep was invalid.

    A tolerance (a non-number included) or depth limit of
    ``QuadratureConfig``, an empty or reversed interval of
    ``adaptive_integrate`` or one with an infinite bound or a bound beyond
    the double range, or a trial count of ``verification_sweep`` that is
    no integer of at least 1 or a seed that is no non-negative integer.
    """


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
