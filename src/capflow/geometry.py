"""Converging-diverging capillary geometry.

An axisymmetric tube of length L occupies the axial interval
x in [-L/2, L/2].  Its radius r(x) is r_min at the waist (x = 0) and r_max
at both ends, following one of five corrugation profiles:

    conical      r(x) = a + b|x|          a = r_min,   b = 2(r_max - r_min)/L
    parabolic    r(x) = a + b x^2         a = r_min,   b = (2/L)^2 (r_max - r_min)
    hyperbolic   r(x) = sqrt(a + b x^2)   a = r_min^2, b = (2/L)^2 (r_max^2 - r_min^2)
    cosh         r(x) = a cosh(b x)       a = r_min,   b = (2/L) arccosh(r_max/r_min)
    sinusoidal   r(x) = a - b cos(k x)    a = (r_max + r_min)/2,
                                          b = (r_max - r_min)/2,  k = 2 pi/L

plus the straight tube r(x) = R as the baseline.  The sinusoidal tube spans
exactly one full wavelength.  All quantities are SI (metres).

numpy is imported by the functions that build arrays, not by this module,
so the closed forms and networks that only need profiles never load it.
Every array of radii comes from one builder, ``_radius_function``, which
holds each radius formula once and returns it bare.  The public samplers
(``radius_at``, ``radius_array``, ``sample_profile``) check the domain and
clamp the formula's few-ulp drift into [r_min, r_max] in ``_radii``; the
quadrature oracle calls the bare formula.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import (
    GeometryRangeError,
    NonPositiveLengthError,
    NonPositiveRadiusError,
    OutOfDomainError,
    RadiusOrderError,
    StraightRadiusMismatchError,
    TooFewSamplesError,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DOMAIN_TOLERANCE",
    "ShapeKind",
    "CORRUGATED",
    "RadiusProfile",
    "ShapeParameters",
    "ProfileTable",
    "make_profile",
    "shape_parameters",
    "radius_at",
    "radius_array",
    "sample_profile",
]

# Relative slack on |x| <= L/2, absorbing endpoint rounding from samplers
# and quadrature nodes that land exactly on the boundary.
DOMAIN_TOLERANCE = 1e-12


class ShapeKind(enum.Enum):
    """The supported radius profiles. Values double as CLI shape tokens."""

    STRAIGHT = "straight"
    CONICAL = "conical"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    HYPERBOLIC_COSINE = "cosh"
    SINUSOIDAL = "sinusoidal"


# Every shape except the straight baseline, in declaration order: the
# shapes with a corrugation for the closed forms and the oracle to check.
CORRUGATED = (
    ShapeKind.CONICAL,
    ShapeKind.PARABOLIC,
    ShapeKind.HYPERBOLIC,
    ShapeKind.HYPERBOLIC_COSINE,
    ShapeKind.SINUSOIDAL,
)


@dataclass(frozen=True)
class RadiusProfile:
    """A tube geometry: shape plus (r_min, r_max, length), all in metres.

    For ``ShapeKind.STRAIGHT`` the two radii must be equal.  ``r_min ==
    r_max`` is allowed for every kind and degenerates cleanly to a
    constant radius.
    """

    kind: ShapeKind
    r_min: float
    r_max: float
    length: float

    def __post_init__(self):
        if not (self.r_min > 0.0) or not math.isfinite(self.r_min):
            raise NonPositiveRadiusError(
                f"r_min must be a positive finite length, got {self.r_min!r}"
            )
        if not math.isfinite(self.r_max):
            raise NonPositiveRadiusError(
                f"r_max must be a positive finite length, got {self.r_max!r}"
            )
        if self.r_max < self.r_min:
            raise RadiusOrderError(
                f"r_max must not be smaller than r_min "
                f"(got r_max={self.r_max!r} < r_min={self.r_min!r})"
            )
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise NonPositiveLengthError(
                f"length must be a positive finite length, got {self.length!r}"
            )
        if self.kind is ShapeKind.STRAIGHT and self.r_max != self.r_min:
            raise StraightRadiusMismatchError(
                f"a straight tube needs r_min == r_max "
                f"(got {self.r_min!r} and {self.r_max!r})"
            )

    @property
    def half_length(self) -> float:
        return 0.5 * self.length


@dataclass(frozen=True)
class ShapeParameters:
    """Derived coefficients of r(x) for one profile.

    ``a`` and ``b`` carry shape-dependent meaning and units (see the module
    docstring); ``wavenumber`` (k, 1/m) is set for the sinusoidal shape only.
    """

    a: float
    b: float
    wavenumber: float | None = None


def make_profile(kind: ShapeKind, r_min: float, r_max: float, length: float) -> RadiusProfile:
    """Validate and build a profile.

    Raises NonPositiveRadiusError, RadiusOrderError, NonPositiveLengthError,
    or StraightRadiusMismatchError on bad inputs.
    """
    return RadiusProfile(kind, float(r_min), float(r_max), float(length))


def _acosh_of_ratio(r_max: float, r_min: float) -> float:
    """arccosh(r_max/r_min) = ln(z + sqrt(z^2 - 1)) with z = r_max/r_min >= 1.

    Written as log1p(d + sqrt(d*(d + 2))) with d = (r_max - r_min)/r_min,
    which is the same formula kept exact as z -> 1: the subtraction is
    exact there and nothing cancels.
    """
    d = (r_max - r_min) / r_min
    return math.log1p(d + math.sqrt(d * (d + 2.0)))


def shape_parameters(profile: RadiusProfile) -> ShapeParameters:
    """Coefficients a, b (and k for sinusoidal) of r(x).

    Raises GeometryRangeError when a coefficient is no finite double, as
    when r_max/r_min or 1/L exceeds the double range, and when the
    hyperbolic a = r_min^2 underflows to zero or a subnormal.
    """
    rmin, rmax, length = profile.r_min, profile.r_max, profile.length
    kind = profile.kind
    k = 0.0
    try:
        if kind is ShapeKind.STRAIGHT:
            a, b = rmin, 0.0
        elif kind is ShapeKind.CONICAL:
            a, b = rmin, 2.0 * (rmax - rmin) / length
        elif kind is ShapeKind.PARABOLIC:
            a, b = rmin, (2.0 / length) ** 2 * (rmax - rmin)
        elif kind is ShapeKind.HYPERBOLIC:
            # r_max^2 - r_min^2 as a product keeps the difference exact when
            # the radii are nearly equal.
            a, b = rmin * rmin, (2.0 / length) ** 2 * ((rmax - rmin) * (rmax + rmin))
        elif kind is ShapeKind.HYPERBOLIC_COSINE:
            a, b = rmin, 2.0 * _acosh_of_ratio(rmax, rmin) / length
        else:
            a, b, k = 0.5 * (rmax + rmin), 0.5 * (rmax - rmin), 2.0 * math.pi / length
        finite = math.isfinite(a) and math.isfinite(b) and math.isfinite(k)
    except OverflowError:
        finite = False
    if not finite:
        raise _range_error(profile, "the coefficients of r(x) are not finite doubles")
    if kind is ShapeKind.HYPERBOLIC and a < sys.float_info.min:
        # r_min below ~1.5e-154: a zero or subnormal r_min^2 would put r(x)
        # off by up to a factor sqrt(2), still inside [r_min, r_max].
        raise _range_error(profile, "the coefficient r_min**2 of r(x) is no normal double")
    return ShapeParameters(a, b, k if kind is ShapeKind.SINUSOIDAL else None)


def _range_error(profile: RadiusProfile, problem: str) -> GeometryRangeError:
    return GeometryRangeError(
        f"{problem} for {profile.kind.value} tube "
        f"r_min={profile.r_min!r}, r_max={profile.r_max!r}, length={profile.length!r}"
    )


def _radius_function(profile: RadiusProfile) -> Callable[[np.ndarray], np.ndarray]:
    """r(x) of one profile as a vectorized function of in-domain positions.

    The shape coefficients are bound here, once, so repeated calls (one per
    quadrature generation) pay for no shape dispatch.  The function is the
    bare formula: it checks no domain and does not clamp, so it can drift a
    few ulp past r_min at the waist and r_max at the ends.  Each formula is
    even in x by construction (|x|, x^2, cosh, cos), which the oracle's
    fold onto [0, L/2] relies on.
    """
    import numpy as np

    p = shape_parameters(profile)
    a, b, k = p.a, p.b, p.wavenumber
    kind = profile.kind
    if kind is ShapeKind.STRAIGHT:
        return lambda x: np.full_like(x, a)
    if kind is ShapeKind.CONICAL:
        return lambda x: a + b * np.abs(x)
    if kind is ShapeKind.PARABOLIC:
        return lambda x: a + b * np.square(x)
    if kind is ShapeKind.HYPERBOLIC:
        return lambda x: np.sqrt(a + b * np.square(x))
    if kind is ShapeKind.HYPERBOLIC_COSINE:
        return lambda x: a * np.cosh(b * x)
    return lambda x: a - b * np.cos(k * x)


def _radii(profile: RadiusProfile, xs: np.ndarray) -> np.ndarray:
    """r at in-domain positions, for the public samplers.

    Each radius is a finite double in [r_min, r_max]: the formula's drift
    past the radii is clamped off here, because the geometric bounds are
    part of the samplers' contract.  Raises GeometryRangeError when a step
    of evaluating r(x) overflows or gives NaN, since the clamp would
    silently turn an inf into r_max.
    """
    import numpy as np

    radius = _radius_function(profile)
    try:
        with np.errstate(over="raise", invalid="raise"):
            # np.clip's semantics without its Python-level wrapper.
            return np.minimum(np.maximum(radius(xs), profile.r_min), profile.r_max)
    except FloatingPointError:
        raise _range_error(profile, "the values of r(x) are not finite doubles") from None


def radius_at(profile: RadiusProfile, x: float) -> float:
    """r(x) at a single axial position x in [-L/2, L/2] (metres).

    Positions within 1e-12*L beyond the boundary are treated as boundary
    values; anything farther out, NaN, or a number beyond the double range
    raises OutOfDomainError.  Raises GeometryRangeError when r(x) cannot be
    evaluated in double precision.
    """
    return float(radius_array(profile, x))


def radius_array(profile: RadiusProfile, x) -> np.ndarray:
    """Vectorized :func:`radius_at` over an array of positions."""
    import numpy as np

    try:
        x = np.asarray(x, dtype=float)
    except OverflowError:
        raise OutOfDomainError(
            f"a position lies outside [-L/2, L/2] = [{-profile.half_length!r}, "
            f"{profile.half_length!r}]: it exceeds the double range"
        ) from None
    bad = ~(np.abs(x) <= profile.half_length * (1.0 + DOMAIN_TOLERANCE))
    if bad.any():
        raise OutOfDomainError(
            f"x={float(x[bad].flat[0])!r} lies outside [-L/2, L/2] = "
            f"[{-profile.half_length!r}, {profile.half_length!r}]"
        )
    return _radii(profile, np.clip(x, -profile.half_length, profile.half_length))


@dataclass(frozen=True)
class ProfileTable:
    """Uniformly spaced (x, r) samples spanning [-L/2, L/2] inclusive."""

    x: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.x.setflags(write=False)
        self.r.setflags(write=False)

    def __len__(self) -> int:
        return len(self.x)

    def rows(self) -> Iterator[tuple[float, float]]:
        for xi, ri in zip(self.x, self.r):
            yield float(xi), float(ri)


def sample_profile(profile: RadiusProfile, n_samples: int) -> ProfileTable:
    """Sample r(x) at n_samples uniform points, endpoints included.

    Raises TooFewSamplesError when n_samples < 2, and GeometryRangeError
    when r(x) cannot be evaluated in double precision.
    """
    if n_samples < 2:
        raise TooFewSamplesError(f"need at least 2 samples, got {n_samples}")
    import numpy as np

    # For L near the largest double, linspace's last step overflows before
    # it is replaced by the endpoint.
    with np.errstate(over="ignore"):
        xs = np.linspace(-profile.half_length, profile.half_length, int(n_samples))
    return ProfileTable(x=xs, r=_radii(profile, xs))
