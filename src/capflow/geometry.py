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
holds each radius formula once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import (
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
    docstring); ``wavenumber`` (k, 1/m) and ``cos_offset`` are set for the
    sinusoidal shape only.  ``cos_offset`` is the constant in the factored
    integrand form -b*(cos_offset + cos(k x)), equal to -(mean/amplitude) =
    (r_max + r_min)/(r_min - r_max); it is < -1 for any genuine corrugation
    and -inf in the degenerate r_min == r_max limit.
    """

    a: float
    b: float
    wavenumber: float | None = None
    cos_offset: float | None = None


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
    """Coefficients a, b (and k, cos_offset for sinusoidal) of r(x)."""
    rmin, rmax, length = profile.r_min, profile.r_max, profile.length
    kind = profile.kind
    if kind is ShapeKind.STRAIGHT:
        return ShapeParameters(a=rmin, b=0.0)
    if kind is ShapeKind.CONICAL:
        return ShapeParameters(a=rmin, b=2.0 * (rmax - rmin) / length)
    if kind is ShapeKind.PARABOLIC:
        return ShapeParameters(a=rmin, b=(2.0 / length) ** 2 * (rmax - rmin))
    if kind is ShapeKind.HYPERBOLIC:
        # r_max^2 - r_min^2 as a product keeps the difference exact when
        # the radii are nearly equal.
        square_gap = (rmax - rmin) * (rmax + rmin)
        return ShapeParameters(a=rmin * rmin, b=(2.0 / length) ** 2 * square_gap)
    if kind is ShapeKind.HYPERBOLIC_COSINE:
        return ShapeParameters(a=rmin, b=2.0 * _acosh_of_ratio(rmax, rmin) / length)
    if kind is ShapeKind.SINUSOIDAL:
        mean = 0.5 * (rmax + rmin)
        amplitude = 0.5 * (rmax - rmin)
        offset = (rmax + rmin) / (rmin - rmax) if rmax > rmin else -math.inf
        return ShapeParameters(
            a=mean,
            b=amplitude,
            wavenumber=2.0 * math.pi / length,
            cos_offset=offset,
        )
    raise AssertionError(f"unhandled shape kind {kind!r}")


def _radius_function(profile: RadiusProfile) -> Callable[[np.ndarray], np.ndarray]:
    """r(x) of one profile as a vectorized function of in-domain positions.

    The shape coefficients are bound here, once, so repeated calls (one per
    quadrature generation) pay for no shape dispatch.  The function checks
    no domain and clamps into [r_min, r_max]: the formulas can drift a few
    ulp past the radii at the waist and the ends, and the geometric bounds
    are part of the contract.
    """
    import numpy as np

    p = shape_parameters(profile)
    a, b, k = p.a, p.b, p.wavenumber
    r_min, r_max = profile.r_min, profile.r_max
    kind = profile.kind
    if kind is ShapeKind.STRAIGHT:
        formula = lambda x: np.full_like(x, r_min)
    elif kind is ShapeKind.CONICAL:
        formula = lambda x: a + b * np.abs(x)
    elif kind is ShapeKind.PARABOLIC:
        formula = lambda x: a + b * np.square(x)
    elif kind is ShapeKind.HYPERBOLIC:
        formula = lambda x: np.sqrt(a + b * np.square(x))
    elif kind is ShapeKind.HYPERBOLIC_COSINE:
        formula = lambda x: a * np.cosh(b * x)
    else:
        formula = lambda x: a - b * np.cos(k * x)

    def radius(x: np.ndarray) -> np.ndarray:
        # np.clip's semantics without its Python-level wrapper.
        return np.minimum(np.maximum(formula(x), r_min), r_max)

    return radius


def _check_domain(profile: RadiusProfile, x: np.ndarray) -> np.ndarray:
    import numpy as np

    limit = profile.half_length * (1.0 + DOMAIN_TOLERANCE)
    bad = np.abs(x) > limit
    if bad.any():
        worst = float(np.asarray(x)[bad].flat[0])
        raise OutOfDomainError(
            f"x={worst!r} lies outside [-L/2, L/2] = "
            f"[{-profile.half_length!r}, {profile.half_length!r}]"
        )
    return np.clip(x, -profile.half_length, profile.half_length)


def radius_at(profile: RadiusProfile, x: float) -> float:
    """r(x) at a single axial position x in [-L/2, L/2] (metres).

    Positions within 1e-12*L beyond the boundary are treated as boundary
    values; anything farther out raises OutOfDomainError.
    """
    import numpy as np

    xs = _check_domain(profile, np.asarray(float(x)))
    return float(_radius_function(profile)(xs))


def radius_array(profile: RadiusProfile, x) -> np.ndarray:
    """Vectorized :func:`radius_at` over an array of positions."""
    import numpy as np

    xs = _check_domain(profile, np.asarray(x, dtype=float))
    return _radius_function(profile)(xs)


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

    Raises TooFewSamplesError when n_samples < 2.
    """
    if n_samples < 2:
        raise TooFewSamplesError(f"need at least 2 samples, got {n_samples}")
    import numpy as np

    xs = np.linspace(-profile.half_length, profile.half_length, int(n_samples))
    return ProfileTable(x=xs, r=_radius_function(profile)(xs))
