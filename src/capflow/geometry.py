"""Converging-diverging capillary geometry.

A tube of length L occupies x in [-L/2, L/2], with radius r_min at the
waist (x = 0) and r_max at both ends.  Each profile is written once, in
dimensionless form: with t = 2|x|/L in [0, 1] and d = (r_max - r_min)/r_min,
r = r_min rho(t; d), rho in [1, 1 + d], and I = int dx/r^4 = L F(d)/r_min^4,
F(d) = int_0^1 rho^-4 dt in (0, 1].  With u = 1/(1 + d) and
g(v) = arctan(sqrt v)/sqrt v:

    straight     rho = 1                            F = 1
    conical      rho = 1 + d t                      F = u (1 + u + u^2) / 3
    parabolic    rho = 1 + d t^2                    F = [u (5/8 + 5u/12 + u^2/3) + 5 g(d)/8] / 2
    hyperbolic   rho = hypot(1, t sqrt(d (d + 2)))  F = [u^2 + g(d (d + 2))] / 2
    cosh         rho = cosh(w t)                    F = tanh(w) (3 - tanh(w)^2) / (3 w)
    sinusoidal   rho = 1 + d sin^2(pi t / 2)        F = (1 + u) [2 (1 + u)^2 + 3 (d u)^2] / (16 sqrt(1 + d))

with w = arccosh(1 + d).  The straight tube (r_min = r_max) is the
baseline; the sinusoidal tube spans one full wavelength.  No F cancels or
overflows for a finite d: sqrt(d) sqrt(d + 2) stands in for sqrt(d (d + 2)),
w = ln 2 + log1p(d) once d (d + 2) overflows, and g switches to its series
near 0.  All quantities are SI (metres).

The private table ``_SHAPES`` is the only home of rho and F: the samplers
here compute r from rho, the closed forms of ``analytic`` are F, and the
oracle of ``quadrature`` integrates rho, all over Python floats through
``math``.  A ``RadiusProfile`` evaluates its F(d) once, when it is built,
and keeps it in a derived slot (no field: it takes no part in equality,
repr or pickling); every closed form reads that value, and no other code
evaluates F.  The samplers (``radius_at``, ``radius_array``,
``sample_profile``) check the domain, return r_max itself at x = +-L/2 and
clamp rho's few-ulp drift into [r_min, r_max]; the oracle uses rho bare.

``RadiusProfile`` checks its rules one by one and raises the first broken
rule's error.  Each "positive finite" rule is one call of
``_finite_above``, the one finite-input check that ``analytic`` and
``quadrature`` share: one comparison chain, which NaN and a non-number
fail.  "Finite" means at most the largest double, so an int beyond the
double range (``10**400``) is refused as inf is.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

from ._record import _Record
from .errors import (
    GeometryRangeError,
    NonPositiveLengthError,
    NonPositiveRadiusError,
    OutOfDomainError,
    RadiusOrderError,
    StraightRadiusMismatchError,
    TooFewSamplesError,
    TooManySamplesError,
    UnknownShapeError,
    _shown,
)

__all__ = [
    "DOMAIN_TOLERANCE",
    "MAX_SAMPLES",
    "ShapeKind",
    "CORRUGATED",
    "RadiusProfile",
    "ProfileTable",
    "make_profile",
    "radius_at",
    "radius_array",
    "sample_profile",
]

# Relative slack on |x| <= L/2, absorbing endpoint rounding from samplers
# and quadrature nodes that land exactly on the boundary.
DOMAIN_TOLERANCE = 1e-12

# The most rows ``sample_profile`` builds: far more than a plot resolves, and
# a table of that many Python floats still fits in a few hundred MiB.
MAX_SAMPLES = 1_000_000


class ShapeKind(enum.Enum):
    """The supported radius profiles. Values double as CLI shape tokens."""

    STRAIGHT = "straight"
    CONICAL = "conical"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    HYPERBOLIC_COSINE = "cosh"
    SINUSOIDAL = "sinusoidal"

    # Members are singletons compared by identity; Enum's own __hash__ hashes
    # the name in Python, which every shape-table lookup would pay.
    __hash__ = object.__hash__


# Bound once: reading ``ShapeKind.STRAIGHT``, ``math.inf`` or
# ``sys.float_info.max`` costs more than the comparison that uses it, and
# every RadiusProfile reads them.  A positive number, an int included, lies
# in the double range iff it is <= _MAX; "< inf" lets the int 10**400 through.
_STRAIGHT = ShapeKind.STRAIGHT
_INF = math.inf
_MAX = sys.float_info.max


def _finite_above(value, low: float) -> bool:
    """Whether low < value <= the largest double: one comparison chain, which NaN fails.

    False for a value that is no number, whose comparison raises TypeError.
    """
    try:
        return low < value <= _MAX
    except TypeError:
        return False


# Every shape except the straight baseline, in declaration order: the
# shapes with a corrugation for the closed forms and the oracle to check.
CORRUGATED = tuple(kind for kind in ShapeKind if kind is not _STRAIGHT)


class RadiusProfile(_Record):
    """A tube geometry: shape plus (r_min, r_max, length), all in metres.

    For ``ShapeKind.STRAIGHT`` the two radii must be equal.  ``r_min ==
    r_max`` is allowed for every kind and degenerates cleanly to a
    constant radius.  A kind that is no ``ShapeKind`` raises
    UnknownShapeError, checked after the radii and the length.

    The derived slot ``_f`` holds F(d) of the shape, evaluated here once
    for the closed forms, or None where d exceeds the double range.
    """

    __slots__ = ("kind", "r_min", "r_max", "length", "_f")

    def __init__(self, kind: ShapeKind, r_min: float, r_max: float, length: float):
        # Rule by rule, in this order; the first broken one names the error.
        if not _finite_above(r_min, 0.0):
            raise NonPositiveRadiusError(f"r_min must be a positive finite length, got {_shown(r_min)}")
        if not _finite_above(r_max, -_INF):
            raise NonPositiveRadiusError(f"r_max must be a positive finite length, got {_shown(r_max)}")
        if r_max < r_min:
            raise RadiusOrderError(
                f"r_max must not be smaller than r_min (got r_max={_shown(r_max)} < r_min={_shown(r_min)})"
            )
        if not _finite_above(length, 0.0):
            raise NonPositiveLengthError(f"length must be a positive finite length, got {_shown(length)}")
        if kind is _STRAIGHT and r_max != r_min:
            raise StraightRadiusMismatchError(
                f"a straight tube needs r_min == r_max (got {_shown(r_min)} and {_shown(r_max)})"
            )
        try:
            f = _SHAPES[kind].F
        except (KeyError, TypeError):  # TypeError: an unhashable kind
            names = ", ".join(shape.value for shape in ShapeKind)
            raise UnknownShapeError(f"kind must be a ShapeKind ({names}), got {_shown(kind)}") from None
        d = _excess(r_min, r_max)
        _set_kind(self, kind)
        _set_r_min(self, r_min)
        _set_r_max(self, r_max)
        _set_length(self, length)
        _set_f(self, f(d) if d < _INF else None)

    @property
    def half_length(self) -> float:
        return 0.5 * self.length


# The slot setters, bound once: the fields' in _fields order, then the derived one.
_set_kind, _set_r_min, _set_r_max, _set_length = RadiusProfile._setters
_set_f = RadiusProfile._f.__set__


def _excess(r_min: float, r_max: float) -> float:
    """d = (r_max - r_min)/r_min; inf where it exceeds the double range."""
    return (r_max - r_min) / r_min


def make_profile(kind: ShapeKind, r_min: float, r_max: float, length: float) -> RadiusProfile:
    """Validate and build a profile from numbers or numeric strings.

    Raises NonPositiveRadiusError, RadiusOrderError, NonPositiveLengthError,
    StraightRadiusMismatchError or UnknownShapeError on bad inputs, in
    ``RadiusProfile``'s order; a value that is no number fails the rule of
    its own input.
    """
    try:
        r_min, r_max, length = float(r_min), float(r_max), float(length)
    except (TypeError, ValueError, OverflowError):
        # Pass each value float() refuses on as it is: RadiusProfile's checks
        # name it (an int beyond the double range is not finite).
        r_min, r_max, length = [_float_or_raw(value) for value in (r_min, r_max, length)]
    return RadiusProfile(kind, r_min, r_max, length)


def _float_or_raw(value):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return value


# ln 2: arccosh(z) = ln(2z) to double precision once z^2 overflows.
_LN2 = math.log(2.0)

# Below this argument g(v) = arctan(sqrt v)/sqrt v switches to its series
# 1 - v/3 + v^2/5, whose truncation error there is below v^3/7 < 1.5e-19
# relative: under half an ulp of a sum near 1, so no later term changes a bit.
_SERIES_SWITCH = 1e-6


def _arctan_ratio(v: float, root: float) -> float:
    """g(v) = arctan(sqrt v)/sqrt v for v >= 0, given root = sqrt(v).

    The root comes separately so that a caller can form it without
    overflow where v itself overflows to inf.
    """
    if v < _SERIES_SWITCH:
        return 1.0 - v / 3.0 + v * v / 5.0
    return math.atan(root) / root


def _cosh_rate(d: float) -> float:
    """w = arccosh(1 + d) = log1p(d + sqrt(d (d + 2))), exact as d -> 0."""
    square = d * (d + 2.0)
    if square < math.inf:
        return math.log1p(d + math.sqrt(square))
    return _LN2 + math.log1p(d)


# rho's constructors beyond a one-line lambda: see ``_Shape.rho``.


def _rho_hyperbolic(d):
    hypot = math.hypot
    slope = math.sqrt(d) * math.sqrt(d + 2.0)
    return lambda t: hypot(1.0, t * slope)


def _rho_cosh(d):
    cosh = math.cosh
    w = _cosh_rate(d)
    return lambda t: cosh(w * t)


def _rho_sinusoidal(d):
    sin = math.sin
    k = 0.5 * math.pi

    def rho(t):
        s = sin(k * t)
        return 1.0 + d * (s * s)

    return rho


def _f_conical(d: float) -> float:
    u = 1.0 / (1.0 + d)
    return u * (1.0 + u * (1.0 + u)) / 3.0


def _f_parabolic(d: float) -> float:
    u = 1.0 / (1.0 + d)
    return 0.5 * (u * (0.625 + u * (5.0 / 12.0 + u / 3.0)) + 0.625 * _arctan_ratio(d, math.sqrt(d)))


def _f_hyperbolic(d: float) -> float:
    u = 1.0 / (1.0 + d)
    return 0.5 * (u * u + _arctan_ratio(d * (d + 2.0), math.sqrt(d) * math.sqrt(d + 2.0)))


def _f_cosh(d: float) -> float:
    if d == 0.0:
        return 1.0
    w = _cosh_rate(d)
    tau = math.tanh(w)
    return tau * (3.0 - tau * tau) / (3.0 * w)


def _f_sinusoidal(d: float) -> float:
    z = 1.0 + d
    u = 1.0 / z
    s = 1.0 + u
    e = d * u
    return s * (2.0 * s * s + 3.0 * e * e) / (16.0 * math.sqrt(z))


class _Shape(NamedTuple):
    """One profile in dimensionless form (see the module docstring).

    ``rho(d)`` returns the t -> rho map of the tube with that d, from a
    float t in [0, 1] to a float.  rho is unclamped: it can drift a few
    ulp outside [1, 1 + d], and for d near the double range's end it can
    raise OverflowError (``math.cosh``) or give inf.  ``F(d)`` is a
    positive double for every finite d >= 0.
    """

    rho: Callable[[float], Callable[[float], float]]
    F: Callable[[float], float]


_SHAPES = {
    ShapeKind.STRAIGHT: _Shape(lambda d: lambda t: 1.0, lambda d: 1.0),
    ShapeKind.CONICAL: _Shape(lambda d: lambda t: 1.0 + d * t, _f_conical),
    ShapeKind.PARABOLIC: _Shape(lambda d: lambda t: 1.0 + d * (t * t), _f_parabolic),
    ShapeKind.HYPERBOLIC: _Shape(_rho_hyperbolic, _f_hyperbolic),
    ShapeKind.HYPERBOLIC_COSINE: _Shape(_rho_cosh, _f_cosh),
    ShapeKind.SINUSOIDAL: _Shape(_rho_sinusoidal, _f_sinusoidal),
}


def _dimensionless(profile: RadiusProfile) -> tuple[_Shape, float]:
    """The profile's table entry and its d = (r_max - r_min)/r_min, for rho.

    Raises GeometryRangeError when d, and with it r_max/r_min, exceeds the
    double range.
    """
    d = _excess(profile.r_min, profile.r_max)
    if d == math.inf:
        raise _ratio_range_error(profile)
    return _SHAPES[profile.kind], d


def _ratio_range_error(profile: RadiusProfile) -> GeometryRangeError:
    """The error of a profile whose d, and with it r_max/r_min, exceeds the double range."""
    return _range_error(profile, "r_max/r_min exceeds the double range")


def _range_error(profile: RadiusProfile, problem: str) -> GeometryRangeError:
    return GeometryRangeError(
        f"{problem} for {profile.kind.value} tube "
        f"r_min={profile.r_min!r}, r_max={profile.r_max!r}, length={profile.length!r}"
    )


def _radii(profile: RadiusProfile, xs: Iterable[float]) -> list[float]:
    """r(x) = r_min rho(2|x|/L; d) at each position x in [-L/2, L/2], in one loop.

    Each radius is a finite double in [r_min, r_max]: r_max itself where t
    reaches 1, and elsewhere rho's drift past its bounds clamped off,
    because the geometric bounds are part of the samplers' contract.
    Raises GeometryRangeError when d, or rho at some t, is no finite
    double, since the clamp would silently turn an inf into r_max.  The
    product r_min rho may overflow: it exceeds r_max by rho's drift at
    most, so it is inf only where the clamp gives r_max anyway.
    """
    shape, d = _dimensionless(profile)
    rho = shape.rho(d)
    r_min, r_max, length = profile.r_min, profile.r_max, profile.length
    radii = []
    append = radii.append
    try:
        for x in xs:
            t = 2.0 * abs(x) / length
            if t >= 1.0:
                append(r_max)
                continue
            value = rho(t)
            if not value < math.inf:
                break
            r = r_min * value
            append(r_min if r < r_min else r_max if r > r_max else r)
        else:
            return radii
    except OverflowError:
        pass
    raise _range_error(profile, "the values of r(x) are not finite doubles")


def _position(profile: RadiusProfile, x) -> float:
    """x as a float clamped into [-L/2, L/2], if it lies within DOMAIN_TOLERANCE of it."""
    half = profile.half_length
    try:
        x = float(x)
    except OverflowError:
        raise OutOfDomainError(
            f"a position lies outside [-L/2, L/2] = [{-half!r}, {half!r}]: it exceeds the double range"
        ) from None
    if not abs(x) <= half * (1.0 + DOMAIN_TOLERANCE):
        raise OutOfDomainError(f"x={x!r} lies outside [-L/2, L/2] = [{-half!r}, {half!r}]")
    return min(max(x, -half), half)


def radius_at(profile: RadiusProfile, x: float) -> float:
    """r(x) at a single axial position x in [-L/2, L/2] (metres).

    Positions within 1e-12*L beyond the boundary are treated as boundary
    values; anything farther out, NaN, or a number beyond the double range
    raises OutOfDomainError.  Raises GeometryRangeError when r(x) cannot be
    evaluated in double precision.
    """
    return _radii(profile, (_position(profile, x),))[0]


def radius_array(profile: RadiusProfile, xs: Iterable[float]) -> list[float]:
    """:func:`radius_at` over an iterable of positions, as a list of floats.

    Every position is checked before any radius is computed.
    """
    positions = [_position(profile, x) for x in xs]
    return _radii(profile, positions)


class ProfileTable(_Record):
    """Uniformly spaced (x, r) samples spanning [-L/2, L/2] inclusive."""

    __slots__ = ("x", "r")

    def __len__(self) -> int:
        return len(self.x)

    def rows(self) -> Iterator[tuple[float, float]]:
        return zip(self.x, self.r)


def _grid(half: float, n: int) -> list[float]:
    """n points from -half to half, endpoints included, as ``numpy.linspace`` places them.

    Point i is i*step - half with step = 2 half/(n - 1), or
    i/(n - 1) * 2 half where that step underflows to 0, and the last point
    is half itself: for L near the largest double, (n - 1) step may round
    past it.
    """
    div = n - 1
    delta = half + half
    step = delta / div
    if step == 0.0:
        xs = [i / div * delta - half for i in range(n)]
    else:
        xs = [i * step - half for i in range(n)]
    xs[-1] = half
    return xs


def sample_profile(profile: RadiusProfile, n_samples: int) -> ProfileTable:
    """Sample r(x) at n_samples uniform points, endpoints included.

    Raises TooFewSamplesError when n_samples is no number of at least 2,
    TooManySamplesError when n_samples > MAX_SAMPLES (before building
    anything), and GeometryRangeError when r(x) cannot be evaluated in
    double precision.
    """
    try:
        valid = n_samples >= 2
    except TypeError:
        valid = False
    if not valid:
        raise TooFewSamplesError(f"need at least 2 samples, got {_shown(n_samples)}")
    if n_samples > MAX_SAMPLES:
        raise TooManySamplesError(f"need at most {MAX_SAMPLES} samples, got {_shown(n_samples)}")
    xs = tuple(_grid(profile.half_length, int(n_samples)))
    return ProfileTable(xs, tuple(_radii(profile, xs)))
