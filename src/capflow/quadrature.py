"""Adaptive numerical evaluation of the master integral I = int dx / r(x)^4.

This is the independent oracle for the closed forms in ``analytic`` and the
fallback solver for profiles without one.  Each panel is evaluated with a
nested Gauss-Kronrod 7/15 pair: the 15-point Kronrod value is kept, and the
difference from the embedded 7-point Gauss value is the panel error
estimate.  Panels whose estimate exceeds their share of the global budget
are bisected, breadth-first, until the total estimate fits the budget or
refinement can no longer help (depth limit, rounding floor, panel cap,
generation limit, or an integrand value that is inf or NaN), in which
case the best value is returned flagged ``converged=False`` with that
``stop_reason``.

``integrate_inverse_r4`` integrates the dimensionless F(d) of the shape
table in ``geometry`` from rho, over t in [0, 1], the half tube, and
scales it to I as the closed forms do.  The two thus share d, the table
entry and the scaling, but not F; the tests' mpmath reference, computed
from the raw radii, is what keeps the check independent.

The loop runs in plain Python floats: a panel is 15 scalar integrand
calls, and its Kronrod and Gauss sums are formed in one fixed written
order, so the bits depend on neither numpy nor a BLAS build.  Panel
contributions and gaps are summed with ``math.fsum``, which rounds
correctly whatever the order, so results are bit-for-bit reproducible.
``verification_sweep`` draws its geometries from a pure-Python port of
numpy's ``default_rng`` stream, bit for bit, so nothing here imports
numpy.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable, Sequence

from ._pcg64 import Generator
from ._record import _Record
from .analytic import Fluid, _integral, _pressure_drop_of, pressure_drop
from .errors import NotConvergedError, QuadratureInputError, _shown
from .geometry import _MAX, _STRAIGHT, RadiusProfile, ShapeKind, _dimensionless, _finite_above, make_profile

# Not used here since the oracle integrates rho, but kept as a module
# attribute: the traced verify pass of perfbench swaps it together
# with this module's other entry points.
from .geometry import radius_array  # noqa: F401

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "VerificationReport",
    "DEFAULT_CONFIG",
    "adaptive_integrate",
    "integrate_inverse_r4",
    "numeric_pressure_drop",
    "verify_analytic",
    "random_profile",
    "verification_sweep",
]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1], 17 significant digits.
# Derived by Newton iteration on the even-moment system at 60 decimal
# digits; the K15 rule reproduces moments through degree 22 and the G7 rule
# through degree 13 (pinned by tests).  The nodes are 0 and +-x_i, outer
# first; the Gauss nodes are 0, +-x_2, +-x_4 and +-x_6.
_KRONROD_POSITIVE = (
    0.99145537112081264,
    0.94910791234275852,
    0.86486442335976907,
    0.74153118559939444,
    0.58608723546769113,
    0.40584515137739717,
    0.20778495500789847,
)
_KRONROD_PAIR_WEIGHTS = (
    0.022935322010529225,
    0.063092092629978553,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478541,
    0.20443294007529889,
)
_GAUSS_PAIR_WEIGHTS = (
    0.12948496616886969,
    0.27970539148927667,
    0.38183005050511894,
)
_X1, _X2, _X3, _X4, _X5, _X6, _X7 = _KRONROD_POSITIVE
_K1, _K2, _K3, _K4, _K5, _K6, _K7 = _KRONROD_PAIR_WEIGHTS
_G2, _G4, _G6 = _GAUSS_PAIR_WEIGHTS
_K0 = 0.20948214108472783  # the Kronrod and Gauss weights of the centre node
_G0 = 0.41795918367346939

_POINTS_PER_PANEL = 15

# Panels whose Kronrod/Gauss gap is at rounding level relative to their own
# contribution cannot be improved by bisection.
_ROUNDING_FLOOR = 4.0 * sys.float_info.epsilon

# Defensive cap; legitimate workloads stay orders of magnitude below it.
_MAX_PANELS = 100_000


def _integer(value, message: str) -> int:
    """``value`` as an int, through ``operator.index``; QuadratureInputError(message) if it has none."""
    try:
        return operator.index(value)
    except TypeError:
        raise QuadratureInputError(message) from None


class QuadratureConfig(_Record):
    """Tolerances and limits for adaptive integration.

    ``rel_tol`` is relative to the running integral estimate; ``abs_tol``
    is in the integral's own units (1/m^3 for the master integral);
    ``max_depth`` bounds the bisection depth of any panel.
    """

    __slots__ = ("rel_tol", "abs_tol", "max_depth")

    def __init__(self, rel_tol: float = 1e-10, abs_tol: float = 0.0, max_depth: int = 48):
        if not _finite_above(rel_tol, 0.0):
            raise QuadratureInputError(f"rel_tol must be positive and finite, got {_shown(rel_tol)}")
        if not (abs_tol == 0.0 or _finite_above(abs_tol, 0.0)):
            raise QuadratureInputError(f"abs_tol must be >= 0 and finite, got {_shown(abs_tol)}")
        if _integer(max_depth, f"max_depth must be an integer, got {_shown(max_depth)}") < 1:
            raise QuadratureInputError(f"max_depth must be >= 1, got {_shown(max_depth)}")
        set_rel_tol, set_abs_tol, set_max_depth = self._setters
        set_rel_tol(self, rel_tol)
        set_abs_tol(self, abs_tol)
        set_max_depth(self, max_depth)


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureResult(_Record):
    """Outcome of one adaptive integration.

    ``value`` carries the integral, ``error_estimate`` an upper-leaning
    estimate of its absolute error, ``evaluations`` the number of integrand
    evaluations spent, and ``stop_reason`` why the refinement stopped:
    ``"converged"`` when the estimate met the configured budget, else
    ``"max_depth"`` (a panel over its share of the budget is at the depth
    limit), ``"rounding_floor"`` (every such panel is at rounding level),
    ``"panel_cap"``, ``"generation_limit"`` or ``"non_finite"`` (the
    integrand gave inf or NaN).
    """

    __slots__ = ("value", "error_estimate", "evaluations", "stop_reason")

    @property
    def converged(self) -> bool:
        """Whether the error estimate met the configured budget."""
        return self.stop_reason == "converged"


class VerificationReport(_Record):
    """Closed form vs quadrature for one profile, at reference Q=1, mu=1.

    ``oracle_error_estimate`` is the quadrature error estimate on the
    integral itself (1/m^3) and ``evaluations`` the integrand evaluations
    the oracle spent on it.  ``passed`` requires convergence and
    ``relative_discrepancy <= max(tolerance, error_estimate/value)``.
    """

    __slots__ = (
        "profile",
        "analytic_pressure_drop",
        "numeric_pressure_drop",
        "relative_discrepancy",
        "oracle_error_estimate",
        "converged",
        "passed",
        "evaluations",
    )


def _panel(fn, a: float, b: float) -> tuple[float, float]:
    """Kronrod value and Kronrod-Gauss gap of ``fn`` on [a, b]: 15 calls."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    f0 = fn(c)
    dx = h * _X1
    f1 = fn(c - dx) + fn(c + dx)
    dx = h * _X2
    f2 = fn(c - dx) + fn(c + dx)
    dx = h * _X3
    f3 = fn(c - dx) + fn(c + dx)
    dx = h * _X4
    f4 = fn(c - dx) + fn(c + dx)
    dx = h * _X5
    f5 = fn(c - dx) + fn(c + dx)
    dx = h * _X6
    f6 = fn(c - dx) + fn(c + dx)
    dx = h * _X7
    f7 = fn(c - dx) + fn(c + dx)
    kronrod = h * (_K1 * f1 + _K2 * f2 + _K3 * f3 + _K4 * f4 + _K5 * f5 + _K6 * f6 + _K7 * f7 + _K0 * f0)
    return kronrod, abs(kronrod - h * (_G2 * f2 + _G4 * f4 + _G6 * f6 + _G0 * f0))


def _worst_first(gap: list[float], split: list[int], room: int) -> list[int]:
    """The ``room`` panels of ``split`` (ascending) with the largest gaps, in panel order.

    Of equal gaps the lower panel index goes first: the sort is stable.
    """
    return sorted(sorted(split, key=gap.__getitem__, reverse=True)[:room])


def adaptive_integrate(
    fn: Callable[[float], float],
    lower: float,
    upper: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate a function over [lower, upper].

    ``fn`` must map a float position to a float integrand value.  The
    value and error estimate are the correctly rounded sums
    (``math.fsum``) of the panels' contributions, so the result is
    deterministic.  Raises QuadratureInputError when a bound is infinite or
    a number beyond the double range, and unless upper > lower.
    """
    # One comparison per bound refuses +-inf and an int such as 10**400 alike:
    # Python compares ints with floats exactly.  NaN passes on to the order check.
    if abs(lower) > _MAX or abs(upper) > _MAX:
        raise QuadratureInputError(f"bounds must be finite, got [{_shown(lower)}, {_shown(upper)}]")
    lower = float(lower)
    upper = float(upper)
    if not (upper > lower):
        raise QuadratureInputError(f"need upper > lower, got [{lower!r}, {upper!r}]")
    return QuadratureResult(*_integrate(fn, [lower, upper], config.rel_tol, config.abs_tol, config.max_depth))


def _integrate(fn, edges: list[float], rel_tol: float, abs_tol: float, max_depth: int):
    """The adaptive loop over the first partition ``edges`` (ascending, at least two).

    Returns (value, error_estimate, evaluations, stop_reason).
    """
    # One entry per panel.  A split panel's left child takes its index and
    # its right child is appended, so indices do not follow the axis.
    lo = edges[:-1]
    hi = edges[1:]
    depth = [0] * len(lo)
    kron = []
    gap = []
    for a, b in zip(lo, hi):
        k, g = _panel(fn, a, b)
        kron.append(k)
        gap.append(g)
    panels_evaluated = len(lo)
    total_width = edges[-1] - edges[0]

    # Each generation deepens every still-active lineage by one, so
    # max_depth + 1 passes are usually enough.  A panel can also become
    # worth splitting only after the estimate, and with it the budget, has
    # shrunk; the extra headroom covers that.  A pass that stops returns the
    # sums it has just formed, as no panel has changed since; only running
    # out of generations sums the lists again.
    for _generation in range(2 * max_depth + 8):
        estimate = math.fsum(kron)
        error = math.fsum(gap)
        if not math.isfinite(estimate):
            # The integrand gave inf or NaN; no refinement recovers from
            # that, and an infinite budget would pass any error estimate.
            stop_reason = "non_finite"
            break
        budget = max(abs_tol, rel_tol * abs(estimate))
        if error <= budget:
            stop_reason = "converged"
            break

        split = [
            i
            for i, (a, b, d, k, g) in enumerate(zip(lo, hi, depth, kron, gap))
            if g > budget * (b - a) / total_width
            and g > _ROUNDING_FLOOR * abs(k)
            and d < max_depth
        ]
        if not split:
            at_depth = any(
                d >= max_depth and g > budget * (b - a) / total_width
                for a, b, d, g in zip(lo, hi, depth, gap)
            )
            stop_reason = "max_depth" if at_depth else "rounding_floor"
            break
        room = _MAX_PANELS - len(lo)
        if room <= 0:
            stop_reason = "panel_cap"
            break
        if len(split) > room:
            split = _worst_first(gap, split, room)

        for i in split:
            a, b = lo[i], hi[i]
            mid = 0.5 * (a + b)
            depth[i] += 1
            hi[i] = mid
            kron[i], gap[i] = _panel(fn, a, mid)
            k, g = _panel(fn, mid, b)
            lo.append(mid)
            hi.append(b)
            depth.append(depth[i])
            kron.append(k)
            gap.append(g)
        panels_evaluated += 2 * len(split)
    else:
        estimate, error, stop_reason = math.fsum(kron), math.fsum(gap), "generation_limit"

    return estimate, error, panels_evaluated * _POINTS_PER_PANEL, stop_reason


def integrate_inverse_r4(
    profile: RadiusProfile, config: QuadratureConfig = DEFAULT_CONFIG
) -> QuadratureResult:
    """Numerically evaluate I = int dx / r(x)^4 over [-L/2, L/2].

    Integrates F(d) = int_0^1 (1/rho)^4 dt, which lies in (0, 1], and
    scales F and its error estimate to I = L F / r_min^4 as the closed
    forms do (``abs_tol``, in 1/m^3, the other way first).  The first
    partition has edges at t = 10^-k, k = 1 .. ceil(log10 d): QUADPACK
    QAGP-style breakpoints towards the waist, where a wide tube peaks
    about 1/d wide.  The conical kink at the waist is the edge t = 0.

    Raises GeometryRangeError when I, or r_max/r_min, is no positive
    finite double.
    """
    shape, d = _dimensionless(profile)
    rho = shape.rho(d)

    def integrand(t):
        try:
            return (1.0 / rho(t)) ** 4
        except OverflowError:
            # math.cosh past the double range, where 1/rho is 0.
            return 0.0

    edges = [10.0 ** -k for k in range(math.ceil(math.log10(d)), 0, -1)] if d > 1.0 else []
    abs_tol = config.abs_tol
    if abs_tol > 0.0:
        unit = _integral(profile, 1.0)
        abs_tol = abs_tol / unit if unit > 0.0 else math.inf
    value, error, evaluations, stop_reason = _integrate(
        integrand, [0.0, *edges, 1.0], config.rel_tol, abs_tol, config.max_depth
    )
    return QuadratureResult(
        _integral(profile, value, "quadrature"), _integral(profile, error), evaluations, stop_reason
    )


def numeric_pressure_drop(
    profile: RadiusProfile,
    flow_rate: float,
    fluid: Fluid,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Pressure drop P = (8 Q mu / pi) * I with I from quadrature, in Pa.

    Raises NotConvergedError (with the partial result attached) when the
    integrator cannot meet the configured tolerance, and FlowRangeError
    when Q is NaN or P overflows.
    """
    result = integrate_inverse_r4(profile, config)
    if not result.converged:
        raise NotConvergedError(
            f"integral did not converge ({result.stop_reason}): error estimate "
            f"{result.error_estimate:.3e} "
            f"exceeds budget (rel_tol={config.rel_tol:g}, abs_tol={config.abs_tol:g}, "
            f"max_depth={config.max_depth})",
            result=result,
        )
    return _pressure_drop_of(result.value, flow_rate, fluid)


_REFERENCE_FLUID = Fluid(1.0)


def verify_analytic(
    profile: RadiusProfile,
    tolerance: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> VerificationReport:
    """Compare the closed-form pressure drop against quadrature.

    Run at reference Q=1 m^3/s, mu=1 Pa*s (the relation is linear in both,
    so the choice is immaterial).  A non-converged oracle yields
    ``converged=False`` and ``passed=False`` rather than an exception.
    """
    result = integrate_inverse_r4(profile, config)
    numeric = (8.0 / math.pi) * result.value
    analytic = pressure_drop(profile, 1.0, _REFERENCE_FLUID)
    discrepancy = abs(analytic - numeric) / abs(numeric)
    error_estimate = result.error_estimate
    converged = result.stop_reason == "converged"
    passed = converged and discrepancy <= max(tolerance, error_estimate / result.value)
    return VerificationReport(
        profile, analytic, numeric, discrepancy, error_estimate, converged, passed, result.evaluations
    )


# --- randomized verification sweeps -------------------------------------

# The verified parameter envelope: r_min in [1e-6, 1e-2] m, r_max/r_min in
# (1, 100], L in [1e-4, 10] m, all log-uniform (the ratio via its excess
# over 1, so near-degenerate geometries are exercised hard).
_LOG10_RMIN = (-6.0, -2.0)
_LOG10_RATIO_EXCESS = (-9.0, math.log10(99.0))
_LOG10_LENGTH = (-4.0, 1.0)

# Fixed per-shape substream indices: a shape's draws are identical whether
# it is swept alone or as part of a larger sweep.
_KIND_STREAM = {kind: i for i, kind in enumerate(ShapeKind)}


def _scaled(bounds: tuple[float, float], u: float) -> float:
    """``u`` in [0, 1) mapped onto [low, high) as ``Generator.uniform`` maps it."""
    low, high = bounds
    return low + (high - low) * u


def random_profile(kind: ShapeKind, rng) -> RadiusProfile:
    """Draw one profile from the verified envelope (see module constants).

    Straight tubes take r_max = r_min since their ratio is pinned to 1, and
    draw no ratio.  The uniforms come from one ``rng.random`` call, in the
    order r_min, ratio, length; each draw equals what ``rng.uniform`` over
    the same bounds returns.  ``rng`` is the sweep's generator, or
    anything whose ``random(n)`` gives n floats in [0, 1), such as a
    ``numpy.random.Generator``.
    """
    if kind is _STRAIGHT:
        u_rmin, u_length = rng.random(2)
        r_min = 10.0 ** _scaled(_LOG10_RMIN, u_rmin)
        r_max = r_min
    else:
        u_rmin, u_ratio, u_length = rng.random(3)
        r_min = 10.0 ** _scaled(_LOG10_RMIN, u_rmin)
        r_max = r_min * (1.0 + 10.0 ** _scaled(_LOG10_RATIO_EXCESS, u_ratio))
    length = 10.0 ** _scaled(_LOG10_LENGTH, u_length)
    return make_profile(kind, r_min, r_max, length)


def verification_sweep(
    kinds: Sequence[ShapeKind],
    trials: int,
    tolerance: float,
    seed: int,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> list[VerificationReport]:
    """Run ``trials`` randomized verify_analytic calls per shape.

    Reports are ordered by shape (as given) then trial index.  Each shape
    draws from the stream that ``numpy.random.default_rng([seed, index])``
    gives, index being the shape's place in ``ShapeKind``.  Raises
    QuadratureInputError when ``trials`` is no integer of at least 1 or
    ``seed`` no non-negative integer.
    """
    trials = _integer(trials, f"trials must be an integer, got {_shown(trials)}")
    if trials < 1:
        raise QuadratureInputError(f"trials must be >= 1, got {_shown(trials)}")
    message = f"seed must be a non-negative integer, got {_shown(seed)}"
    seed_value = _integer(seed, message)
    if seed_value < 0:
        raise QuadratureInputError(message)
    reports: list[VerificationReport] = []
    for kind in kinds:
        rng = Generator([seed_value, _KIND_STREAM[kind]])
        for _ in range(trials):
            profile = random_profile(kind, rng)
            reports.append(verify_analytic(profile, tolerance, config))
    return reports
