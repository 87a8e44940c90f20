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

The integrand is evaluated on whole generations of panels at once (numpy);
the panel bookkeeping between generations (bounds, depths, values, gaps)
is done in Python floats, which for the handful of panels a typical
integral needs costs less than numpy's per-call overhead.  Panel
contributions and gaps are summed with ``math.fsum``, which rounds
correctly whatever the order, so results are bit-for-bit reproducible.
The package's other summation routine, ``summation.neumaier_sum``, is kept
only because the benchmark harness imports it, and goes with ROADMAP item 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analytic import Fluid, _integral, _pressure_drop_of, pressure_drop
from .errors import NotConvergedError
from .geometry import RadiusProfile, ShapeKind, _dimensionless, make_profile

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
# through degree 13 (pinned by tests).
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
_KRONROD_CENTER_WEIGHT = 0.20948214108472783
_GAUSS_PAIR_WEIGHTS = (
    0.12948496616886969,
    0.27970539148927667,
    0.38183005050511894,
)
_GAUSS_CENTER_WEIGHT = 0.41795918367346939



def _symmetric(outer_first: tuple[float, ...], center: float, left_sign: float = 1.0) -> np.ndarray:
    """An ascending layout on [-1, 1]: the left half (times ``left_sign``), the center, the right half."""
    return np.array([left_sign * v for v in outer_first] + [center] + list(reversed(outer_first)))


# Ascending 15-node layout; the 7 Gauss nodes sit at the odd indices.
_NODES = _symmetric(_KRONROD_POSITIVE, 0.0, left_sign=-1.0)
_WEIGHTS_K15 = _symmetric(_KRONROD_PAIR_WEIGHTS, _KRONROD_CENTER_WEIGHT)
_WEIGHTS_G7 = _symmetric(_GAUSS_PAIR_WEIGHTS, _GAUSS_CENTER_WEIGHT)

_POINTS_PER_PANEL = len(_NODES)

# Panels whose Kronrod/Gauss gap is at rounding level relative to their own
# contribution cannot be improved by bisection.
_ROUNDING_FLOOR = 4.0 * np.finfo(float).eps

# Defensive cap; legitimate workloads stay orders of magnitude below it.
_MAX_PANELS = 100_000


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for adaptive integration.

    ``rel_tol`` is relative to the running integral estimate; ``abs_tol``
    is in the integral's own units (1/m^3 for the master integral);
    ``max_depth`` bounds the bisection depth of any panel.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_depth: int = 48

    def __post_init__(self):
        if not (self.rel_tol > 0.0) or not math.isfinite(self.rel_tol):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")
        if self.abs_tol < 0.0 or not math.isfinite(self.abs_tol):
            raise ValueError(f"abs_tol must be >= 0 and finite, got {self.abs_tol!r}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth!r}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
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

    value: float
    error_estimate: float
    evaluations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        """Whether the error estimate met the configured budget."""
        return self.stop_reason == "converged"


@dataclass(frozen=True)
class VerificationReport:
    """Closed form vs quadrature for one profile, at reference Q=1, mu=1.

    ``oracle_error_estimate`` is the quadrature error estimate on the
    integral itself (1/m^3) and ``evaluations`` the integrand evaluations
    the oracle spent on it.  ``passed`` requires convergence and
    ``relative_discrepancy <= max(tolerance, error_estimate/value)``.
    """

    profile: RadiusProfile
    analytic_pressure_drop: float
    numeric_pressure_drop: float
    relative_discrepancy: float
    oracle_error_estimate: float
    converged: bool
    passed: bool
    evaluations: int


def _evaluate_panels(fn, lo: list[float], hi: list[float]) -> tuple[list[float], list[float]]:
    """Kronrod value and Kronrod-Gauss gap for each [lo_i, hi_i] panel.

    numpy evaluates the integrand on the (panels, 15) node grid and the two
    weight products; everything else stays in Python floats.
    """
    mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
    half = [0.5 * (b - a) for a, b in zip(lo, hi)]
    centres, halves = np.array([mid, half])[:, :, None]
    f = fn(centres + halves * _NODES)
    kronrod = [h * k for h, k in zip(half, (f @ _WEIGHTS_K15).tolist())]
    gauss = (f[:, 1::2] @ _WEIGHTS_G7).tolist()
    return kronrod, [abs(k - h * g) for k, h, g in zip(kronrod, half, gauss)]


def _worst_first(gap: list[float], split: list[int], room: int) -> list[int]:
    """The ``room`` panels of ``split`` with the largest gaps, in panel order.

    Ties resolve as numpy's default argsort orders them, reversed, so the
    outcome is deterministic.
    """
    can_split = np.zeros(len(gap), dtype=bool)
    can_split[split] = True
    order = np.argsort(np.array(gap))[::-1]
    return sorted(order[can_split[order]][:room].tolist())


def adaptive_integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate a vectorized function over [lower, upper].

    ``fn`` must map an ndarray of positions to an ndarray of integrand
    values of the same shape.  The value and error estimate are the
    correctly rounded sums (``math.fsum``) of the panels' contributions, so
    the result is deterministic.
    """
    lower = float(lower)
    upper = float(upper)
    if not (upper > lower):
        raise ValueError(f"need upper > lower, got [{lower!r}, {upper!r}]")
    return _integrate(fn, [lower, upper], config.rel_tol, config.abs_tol, config.max_depth)


def _integrate(fn, edges: list[float], rel_tol: float, abs_tol: float, max_depth: int) -> QuadratureResult:
    """The adaptive loop over the first partition ``edges`` (ascending, at least two)."""
    # One entry per panel, in ascending axial order.
    lo = edges[:-1]
    hi = edges[1:]
    depth = [0] * len(lo)
    kron, gap = _evaluate_panels(fn, lo, hi)
    panels_evaluated = len(lo)
    total_width = edges[-1] - edges[0]
    stop_reason = "generation_limit"

    # Each generation deepens every still-active lineage by one, so
    # max_depth + 1 passes are usually enough.  A panel can also become
    # worth splitting only after the estimate, and with it the budget, has
    # shrunk; the extra headroom covers that.
    for _generation in range(2 * max_depth + 8):
        estimate = math.fsum(kron)
        if not math.isfinite(estimate):
            # The integrand gave inf or NaN; no refinement recovers from
            # that, and an infinite budget would pass any error estimate.
            stop_reason = "non_finite"
            break
        budget = max(abs_tol, rel_tol * abs(estimate))
        if math.fsum(gap) <= budget:
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

        # Children are evaluated all left halves first, then all right
        # halves, each in panel order.
        mid = [0.5 * (lo[i] + hi[i]) for i in split]
        child_kron, child_gap = _evaluate_panels(
            fn, [lo[i] for i in split] + mid, mid + [hi[i] for i in split]
        )
        panels_evaluated += 2 * len(split)

        # Each split panel gives way to its two children, in place.
        new_lo, new_hi, new_depth, new_kron, new_gap = [], [], [], [], []
        n_split = len(split)
        j = 0
        for i, (a, b, d, k, g) in enumerate(zip(lo, hi, depth, kron, gap)):
            if j < n_split and split[j] == i:
                new_lo += (a, mid[j])
                new_hi += (mid[j], b)
                new_depth += (d + 1, d + 1)
                new_kron += (child_kron[j], child_kron[n_split + j])
                new_gap += (child_gap[j], child_gap[n_split + j])
                j += 1
            else:
                new_lo.append(a)
                new_hi.append(b)
                new_depth.append(d)
                new_kron.append(k)
                new_gap.append(g)
        lo, hi, depth, kron, gap = new_lo, new_hi, new_depth, new_kron, new_gap

    return QuadratureResult(
        value=math.fsum(kron),
        error_estimate=math.fsum(gap),
        evaluations=panels_evaluated * _POINTS_PER_PANEL,
        stop_reason=stop_reason,
    )


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
    rho = shape.rho
    edges = [10.0 ** -k for k in range(math.ceil(math.log10(d)), 0, -1)] if d > 1.0 else []
    unit = _integral(profile, 1.0)
    abs_tol = config.abs_tol / unit if unit > 0.0 else math.inf
    result = _integrate(lambda t: (1.0 / rho(t, d)) ** 4, [0.0, *edges, 1.0],
                        config.rel_tol, abs_tol, config.max_depth)
    return QuadratureResult(
        value=_integral(profile, result.value, "quadrature"),
        error_estimate=_integral(profile, result.error_estimate),
        evaluations=result.evaluations,
        stop_reason=result.stop_reason,
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
    oracle_relative = result.error_estimate / result.value
    passed = result.converged and discrepancy <= max(tolerance, oracle_relative)
    return VerificationReport(
        profile=profile,
        analytic_pressure_drop=analytic,
        numeric_pressure_drop=numeric,
        relative_discrepancy=discrepancy,
        oracle_error_estimate=result.error_estimate,
        converged=result.converged,
        passed=passed,
        evaluations=result.evaluations,
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


def random_profile(kind: ShapeKind, rng: np.random.Generator) -> RadiusProfile:
    """Draw one profile from the verified envelope (see module constants).

    Straight tubes take r_max = r_min since their ratio is pinned to 1, and
    draw no ratio.  The uniforms come from one ``rng.random`` call, in the
    order r_min, ratio, length; each draw equals what ``rng.uniform`` over
    the same bounds returns.
    """
    if kind is ShapeKind.STRAIGHT:
        u_rmin, u_length = rng.random(2).tolist()
        r_min = 10.0 ** _scaled(_LOG10_RMIN, u_rmin)
        r_max = r_min
    else:
        u_rmin, u_ratio, u_length = rng.random(3).tolist()
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

    Reports are ordered by shape (as given) then trial index.
    """
    reports: list[VerificationReport] = []
    for kind in kinds:
        rng = np.random.default_rng([seed, _KIND_STREAM[kind]])
        for _ in range(trials):
            profile = random_profile(kind, rng)
            reports.append(verify_analytic(profile, tolerance, config))
    return reports
