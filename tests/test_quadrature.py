import itertools
import math
import random
import sys
import warnings

import numpy as np
import pytest

import reference_data as ref
from strategies import CORRUGATED

from capflow import (
    DEFAULT_CONFIG,
    CapillaryFlowError,
    Fluid,
    GeometryRangeError,
    NotConvergedError,
    QuadratureConfig,
    QuadratureInputError,
    QuadratureResult,
    ShapeKind,
    adaptive_integrate,
    integrate_inverse_r4,
    inverse_r4_integral,
    make_profile,
    numeric_pressure_drop,
    pressure_drop,
    radius_array,
    radius_at,
    random_profile,
    verification_sweep,
    verify_analytic,
)
from capflow import geometry, quadrature
from capflow._pcg64 import Generator
from capflow.quadrature import (
    _G0,
    _GAUSS_PAIR_WEIGHTS,
    _K0,
    _KIND_STREAM,
    _KRONROD_PAIR_WEIGHTS,
    _KRONROD_POSITIVE,
    _worst_first,
)

KIND_BY_TOKEN = {kind.value: kind for kind in ShapeKind}
WATER = Fluid(viscosity=ref.VISCOSITY)

EPS = sys.float_info.epsilon

# The rule pair in ascending node order; the Gauss nodes sit at the odd indices.
NODES = tuple(-x for x in _KRONROD_POSITIVE) + (0.0,) + _KRONROD_POSITIVE[::-1]
WEIGHTS_K15 = _KRONROD_PAIR_WEIGHTS + (_K0,) + _KRONROD_PAIR_WEIGHTS[::-1]
WEIGHTS_G7 = _GAUSS_PAIR_WEIGHTS + (_G0,) + _GAUSS_PAIR_WEIGHTS[::-1]


def canonical(token):
    kind = KIND_BY_TOKEN[token]
    r_max = ref.R_MIN if kind is ShapeKind.STRAIGHT else ref.R_MAX
    return make_profile(kind, ref.R_MIN, r_max, ref.LENGTH)


def wide(token):
    r_min, r_max, length = ref.WIDE_GEOMETRY
    return make_profile(KIND_BY_TOKEN[token], r_min, r_max, length)


class TestRuleMoments:
    """Pin the embedded Gauss-Kronrod pair against the moment integrals
    int x^m dx = 2/(m+1) on [-1, 1], including where each rule must fail."""

    @staticmethod
    def kronrod(m):
        return math.fsum(w * x**m for w, x in zip(WEIGHTS_K15, NODES))

    @staticmethod
    def gauss(m):
        return math.fsum(w * x**m for w, x in zip(WEIGHTS_G7, NODES[1::2]))

    def test_weights_sum_to_interval_length(self):
        assert math.fsum(WEIGHTS_K15) == pytest.approx(2.0, rel=1e-15)
        assert math.fsum(WEIGHTS_G7) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("m", range(0, 23, 2))
    def test_kronrod_even_moments_through_degree_22(self, m):
        assert self.kronrod(m) == pytest.approx(2.0 / (m + 1), rel=2e-15)

    @pytest.mark.parametrize("m", range(0, 13, 2))
    def test_gauss_even_moments_through_degree_13(self, m):
        assert self.gauss(m) == pytest.approx(2.0 / (m + 1), rel=2e-15)

    @pytest.mark.parametrize("m", range(1, 23, 2))
    def test_odd_moments_vanish(self, m):
        assert abs(self.kronrod(m)) < 1e-15
        assert abs(self.gauss(m)) < 1e-15

    def test_degrees_are_sharp(self):
        assert abs(self.kronrod(24) - 2.0 / 25.0) / (2.0 / 25.0) > 1e-9
        assert abs(self.gauss(14) - 2.0 / 15.0) / (2.0 / 15.0) > 1e-4


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.rel_tol == 1e-10
        assert DEFAULT_CONFIG.abs_tol == 0.0
        assert DEFAULT_CONFIG.max_depth == 48

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-9, math.nan, math.inf])
    def test_bad_rel_tol(self, rel_tol):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=rel_tol)

    @pytest.mark.parametrize("abs_tol", [-1.0, math.nan, math.inf])
    def test_bad_abs_tol(self, abs_tol):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=abs_tol)

    def test_bad_max_depth(self):
        with pytest.raises(ValueError):
            QuadratureConfig(max_depth=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: QuadratureConfig(rel_tol=0.0),
            lambda: QuadratureConfig(abs_tol=math.nan),
            lambda: QuadratureConfig(max_depth=0),
            lambda: adaptive_integrate(math.exp, 1.0, 1.0),
            lambda: adaptive_integrate(math.exp, 0.0, math.nan),
            lambda: QuadratureConfig(max_depth=2.5),
            lambda: QuadratureConfig(max_depth=math.nan),
            lambda: verification_sweep(CORRUGATED, 2.5, 1e-9, 1),
            lambda: verification_sweep(CORRUGATED, 0, 1e-9, 1),
            lambda: verification_sweep(CORRUGATED, -3, 1e-9, 1),
            lambda: QuadratureConfig(rel_tol="x"),
            lambda: QuadratureConfig(abs_tol=None),
        ],
        ids=["rel_tol", "abs_tol", "max_depth", "empty-interval", "nan-bound", "max_depth-float",
             "max_depth-nan", "trials-float", "trials-0", "trials-negative", "rel_tol-str", "abs_tol-None"],
    )
    def test_errors_are_typed(self, call):
        with pytest.raises(QuadratureInputError) as info:
            call()
        assert isinstance(info.value, CapillaryFlowError) and isinstance(info.value, ValueError)


class TestAdaptiveIntegrate:
    def test_polynomial_is_exact_on_one_panel(self):
        result = adaptive_integrate(lambda x: x * x, 0.0, 1.0)
        assert result.value == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert result.converged
        assert result.evaluations == 15

    def test_transcendental(self):
        result = adaptive_integrate(math.exp, 0.0, 1.0)
        assert result.value == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_needs_refinement(self):
        # A sharp peak the first panel cannot resolve.
        result = adaptive_integrate(
            lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, QuadratureConfig(rel_tol=1e-12)
        )
        exact = 2.0 * math.atan(100.0) / 1e-2
        assert result.value == pytest.approx(exact, rel=1e-12)
        assert result.converged
        assert result.evaluations > 15 * 20

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, 1.0, 1.0)
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, 2.0, 1.0)

    def test_evaluations_count_points(self):
        result = adaptive_integrate(math.cos, 0.0, 40.0, QuadratureConfig(rel_tol=1e-12))
        assert result.evaluations % 15 == 0
        assert result.converged


class TestIntegrateInverseR4:
    def test_straight_tube_is_flat(self):
        result = integrate_inverse_r4(canonical("straight"))
        assert result.converged
        assert result.value == pytest.approx(ref.INTEGRAL["straight"], rel=1e-14)

    def test_straight_tube_other_configs(self):
        for cfg in (QuadratureConfig(rel_tol=1e-6), QuadratureConfig(rel_tol=1e-13, max_depth=30)):
            result = integrate_inverse_r4(canonical("straight"), cfg)
            assert result.converged
            assert result.value == pytest.approx(ref.INTEGRAL["straight"], rel=1e-14)

    def test_conical_literal(self):
        result = integrate_inverse_r4(canonical("conical"))
        assert result.value == pytest.approx(2.9167e10, rel=1e-4)
        assert result.value == pytest.approx(ref.INTEGRAL["conical"], rel=1e-12)

    @pytest.mark.parametrize("token", sorted(ref.INTEGRAL))
    def test_frozen_all_shapes(self, token):
        result = integrate_inverse_r4(canonical(token))
        assert result.converged
        assert result.value == pytest.approx(ref.INTEGRAL[token], rel=1e-10)

    @pytest.mark.parametrize("token", sorted(ref.INTEGRAL))
    def test_matches_closed_form_tightly(self, token):
        profile = canonical(token)
        result = integrate_inverse_r4(profile, QuadratureConfig(rel_tol=1e-12))
        assert result.value == pytest.approx(inverse_r4_integral(profile), rel=1e-12)

    @pytest.mark.parametrize("token", sorted(ref.WIDE_INTEGRAL))
    def test_wide_geometry(self, token):
        result = integrate_inverse_r4(wide(token), QuadratureConfig(rel_tol=1e-12))
        assert result.converged
        assert result.value == pytest.approx(ref.WIDE_INTEGRAL[token], rel=1e-12)

    def test_tighter_tolerance_does_not_hurt(self):
        # On a geometry needing real refinement the error drops with the
        # budget; allow machine-level jitter where both are converged.
        profile = wide("conical")
        closed = inverse_r4_integral(profile)
        allowance = 4.0 * EPS * closed
        errors = []
        for rel_tol in (1e-4, 1e-6, 1e-9, 1e-12):
            result = integrate_inverse_r4(profile, QuadratureConfig(rel_tol=rel_tol))
            errors.append(abs(result.value - closed))
        for looser, tighter in zip(errors, errors[1:]):
            assert tighter <= looser + allowance

    def test_self_consistency_across_tolerances(self):
        profile = wide("sinusoidal")
        loose = integrate_inverse_r4(profile, QuadratureConfig(rel_tol=1e-6))
        tight = integrate_inverse_r4(profile, QuadratureConfig(rel_tol=1e-12))
        assert abs(loose.value - tight.value) <= loose.error_estimate + 4.0 * EPS * tight.value

    def test_symmetric_halves(self):
        profile = wide("cosh")

        def integrand(x):
            return 1.0 / radius_at(profile, x) ** 4

        cfg = QuadratureConfig(rel_tol=1e-12)
        full = adaptive_integrate(integrand, -profile.half_length, profile.half_length, cfg)
        half = adaptive_integrate(integrand, 0.0, profile.half_length, cfg)
        combined = full.error_estimate + 2.0 * half.error_estimate + 4.0 * EPS * full.value
        assert abs(full.value - 2.0 * half.value) <= combined

    def test_value_within_radius_bounds(self):
        rng = np.random.default_rng(2024)
        for kind in CORRUGATED:
            for _ in range(5):
                profile = random_profile(kind, rng)
                result = integrate_inverse_r4(profile)
                lower = profile.length / profile.r_max**4
                upper = profile.length / profile.r_min**4
                assert lower <= result.value <= upper

    def test_error_estimate_is_sound(self):
        # The Kronrod-Gauss gap should bound the true error essentially
        # always; require 99% over a seeded ensemble.
        tight = QuadratureConfig(rel_tol=1e-13)
        sound = 0
        total = 0
        for kind in CORRUGATED:
            rng = np.random.default_rng([909, kind.value.encode()[0]])
            for _ in range(60):
                profile = random_profile(kind, rng)
                got = integrate_inverse_r4(profile)
                reference = integrate_inverse_r4(profile, tight)
                floor = 4.0 * EPS * abs(reference.value)
                total += 1
                if abs(got.value - reference.value) <= got.error_estimate + floor:
                    sound += 1
        assert sound >= 0.99 * total

    @pytest.mark.parametrize(
        "kind, r_max, rel_tol, share, evaluations",
        [
            (ShapeKind.CONICAL, 2e-3, 1e-15, 1e-6, (135, 15)),
            (ShapeKind.HYPERBOLIC_COSINE, 1e2, 1e-15, 1e-8, (480, 180)),
        ],
        ids=["conical", "cosh"],
    )
    def test_abs_tol_ends_refinement(self, kind, r_max, rel_tol, share, evaluations):
        # abs_tol is in 1/m^3 and the loop runs on F = I r_min^4 / L: a budget
        # of share * I must stop it as soon as the gap falls below that share.
        profile = make_profile(kind, 1e-3, r_max, 0.1)
        exact = inverse_r4_integral(profile)
        bare = integrate_inverse_r4(profile, QuadratureConfig(rel_tol=rel_tol))
        cut = integrate_inverse_r4(profile, QuadratureConfig(rel_tol=rel_tol, abs_tol=share * exact))
        assert (bare.evaluations, cut.evaluations) == evaluations
        # Stopped by abs_tol, not by rel_tol, and still within its estimate of the closed form.
        assert cut.converged and rel_tol * exact < cut.error_estimate <= share * exact
        assert abs(cut.value - exact) <= cut.error_estimate

    def test_abs_tol_where_the_unit_underflows(self):
        # L/r_min^4 rounds to 0, so I does too: the same typed error as without abs_tol.
        profile = make_profile(ShapeKind.CONICAL, 1e100, 2e100, 1e-300)
        for abs_tol in (0.0, 1.0):
            with pytest.raises(GeometryRangeError, match="quadrature I = integral"):
                integrate_inverse_r4(profile, QuadratureConfig(abs_tol=abs_tol))

    def test_deterministic(self):
        a = integrate_inverse_r4(wide("parabolic"))
        b = integrate_inverse_r4(wide("parabolic"))
        assert a == b

    def test_same_as_integrating_radius_array(self):
        # The oracle integrates (1/rho)^4 over t in [0, 1] and scales it by
        # L/r_min^4; integrating the public, domain-checked radius_at as
        # 2/r^4 over [0, L/2] gives the same I within both estimates.
        cfg = QuadratureConfig(rel_tol=1e-13)
        for profile in [canonical(t) for t in sorted(ref.INTEGRAL)] + [wide(t) for t in sorted(ref.WIDE_INTEGRAL)]:
            def integrand(x):
                return 2.0 / radius_at(profile, x) ** 4

            direct = adaptive_integrate(integrand, 0.0, profile.half_length, cfg)
            oracle = integrate_inverse_r4(profile, cfg)
            allowance = oracle.error_estimate + direct.error_estimate + 4.0 * EPS * direct.value
            assert abs(oracle.value - direct.value) <= allowance, profile


# r_max/r_min from near-degenerate to the double range's end.
WIDE_RATIOS = (1.0 + 1e-12, 1.0 + 1e-6, 2.0, 1e2, 1e6, 1e10, 1e17, 1e30, 1e100, 1e300)


class TestWideRange:
    """The oracle converges onto the closed form over the whole ratio range,
    with no warning; the graded first partition resolves the waist peak."""

    @pytest.mark.parametrize("kind", CORRUGATED, ids=lambda kind: kind.value)
    def test_converges_onto_the_closed_form(self, kind):
        for ratio in WIDE_RATIOS:
            profile = make_profile(kind, 1e-3, 1e-3 * ratio, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = integrate_inverse_r4(profile)
            assert result.converged, profile
            assert result.value == pytest.approx(inverse_r4_integral(profile), rel=1e-12), profile
            assert result.evaluations <= 20_000, profile

    def test_widest_cosh_tube(self):
        # r_max/r_min is the largest double, so cosh(w) sits at the double range's end.
        profile = make_profile(ShapeKind.HYPERBOLIC_COSINE, 1.0, sys.float_info.max, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = integrate_inverse_r4(profile)
        assert result.converged
        assert result.value == pytest.approx(inverse_r4_integral(profile), rel=1e-12)

    def test_overflowing_rho_counts_as_zero(self, monkeypatch):
        # math.cosh raises OverflowError past the double range; 1/rho is 0 there.
        # With rho = cosh(1000 t), F = int_0^1 sech^4(1000 t) dt = (2/3)/1000.
        def rho(d):
            return lambda t: math.cosh(1e3 * t)

        kind = ShapeKind.HYPERBOLIC_COSINE
        monkeypatch.setitem(geometry._SHAPES, kind, geometry._SHAPES[kind]._replace(rho=rho))
        result = integrate_inverse_r4(make_profile(kind, 1e-3, 2e-3, 1.0))
        assert result.converged
        assert result.value == pytest.approx((2.0 / 3.0) / 1e3 / 1e-12, rel=1e-12)

    def test_no_converged_zero(self):
        # The waist peak, ~1e-303 wide in t, once fell between the nodes: the
        # estimate and its gap underflowed to 0, and 0 <= 0 met the budget
        # after 15 evaluations.  I = L/(3 r_min^3 r_max) to 1e-303 relative.
        result = integrate_inverse_r4(make_profile(ShapeKind.CONICAL, 1e-3, 1e300, 1.0))
        assert result.converged
        assert result.value == pytest.approx(1.0 / (3.0 * 1e-9 * 1e300), rel=1e-12)

    def test_sinusoidal_waist_does_not_cancel(self):
        # At r_max/r_min = 1e17, a - b cos(kx) cancelled to 0 near the waist
        # and the oracle stopped on "non_finite"; rho = 1 + d sin^2 cannot.
        profile = make_profile(ShapeKind.SINUSOIDAL, 1e-3, 1e14, 1.0)
        assert integrate_inverse_r4(profile).stop_reason == "converged"
        assert numeric_pressure_drop(profile, ref.FLOW, WATER) == pytest.approx(
            pressure_drop(profile, ref.FLOW, WATER), rel=1e-12
        )


def fold_profiles(kind):
    """Random draws from the verified envelope, a near-degenerate and a ratio-100 tube."""
    rng = np.random.default_rng([31, _KIND_STREAM[kind]])
    profiles = [random_profile(kind, rng) for _ in range(25)]
    if kind is not ShapeKind.STRAIGHT:
        profiles += [make_profile(kind, 1e-3, 1e-3 * (1.0 + 1e-9), 0.1), make_profile(kind, 2e-5, 2e-3, 0.4)]
    return profiles


class TestFold:
    """The oracle's half-tube integral against a plain full-tube one."""

    @staticmethod
    def full_tube(profile):
        return adaptive_integrate(
            lambda x: 1.0 / radius_at(profile, x) ** 4, -profile.half_length, profile.half_length
        )

    @pytest.mark.parametrize("kind", list(ShapeKind), ids=lambda kind: kind.value)
    def test_agrees_with_the_full_tube_for_less_work(self, kind):
        for profile in fold_profiles(kind):
            folded = integrate_inverse_r4(profile)
            full = self.full_tube(profile)
            assert folded.converged and full.converged
            # Both estimates can be 0 on one panel; 4 eps I covers the rounding.
            allowance = folded.error_estimate + full.error_estimate + 4.0 * EPS * full.value
            assert abs(folded.value - full.value) <= allowance, profile
            assert folded.evaluations <= full.evaluations, profile


def staggered_integrand(max_depth, decay=64.0, excess=30.0, rel_tol=1e-3):
    """An integrand on [0, 1] that keeps refining one panel per generation
    until the generation limit, 2 * max_depth + 8, runs out.

    Numbering panels in the order they are evaluated (the children of
    panel j are then 2j+1 and 2j+2), it hands panel j < 2 * max_depth + 8
    the integral decay**-j and a Kronrod-Gauss gap ``excess`` times its
    width's share of a budget at that scale, and every later panel
    nothing.  Panel j is then the only panel worth splitting at generation
    j.  It relies on adaptive_integrate evaluating one panel at a time,
    with 15 calls each and a left child before its right sibling.
    """
    calls = itertools.count()

    def bounds(j):
        if j == 0:
            return 0.0, 1.0
        a, b = bounds((j - 1) // 2)
        mid = 0.5 * (a + b)
        return (a, mid) if j % 2 else (mid, b)

    def fn(x):
        j = next(calls) // 15
        if j >= 2 * max_depth + 8:
            return 0.0
        a, b = bounds(j)
        half = 0.5 * (b - a)
        mass = decay**-j
        gap = excess * 2.0 * half * rel_tol * mass
        value = (mass - gap) / (2.0 * half)
        if x < 0.5 * (a + b) - half * _KRONROD_POSITIVE[1]:
            # The outermost left node, which is not a Gauss node.
            value += gap / (half * _KRONROD_PAIR_WEIGHTS[0])
        return value

    return fn


class TestStopReason:
    def test_converged(self):
        result = integrate_inverse_r4(canonical("conical"))
        assert result.stop_reason == "converged"
        assert result.converged

    def test_max_depth(self):
        result = integrate_inverse_r4(wide("conical"), QuadratureConfig(rel_tol=1e-15, max_depth=1))
        assert result.stop_reason == "max_depth"

    def test_rounding_floor(self):
        # On [0, 1.8] the G7 rule misses exp by ~2e-16 relative: a gap over
        # the 1e-17 budget but under the 4 eps rounding floor, so no split.
        result = adaptive_integrate(math.exp, 0.0, 1.8, QuadratureConfig(rel_tol=1e-17))
        assert result.error_estimate > 0.0
        assert result.stop_reason == "rounding_floor"
        assert result.evaluations == 15

    def test_panel_cap(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        result = adaptive_integrate(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, QuadratureConfig(rel_tol=1e-12))
        assert result.stop_reason == "panel_cap"

    def test_generation_limit(self):
        config = QuadratureConfig(rel_tol=1e-3, max_depth=5)
        result = adaptive_integrate(staggered_integrand(5), 0.0, 1.0, config)
        assert result.stop_reason == "generation_limit"
        # One split in each of the 2 * 5 + 8 generations.
        assert result.evaluations == 15 * (1 + 2 * 18)

    def test_non_finite(self):
        # An infinite estimate would otherwise meet its own infinite budget.
        result = adaptive_integrate(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0)
        assert result.stop_reason == "non_finite"
        assert not result.converged


class TestNonConvergence:
    CRAMPED = QuadratureConfig(rel_tol=1e-15, max_depth=1)

    def test_flagged_not_raised(self):
        result = integrate_inverse_r4(wide("conical"), self.CRAMPED)
        assert isinstance(result, QuadratureResult)
        assert not result.converged
        assert result.error_estimate > 0.0

    def test_numeric_pressure_drop_raises(self):
        with pytest.raises(NotConvergedError) as excinfo:
            numeric_pressure_drop(wide("conical"), ref.FLOW, WATER, self.CRAMPED)
        partial = excinfo.value.result
        assert isinstance(partial, QuadratureResult)
        assert not partial.converged
        assert str(excinfo.value).startswith("integral did not converge (max_depth): ")

    def test_verify_analytic_reports_failure(self):
        report = verify_analytic(wide("conical"), 1e-9, self.CRAMPED)
        assert not report.converged
        assert not report.passed


class TestNumericPressureDrop:
    def test_straight(self):
        got = numeric_pressure_drop(canonical("straight"), ref.FLOW, WATER)
        assert got == pytest.approx(0.254648, rel=1e-5)
        assert got == pytest.approx(ref.PRESSURE["straight"], rel=1e-13)

    def test_sinusoidal(self):
        got = numeric_pressure_drop(canonical("sinusoidal"), ref.FLOW, WATER)
        assert got == pytest.approx(8.8627e-2, rel=1e-4)
        assert got == pytest.approx(ref.PRESSURE["sinusoidal"], rel=1e-10)

    def test_zero_flow(self):
        assert numeric_pressure_drop(canonical("conical"), 0.0, WATER) == 0.0

    def test_agrees_with_closed_form(self):
        for token in sorted(ref.PRESSURE):
            profile = canonical(token)
            numeric = numeric_pressure_drop(profile, ref.FLOW, WATER)
            analytic = pressure_drop(profile, ref.FLOW, WATER)
            assert numeric == pytest.approx(analytic, rel=1e-10)


class TestVerifyAnalytic:
    def test_conical_passes(self):
        report = verify_analytic(canonical("conical"), 1e-9)
        assert report.converged
        assert report.passed
        assert report.relative_discrepancy <= 1e-9
        assert report.profile.kind is ShapeKind.CONICAL

    def test_degenerate_passes_tight(self):
        profile = make_profile(ShapeKind.PARABOLIC, 1e-3, 1e-3, 0.1)
        report = verify_analytic(profile, 1e-12)
        assert report.converged
        assert report.passed

    def test_reference_operating_point(self):
        # The report is computed at Q=1, mu=1, so the analytic side must
        # equal the closed form there.
        profile = canonical("hyperbolic")
        report = verify_analytic(profile, 1e-9)
        assert report.analytic_pressure_drop == pressure_drop(profile, 1.0, Fluid(1.0))


class TestWorstFirst:
    """The panel cap keeps the worst offenders: larger gap first, and of
    equal gaps the lower panel index."""

    def test_ties_go_to_the_lower_index(self):
        assert _worst_first([1.0, 2.0, 2.0, 1.0, 2.0], [0, 1, 2, 3, 4], 2) == [1, 2]
        assert _worst_first([1.0, 2.0, 2.0, 1.0, 2.0], [0, 3, 4], 2) == [0, 4]

    def test_matches_the_ranking_rule_with_ties(self):
        rng = random.Random(41)
        for _ in range(500):
            n = rng.randint(2, 60)
            gap = [rng.choice([0.0, 1e-9, 2.5e-9, 1e-7]) for _ in range(n)]
            split = [i for i in range(n) if rng.random() < 0.7]
            if not split:
                continue
            room = rng.randint(1, len(split))
            ranked = sorted(split, key=lambda i: (-gap[i], i))
            assert _worst_first(gap, split, room) == sorted(ranked[:room])


class TestSweepCallContract:
    """verification_sweep reaches its parts through quadrature's module
    globals, once per trial, so wrappers swapped onto them see every trial
    (the traced verify pass of perfbench relies on this)."""

    NAMES = ("random_profile", "verify_analytic", "integrate_inverse_r4", "pressure_drop")

    def test_each_part_called_once_per_trial(self, monkeypatch):
        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            original = getattr(quadrature, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(quadrature, name, counted)
        reports = verification_sweep(CORRUGATED, 20, 1e-9, seed=3)
        assert len(reports) == 100
        assert calls == dict.fromkeys(self.NAMES, 100)

    def test_radius_array_resolves(self):
        assert quadrature.radius_array is radius_array


class TestSweep:
    def test_deterministic(self):
        a = verification_sweep([ShapeKind.CONICAL], 5, 1e-9, seed=42)
        b = verification_sweep([ShapeKind.CONICAL], 5, 1e-9, seed=42)
        assert a == b

    def test_seed_changes_draws(self):
        a = verification_sweep([ShapeKind.CONICAL], 3, 1e-9, seed=1)
        b = verification_sweep([ShapeKind.CONICAL], 3, 1e-9, seed=2)
        assert [r.profile for r in a] != [r.profile for r in b]

    def test_shape_subsets_reproduce(self):
        # A shape's draws do not depend on which other shapes are swept.
        pair = verification_sweep([ShapeKind.CONICAL, ShapeKind.SINUSOIDAL], 3, 1e-9, seed=7)
        solo = verification_sweep([ShapeKind.SINUSOIDAL], 3, 1e-9, seed=7)
        assert pair[3:] == solo

    def test_report_order(self):
        reports = verification_sweep([ShapeKind.CONICAL, ShapeKind.PARABOLIC], 2, 1e-9, seed=3)
        kinds = [r.profile.kind for r in reports]
        assert kinds == [ShapeKind.CONICAL] * 2 + [ShapeKind.PARABOLIC] * 2

    def test_small_sweep_passes(self):
        reports = verification_sweep(CORRUGATED, 10, 1e-9, seed=11)
        assert len(reports) == 50
        assert all(r.passed for r in reports)

    def test_random_profile_envelope(self):
        rng = np.random.default_rng(5)
        for kind in CORRUGATED:
            for _ in range(20):
                profile = random_profile(kind, rng)
                assert 1e-6 <= profile.r_min <= 1e-2
                assert 1.0 < profile.r_max / profile.r_min <= 100.0
                assert 1e-4 <= profile.length <= 10.0

    def test_random_profile_straight(self):
        rng = np.random.default_rng(6)
        profile = random_profile(ShapeKind.STRAIGHT, rng)
        assert profile.r_max == profile.r_min

    def test_random_profile_matches_uniform_draws(self):
        # One rng.random(n) call of the sweep's generator gives the draws
        # numpy's rng.uniform would, in order.
        for kind in ShapeKind:
            rng = Generator([8, _KIND_STREAM[kind]])
            twin = np.random.default_rng([8, _KIND_STREAM[kind]])
            for _ in range(200):
                profile = random_profile(kind, rng)
                r_min = 10.0 ** twin.uniform(-6.0, -2.0)
                r_max = r_min
                if kind is not ShapeKind.STRAIGHT:
                    r_max = r_min * (1.0 + 10.0 ** twin.uniform(-9.0, math.log10(99.0)))
                length = 10.0 ** twin.uniform(-4.0, 1.0)
                assert (profile.r_min, profile.r_max, profile.length) == (r_min, r_max, length)

    @pytest.mark.parametrize("seed", [-1, -(2**64), 1.5, 3.0, "3", None, [3]], ids=repr)
    def test_bad_seed_is_typed(self, seed):
        with pytest.raises(QuadratureInputError, match="seed must be a non-negative integer") as info:
            verification_sweep(CORRUGATED, 1, 1e-9, seed)
        assert isinstance(info.value, CapillaryFlowError) and isinstance(info.value, ValueError)

    def test_integer_like_seeds(self):
        # Anything with __index__ seeds as its integer, as numpy's SeedSequence takes it.
        want = verification_sweep([ShapeKind.CONICAL], 2, 1e-9, seed=5)
        assert verification_sweep([ShapeKind.CONICAL], 2, 1e-9, seed=np.int64(5)) == want
        assert verification_sweep([ShapeKind.CONICAL], 2, 1e-9, seed=True) == (
            verification_sweep([ShapeKind.CONICAL], 2, 1e-9, seed=1))

    def test_reports_carry_evaluations(self):
        config = QuadratureConfig(rel_tol=1e-12)
        for report in verification_sweep(CORRUGATED, 4, 1e-9, seed=12, config=config):
            assert report.evaluations == integrate_inverse_r4(report.profile, config).evaluations
            assert report.evaluations % 15 == 0
