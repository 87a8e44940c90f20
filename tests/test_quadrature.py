import itertools
import math

import numpy as np
import pytest

import reference_data as ref
from strategies import CORRUGATED

from capflow import (
    DEFAULT_CONFIG,
    Fluid,
    NotConvergedError,
    QuadratureConfig,
    QuadratureResult,
    ShapeKind,
    adaptive_integrate,
    integrate_inverse_r4,
    inverse_r4_integral,
    make_profile,
    numeric_pressure_drop,
    pressure_drop,
    radius_array,
    random_profile,
    verification_sweep,
    verify_analytic,
)
from capflow import quadrature
from capflow.quadrature import _KIND_STREAM, _NODES, _WEIGHTS_G7, _WEIGHTS_K15, _worst_first

KIND_BY_TOKEN = {kind.value: kind for kind in ShapeKind}
WATER = Fluid(viscosity=ref.VISCOSITY)

EPS = np.finfo(float).eps


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

    def test_weights_sum_to_interval_length(self):
        assert float(_WEIGHTS_K15.sum()) == pytest.approx(2.0, rel=1e-15)
        assert float(_WEIGHTS_G7.sum()) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("m", range(0, 23, 2))
    def test_kronrod_even_moments_through_degree_22(self, m):
        got = float(_WEIGHTS_K15 @ _NODES**m)
        assert got == pytest.approx(2.0 / (m + 1), rel=2e-15)

    @pytest.mark.parametrize("m", range(0, 13, 2))
    def test_gauss_even_moments_through_degree_13(self, m):
        got = float(_WEIGHTS_G7 @ _NODES[1::2] ** m)
        assert got == pytest.approx(2.0 / (m + 1), rel=2e-15)

    @pytest.mark.parametrize("m", range(1, 23, 2))
    def test_odd_moments_vanish(self, m):
        assert abs(float(_WEIGHTS_K15 @ _NODES**m)) < 1e-15
        assert abs(float(_WEIGHTS_G7 @ _NODES[1::2] ** m)) < 1e-15

    def test_degrees_are_sharp(self):
        k24 = float(_WEIGHTS_K15 @ _NODES**24)
        g14 = float(_WEIGHTS_G7 @ _NODES[1::2] ** 14)
        assert abs(k24 - 2.0 / 25.0) / (2.0 / 25.0) > 1e-9
        assert abs(g14 - 2.0 / 15.0) / (2.0 / 15.0) > 1e-4


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


class TestAdaptiveIntegrate:
    def test_polynomial_is_exact_on_one_panel(self):
        result = adaptive_integrate(lambda x: x * x, 0.0, 1.0)
        assert result.value == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert result.converged
        assert result.evaluations == 15

    def test_transcendental(self):
        result = adaptive_integrate(np.exp, 0.0, 1.0)
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
            adaptive_integrate(np.exp, 1.0, 1.0)
        with pytest.raises(ValueError):
            adaptive_integrate(np.exp, 2.0, 1.0)

    def test_evaluations_count_points(self):
        result = adaptive_integrate(np.cos, 0.0, 40.0, QuadratureConfig(rel_tol=1e-12))
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
            return 1.0 / radius_array(profile, x) ** 4

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

    def test_deterministic(self):
        a = integrate_inverse_r4(wide("parabolic"))
        b = integrate_inverse_r4(wide("parabolic"))
        assert a == b

    def test_same_as_integrating_radius_array(self):
        # The oracle integrates 2/r^4 over [0, L/2] with the formula the
        # public samplers use (bound once, unclamped).  No node of these
        # profiles meets the samplers' clamp, so integrating the
        # domain-checked radius_array the same way gives exactly the same.
        cfg = QuadratureConfig(rel_tol=1e-13)
        for profile in [canonical(t) for t in sorted(ref.INTEGRAL)] + [wide(t) for t in sorted(ref.WIDE_INTEGRAL)]:
            def integrand(x):
                return 2.0 / radius_array(profile, x) ** 4

            direct = adaptive_integrate(integrand, 0.0, profile.half_length, cfg)
            assert integrate_inverse_r4(profile, cfg) == direct


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
            lambda x: 1.0 / radius_array(profile, x) ** 4, -profile.half_length, profile.half_length
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
    """An integrand that keeps refining one panel per generation until the
    generation limit, 2 * max_depth + 8, runs out.

    Numbering panels breadth-first (the children of panel j are 2j+1 and
    2j+2), it hands panel j < 2 * max_depth + 8 the integral decay**-j and a
    Kronrod-Gauss gap ``excess`` times its width's share of a budget at
    that scale, and every later panel nothing.  Panel j is then the only
    panel worth splitting at generation j.  It relies on the evaluation
    order of adaptive_integrate: one call per generation, left children
    before right ones.
    """
    generations = itertools.count()

    def fn(x):
        generation = next(generations)
        ids = [0] if generation == 0 else [2 * generation - 1, 2 * generation]
        half = 0.5 * (x[:, -1] - x[:, 0]) / _NODES[-1]
        f = np.zeros_like(x)
        for row, j in enumerate(ids):
            if j < 2 * max_depth + 8:
                mass = decay**-j
                gap = excess * 2.0 * half[row] * rel_tol * mass
                f[row] = (mass - gap) / (2.0 * half[row])
                f[row, 0] += gap / (half[row] * _WEIGHTS_K15[0])  # not a Gauss node
        return f

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
        # One panel already meets exp at rounding level; 1e-17 asks for more.
        result = adaptive_integrate(np.exp, 0.0, 1.0, QuadratureConfig(rel_tol=1e-17))
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
        result = adaptive_integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)
        assert result.stop_reason == "non_finite"
        assert not result.converged

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_non_finite_sinusoidal_waist(self):
        # At r_max/r_min = 1e17, a - b cos(kx) cancels to 0 near the waist,
        # and numpy warns as 2/r^4 divides by it.
        profile = make_profile(ShapeKind.SINUSOIDAL, 1e-3, 1e14, 1.0)
        assert integrate_inverse_r4(profile).stop_reason == "non_finite"
        with pytest.raises(NotConvergedError, match=r"\(non_finite\)"):
            numeric_pressure_drop(profile, ref.FLOW, WATER)


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
    """The panel cap keeps the worst offenders, ties broken as the original
    array form of the rule broke them."""

    @staticmethod
    def array_rule(gap, can_split, room):
        order = np.argsort(gap)[::-1]
        keep = order[can_split[order]][:room]
        mask = np.zeros_like(can_split)
        mask[keep] = True
        return np.flatnonzero(mask).tolist()

    def test_matches_the_array_rule_with_ties(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            n = int(rng.integers(2, 60))
            gap = rng.choice([0.0, 1e-9, 2.5e-9, 1e-7], size=n)
            can_split = rng.random(n) < 0.7
            split = np.flatnonzero(can_split).tolist()
            if not split:
                continue
            room = int(rng.integers(1, len(split) + 1))
            assert _worst_first(gap.tolist(), split, room) == self.array_rule(gap, can_split, room)


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
        # One rng.random(n) call gives the draws rng.uniform would, in order.
        for kind in ShapeKind:
            rng = np.random.default_rng([8, _KIND_STREAM[kind]])
            twin = np.random.default_rng([8, _KIND_STREAM[kind]])
            for _ in range(200):
                profile = random_profile(kind, rng)
                r_min = 10.0 ** twin.uniform(-6.0, -2.0)
                r_max = r_min
                if kind is not ShapeKind.STRAIGHT:
                    r_max = r_min * (1.0 + 10.0 ** twin.uniform(-9.0, math.log10(99.0)))
                length = 10.0 ** twin.uniform(-4.0, 1.0)
                assert (profile.r_min, profile.r_max, profile.length) == (r_min, r_max, length)

    def test_reports_carry_evaluations(self):
        config = QuadratureConfig(rel_tol=1e-12)
        for report in verification_sweep(CORRUGATED, 4, 1e-9, seed=12, config=config):
            assert report.evaluations == integrate_inverse_r4(report.profile, config).evaluations
            assert report.evaluations % 15 == 0
