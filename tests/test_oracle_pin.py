"""Bit-for-bit pin of the quadrature oracle, the seeded verify sweep and
the sampled radius profiles.

The rows below spell out every float with ``float.hex``, so any change in
rounding, summation order, panel bookkeeping or random draws changes the
digest.  The expected digests and a dozen literal rows live in
``reference_data``; the literal rows are compared first so that a failure
shows which field moved.
"""

import hashlib
import math
import subprocess
import sys

import pytest

import reference_data as ref
from procenv import ENV

from capflow import (
    CORRUGATED,
    QuadratureConfig,
    ShapeKind,
    adaptive_integrate,
    integrate_inverse_r4,
    make_profile,
    random_profile,
    sample_profile,
    verification_sweep,
)
from capflow import quadrature
from capflow._pcg64 import Generator

PIN_CONFIGS = (
    ("default", QuadratureConfig()),
    ("tight", QuadratureConfig(rel_tol=1e-13)),
    ("shallow", QuadratureConfig(rel_tol=1e-6, max_depth=3)),
)
PIN_SEEDS = (7, 20261017)
PIN_TRIALS = 20
DRAWS_PER_KIND = 30


def _result_fields(result):
    return [
        result.value.hex(),
        result.error_estimate.hex(),
        str(result.evaluations),
        str(result.converged),
    ]


def oracle_rows():
    """One row per trial of each pinned sweep: draw, oracle result, report."""
    rows = []
    for name, config in PIN_CONFIGS:
        for seed in PIN_SEEDS:
            reports = verification_sweep(CORRUGATED, PIN_TRIALS, 1e-9, seed, config)
            for i, report in enumerate(reports):
                profile = report.profile
                result = integrate_inverse_r4(profile, config)
                rows.append(" ".join([
                    name, str(seed), str(i), profile.kind.value,
                    profile.r_min.hex(), profile.r_max.hex(), profile.length.hex(),
                    *_result_fields(result),
                    report.analytic_pressure_drop.hex(),
                    report.numeric_pressure_drop.hex(),
                    report.relative_discrepancy.hex(),
                    report.oracle_error_estimate.hex(),
                    str(report.converged), str(report.passed),
                ]))
    return rows


def draw_rows():
    """random_profile draws from the sweep's streams for every shape, the straight tube included."""
    rows = []
    for seed in PIN_SEEDS:
        for index, kind in enumerate(ShapeKind):
            rng = Generator([seed, index])
            for i in range(DRAWS_PER_KIND):
                p = random_profile(kind, rng)
                rows.append(f"{seed} {kind.value} {i} {p.r_min.hex()} {p.r_max.hex()} {p.length.hex()}")
    return rows


# (r_min, r_max, length): canonical, wide, near-degenerate, degenerate.
SAMPLED_GEOMETRIES = ((1e-3, 2e-3, 0.1), (5e-5, 4.35e-3, 0.77), (1e-3, 1e-3 * (1.0 + 1e-9), 0.1), (2e-3, 2e-3, 0.3))


def sample_rows():
    """sample_profile radii, as the `profile` command prints them, per shape."""
    rows = []
    for kind in ShapeKind:
        for r_min, r_max, length in SAMPLED_GEOMETRIES:
            if kind is ShapeKind.STRAIGHT and r_max != r_min:
                continue
            for n in (2, 3, 101):
                table = sample_profile(make_profile(kind, r_min, r_max, length), n)
                rows.append(f"{kind.value} {r_min!r} {r_max!r} {length!r} {n} "
                            + " ".join(float(r).hex() for r in table.r))
    return rows


# (label, integrand, lower, upper, config, panel cap or None for the default)
GENERIC_CASES = (
    ("square", lambda x: x * x, 0.0, 1.0, QuadratureConfig(), None),
    ("exp", math.exp, 0.0, 1.0, QuadratureConfig(), None),
    ("peak", lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, QuadratureConfig(rel_tol=1e-12), None),
    ("cos", math.cos, 0.0, 40.0, QuadratureConfig(rel_tol=1e-12), None),
    ("sqrt_abs", lambda x: math.sqrt(abs(x)), -1.0, 2.0, QuadratureConfig(), None),
    ("step", lambda x: 1.0 if x < 1.0 / 3.0 else 2.0, 0.0, 1.0, QuadratureConfig(rel_tol=1e-13), None),
    ("sin_abs_tol", lambda x: math.sin(50.0 * x), 0.0, 3.0, QuadratureConfig(rel_tol=1e-9, abs_tol=1e-3), None),
    ("peak_capped", lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, QuadratureConfig(rel_tol=1e-12), 16),
    ("cos_capped", lambda x: math.cos(40.0 * x), 0.0, 10.0, QuadratureConfig(rel_tol=1e-12), 10),
)

EPS = sys.float_info.epsilon

# The exact integral of each generic case, from its antiderivative.
GENERIC_EXACT = {
    "square": 1.0 / 3.0,
    "exp": math.expm1(1.0),
    "peak": 2.0 * math.atan(1.0 / math.sqrt(1e-4)) / math.sqrt(1e-4),
    "cos": math.sin(40.0),
    "sqrt_abs": (1.0 + 2.0**1.5) * 2.0 / 3.0,
    "step": 2.0 - 1.0 / 3.0,  # the step sits at the double nearest 1/3
    "sin_abs_tol": (1.0 - math.cos(150.0)) / 50.0,
    "peak_capped": 2.0 * math.atan(1.0 / math.sqrt(1e-4)) / math.sqrt(1e-4),
    "cos_capped": math.sin(400.0) / 40.0,
}


def generic_rows(monkeypatch):
    rows = []
    for label, fn, lower, upper, config, cap in GENERIC_CASES:
        with monkeypatch.context() as patch:
            if cap is not None:
                patch.setattr(quadrature, "_MAX_PANELS", cap)
            result = adaptive_integrate(fn, lower, upper, config)
        rows.append(" ".join([label, *_result_fields(result)]))
    return rows


def test_generic_integrands_within_their_estimate(monkeypatch):
    # What backs the generic pin: each converged result lies within its own
    # error estimate of the exact integral.
    converged = 0
    for label, fn, lower, upper, config, cap in GENERIC_CASES:
        with monkeypatch.context() as patch:
            if cap is not None:
                patch.setattr(quadrature, "_MAX_PANELS", cap)
            result = adaptive_integrate(fn, lower, upper, config)
        if result.converged:
            exact = GENERIC_EXACT[label]
            assert abs(result.value - exact) <= result.error_estimate + 4.0 * EPS * abs(exact), label
            converged += 1
    assert converged == sum(cap is None for *_, cap in GENERIC_CASES)


def digest(rows):
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def assert_pinned(rows, literal, expected_digest):
    for index, row in literal:
        assert rows[index] == row
    assert digest(rows) == expected_digest


def test_oracle_sweeps_are_bit_identical():
    rows = oracle_rows()
    assert len(rows) == len(PIN_CONFIGS) * len(PIN_SEEDS) * PIN_TRIALS * len(CORRUGATED)
    assert_pinned(rows, ref.ORACLE_PIN_ROWS, ref.ORACLE_PIN_DIGEST)


def test_random_profile_draws_are_bit_identical():
    rows = draw_rows()
    assert_pinned(rows, ref.DRAW_PIN_ROWS, ref.DRAW_PIN_DIGEST)


def test_sampled_profiles_are_bit_identical():
    rows = sample_rows()
    assert_pinned(rows, ref.SAMPLE_PIN_ROWS, ref.SAMPLE_PIN_DIGEST)


def test_generic_integrands_are_bit_identical(monkeypatch):
    rows = generic_rows(monkeypatch)
    assert_pinned(rows, ref.GENERIC_PIN_ROWS, ref.GENERIC_PIN_DIGEST)


def test_capped_cases_reach_the_cap(monkeypatch):
    # Uncapped they converge, capped they do not: the cap, and with it the
    # worst-first choice of panels to split, is what the pin exercises.
    rows = dict(row.split(" ", 1) for row in generic_rows(monkeypatch))
    for label, fn, lower, upper, config, cap in GENERIC_CASES:
        if cap is not None:
            assert adaptive_integrate(fn, lower, upper, config).converged
            assert rows[label].endswith(" False")


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_verify_stdout_is_byte_identical(fmt):
    proc = subprocess.run(
        [sys.executable, "-m", "capflow", "verify", "--trials", "20", "--seed", "7", "--format", fmt],
        capture_output=True,
        env=ENV,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    first_line, length, expected = ref.VERIFY_STDOUT_PIN[fmt]
    assert proc.stdout.split(b"\n", 1)[0].decode() == first_line
    assert len(proc.stdout) == length
    assert hashlib.sha256(proc.stdout).hexdigest() == expected
