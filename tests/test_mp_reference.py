"""The closed forms, the samplers and the oracle against an independent
40-digit reference.

``reference_data.MP_REFERENCE`` holds I = int dx / r(x)^4 for every profile
of the pinned sweeps in ``test_oracle_pin``, for near-degenerate to wide
profiles (r_max/r_min from 1 + 1e-9 to 1e4) and for very wide ones
(r_max/r_min up to 1e300, L up to 1e200); ``MP_RADII`` holds r(x) at the
points of ``sample_profile`` for ``test_oracle_pin.SAMPLED_GEOMETRIES`` and
the very wide profiles.  mpmath computed both from the radius definitions
(``make_reference_integrals.py``), sharing no formula with capflow.  The
closed forms must sit at ulp level on it, the sampled radii within a few
ulp of it, and every converged oracle result within its own error
estimate of it.
"""

import math
import sys

import numpy as np
import pytest

import reference_data as ref
from test_oracle_pin import PIN_CONFIGS, PIN_SEEDS, PIN_TRIALS

from capflow import (
    CORRUGATED,
    ShapeKind,
    integrate_inverse_r4,
    inverse_r4_integral,
    make_profile,
    sample_profile,
    verification_sweep,
)

EPS = np.finfo(float).eps
CLOSED_FORM_BOUND = 2e-15
RADIUS_ULPS = 8

KIND_BY_TOKEN = {kind.value: kind for kind in ShapeKind}
REFERENCE = {
    (KIND_BY_TOKEN[token], float.fromhex(r_min), float.fromhex(r_max), float.fromhex(length)): float.fromhex(value)
    for token, r_min, r_max, length, value in ref.MP_REFERENCE
}
# The rows whose I is a normal double: the closed forms are held to them.
NORMAL = {key: value for key, value in REFERENCE.items() if sys.float_info.min <= value < math.inf}


def reference(profile):
    return REFERENCE[profile.kind, profile.r_min, profile.r_max, profile.length]


def test_covers_every_shape_and_ratio():
    ratios = [r_max / r_min for _, r_min, r_max, _ in REFERENCE]
    assert {kind for kind, *_ in REFERENCE} == set(ShapeKind)
    assert min(r for r in ratios if r > 1.0) < 1.0 + 2e-9
    assert max(ratios) >= 1e300
    assert max(length for *_, length in REFERENCE) >= 1e200
    assert {token for token, *_ in ref.MP_RADII} == {kind.value for kind in ShapeKind}


def test_closed_forms_at_ulp_level():
    worst = max(abs(inverse_r4_integral(make_profile(*key)) - value) / value for key, value in NORMAL.items())
    assert worst <= CLOSED_FORM_BOUND, worst


def condition(kind, r_min, r_max, t):
    """A bound on rho's condition number |t rho'(t) / rho(t)| at t, at least 1.

    It is at most 2 for the conical, parabolic, hyperbolic and sinusoidal
    profiles at every t and d.  For cosh it is w t tanh(w t), which grows
    with w |t|, w = arccosh(r_max/r_min): the rounding of w t is
    magnified that much.
    """
    if kind is ShapeKind.HYPERBOLIC_COSINE:
        return np.maximum(2.0, math.acosh(r_max / r_min) * t)
    return 2.0


def radius_misses():
    """(profile, worst error in units of the bound) of each MP_RADII row beyond its bound."""
    misses = []
    for token, r_min, r_max, length, n, radii in ref.MP_RADII:
        profile = make_profile(KIND_BY_TOKEN[token], float.fromhex(r_min), float.fromhex(r_max), float.fromhex(length))
        want = np.array([float.fromhex(r) for r in radii.split()])
        table = sample_profile(profile, n)
        t = 2.0 * np.abs(table.x) / profile.length
        bound = RADIUS_ULPS * np.spacing(want) * condition(profile.kind, profile.r_min, profile.r_max, t)
        worst = float(np.max(np.abs(table.r - want) / bound))
        if worst > 1.0:
            misses.append((profile, worst))
    return misses


def test_sampled_radii_within_a_few_ulp():
    assert radius_misses() == []


def test_converged_oracle_on_every_row():
    # Every row, from near-degenerate to r_max/r_min = 1e300, converges
    # under the default configuration and lands within its own estimate.
    for key, value in NORMAL.items():
        result = integrate_inverse_r4(make_profile(*key))
        assert result.converged, key
        assert abs(result.value - value) <= result.error_estimate + 4.0 * EPS * value, key


@pytest.mark.parametrize("name, config", PIN_CONFIGS, ids=[name for name, _ in PIN_CONFIGS])
def test_converged_oracle_within_its_estimate(name, config):
    checked = 0
    for seed in PIN_SEEDS:
        for report in verification_sweep(CORRUGATED, PIN_TRIALS, 1e-9, seed, config):
            result = integrate_inverse_r4(report.profile, config)
            if not result.converged:
                continue
            exact = reference(report.profile)
            assert abs(result.value - exact) <= result.error_estimate + 4.0 * EPS * exact, report.profile
            checked += 1
    assert checked > 0
