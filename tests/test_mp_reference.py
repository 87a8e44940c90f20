"""The closed forms and the oracle against an independent 40-digit reference.

``reference_data.MP_REFERENCE`` holds I = int dx / r(x)^4 for every profile
of the pinned sweeps in ``test_oracle_pin`` and for near-degenerate to
wide profiles (r_max/r_min from 1 + 1e-9 to 1e4), computed by mpmath from
the radius definitions (``make_reference_integrals.py``).  The closed forms
must sit at ulp level on it, and every converged oracle result within its
own error estimate of it.
"""

import numpy as np
import pytest

import reference_data as ref
from test_oracle_pin import PIN_CONFIGS, PIN_SEEDS, PIN_TRIALS

from capflow import CORRUGATED, ShapeKind, integrate_inverse_r4, inverse_r4_integral, make_profile, verification_sweep

EPS = np.finfo(float).eps
CLOSED_FORM_BOUND = 2e-15

KIND_BY_TOKEN = {kind.value: kind for kind in ShapeKind}
REFERENCE = {
    (KIND_BY_TOKEN[token], float.fromhex(r_min), float.fromhex(r_max), float.fromhex(length)): float.fromhex(value)
    for token, r_min, r_max, length, value in ref.MP_REFERENCE
}


def reference(profile):
    return REFERENCE[profile.kind, profile.r_min, profile.r_max, profile.length]


def test_covers_every_shape_and_ratio():
    ratios = [r_max / r_min for _, r_min, r_max, _ in REFERENCE]
    assert {kind for kind, *_ in REFERENCE} == set(ShapeKind)
    assert min(r for r in ratios if r > 1.0) < 1.0 + 2e-9
    assert max(ratios) >= 1e4


def test_closed_forms_at_ulp_level():
    worst = max(
        abs(inverse_r4_integral(make_profile(*key)) - value) / value
        for key, value in REFERENCE.items()
    )
    assert worst <= CLOSED_FORM_BOUND, worst


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
