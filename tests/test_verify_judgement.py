"""``verify_analytic`` judges a discrepancy, and ``verification_sweep`` takes seed 0.

A converged oracle whose closed form is off by far more than the tolerance
and the oracle's own relative error estimate must fail; a sweep with seed 0
draws each shape's profiles from ``Generator([0, index])``, index being the
shape's place in ``ShapeKind``.
"""

import pytest

from capflow import (
    CORRUGATED,
    ShapeKind,
    make_profile,
    quadrature,
    random_profile,
    verification_sweep,
    verify_analytic,
)
from capflow._pcg64 import Generator


@pytest.mark.parametrize("kind", CORRUGATED)
def test_a_converged_trial_fails_on_its_discrepancy(kind, monkeypatch):
    profile = make_profile(kind, 1e-3, 2e-3, 0.1)
    closed_form = quadrature.pressure_drop
    monkeypatch.setattr(quadrature, "pressure_drop", lambda *args: closed_form(*args) * (1.0 + 1e-6))
    report = verify_analytic(profile, 1e-9)
    assert report.converged and not report.passed
    assert report.oracle_error_estimate > 0.0
    assert report.relative_discrepancy == pytest.approx(1e-6, rel=1e-3)


def test_seed_zero_draws_from_generator_zero():
    kinds = [ShapeKind.SINUSOIDAL, ShapeKind.CONICAL]
    reports = verification_sweep(kinds, 2, 1e-9, seed=0)
    expected = []
    for kind in kinds:
        rng = Generator([0, list(ShapeKind).index(kind)])
        expected += [random_profile(kind, rng) for _ in range(2)]
    assert [report.profile for report in reports] == expected
    assert all(report.passed for report in reports)
