"""The one finite-input check and the one formatter of an input in a message.

Each "positive finite" rule accepts the largest double itself, and
``abs_tol`` accepts both zeros.  An int too long for ``repr`` to print
(more than ``sys.get_int_max_str_digits()`` digits) gets its input's typed
error, with the message naming it instead of showing it; an input that
``repr`` prints is shown as before.
"""

import sys

import pytest

from capflow import (
    Fluid,
    NonPositiveRadiusError,
    QuadratureConfig,
    QuadratureInputError,
    RadiusProfile,
    ShapeKind,
    verification_sweep,
)
from capflow.errors import _shown

BIG = sys.float_info.max
TOO_LONG = 10**5000

ACCEPTS_THE_LARGEST_DOUBLE = {
    "RadiusProfile.r_min": lambda: RadiusProfile(ShapeKind.CONICAL, BIG, BIG, 0.1).r_min,
    "RadiusProfile.r_max": lambda: RadiusProfile(ShapeKind.CONICAL, 1e-3, BIG, 0.1).r_max,
    "RadiusProfile.length": lambda: RadiusProfile(ShapeKind.CONICAL, 1e-3, 2e-3, BIG).length,
    "Fluid": lambda: Fluid(BIG).viscosity,
    "QuadratureConfig.rel_tol": lambda: QuadratureConfig(rel_tol=BIG).rel_tol,
    "QuadratureConfig.abs_tol": lambda: QuadratureConfig(abs_tol=BIG).abs_tol,
}


@pytest.mark.parametrize("name", sorted(ACCEPTS_THE_LARGEST_DOUBLE))
def test_the_largest_double_is_finite(name):
    assert ACCEPTS_THE_LARGEST_DOUBLE[name]() == BIG


@pytest.mark.parametrize("zero", [0.0, -0.0, 0])
def test_abs_tol_accepts_zero(zero):
    assert QuadratureConfig(abs_tol=zero).abs_tol == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: QuadratureConfig(max_depth=-TOO_LONG), "max_depth must be >= 1, got <int too long to print>"),
        (lambda: verification_sweep([ShapeKind.CONICAL], -TOO_LONG, 1e-9, 0),
         "trials must be >= 1, got <int too long to print>"),
        (lambda: verification_sweep([ShapeKind.CONICAL], 1, 1e-9, -TOO_LONG),
         "seed must be a non-negative integer, got <int too long to print>"),
    ],
    ids=["max_depth", "trials", "seed"],
)
def test_a_negative_int_too_long_to_print(call, message):
    with pytest.raises(QuadratureInputError) as info:
        call()
    assert str(info.value) == message


def test_a_value_too_long_to_print_is_named():
    with pytest.raises(NonPositiveRadiusError, match="^r_min must be a positive finite length, got <int too long"):
        RadiusProfile(ShapeKind.CONICAL, TOO_LONG, 1.0, 1.0)
    assert _shown(-5) == "-5" and _shown("5") == "'5'" and _shown(float("nan")) == "nan"
    assert _shown(TOO_LONG) == "<int too long to print>"
    assert _shown([TOO_LONG]) == "<list too long to print>"
