"""Regenerate the independent reference values of I = int dx / r(x)^4 and of r(x).

    PYTHONPATH=src:tests python tests/make_reference_integrals.py

For every profile of the pinned sweeps in ``test_oracle_pin``, a grid of
near-degenerate to wide profiles and a grid of very wide ones
(r_max/r_min up to 1e300, L up to 1e200), this evaluates I with mpmath at
40 digits, straight from the radius definitions: no closed form,
coefficient or quadrature code of capflow is used, only its random draws.
With t = 2|x|/L in [0, 1] each r is written out as

    conical      r_min + (r_max - r_min) t
    parabolic    r_min + (r_max - r_min) t^2
    hyperbolic   sqrt(r_min^2 + (r_max^2 - r_min^2) t^2)
    cosh         r_min cosh(arccosh(r_max/r_min) t)
    sinusoidal   (r_max + r_min)/2 - (r_max - r_min)/2 cos(pi t)
    straight     r_min

and I = L int_0^1 dt / r^4, because r is even about the waist.  The
sinusoidal form cancels near the waist, so it is evaluated with
log10(r_max/r_min) extra digits.  The interval is split geometrically
towards the waist, down to t = 1/ratio, since a wide tube's integrand
peaks there, and each panel is scaled to order one before mpmath
integrates it.  Each value is computed twice (tanh-sinh and
Gauss-Legendre), and the script stops if the two disagree beyond 1e-25
relative.  The inputs are the exact doubles the tests pass, and each
value is stored rounded to the nearest double, as ``float.hex``, in the
generated block of ``reference_data.py``.

The same definitions give the radii at the sample points of
``sample_profile`` (the x column, which is numpy's linspace) for the
``SAMPLED_GEOMETRIES`` of ``test_oracle_pin`` and the very wide grid.
Both halves are stored: linspace's points are not mirror images to the
last bit.
"""

from __future__ import annotations

import pathlib
import re

import mpmath
import numpy as np
from mpmath import mp, mpf

from capflow import CORRUGATED, QuadratureConfig, ShapeKind, make_profile, verification_sweep
from test_oracle_pin import PIN_SEEDS, PIN_TRIALS, SAMPLED_GEOMETRIES

DIGITS = 40
AGREEMENT = mpf("1e-25")

# (r_min, length) pairs crossed with the r_max/r_min ratios below.
GRID_GEOMETRIES = ((1e-3, 0.1), (2.5e-6, 3.0))
GRID_RATIO_EXCESSES = (1e-9, 1e-4, 1.0, 99.0, 999.0, 9999.0)
WIDE_GEOMETRIES = ((1e-3, 1.0), (1e-8, 1e-100), (1e-3, 1e200))
WIDE_RATIOS = (1e6, 1e10, 1e30, 1e100, 1e300)

# Sample counts of the stored radii: SAMPLED_GEOMETRIES' largest, and the wide grid's.
SAMPLED_POINTS = 101
WIDE_POINTS = 11

BLOCK_START = "# --- independent reference for I (tests/test_mp_reference.py) ---\n"
BLOCK_END = "# --- end of the generated reference block ---\n"


def radius(kind: ShapeKind, r_min: mpf, r_max: mpf):
    """r as a function of t, at the working precision of the call."""
    if kind is ShapeKind.STRAIGHT:
        return lambda t: r_min
    if kind is ShapeKind.CONICAL:
        return lambda t: r_min + (r_max - r_min) * t
    if kind is ShapeKind.PARABOLIC:
        return lambda t: r_min + (r_max - r_min) * t**2
    if kind is ShapeKind.HYPERBOLIC:
        return lambda t: mpmath.sqrt(r_min**2 + (r_max**2 - r_min**2) * t**2)
    if kind is ShapeKind.HYPERBOLIC_COSINE:
        rate = mpmath.acosh(r_max / r_min)
        return lambda t: r_min * mpmath.cosh(rate * t)
    extra = int(mpmath.ceil(mpmath.log10(r_max / r_min))) + 5

    def sinusoidal(t):
        with mp.extradps(extra):
            return (r_max + r_min) / 2 - (r_max - r_min) / 2 * mpmath.cos(mpmath.pi * t)

    return sinusoidal


def splits(profile) -> list:
    """Panel edges in t: 0, 10^-k down to 1/ratio (and at least 1e-6), 0.1, 0.5, 1."""
    deepest = max(6, int(mpmath.ceil(mpmath.log10(mpf(profile.r_max) / mpf(profile.r_min)))))
    return [0, *(mpf(10) ** -k for k in range(deepest, 0, -1)), mpf("0.5"), 1]


def panel_integral(f, a, b, method: str):
    """int_a^b f for a decreasing f > 0, as (b - a) f(a) int_0^1 f(a + (b - a) u) / f(a) du.

    mp.quad stops on an absolute error estimate, so each panel is scaled
    to order one first: the values of a wide tube are as small as 1e-300.
    """
    width = b - a
    peak = f(a)
    return width * peak * mp.quad(lambda u: f(a + width * u) / peak, [0, 1], method=method)


def reference_integral(profile) -> float:
    r = radius(profile.kind, mpf(profile.r_min), mpf(profile.r_max))
    edges = splits(profile)
    values = [
        mpf(profile.length) * mpmath.fsum(panel_integral(lambda t: 1 / r(t) ** 4, a, b, method)
                                          for a, b in zip(edges, edges[1:]))
        for method in ("tanh-sinh", "gauss-legendre")
    ]
    if abs(values[0] - values[1]) > AGREEMENT * abs(values[0]):
        raise SystemExit(f"methods disagree for {profile}: {values}")
    return float(values[0])


def reference_radii(profile, n: int) -> list[float]:
    """r at the points of sample_profile(profile, n), rounded to doubles."""
    r = radius(profile.kind, mpf(profile.r_min), mpf(profile.r_max))
    xs = np.linspace(-profile.half_length, profile.half_length, n)
    return [float(r(2 * abs(mpf(float(x))) / mpf(profile.length))) for x in xs]


def wide_profiles():
    for r_min, length in WIDE_GEOMETRIES:
        yield make_profile(ShapeKind.STRAIGHT, r_min, r_min, length)
        for kind in CORRUGATED:
            for ratio in WIDE_RATIOS:
                yield make_profile(kind, r_min, r_min * ratio, length)


def profiles():
    """The pinned sweeps' profiles, the ratio grid and the wide grid, for every shape."""
    # The draws do not depend on the oracle's configuration; a loose one is cheapest.
    loose = QuadratureConfig(rel_tol=1e-6, max_depth=3)
    for seed in PIN_SEEDS:
        for report in verification_sweep(CORRUGATED, PIN_TRIALS, 1e-9, seed, loose):
            yield report.profile
    for r_min, length in GRID_GEOMETRIES:
        yield make_profile(ShapeKind.STRAIGHT, r_min, r_min, length)
        for kind in CORRUGATED:
            for excess in GRID_RATIO_EXCESSES:
                yield make_profile(kind, r_min, r_min * (1.0 + excess), length)
    yield from wide_profiles()


def sampled_profiles():
    """(profile, n) whose radii are stored: SAMPLED_GEOMETRIES, then the wide grid."""
    for kind in ShapeKind:
        for r_min, r_max, length in SAMPLED_GEOMETRIES:
            if kind is not ShapeKind.STRAIGHT or r_max == r_min:
                yield make_profile(kind, r_min, r_max, length), SAMPLED_POINTS
    for profile in wide_profiles():
        yield profile, WIDE_POINTS


def geometry(p) -> str:
    return f"{p.kind.value!r}, {p.r_min.hex()!r}, {p.r_max.hex()!r}, {p.length.hex()!r}"


def block(integral_rows: list[str], radius_rows: list[str]) -> str:
    return (
        BLOCK_START
        + "#\n"
        + "# (shape, r_min, r_max, length, I) as float.hex: I = int dx / r(x)^4 from a\n"
        + f"# {DIGITS}-digit mpmath quadrature of the radius definitions, rounded to the\n"
        + "# nearest double.  Generated by tests/make_reference_integrals.py; rerun it\n"
        + "# rather than editing these rows.\n"
        + "MP_REFERENCE = (\n"
        + "".join(integral_rows)
        + ")\n"
        + "# (shape, r_min, r_max, length, n, radii): the mpmath r(x), rounded to the\n"
        + "# nearest double, at the points of sample_profile(profile, n).\n"
        + "MP_RADII = (\n"
        + "".join(radius_rows)
        + ")\n"
        + BLOCK_END
    )


def main() -> None:
    mp.dps = DIGITS
    path = pathlib.Path(__file__).with_name("reference_data.py")
    text = path.read_text()
    integral_rows = [f"    ({geometry(p)}, {reference_integral(p).hex()!r}),\n" for p in profiles()]
    radius_rows = [
        f"    ({geometry(p)}, {n}, {' '.join(r.hex() for r in reference_radii(p, n))!r}),\n"
        for p, n in sampled_profiles()
    ]
    generated = block(integral_rows, radius_rows)
    pattern = re.compile(re.escape(BLOCK_START) + ".*?" + re.escape(BLOCK_END), re.S)
    if pattern.search(text):
        text = pattern.sub(lambda _: generated, text)
    else:
        text = text.rstrip("\n") + "\n\n" + generated
    path.write_text(text)
    print(f"wrote {len(integral_rows)} integrals and {len(radius_rows)} radius rows to {path.name}")


if __name__ == "__main__":
    main()
