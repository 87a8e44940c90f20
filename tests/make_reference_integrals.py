"""Regenerate the independent reference values of I = int dx / r(x)^4.

    PYTHONPATH=src:tests python tests/make_reference_integrals.py

For every profile of the pinned sweeps in ``test_oracle_pin`` and a grid of
near-degenerate to wide profiles, this evaluates I with mpmath at 40
digits, straight from the radius definitions: no closed form, coefficient
or quadrature code of capflow is used, only its random draws.  With
t = 2x/L in [0, 1] each r is written out as

    conical      r_min + (r_max - r_min) t
    parabolic    r_min + (r_max - r_min) t^2
    hyperbolic   sqrt(r_min^2 + (r_max^2 - r_min^2) t^2)
    cosh         r_min cosh(arccosh(r_max/r_min) t)
    sinusoidal   (r_max + r_min)/2 - (r_max - r_min)/2 cos(pi t)
    straight     r_min

and I = L int_0^1 dt / r^4, because r is even about the waist.  The
interval is split geometrically towards the waist, where a wide tube's
integrand peaks, and each value is computed twice (tanh-sinh and
Gauss-Legendre); the script stops if the two disagree beyond 1e-25
relative.  The inputs are the exact doubles the tests pass, and each value
is stored rounded to the nearest double, as ``float.hex``, in the
generated block of ``reference_data.py``.
"""

from __future__ import annotations

import pathlib
import re

import mpmath
from mpmath import mp, mpf

from capflow import CORRUGATED, QuadratureConfig, ShapeKind, make_profile, verification_sweep
from test_oracle_pin import PIN_SEEDS, PIN_TRIALS

DIGITS = 40
AGREEMENT = mpf("1e-25")
# Panel edges in t: the waist peak of a wide tube is ~1/ratio wide.
SPLITS = (0, mpf("1e-6"), mpf("1e-5"), mpf("1e-4"), mpf("1e-3"), mpf("1e-2"), mpf("0.1"), mpf("0.5"), 1)

# (r_min, length) pairs crossed with the r_max/r_min ratios below.
GRID_GEOMETRIES = ((1e-3, 0.1), (2.5e-6, 3.0))
GRID_RATIO_EXCESSES = (1e-9, 1e-4, 1.0, 99.0, 999.0, 9999.0)

BLOCK_START = "# --- independent reference for I (tests/test_mp_reference.py) ---\n"
BLOCK_END = "# --- end of the generated reference block ---\n"


def radius(kind: ShapeKind, r_min: mpf, r_max: mpf):
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
    return lambda t: (r_max + r_min) / 2 - (r_max - r_min) / 2 * mpmath.cos(mpmath.pi * t)


def reference_integral(profile) -> float:
    r = radius(profile.kind, mpf(profile.r_min), mpf(profile.r_max))
    values = [
        mpf(profile.length) * mp.quad(lambda t: 1 / r(t) ** 4, SPLITS, method=method)
        for method in ("tanh-sinh", "gauss-legendre")
    ]
    if abs(values[0] - values[1]) > AGREEMENT * abs(values[0]):
        raise SystemExit(f"methods disagree for {profile}: {values}")
    return float(values[0])


def profiles():
    """The pinned sweeps' profiles, then the ratio grid for every shape."""
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


def block(rows: list[str]) -> str:
    return (
        BLOCK_START
        + "#\n"
        + "# (shape, r_min, r_max, length, I) as float.hex: I = int dx / r(x)^4 from a\n"
        + f"# {DIGITS}-digit mpmath quadrature of the radius definitions, rounded to the\n"
        + "# nearest double.  Generated by tests/make_reference_integrals.py; rerun it\n"
        + "# rather than editing these rows.\n"
        + "MP_REFERENCE = (\n"
        + "".join(rows)
        + ")\n"
        + BLOCK_END
    )


def main() -> None:
    mp.dps = DIGITS
    path = pathlib.Path(__file__).with_name("reference_data.py")
    text = path.read_text()
    rows = [
        f"    ({p.kind.value!r}, {p.r_min.hex()!r}, {p.r_max.hex()!r}, {p.length.hex()!r}, "
        f"{reference_integral(p).hex()!r}),\n"
        for p in profiles()
    ]
    generated = block(rows)
    pattern = re.compile(re.escape(BLOCK_START) + ".*?" + re.escape(BLOCK_END), re.S)
    if pattern.search(text):
        text = pattern.sub(lambda _: generated, text)
    else:
        text = text.rstrip("\n") + "\n\n" + generated
    path.write_text(text)
    print(f"wrote {len(rows)} reference rows to {path.name}")


if __name__ == "__main__":
    main()
