"""Acceptance gate: the seven release criteria, one printed line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines; each
criterion prints ``[PASS]``/``[FAIL]`` with its measured worst case before
asserting.  Tolerances are pinned here and must not be loosened without a
recorded reason.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import reference_data as ref
from procenv import ENV

from capflow import (
    CORRUGATED,
    Fluid,
    Parallel,
    QuadratureConfig,
    Series,
    ShapeKind,
    Tube,
    integrate_inverse_r4,
    make_profile,
    network_resistance,
    poiseuille_pressure_drop,
    pressure_drop,
    verification_sweep,
)

SWEEP_SEED = 20260816
SWEEP_TRIALS = 1000
REFERENCE = Fluid(viscosity=1.0)


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(f"\n{line}")
    assert ok, line


@pytest.fixture(scope="module")
def oracle_sweep():
    """5 shapes x 1000 random geometries, shared by criteria 1 and 5."""
    start = time.perf_counter()
    reports = verification_sweep(CORRUGATED, SWEEP_TRIALS, 1e-9, seed=SWEEP_SEED)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_oracle_equivalence(oracle_sweep):
    reports, elapsed = oracle_sweep
    worst = max(r.relative_discrepancy for r in reports)
    all_converged = all(r.converged for r in reports)
    ok = all_converged and worst <= 1e-9 and elapsed < 30.0
    _report(
        "1 oracle equivalence",
        ok,
        f"{len(reports)} closed-form vs quadrature trials, worst relative "
        f"discrepancy {worst:.3e} (limit 1e-9), {elapsed:.2f}s (limit 30s), "
        f"all converged={all_converged}",
    )


def test_conical_waist_is_resolved(oracle_sweep):
    # The oracle integrates over t in [0, 1], so the conical kink at the
    # waist is a panel edge and the conical discrepancy stays at rounding level.
    reports, _ = oracle_sweep
    worst = max(r.relative_discrepancy for r in reports if r.profile.kind is ShapeKind.CONICAL)
    _report(
        "conical waist",
        worst <= 1e-14,
        f"{SWEEP_TRIALS} conical trials, worst relative discrepancy {worst:.3e} (limit 1e-14)",
    )


def test_sinusoidal_waist_does_not_cancel(oracle_sweep):
    # rho = 1 + d sin^2(pi t/2) has no a - b cos(kx) to cancel at the waist,
    # so the sinusoidal discrepancy stays at rounding level too.
    reports, _ = oracle_sweep
    worst = max(r.relative_discrepancy for r in reports if r.profile.kind is ShapeKind.SINUSOIDAL)
    _report(
        "sinusoidal waist",
        worst <= 2e-15,
        f"{SWEEP_TRIALS} sinusoidal trials, worst relative discrepancy {worst:.3e} (limit 2e-15)",
    )


def test_criterion_2_degenerate_reduction():
    worst = 0.0
    for index, kind in enumerate(CORRUGATED):
        rng = np.random.default_rng([11, index])
        for _ in range(100):
            radius = 10.0 ** rng.uniform(-6.0, -2.0)
            length = 10.0 ** rng.uniform(-4.0, 1.0)
            profile = make_profile(kind, radius, radius, length)
            got = pressure_drop(profile, ref.FLOW, Fluid(ref.VISCOSITY))
            want = poiseuille_pressure_drop(radius, length, ref.FLOW, Fluid(ref.VISCOSITY))
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-12
    _report(
        "2 degenerate reduction",
        ok,
        f"500 equal-radius tubes vs straight-tube law, worst relative "
        f"discrepancy {worst:.3e} (limit 1e-12)",
    )


def test_criterion_3_near_degenerate_stability():
    eps_grid = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
    worst_quad = 0.0
    bracket_ok = True
    for kind in CORRUGATED:
        for eps in eps_grid:
            r_min = 1e-3
            r_max = 1e-3 * (1.0 + eps)
            profile = make_profile(kind, r_min, r_max, 0.1)
            got = pressure_drop(profile, 1.0, REFERENCE)
            wide = poiseuille_pressure_drop(r_max, 0.1, 1.0, REFERENCE)
            narrow = poiseuille_pressure_drop(r_min, 0.1, 1.0, REFERENCE)
            if not (wide <= got <= narrow):
                bracket_ok = False
            quad = integrate_inverse_r4(profile)
            numeric = (8.0 / np.pi) * quad.value
            worst_quad = max(worst_quad, abs(got - numeric) / numeric)
    ok = bracket_ok and worst_quad <= 1e-8
    _report(
        "3 near-degenerate stability",
        ok,
        f"eps down to 1e-12: straight-tube bracket held={bracket_ok}, worst "
        f"quadrature discrepancy {worst_quad:.3e} (limit 1e-8)",
    )


def test_criterion_4_scaling_and_linearity():
    rng = np.random.default_rng(4242)
    worst_scale = 0.0
    worst_linear = 0.0
    for kind in CORRUGATED:
        for _ in range(20):
            r_min = 10.0 ** rng.uniform(-6.0, -2.0)
            r_max = r_min * (1.0 + 10.0 ** rng.uniform(-9.0, np.log10(99.0)))
            length = 10.0 ** rng.uniform(-4.0, 1.0)
            profile = make_profile(kind, r_min, r_max, length)
            base = pressure_drop(profile, ref.FLOW, Fluid(ref.VISCOSITY))

            for s in (1e-3, 1.0, 1e3):
                scaled_profile = make_profile(kind, s * r_min, s * r_max, s * length)
                got = pressure_drop(scaled_profile, ref.FLOW, Fluid(ref.VISCOSITY))
                want = s**-3 * base
                worst_scale = max(worst_scale, abs(got - want) / abs(want))

            c = 10.0 ** rng.uniform(-3.0, 3.0)
            in_flow = pressure_drop(profile, c * ref.FLOW, Fluid(ref.VISCOSITY))
            worst_linear = max(worst_linear, abs(in_flow - c * base) / abs(c * base))
            in_visc = pressure_drop(profile, ref.FLOW, Fluid(c * ref.VISCOSITY))
            worst_linear = max(worst_linear, abs(in_visc - c * base) / abs(c * base))
    ok = worst_scale <= 1e-12 and worst_linear <= 1e-15
    _report(
        "4 scaling and linearity",
        ok,
        f"100 profiles: geometric scaling s in {{1e-3,1,1e3}} worst "
        f"{worst_scale:.3e} (limit 1e-12); linearity in Q and viscosity worst "
        f"{worst_linear:.3e} (limit 1e-15)",
    )


def test_criterion_5_bounds_and_monotonicity(oracle_sweep):
    reports, _ = oracle_sweep
    bracket_ok = True
    for r in reports:
        profile = r.profile
        wide = poiseuille_pressure_drop(profile.r_max, profile.length, 1.0, REFERENCE)
        narrow = poiseuille_pressure_drop(profile.r_min, profile.length, 1.0, REFERENCE)
        if not (wide < r.analytic_pressure_drop < narrow):
            bracket_ok = False

    monotone_ok = True
    for kind in CORRUGATED:
        waist_sweep = [
            pressure_drop(make_profile(kind, r, 1e-3, 0.1), 1.0, REFERENCE)
            for r in np.linspace(1e-4, 9.5e-4, 10)
        ]
        end_sweep = [
            pressure_drop(make_profile(kind, 1e-3, r, 0.1), 1.0, REFERENCE)
            for r in np.linspace(1.05e-3, 5e-3, 10)
        ]
        for sweep in (waist_sweep, end_sweep):
            if not all(a > b for a, b in zip(sweep, sweep[1:])):
                monotone_ok = False
    ok = bracket_ok and monotone_ok
    _report(
        "5 bounds and monotonicity",
        ok,
        f"strict straight-tube bracket on all {len(reports)} sweep trials="
        f"{bracket_ok}; strictly decreasing under widening waist/end 10-point "
        f"sweeps={monotone_ok}",
    )


def test_criterion_6_network_algebra(tmp_path):
    fluid = Fluid(ref.VISCOSITY)

    whole = Tube(make_profile(ShapeKind.STRAIGHT, 1e-3, 1e-3, 1.0))
    want = network_resistance(whole, fluid).resistance
    worst_series = 0.0
    for k in (2, 10, 1000):
        segment = Tube(make_profile(ShapeKind.STRAIGHT, 1e-3, 1e-3, 1.0 / k))
        got = network_resistance(Series([segment] * k), fluid).resistance
        worst_series = max(worst_series, abs(got - want) / want)

    tube = Tube(make_profile(ShapeKind.CONICAL, ref.R_MIN, ref.R_MAX, ref.LENGTH))
    single = network_resistance(tube, fluid).resistance
    worst_parallel = 0.0
    for n in (2, 10, 1000):
        got = network_resistance(Parallel([tube] * n), fluid).resistance
        worst_parallel = max(worst_parallel, abs(got - single / n) / (single / n))

    spec_path = tmp_path / "five_series.json"
    spec_path.write_text(
        json.dumps(
            {
                "type": "series",
                "elements": [
                    {
                        "type": "tube",
                        "shape": kind.value,
                        "rmin": ref.R_MIN,
                        "rmax": ref.R_MAX,
                        "length": ref.LENGTH,
                    }
                    for kind in CORRUGATED
                ],
            }
        ),
        encoding="utf-8",
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "capflow", "network", str(spec_path),
            "--viscosity", "1e-3", "--flow", "1e-9",
        ],
        capture_output=True,
        text=True,
        env=ENV,
    )
    cli_ok = proc.returncode == 0
    resistance = float("nan")
    for line in proc.stdout.splitlines():
        name, value, _unit = line.split()
        if name == "resistance":
            resistance = float(value)
    cli_err = abs(resistance - 5.1817e8) / 5.1817e8

    ok = worst_series <= 1e-12 and worst_parallel <= 1e-14 and cli_ok and cli_err <= 1e-4
    _report(
        "6 network algebra",
        ok,
        f"series split k in {{2,10,1000}} worst {worst_series:.3e} (limit "
        f"1e-12); parallel-of-n worst {worst_parallel:.3e} (limit 1e-14); "
        f"five-tube series via CLI resistance {resistance:.6g} vs 5.1817e8 "
        f"({cli_err:.3e} relative, limit 1e-4)",
    )


def test_criterion_7_cli_round_trip():
    tube_args = ["--rmin", "1e-3", "--rmax", "2e-3", "--length", "0.1", "--viscosity", "1e-3"]
    worst = 0.0
    round_trip_ok = True
    for kind in CORRUGATED:
        first = subprocess.run(
            [sys.executable, "-m", "capflow", "pdrop", "--shape", kind.value,
             *tube_args, "--flow", "1e-9"],
            capture_output=True,
            text=True,
            env=ENV,
        )
        if first.returncode != 0:
            round_trip_ok = False
            continue
        pressure = first.stdout.split()[1]
        second = subprocess.run(
            [sys.executable, "-m", "capflow", "qflow", "--shape", kind.value,
             *tube_args, "--pressure", pressure],
            capture_output=True,
            text=True,
            env=ENV,
        )
        if second.returncode != 0:
            round_trip_ok = False
            continue
        flow = float(second.stdout.split()[1])
        worst = max(worst, abs(flow - 1e-9) / 1e-9)
    round_trip_ok = round_trip_ok and worst <= 1e-12

    start = time.perf_counter()
    sweep = subprocess.run(
        [sys.executable, "-m", "capflow", "verify",
         "--trials", "100", "--tol", "1e-9", "--seed", "42"],
        capture_output=True,
        text=True,
        env=ENV,
    )
    elapsed = time.perf_counter() - start
    sweep_ok = sweep.returncode == 0 and elapsed < 10.0

    ok = round_trip_ok and sweep_ok
    _report(
        "7 CLI round trip",
        ok,
        f"pdrop->qflow flow recovery worst {worst:.3e} (limit 1e-12) across "
        f"five shapes; verify 5x100 trials exit {sweep.returncode} in "
        f"{elapsed:.2f}s (limit 10s)",
    )
