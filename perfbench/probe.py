"""Set-up probe: a fresh process that imports capflow and serves one op.

Usage: python probe.py <workload> <json-payload>

Prints ``ready`` once the first call has returned; the parent times the
interval from spawn to that line.  The payload carries the generated input
of the first call, so the probe draws nothing itself.
"""

import json
import sys


def main() -> None:
    workload, payload = sys.argv[1], json.loads(sys.argv[2])
    if workload == "tube":
        from capflow import (Fluid, ShapeKind, equivalent_radius, flow_rate,
                             hydraulic_resistance, make_profile, pressure_drop)

        shape, r_min, r_max, length, viscosity, q = payload
        fluid = Fluid(viscosity)
        profile = make_profile(ShapeKind(shape), r_min, r_max, length)
        p = pressure_drop(profile, q, fluid)
        flow_rate(profile, p, fluid)
        equivalent_radius(profile)
        hydraulic_resistance(profile, fluid)
    elif workload == "network":
        from capflow import Fluid, network_resistance
        from capflow.cli import parse_network_text

        text, viscosity = payload
        network_resistance(parse_network_text(text), Fluid(viscosity))
    elif workload == "verify":
        from capflow import QuadratureConfig, ShapeKind, verification_sweep

        kinds, trials, tolerance, seed, rel_tol = payload
        config = QuadratureConfig(rel_tol=rel_tol, abs_tol=0.0, max_depth=48)
        verification_sweep([ShapeKind(k) for k in kinds], trials, tolerance, seed, config)
    else:
        raise SystemExit(f"no probe for workload {workload!r}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
