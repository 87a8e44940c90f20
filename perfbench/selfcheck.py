"""Determinism self-check: the benchmark's exact counts repeat bit for bit.

    python3 perfbench/selfcheck.py

For each workload it makes two traced runs and one untraced run on the
development seed and one traced run on the held-out seed.  The exact counts
(input fingerprint, ops per pass, command mix, tube and depth counts,
per-shape quadrature evaluations, radius-array calls, ...) and the op count
of the two traced runs must be identical, and the untraced run must agree
on every count it records.  The held-out run must be correct and draw
different inputs; a later speed claim is confirmed on it, on data that was
not used while the change was written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("cli", "tube", "network", "verify")
DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 20261017


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"selfcheck: {workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    problems = []
    for workload in NAMES:
        first, second = run(workload, DEVELOPMENT_SEED, 1), run(workload, DEVELOPMENT_SEED, 1)
        untraced = run(workload, DEVELOPMENT_SEED, 0)
        held_out = run(workload, HELD_OUT_SEED, 1)
        if first["exact"] != second["exact"] or first["attempted"] != second["attempted"]:
            diff = sorted(k for k in first["exact"] if first["exact"][k] != second["exact"].get(k))
            problems.append(f"{workload}: traced runs of seed {DEVELOPMENT_SEED} differ in {diff or ['attempted']}")
        mismatched = sorted(k for k, v in untraced["exact"].items() if first["exact"].get(k) != v)
        if mismatched:
            problems.append(f"{workload}: untraced and traced runs differ in {mismatched}")
        if held_out["exact"]["inputs_sha256"] == first["exact"]["inputs_sha256"]:
            problems.append(f"{workload}: held-out seed {HELD_OUT_SEED} drew the same inputs")
        print(f"{workload}: {len(first['exact'])} exact counts repeat; held-out seed "
              f"{HELD_OUT_SEED} inputs {held_out['exact']['inputs_sha256'][:12]}")
        for key, value in sorted(first["exact"].items()):
            print(f"  {key} = {value}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
