"""Record one BENCH file: the end-to-end metrics of a checkout over fixed seeds.

    python3 tools/bench_record.py --checkout DIR --out bench/BENCH_<n>.json

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in DIR, one process at a time, for each workload W and each seed S in
``SEEDS``, and reads each run's last stdout line.  The workloads and the
run length T are those of DIR's ``BENCHMARK.json`` (its ``workloads`` and
``run_seconds``), so every file is recorded at the benchmark's own length.
Around each run it times ``CALIBRATION_ROUNDS`` of a pure-Python loop that
imports nothing of capflow, so that a host that slows down between two
files shows in the file itself.  The file holds, per workload, each
end-to-end metric's median, quartiles and run count, the ops attempted
and failed, and the git sha of DIR (with ``dirty`` true when its ``src/``
or ``perfbench/`` differs from that commit or holds untracked files), the
seeds, the load average before and after and the calibration median.

A BENCH file reads the benchmark; it is no gate.  A claim of a gain still
comes from alternating parent/change runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

# Fixed, so that two files compare the same inputs.
SEEDS = (11, 12, 13)
CALIBRATION_ROUNDS = 5


def benchmark(checkout: str) -> tuple[float, list[str]]:
    """The run length in seconds and the workload names that the checkout's BENCHMARK.json fixes."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["run_seconds"], [workload["name"] for workload in spec["workloads"]]


def calibration_ms() -> float:
    """One pass of a fixed pure-Python loop, in ms."""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (perf_counter() - start) * 1e3


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(v) for v in handle.read().split()[:3]]
    except OSError:
        return None


def quartiles(values: list[float]) -> dict:
    """Median, q1, q3 and n; the quartiles are the median's where there are too few values to cut."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(results: dict[str, list[dict]]) -> dict:
    """Per workload, each metric's quartiles over its runs, from the runs' last stdout lines, decoded.

    A metric that some run reports as null (a latency that fell on a failed
    op) is summarized over the runs that have it, and its n shows how many.
    """
    summary = {}
    for workload, runs in results.items():
        metrics = {}
        for name in sorted({name for run in runs for name in run["metrics"]}):
            values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
            values = [v for v in values if v is not None]
            unit = next(run["metrics"][name]["unit"] for run in runs if name in run["metrics"])
            metrics[name] = {"unit": unit, **(quartiles(values) if values else {"n": 0})}
        summary[workload] = {
            "metrics": metrics,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "correct": all(run["correct"] for run in runs),
        }
    return summary


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_record: {workload} seed {seed} printed nothing:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.checkout, capture_output=True,
                         text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"], cwd=args.checkout,
                           capture_output=True, text=True, check=True).stdout != ""
    seconds, workloads = benchmark(args.checkout)
    before = loadavg()
    calibration = [calibration_ms() for _ in range(CALIBRATION_ROUNDS)]
    results = {}
    for workload in workloads:
        for seed in SEEDS:
            results.setdefault(workload, []).append(run(args.checkout, workload, seed, seconds))
            calibration += [calibration_ms() for _ in range(CALIBRATION_ROUNDS)]
    record = {
        "sha": sha,
        "dirty": dirty,
        "seconds": seconds,
        "seeds": list(SEEDS),
        "loadavg_before": before,
        "loadavg_after": loadavg(),
        "calibration_ms": quartiles(calibration),
        "workloads": summarize(results),
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
