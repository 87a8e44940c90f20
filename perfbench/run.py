"""capflow benchmark: seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload {cli,tube,network,verify,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it print every metric with its unit.  The full
record (environment, load average, sample counts, exact counts, spans) goes
to ``perfbench/out/``.

An untraced run warms up, then times ops one at a time until ``--seconds``
have passed and at least ``MIN_OPS`` ops ran, stopping only at the end of a
block of the workload's mix.  A traced run times one untraced pass over the
workload's inputs and then one traced pass, and reports per-layer self
times from the spans of the traced pass.  Per-layer metrics of a layer the
workload never enters read 0.  ``--workload all`` runs each workload in
its own process and prints them side by side.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from importlib import metadata
from time import perf_counter, perf_counter_ns

from tracing import Tracer, median_of, parse_importtime

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NAMES = ("cli", "tube", "network", "verify")

# >= 100 ops puts >= 10 samples beyond p90.
MIN_OPS = 100
SETUP_PROBES = 24
# Throughput is the median over windows of at least this much time spent
# inside ops, so that a burst of load from outside moves it less.
WINDOW_NS = 1_000_000_000
BARE_PROBES = 5
# Slack, beyond the measured tracing overhead, allowed between the sum of
# the layer self times along an op's blocking path in the traced pass and
# the same op's latency in the untraced pass.
SELF_TIME_SLACK = 0.1
LAYER_METRIC = re.compile(r"^(\w+)\.(\w+?)_(us|ms)(?:\.(.+))?$")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "capflow", "__init__.py")):
        print(f"perfbench: no capflow sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a capflow checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run_one(args, spec)


# --- one workload -------------------------------------------------------------


def run_one(args, spec) -> int:
    from workloads import WORKLOADS

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "loadavg_before": loadavg()}
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        probes = [probe(workload, importtime=bool(tracer)) for _ in range(SETUP_PROBES // 2)]
        with workload.layers(None) as plain:
            warm = loop(workload, plain, ops=workload.warmup)
            if tracer:
                base = loop(workload, plain, ops=len(workload.items))
            else:
                timed = loop(workload, plain, seconds=args.seconds, min_ops=MIN_OPS)
        if tracer:
            with workload.layers(tracer) as traced:
                timed = loop(workload, traced, ops=len(workload.items), tracer=tracer)
            for _ in range(BARE_PROBES):
                interpreter_start(tracer)
            workload.extra_trace(tracer)
        # The other half of the set-up probes, so that their median spans the run.
        probes += [probe(workload, importtime=bool(tracer)) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        oracle_ok = workload.final_check()
    record["loadavg_after"] = loadavg()

    runs = [timed, base] if tracer else [timed]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    failures = [f for r in (warm, *runs) for f in r.failures]
    if not oracle_ok:
        failures.append("closed forms disagree with the quadrature oracle beyond 1e-9")
    setup_ok = all(ok for _, ok, _ in probes)
    if not setup_ok:
        failures.append("a set-up probe failed")
    correct = failed == 0 and warm.failed == 0 and oracle_ok and setup_ok
    record.update(correct=correct, attempted=attempted, failed=failed, failures=failures[:10],
                  exact=workload.exact)

    rusage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    e2e = end_to_end(base if tracer else timed, statistics.median([s for s, _, _ in probes]),
                     resource.getrusage(rusage).ru_maxrss / 1024.0)
    record["end_to_end"] = e2e
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if tracer:
        grouped = tracer.self_times_by_name()
        counts = {**workload.exact, **workload.layer_values}
        imports = [i for _, _, i in probes if i]
        for key in ("numpy", "click", "capflow"):
            counts.setdefault(f"import.{key}_ms", statistics.median([i[key] for i in imports]))
        untraced_p50 = base.quantile(0.5)
        counts["trace.overhead_ratio"] = timed.quantile(0.5) / untraced_p50
        # Both passes run the items in the same order, so op i of one is op i of the other.
        blocking = workload.blocking_ns(tracer, timed.roots, grouped)
        counts["trace.self_time_ratio"] = statistics.median(
            [b / untraced for b, untraced in zip(blocking, base.op_ns)])
        layer = {}
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            match = LAYER_METRIC.match(name)
            if name in counts:
                value = counts[name]
            elif match:
                prefix = ".".join(p for p in (match[1], match[2], match[4]) if p)
                value = median_of(grouped, prefix, 1e3 if match[3] == "us" else 1e6)
            else:
                value = 0.0
            layer[name] = {"value": float(value), "unit": unit}
        overhead = counts["trace.overhead_ratio"]
        # An instrumentation check, not an output check: it is recorded and
        # warned about, but it does not make the run incorrect.
        record["trace_consistent"] = (abs(counts["trace.self_time_ratio"] - 1.0)
                                      <= abs(overhead - 1.0) + SELF_TIME_SLACK)
        if not record["trace_consistent"]:
            print(f"perfbench: layer self times add up to {counts['trace.self_time_ratio']:.3f} of the "
                  f"untraced op latency; tracing overhead is {overhead:.3f}", file=sys.stderr)
        record["per_layer"] = layer
        tracer.dump(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json"))
        metrics = layer
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": units[name]} for name in units}

    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed, correct={correct}")
    for failure in failures[:10]:
        print(f"  failure: {failure}")
    for name, entry in e2e.items():
        print(f"  {name} {entry['value']} {entry['unit']}" + (f" (n={entry['n']})" if "n" in entry else ""))
    if tracer:
        for name, entry in metrics.items():
            print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    env = record["env"]
    print(f"  python {env['python']} numpy {env['numpy']} click {env['click']} nproc {env['nproc']} "
          f"loadavg {record['loadavg_before']} -> {record['loadavg_after']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


class Loop:
    """Latencies (ns) of the ops one loop completed, and what failed."""

    def __init__(self):
        self.latencies = array("q")
        self.op_ns = array("q")  # every op's time, failed ones too, in the order run
        self.failed = 0
        self.busy_ns = 0
        self.failures: list[str] = []
        self.roots: list[int] = []
        self.window_rates: list[float] = []  # completed ops per second of each window

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile in ms; a failed op sits beyond every latency."""
        rank = math.ceil(q * self.attempted) - 1
        ordered = sorted(self.latencies)
        return ordered[rank] / 1e6 if rank < len(ordered) else math.inf


def loop(workload, fns, *, ops=0, seconds=0.0, min_ops=0, tracer=None) -> Loop:
    """Run ops one after another (one client, closed loop), checking each output.

    With ``ops`` it runs exactly that many; otherwise until ``seconds`` have
    passed and ``min_ops`` ran, at the end of a block.
    """
    items, count, block = workload.items, len(workload.items), workload.block
    result = Loop()
    deadline = perf_counter() + seconds
    done = 0
    window_ns = window_ok = 0
    while True:
        item = items[done % count]
        if tracer:
            root = tracer.begin(workload.root_span(item))
            result.roots.append(root)
        start = perf_counter_ns()
        try:
            out = workload.op(fns, item)
            error = None
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
            error = f"item {done % count}: {type(exc).__name__}: {exc}"
        elapsed = perf_counter_ns() - start
        if tracer:
            tracer.end(root)
        if error is None and not workload.check(item, out):
            error = f"item {done % count}: output check failed"
        result.op_ns.append(elapsed)
        result.busy_ns += elapsed
        window_ns += elapsed
        if error is None:
            result.latencies.append(elapsed)
            window_ok += 1
        else:
            result.failed += 1
            result.failures.append(error)
        done += 1
        if done % block == 0 and window_ns >= WINDOW_NS:
            result.window_rates.append(window_ok / (window_ns / 1e9))
            window_ns = window_ok = 0
        if ops:
            if done >= ops:
                return result
        elif done % block == 0 and done >= min_ops and perf_counter() >= deadline:
            return result


def end_to_end(timed: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics; a latency that falls on a failed op is null."""
    n = timed.attempted
    p50, p90 = (q if math.isfinite(q) else None for q in (timed.quantile(0.5), timed.quantile(0.9)))
    rates = timed.window_rates or [len(timed.latencies) / (timed.busy_ns / 1e9)]
    return {
        "setup_s": {"value": setup_s, "unit": "s", "n": SETUP_PROBES},
        "ops_per_s": {"value": statistics.median(rates), "unit": "ops/s", "n": n, "windows": len(rates)},
        "latency_p50_ms": {"value": p50, "unit": "ms", "n": n},
        "latency_p90_ms": {"value": p90, "unit": "ms", "n": n,
                           "beyond": n - math.ceil(0.9 * n)},
        "failed_ratio": {"value": timed.failed / n, "unit": "1", "n": n},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def probe(workload, importtime: bool):
    """Time one fresh process from spawn until it can serve: (seconds, ok, import split or None)."""
    flags = ["-X", "importtime"] if importtime else []
    payload = workload.probe_payload()
    if workload.name == "cli":
        command = [sys.executable, *flags, "-m", "capflow", *payload]
    else:
        command = [sys.executable, *flags, os.path.join(HERE, "probe.py"), workload.name, json.dumps(payload)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryFile(dir=OUT) as stderr:
        start = perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT)
        try:
            if workload.name == "cli":
                stdout, _ = proc.communicate(timeout=120)
                seconds = perf_counter() - start
                ok = workload.check(workload.items[0], (proc.returncode, stdout))
            else:
                ready = proc.stdout.readline()
                seconds = perf_counter() - start
                proc.communicate(timeout=120)
                ok = ready == b"ready\n" and proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        stderr.seek(0)
        text = stderr.read().decode("utf-8", "replace")
    if not ok:
        print(f"perfbench: set-up probe failed:\n{text[-2000:]}", file=sys.stderr)
    return seconds, ok, parse_importtime(text) if importtime else None


def interpreter_start(tracer) -> None:
    """Span from spawning a bare interpreter until it runs its first statement."""
    start = perf_counter_ns()
    with subprocess.Popen([sys.executable, "-c", "import time; print(time.perf_counter_ns(), flush=True)"],
                          stdout=subprocess.PIPE) as proc:
        stamp = int(proc.stdout.readline())
        proc.wait(timeout=120)
    tracer.spans.append(["interp.bare", start, stamp, -1])


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "numpy": version("numpy"), "click": version("click"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "machine": platform.machine()}


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(v) for v in handle.read().split()[:3]]
    except OSError:
        return None


# --- all workloads --------------------------------------------------------------


def run_all(args, spec) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return 2
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    print(f"{'metric':<44}" + "".join(f"{n:>14}" for n in NAMES))
    for metric in names:
        cells = [results[n]["metrics"][metric]["value"] for n in NAMES]
        unit = results[NAMES[0]]["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':<44}" + "".join(f"{c:>14.6g}" for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
