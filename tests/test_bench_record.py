"""The BENCH recorder's summary step, on canned ``perfbench/run.py`` result lines."""

import importlib.util
import json
import os

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")
spec = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def line(ops, p50, rss, failed=0):
    """The last stdout line of an untraced run.py run."""
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": {
        "setup_s": {"value": 0.05, "unit": "s"},
        "ops_per_s": {"value": ops, "unit": "ops/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }})


def test_summary_schema():
    runs = [json.loads(line(ops, 1.0, 100.0)) for ops in (40.0, 50.0, 60.0, 70.0, 80.0)]
    summary = bench_record.summarize({"network": runs})
    network = summary["network"]
    assert sorted(network) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(network["metrics"]) == ["latency_p50_ms", "ops_per_s", "peak_rss_mb", "setup_s"]
    assert network["metrics"]["ops_per_s"] == {"unit": "ops/s", "median": 60.0, "q1": 50.0, "q3": 70.0, "n": 5}
    assert (network["attempted"], network["failed"], network["correct"]) == (500, 0, True)
    json.dumps(summary, allow_nan=False)


def test_null_latency_and_failures_are_counted():
    runs = [json.loads(line(10.0, None, 30.0, failed=1)), json.loads(line(12.0, 2.0, 31.0))]
    tube = bench_record.summarize({"tube": runs})["tube"]
    assert tube["metrics"]["latency_p50_ms"] == {"unit": "ms", "median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert tube["metrics"]["ops_per_s"]["n"] == 2
    assert (tube["failed"], tube["correct"]) == (1, False)


def test_benchmark_fixes_the_run_length_and_workloads():
    seconds, workloads = bench_record.benchmark(os.path.join(os.path.dirname(PATH), os.pardir))
    with open(os.path.join(os.path.dirname(PATH), os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert seconds == spec["run_seconds"]
    assert workloads == [w["name"] for w in spec["workloads"]]
    assert len(bench_record.SEEDS) >= 3
