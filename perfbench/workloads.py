"""The four workloads: seeded inputs, the op, its output check and its layer spans.

Every workload draws its inputs from ``random.Random(seed)`` before timing
starts; the program only ever sees the generated values.  One pass over
``items`` is the workload's deterministic input set.  Runs stop only at the
end of a ``block``, a stretch of items whose mix is the same in every block,
so the share of each kind of op never depends on where the clock ran out.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import capflow.cli
from capflow import (
    CapillaryFlowError,
    Fluid,
    Parallel,
    QuadratureConfig,
    Series,
    ShapeKind,
    Tube,
    equivalent_radius,
    flow_rate,
    hydraulic_resistance,
    integrate_inverse_r4,
    inverse_r4_integral,
    make_profile,
    network_resistance,
    pressure_drop,
    quadrature,
    sample_profile,
    verification_sweep,
)
from capflow.summation import neumaier_sum

from tracing import parse_importtime

SHAPES = tuple(ShapeKind)
CORRUGATED = tuple(k for k in ShapeKind if k is not ShapeKind.STRAIGHT)

# The verified envelope (see capflow.quadrature.random_profile): log-uniform
# r_min, ratio excess over 1 and length.  Excess below ~1e-6 takes the series
# branches of the parabolic, hyperbolic and cosh closed forms.
LOG10_RMIN = (-6.0, -2.0)
LOG10_RATIO_EXCESS = (-9.0, math.log10(99.0))
LOG10_LENGTH = (-4.0, 1.0)
LOG10_VISCOSITY = (-4.0, 0.0)
LOG10_FLOW = (-12.0, -3.0)
LOG10_PRESSURE = (-2.0, 6.0)

# The acceptance gate's round-trip and composition tolerance, and the
# closed-form-vs-oracle tolerance of `capflow verify`.
EXACT_TOLERANCE = 1e-12
ORACLE_TOLERANCE = 1e-9
# `capflow verify` at --tol 1e-9 runs the oracle at rel_tol = min(1e-10, tol/10).
VERIFY_CONFIG = QuadratureConfig(rel_tol=1e-10, abs_tol=0.0, max_depth=48)


def log_uniform(rng: random.Random, bounds) -> float:
    return 10.0 ** rng.uniform(*bounds)


def draw_geometry(rng: random.Random, kind: ShapeKind) -> tuple[float, float, float]:
    r_min = log_uniform(rng, LOG10_RMIN)
    r_max = r_min if kind is ShapeKind.STRAIGHT else r_min * (1.0 + log_uniform(rng, LOG10_RATIO_EXCESS))
    return r_min, r_max, log_uniform(rng, LOG10_LENGTH)


def close(value: float, expected: float, tolerance: float) -> bool:
    return abs(value - expected) <= tolerance * abs(expected)


class Workload:
    """Inputs, op and check of one workload; subclasses fill in the parts."""

    name = ""
    block = 1     # items per block; a run ends only at a block boundary
    warmup = 1    # untimed items run before each timed loop

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.fingerprint = hashlib.sha256()
        self.items = self.generate()
        self.exact = {"ops_per_pass": len(self.items), "block": self.block,
                      "inputs_sha256": self.fingerprint.hexdigest()}
        self.exact.update(self.input_counts())
        # Measured per-layer values that are not spans; exact counts go to `exact`.
        self.layer_values: dict[str, float] = {}

    def record(self, *values) -> None:
        """Fold a generated input into the fingerprint that the determinism check compares."""
        self.fingerprint.update(repr(values).encode())

    def root_span(self, item) -> str:
        return f"op.{self.name}"

    def final_check(self) -> bool:
        return True

    def input_counts(self) -> dict:
        return {}

    def extra_trace(self, tracer) -> None:
        """Layer measurements made after the traced pass, outside any op."""

    def blocking_ns(self, tracer, roots, grouped) -> list[float]:
        """Per traced op, the summed self times of the layer spans on its blocking path."""
        return tracer.children_ns(roots)


# --- tube -------------------------------------------------------------------


class TubeWorkload(Workload):
    """Single-tube queries: scalar geometry + closed-form latency, nothing else.

    One op is one query on a tube of each of the six shapes, in a seeded
    order.  The shapes' costs differ by ~2x, so a per-query median would sit
    on the edge between two shapes and jump from run to run.
    """

    name = "tube"
    ops = 1000
    warmup = ops
    oracle_subset = 200

    def generate(self):
        items = []
        for _ in range(self.ops):
            queries = []
            for kind in self.rng.sample(SHAPES, len(SHAPES)):
                r_min, r_max, length = draw_geometry(self.rng, kind)
                viscosity = log_uniform(self.rng, LOG10_VISCOSITY)
                q = log_uniform(self.rng, LOG10_FLOW)
                self.record(kind.value, r_min, r_max, length, viscosity, q)
                queries.append((kind, r_min, r_max, length, Fluid(viscosity), q))
            items.append(tuple(queries))
        self.oracle_queries = [self.rng.choice(items[i]) for i in self.rng.sample(range(self.ops), self.oracle_subset)]
        return items

    def input_counts(self):
        queries = [q for item in self.items for q in item]
        counts = {f"shape.{k.value}": sum(1 for q in queries if q[0] is k) for k in SHAPES}
        counts["near_degenerate"] = sum(1 for q in queries if 0.0 < q[2] / q[1] - 1.0 < 1e-6)
        return counts

    def probe_payload(self):
        kind, r_min, r_max, length, fluid, q = self.items[0][0]
        return [kind.value, r_min, r_max, length, fluid.viscosity, q]

    @contextlib.contextmanager
    def layers(self, tracer):
        wrap = tracer.wrap if tracer else (lambda name, fn: fn)
        yield SimpleNamespace(
            make_profile=wrap("geometry.make_profile", make_profile),
            pressure_drop={k: wrap(f"analytic.pressure_drop.{k.value}", pressure_drop) for k in SHAPES},
            flow_rate=wrap("analytic.flow_rate", flow_rate),
            equivalent_radius=wrap("analytic.equivalent_radius", equivalent_radius),
            hydraulic_resistance=wrap("analytic.hydraulic_resistance", hydraulic_resistance),
        )

    @staticmethod
    def op(f, item):
        answers = []
        for kind, r_min, r_max, length, fluid, q in item:
            profile = f.make_profile(kind, r_min, r_max, length)
            p = f.pressure_drop[kind](profile, q, fluid)
            resistance = f.hydraulic_resistance(profile, fluid)
            answers.append((p, f.flow_rate(profile, p, fluid), f.equivalent_radius(profile),
                            resistance.resistance, resistance.geometric_factor))
        return answers

    @staticmethod
    def check(item, answers) -> bool:
        """Each answer finite, Q recovered, and P, R, G and R_eq consistent with each other."""
        return len(answers) == len(item) and all(
            all(map(math.isfinite, out)) and p > 0.0 and g > 0.0
            and close(q_back, q, EXACT_TOLERANCE)
            and close(p, q * resistance, EXACT_TOLERANCE)
            and close(resistance, fluid.viscosity * g, EXACT_TOLERANCE)
            and close(r_eq, (8.0 * length / (math.pi * g)) ** 0.25, EXACT_TOLERANCE)
            for (_, _, _, length, fluid, q), out in zip(item, answers)
            for p, q_back, r_eq, resistance, g in [out])

    def final_check(self) -> bool:
        """A seeded subset of the closed forms against the quadrature oracle."""
        for kind, r_min, r_max, length, _, _ in self.oracle_queries:
            profile = make_profile(kind, r_min, r_max, length)
            oracle = integrate_inverse_r4(profile)
            if not (oracle.converged and close(inverse_r4_integral(profile), oracle.value, ORACLE_TOLERANCE)):
                return False
        return True


# --- network ----------------------------------------------------------------

TOPOLOGIES = ("wide", "bushy", "deep")
WIDE_TUBES = 100_000
BUSHY_BRANCHING, BUSHY_LEVELS, BUSHY_SPECS = 4, 5, 16
# Alternating series/parallel chains.  Each level costs the parser two
# stack frames and the composition three, so chains much past ~300 levels
# raise RecursionError today; these stay below that so that every op
# succeeds, and `network.depth_limit` reports where the limit lies.  Depths
# are spread evenly so that the median op, which falls on a deep chain,
# does not sit on a jump between two depths.
DEEP_DEPTHS = tuple(100 + 150 * i // 31 for i in range(32))
DEPTH_PROBE_CAP = 4096


class NetworkWorkload(Workload):
    """Spec parsing plus series/parallel composition on three tree shapes."""

    name = "network"
    block = 1 + BUSHY_SPECS + len(DEEP_DEPTHS)
    warmup = block

    def tube_spec(self) -> dict:
        kind = self.rng.choice(SHAPES)
        r_min, r_max, length = draw_geometry(self.rng, kind)
        return {"type": "tube", "shape": kind.value, "rmin": r_min, "rmax": r_max, "length": length}

    def bushy_spec(self, levels: int, kind: str = "parallel") -> dict:
        if levels == 0:
            return self.tube_spec()
        other = "series" if kind == "parallel" else "parallel"
        return {"type": kind,
                "elements": [self.bushy_spec(levels - 1, other) for _ in range(BUSHY_BRANCHING)]}

    def deep_spec(self, depth: int) -> dict:
        node = self.tube_spec()
        for level in range(depth):
            node = {"type": "series" if level % 2 else "parallel", "elements": [self.tube_spec(), node]}
        return node

    def generate(self):
        # The order of the specs is the same for every seed: it decides when the
        # cyclic garbage collector runs, and so which ops pay for it.
        specs = [("wide", {"type": "parallel", "elements": [self.tube_spec() for _ in range(WIDE_TUBES)]})]
        per_bushy = len(DEEP_DEPTHS) // BUSHY_SPECS
        for index in range(BUSHY_SPECS):
            specs.append(("bushy", self.bushy_spec(BUSHY_LEVELS)))
            specs += [("deep", self.deep_spec(depth))
                      for depth in DEEP_DEPTHS[index * per_bushy:(index + 1) * per_bushy]]
        self.probe_spec = {"type": "series", "elements": [
            self.tube_spec(), {"type": "parallel", "elements": [self.tube_spec(), self.tube_spec()]}]}
        self.shape = {t: {"specs": 0, "tubes": 0, "depth": 0} for t in TOPOLOGIES}
        items = []
        for topology, spec in specs:
            text = json.dumps(spec)
            viscosity = log_uniform(self.rng, LOG10_VISCOSITY)
            g, tubes, depth = composed_factor(spec)
            stats = self.shape[topology]
            stats["specs"] += 1
            stats["tubes"] += tubes
            stats["depth"] = max(stats["depth"], depth)
            if topology == "wide":
                self.wide_leaf_terms = [1.0 / leaf_factor(t) for t in spec["elements"]]
            self.record(topology, text, viscosity)
            items.append((topology, text, Fluid(viscosity), viscosity * g))
        return items

    def input_counts(self):
        return {f"network.{key}.{t}": v for t, stats in self.shape.items() for key, v in stats.items()}

    def probe_payload(self):
        return [json.dumps(self.probe_spec), 1e-3]

    def root_span(self, item):
        return f"op.network.{item[0]}"

    @contextlib.contextmanager
    def layers(self, tracer):
        wrap = tracer.wrap if tracer else (lambda name, fn: fn)
        yield SimpleNamespace(
            parse={t: wrap(f"cli.parse_network_text.{t}", capflow.cli.parse_network_text) for t in TOPOLOGIES},
            resistance={t: wrap(f"network.network_resistance.{t}", network_resistance) for t in TOPOLOGIES},
        )

    @staticmethod
    def op(f, item):
        topology, text, fluid, _ = item
        return f.resistance[topology](f.parse[topology](text), fluid).resistance

    @staticmethod
    def check(item, out) -> bool:
        return math.isfinite(out) and close(out, item[3], EXACT_TOLERANCE)

    def extra_trace(self, tracer):
        for _ in range(5):
            index = tracer.begin("summation.neumaier_sum")
            neumaier_sum(self.wide_leaf_terms)
            tracer.end(index)
        self.exact["network.depth_limit"] = deepest_chain(DEPTH_PROBE_CAP)


def leaf_factor(spec: dict) -> float:
    profile = make_profile(ShapeKind(spec["shape"]), spec["rmin"], spec["rmax"], spec["length"])
    return (8.0 / math.pi) * inverse_r4_integral(profile)


def composed_factor(spec: dict) -> tuple[float, int, int]:
    """(G, tube count, nesting depth) of a spec tree, by an explicit stack and math.fsum.

    Shares no code with capflow.network, so it can check it.
    """
    values: list[float] = []
    stack = [(spec, False, 0)]
    tubes = depth = 0
    while stack:
        node, children_done, level = stack.pop()
        if node["type"] == "tube":
            values.append(leaf_factor(node))
            tubes += 1
            depth = max(depth, level)
        elif not children_done:
            stack.append((node, True, level))
            stack.extend((child, False, level + 1) for child in reversed(node["elements"]))
        else:
            count = len(node["elements"])
            terms = values[-count:]
            del values[-count:]
            if node["type"] == "series":
                values.append(math.fsum(terms))
            else:
                values.append(1.0 / math.fsum(1.0 / t for t in terms))
    return values[0], tubes, depth


def chain_text(depth: int) -> str:
    tube = '{"type": "tube", "shape": "conical", "rmin": 0.001, "rmax": 0.002, "length": 0.1}'
    opening = "".join(f'{{"type": "{"series" if level % 2 else "parallel"}", "elements": [{tube}, '
                      for level in range(depth))
    return opening + tube + "]}" * depth


def deepest_chain(cap: int) -> int:
    """Deepest alternating chain (<= cap) that parses and composes, by bisection."""
    fluid = Fluid(1e-3)

    def composes(depth: int) -> bool:
        try:
            network_resistance(capflow.cli.parse_network_text(chain_text(depth)), fluid)
        except (RecursionError, CapillaryFlowError):
            return False
        return True

    good, bad = 0, cap + 1
    while bad - good > 1:
        middle = (good + bad) // 2
        good, bad = (middle, bad) if composes(middle) else (good, middle)
    return good


# --- verify -----------------------------------------------------------------

VERIFY_TRIALS = 20   # per shape and op: one op is one `capflow verify --trials 20` sweep


class VerifyWorkload(Workload):
    """Closed forms against the adaptive oracle: quadrature and radius sampling do the work."""

    name = "verify"
    ops = 100
    warmup = 5

    def generate(self):
        seeds = [self.rng.getrandbits(62) for _ in range(self.ops)]
        self.record(seeds)
        return seeds

    def input_counts(self):
        return {"trials_per_op": VERIFY_TRIALS * len(CORRUGATED)}

    def probe_payload(self):
        return [[CORRUGATED[0].value], 1, ORACLE_TOLERANCE, self.items[0], VERIFY_CONFIG.rel_tol]

    @contextlib.contextmanager
    def layers(self, tracer):
        if tracer is None:
            yield SimpleNamespace(sweep=verification_sweep)
            return
        counts = self.exact

        def observe(result, profile, *_):
            shape = profile.kind.value
            counts[f"evaluations.{shape}"] = counts.get(f"evaluations.{shape}", 0) + result.evaluations
            counts[f"trials.{shape}"] = counts.get(f"trials.{shape}", 0) + 1
            counts["converged"] = counts.get("converged", 0) + result.converged

        by_shape = lambda prefix: (lambda profile: f"{prefix}.{profile.kind.value}")  # noqa: E731
        with contextlib.ExitStack() as stack:
            stack.enter_context(tracer.patched(quadrature, "random_profile", "quadrature.random_profile"))
            stack.enter_context(tracer.patched(quadrature, "verify_analytic", "quadrature.verify_analytic"))
            stack.enter_context(tracer.patched(quadrature, "integrate_inverse_r4",
                                               by_shape("quadrature.integrate_inverse_r4"), observe))
            stack.enter_context(tracer.patched(quadrature, "radius_array", "geometry.radius_array"))
            stack.enter_context(tracer.patched(quadrature, "pressure_drop", by_shape("analytic.pressure_drop")))
            yield SimpleNamespace(sweep=tracer.wrap("quadrature.verification_sweep", verification_sweep))

    @staticmethod
    def op(f, seed):
        return f.sweep(CORRUGATED, VERIFY_TRIALS, ORACLE_TOLERANCE, seed, VERIFY_CONFIG)

    @staticmethod
    def check(seed, reports) -> bool:
        return (len(reports) == VERIFY_TRIALS * len(CORRUGATED)
                and all(r.converged and r.passed for r in reports))

    def extra_trace(self, tracer):
        counts = self.exact
        trials = sum(counts.get(f"trials.{k.value}", 0) for k in CORRUGATED)
        radius_calls = len(tracer.self_times_by_name().get("geometry.radius_array", []))
        counts["geometry.radius_array_calls_per_trial"] = radius_calls / trials
        counts["quadrature.converged_ratio"] = counts["converged"] / trials
        for k in CORRUGATED:
            counts[f"quadrature.evaluations_per_trial.{k.value}"] = (
                counts[f"evaluations.{k.value}"] / counts[f"trials.{k.value}"])


# --- cli --------------------------------------------------------------------

CLI_COMMANDS = ("pdrop", "qflow", "network", "profile")
CLI_FORMATS = ("plain", "csv", "json")
CLI_BLOCKS = 5


class CliWorkload(Workload):
    """Fresh `python -m capflow` processes: start-up and import dominate, compute is ~0."""

    name = "cli"
    block = len(CLI_COMMANDS) * len(CLI_FORMATS)
    warmup = 2

    def __init__(self, seed, root, workdir):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p))
        self.imports: list[dict] = []
        super().__init__(seed, root, workdir)

    def generate(self):
        items = []
        for index in range(CLI_BLOCKS):
            combos = [(c, f) for c in CLI_COMMANDS for f in CLI_FORMATS]
            for number, (cmd, fmt) in enumerate(self.rng.sample(combos, len(combos))):
                item = getattr(self, f"make_{cmd}")(f"{index}-{number}")
                item.argv += ["--format", fmt]
                item.fmt = fmt
                self.record(cmd, fmt, item.argv if cmd != "network" else item.spec_text)
                items.append(item)
        return items

    def input_counts(self):
        return {f"mix.{c}.{f}": sum(1 for it in self.items if it.cmd == c and it.fmt == f)
                for c in CLI_COMMANDS for f in CLI_FORMATS}

    def geometry_args(self):
        kind = self.rng.choice(SHAPES)
        r_min, r_max, length = draw_geometry(self.rng, kind)
        profile = make_profile(kind, r_min, r_max, length)
        args = ["--shape", kind.value, "--rmin", repr(r_min), "--rmax", repr(r_max), "--length", repr(length)]
        return profile, args

    def make_pdrop(self, _):
        profile, args = self.geometry_args()
        viscosity, q = log_uniform(self.rng, LOG10_VISCOSITY), log_uniform(self.rng, LOG10_FLOW)
        value = pressure_drop(profile, q, Fluid(viscosity))
        return SimpleNamespace(cmd="pdrop", argv=["pdrop", *args, "--viscosity", repr(viscosity), "--flow", repr(q)],
                               fields={"pressure_drop": value}, plain=f"pressure_drop {value:.17g} Pa\n")

    def make_qflow(self, _):
        profile, args = self.geometry_args()
        viscosity, p = log_uniform(self.rng, LOG10_VISCOSITY), log_uniform(self.rng, LOG10_PRESSURE)
        value = flow_rate(profile, p, Fluid(viscosity))
        return SimpleNamespace(cmd="qflow", argv=["qflow", *args, "--viscosity", repr(viscosity), "--pressure", repr(p)],
                               fields={"flow_rate": value}, plain=f"flow_rate {value:.17g} m3_per_s\n")

    def make_network(self, label):
        spec = {"type": "series", "elements": [
            {"type": "parallel", "elements": [self.tube_spec() for _ in range(self.rng.randint(2, 3))]}
            for _ in range(self.rng.randint(2, 3))]}
        text = json.dumps(spec)
        path = os.path.join(self.workdir, f"cli-network-{label}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        viscosity = log_uniform(self.rng, LOG10_VISCOSITY)
        res = network_resistance(build_network(spec), Fluid(viscosity))
        if self.rng.random() < 0.5:
            given = ("--flow", log_uniform(self.rng, LOG10_FLOW))
            dual = ("pressure_drop", res.resistance * given[1], "Pa")
        else:
            given = ("--pressure", log_uniform(self.rng, LOG10_PRESSURE))
            dual = ("flow_rate", given[1] / res.resistance, "m3_per_s")
        plain = (f"resistance {res.resistance:.17g} Pa_s_per_m3\n"
                 f"geometric_factor {res.geometric_factor:.17g} per_m3\n"
                 f"{dual[0]} {dual[1]:.17g} {dual[2]}\n")
        return SimpleNamespace(
            cmd="network", spec_text=text, plain=plain,
            argv=["network", path, "--viscosity", repr(viscosity), given[0], repr(given[1])],
            fields={"resistance": res.resistance, "geometric_factor": res.geometric_factor, dual[0]: dual[1]})

    tube_spec = NetworkWorkload.tube_spec

    def make_profile(self, _):
        profile, args = self.geometry_args()
        samples = self.rng.randint(50, 200)
        rows = [[x, r] for x, r in sample_profile(profile, samples).rows()]
        plain = "x,r\n" + "".join(f"{x:.17g},{r:.17g}\n" for x, r in rows)
        return SimpleNamespace(cmd="profile", argv=["profile", *args, "--samples", str(samples)],
                               rows=rows, plain=plain)

    def probe_payload(self):
        return self.items[0].argv

    def root_span(self, item):
        return f"cli.subprocess.{item.cmd}"

    def run(self, argv, importtime=False):
        flags = ["-X", "importtime"] if importtime else []
        proc = subprocess.run([sys.executable, *flags, "-m", "capflow", *argv], capture_output=True,
                              env=self.env, cwd=self.root, timeout=120)
        if importtime:
            self.imports.append(parse_importtime(proc.stderr.decode("utf-8", "replace")))
        return proc.returncode, proc.stdout

    @contextlib.contextmanager
    def layers(self, tracer):
        yield SimpleNamespace(run=lambda argv: self.run(argv, importtime=tracer is not None))

    @staticmethod
    def op(f, item):
        return f.run(item.argv)

    @staticmethod
    def check(item, out) -> bool:
        returncode, stdout = out
        if returncode != 0:
            return False
        if item.fmt == "plain":
            return stdout == item.plain.encode()
        text = stdout.decode("utf-8")
        if item.cmd == "profile":
            if item.fmt == "csv":
                table = list(csv.reader(io.StringIO(text)))
                return table[0] == ["x", "r"] and [[float(v) for v in row] for row in table[1:]] == item.rows
            return json.loads(text)["rows"] == item.rows
        if item.fmt == "csv":
            header, row = list(csv.reader(io.StringIO(text)))
            record = dict(zip(header, row))
            return all(float(record[k]) == v for k, v in item.fields.items())
        doc = json.loads(text)
        return all(doc[k]["value"] == v for k, v in item.fields.items())

    def extra_trace(self, tracer):
        """Each command dispatched in-process, where no import is paid."""
        for cmd in CLI_COMMANDS:
            argvs = [it.argv for it in self.items if it.cmd == cmd]
            dispatch = functools.partial(capflow.cli.cli.main, prog_name="capflow", standalone_mode=False)
            traced = tracer.wrap(f"cli.inproc.{cmd}", dispatch)
            with contextlib.redirect_stdout(io.StringIO()):
                dispatch(args=argvs[0])  # warm-up
                for argv in argvs * 3:
                    traced(args=argv)
        for key in ("numpy", "click", "capflow"):
            self.layer_values[f"import.{key}_ms"] = statistics.median([i[key] for i in self.imports])
        for _ in range(5):
            # From the last statement of a process that imported the CLI to its exit.
            with subprocess.Popen(
                    [sys.executable, "-c", "import capflow.cli, time; print(time.perf_counter_ns(), flush=True)"],
                    stdout=subprocess.PIPE, env=self.env, cwd=self.root) as proc:
                stamp = int(proc.stdout.readline())
                # A blocking wait: with a timeout, Popen.wait polls at doubling
                # intervals and would round the exit up to the next poll.
                proc.wait()
                tracer.spans.append(["interp.exit", stamp, time.perf_counter_ns(), -1])

    def blocking_ns(self, tracer, roots, grouped):
        """Bare interpreter start, the imports this op's process made, the dispatch, and the exit."""
        fixed = statistics.median(grouped["interp.bare"]) + statistics.median(grouped["interp.exit"])
        dispatch = {cmd: statistics.median(grouped[f"cli.inproc.{cmd}"]) for cmd in CLI_COMMANDS}
        return [fixed + dispatch[item.cmd] + 1e6 * sum(split.values())
                for item, split in zip(self.items, self.imports)]


def build_network(spec: dict):
    if spec["type"] == "tube":
        return Tube(make_profile(ShapeKind(spec["shape"]), spec["rmin"], spec["rmax"], spec["length"]))
    factory = Series if spec["type"] == "series" else Parallel
    return factory([build_network(child) for child in spec["elements"]])


WORKLOADS = {w.name: w for w in (CliWorkload, TubeWorkload, NetworkWorkload, VerifyWorkload)}
