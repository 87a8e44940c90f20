"""Command-line frontend.

Subcommands:

    pdrop    pressure drop of one tube at a given flow rate
    qflow    flow rate of one tube at a given pressure drop
    profile  sampled r(x) table for plotting
    verify   randomized closed-form vs quadrature sweeps
    network  evaluate a series/parallel network from a JSON file

Output formats: plain (name value unit lines), csv, json.  Plain and CSV
numerics use 17 significant digits so piped values round-trip exactly;
JSON numbers are emitted by the standard serializer, which is also
round-trip exact.  Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error
(any CapillaryFlowError, such as a closed form, network or sampled profile
that leaves double range, and running out of memory), 3 I/O error.
"""

from __future__ import annotations

import json
import math
import sys

import click

from .analytic import Fluid, flow_rate, pressure_drop
from .errors import CapillaryFlowError, NetworkSpecError
from .geometry import CORRUGATED, RadiusProfile, ShapeKind, make_profile, sample_profile
from .network import NetworkElement, Parallel, Series, Tube, network_resistance

__all__ = ["main", "parse_network_text"]


_TOKEN_TO_KIND = {kind.value: kind for kind in ShapeKind}

# Unit tokens used in plain lines and JSON records.
_U_PRESSURE = "Pa"
_U_FLOW = "m3_per_s"
_U_LENGTH = "m"
_U_VISCOSITY = "Pa_s"
_U_RESISTANCE = "Pa_s_per_m3"
_U_GEOMETRIC = "per_m3"

# The quantity a command is given and the one it answers: (option, name, unit).
_FLOW = ("--flow", "flow_rate", _U_FLOW)
_PRESSURE = ("--pressure", "pressure_drop", _U_PRESSURE)


def _cell(value) -> str:
    """A CSV cell or plain value: flags as true/false, floats at 17 significant digits.

    Seventeen digits round-trip every double; tokens and counts print as they are.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_table(header: list[str], rows) -> str:
    # No cell needs quoting: cells are names, shape tokens, numbers and flags.
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit_record(fmt: str, fields: list[tuple], plain: tuple[str, ...], csv_start: int = 0) -> None:
    """Write one record of (name, value, unit) fields; unit is None for a bare value.

    JSON shows every field, CSV the fields from ``csv_start`` on, and plain
    the fields named in ``plain``, as ``name value unit`` lines.
    """
    if fmt == "plain":
        out = "".join(f"{name} {_cell(value)} {unit}\n" for name, value, unit in fields if name in plain)
    elif fmt == "csv":
        shown = fields[csv_start:]
        out = _csv_table([name for name, _, _ in shown], [[value for _, value, _ in shown]])
    else:
        out = _json_doc(
            {name: value if unit is None else {"value": value, "unit": unit} for name, value, unit in fields}
        )
    click.echo(out, nl=False)


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise click.UsageError(f"{flag} must be finite, got {value!r}")


class _Command(click.Command):
    """A command that reports a library validation error as a usage error, and
    running out of memory as one error line, both with exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except CapillaryFlowError as exc:
            raise click.UsageError(f"{type(exc).__name__}: {exc}", ctx) from exc
        except MemoryError as exc:
            # Python's own, which a large table can still reach below MAX_SAMPLES; exit 1
            # means a failed verification.
            click.echo(f"error: out of memory{f': {exc}' if str(exc) else ''}", err=True)
            sys.exit(2)


def _geometry_options(f):
    f = click.option("--length", type=float, required=True, help="Tube length L [m].")(f)
    f = click.option("--rmax", type=float, required=True, help="End radius r_max [m].")(f)
    f = click.option("--rmin", type=float, required=True, help="Waist radius r_min [m].")(f)
    f = click.option(
        "--shape",
        type=click.Choice(list(_TOKEN_TO_KIND)),
        required=True,
        help="Radius profile.",
    )(f)
    return f


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["plain", "csv", "json"]),
    default="plain",
    show_default=True,
    help="Output format.",
)


@click.group()
def cli():
    """Laminar-flow relations for converging-diverging capillaries."""


cli.command_class = _Command


# --- single-tube commands -------------------------------------------------


def _emit_tube(fmt, shape, rmin, rmax, length, viscosity, given, value, answer, relation) -> None:
    """pdrop and qflow: ``relation`` of one tube at the ``given`` quantity's value."""
    _require_finite(given[0], value)
    result = relation(make_profile(_TOKEN_TO_KIND[shape], rmin, rmax, length), value, Fluid(viscosity))
    fields = [
        ("shape", shape, None),
        ("r_min", rmin, _U_LENGTH),
        ("r_max", rmax, _U_LENGTH),
        ("length", length, _U_LENGTH),
        ("viscosity", viscosity, _U_VISCOSITY),
        (given[1], value, given[2]),
        (answer[1], result, answer[2]),
    ]
    _emit_record(fmt, fields, plain=(answer[1],))


@cli.command("pdrop")
@_geometry_options
@click.option("--viscosity", type=float, required=True, help="Dynamic viscosity [Pa*s].")
@click.option("--flow", type=float, required=True, help="Volumetric flow rate Q [m^3/s].")
@_format_option
def cmd_pdrop(shape, rmin, rmax, length, viscosity, flow, fmt):
    """Pressure drop across one tube at flow rate Q."""
    _emit_tube(fmt, shape, rmin, rmax, length, viscosity, _FLOW, flow, _PRESSURE, pressure_drop)


@cli.command("qflow")
@_geometry_options
@click.option("--viscosity", type=float, required=True, help="Dynamic viscosity [Pa*s].")
@click.option("--pressure", type=float, required=True, help="Pressure drop P [Pa].")
@_format_option
def cmd_qflow(shape, rmin, rmax, length, viscosity, pressure, fmt):
    """Flow rate through one tube at pressure drop P."""
    _emit_tube(fmt, shape, rmin, rmax, length, viscosity, _PRESSURE, pressure, _FLOW, flow_rate)


@cli.command("profile")
@_geometry_options
@click.option("--samples", type=int, required=True, help="Number of rows (>= 2).")
@_format_option
@click.option(
    "--out",
    "out_path",
    default="-",
    show_default=True,
    help="Output file path, or - for stdout.",
)
def cmd_profile(shape, rmin, rmax, length, samples, fmt, out_path):
    """Uniformly sampled (x, r) table over [-L/2, L/2]."""
    rows = list(sample_profile(make_profile(_TOKEN_TO_KIND[shape], rmin, rmax, length), samples).rows())
    if fmt == "json":
        out = _json_doc({"shape": shape, "units": {"x": _U_LENGTH, "r": _U_LENGTH}, "rows": rows})
    else:
        # plain is the bare two-column table, identical to csv
        out = _csv_table(["x", "r"], rows)

    if out_path == "-":
        click.echo(out, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(out)
    except OSError as exc:
        click.echo(f"error: cannot write {out_path}: {exc}", err=True)
        sys.exit(3)


# --- verification sweeps ---------------------------------------------------


def _parse_shape_list(shapes: str) -> list[ShapeKind]:
    if shapes.strip() == "all":
        return list(CORRUGATED)
    kinds = []
    for token in shapes.split(","):
        token = token.strip()
        if token not in _TOKEN_TO_KIND:
            raise click.UsageError(
                f"unknown shape {token!r}; valid: {', '.join(_TOKEN_TO_KIND)} or all"
            )
        kinds.append(_TOKEN_TO_KIND[token])
    return kinds


# verify's columns: (CSV and JSON name, unit or None, key in plain lines or None).
_VERIFY_COLUMNS = (
    ("shape", None, "shape"),
    ("trial", None, "trial"),
    ("r_min", _U_LENGTH, "r_min"),
    ("r_max", _U_LENGTH, "r_max"),
    ("length", _U_LENGTH, "length"),
    ("analytic_pressure_drop", _U_PRESSURE, None),
    ("numeric_pressure_drop", _U_PRESSURE, None),
    ("relative_discrepancy", None, "discrepancy"),
    ("oracle_error_estimate", _U_GEOMETRIC, "estimate"),
    ("converged", None, "converged"),
    ("passed", None, None),
)


@cli.command("verify")
@click.option(
    "--shapes",
    default="all",
    show_default=True,
    help='Comma-separated shape tokens, or "all" for the five corrugated shapes.',
)
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True,
              help="Random geometries per shape.")
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="Relative discrepancy allowed between closed form and quadrature.")
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True,
              help="Seed for the randomized sweep.")
@_format_option
def cmd_verify(shapes, trials, tol, seed, fmt):
    """Check the closed forms against adaptive quadrature on random tubes."""
    from .quadrature import QuadratureConfig, verification_sweep

    if not (tol > 0.0) or not math.isfinite(tol):
        raise click.UsageError(f"--tol must be positive and finite, got {tol!r}")
    kinds = _parse_shape_list(shapes)
    # The oracle must out-resolve the declared tolerance to judge it; an
    # unmeetable request then surfaces as converged=false, not a false pass.
    config = QuadratureConfig(rel_tol=min(1e-10, tol / 10.0), abs_tol=0.0, max_depth=48)
    reports = verification_sweep(kinds, trials, tol, seed, config)
    rows = [
        (r.profile.kind.value, i % trials, r.profile.r_min, r.profile.r_max, r.profile.length,
         r.analytic_pressure_drop, r.numeric_pressure_drop, r.relative_discrepancy,
         r.oracle_error_estimate, r.converged, r.passed)
        for i, r in enumerate(reports)
    ]
    n_failed = sum(1 for r in reports if not r.passed)
    names = [name for name, _, _ in _VERIFY_COLUMNS]

    if fmt == "plain":
        lines = [
            f"[{'PASS' if row[-1] else 'FAIL'}]"
            + "".join(f" {key}={_cell(value)}" for (_, _, key), value in zip(_VERIFY_COLUMNS, row) if key)
            for row in rows
        ]
        lines.append(f"result passed={len(reports) - n_failed} failed={n_failed}")
        out = "\n".join(lines) + "\n"
    elif fmt == "csv":
        out = _csv_table(names, rows)
    else:
        out = _json_doc(
            {
                "units": {name: unit for name, unit, _ in _VERIFY_COLUMNS if unit is not None},
                "reports": [dict(zip(names, row)) for row in rows],
                "passed": len(reports) - n_failed,
                "failed": n_failed,
            }
        )
    click.echo(out, nl=False)
    if n_failed:
        sys.exit(1)


# --- network files ----------------------------------------------------------


_TUBE_KEYS = frozenset(("type", "shape", "rmin", "rmax", "length"))
_COMPOSITE_KEYS = frozenset(("type", "elements"))
_FACTORIES = {"series": Series, "parallel": Parallel}


def _spec_error(message: str, frame) -> NetworkSpecError:
    """The error for the node being parsed in a _build_network frame, at its document path.

    That node is the frame's next child, at index len(children); each
    enclosing frame's node sits at the same index of its own frame.
    """
    indices = []
    while frame[3] is not None:
        indices.append(len(frame[2]))
        frame = frame[3]
    return NetworkSpecError(message, "$" + "".join(f".elements[{i}]" for i in reversed(indices)))


class _LongInteger(str):
    """The digits of an integer literal longer than int() converts; no double is that large."""

    __repr__ = str.__str__


def _integer(digits: str):
    try:
        return int(digits)
    except ValueError:
        return _LongInteger(digits)


def _spec_number(node: dict, key: str, frame) -> float:
    value = node[key]
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    elif type(value) is not _LongInteger:
        raise _spec_error(f'"{key}" must be a number, got {value!r}', frame)
    raise _spec_error(f'"{key}" is outside the double range, got {value!r}', frame)


def _tube(node: dict, frame) -> Tube:
    if node.keys() != _TUBE_KEYS:
        for key in ("shape", "rmin", "rmax", "length"):
            if key not in node:
                raise _spec_error(f'tube node missing "{key}"', frame)
        raise _spec_error(f'unknown key "{min(node.keys() - _TUBE_KEYS)}" in tube node', frame)
    shape = node["shape"]
    kind = _TOKEN_TO_KIND.get(shape) if type(shape) is str else None
    if kind is None:
        raise _spec_error(f'unknown shape {shape!r}; valid: {", ".join(_TOKEN_TO_KIND)}', frame)
    rmin, rmax, length = node["rmin"], node["rmax"], node["length"]
    if not (type(rmin) is type(rmax) is type(length) is float):
        rmin, rmax, length = [_spec_number(node, key, frame) for key in ("rmin", "rmax", "length")]
    try:
        return Tube(RadiusProfile(kind, rmin, rmax, length))
    except CapillaryFlowError as exc:
        raise _spec_error(f"{type(exc).__name__}: {exc}", frame) from exc


def _build_network(doc) -> NetworkElement:
    """The element tree of a decoded spec, by one walk with an explicit stack.

    Nodes are checked in document order, each before its children, so the
    first problem in the document is the one reported.
    """
    # A frame is (factory, remaining JSON elements, children built so far,
    # enclosing frame); the document sits alone in a root frame, which has
    # no enclosing one.
    stack = [(None, iter((doc,)), [], None)]
    while True:
        frame = stack[-1]
        build, remaining, children, enclosing = frame
        for node in remaining:
            if type(node) is not dict:
                raise _spec_error(f"expected an object, got {type(node).__name__}", frame)
            if "type" not in node:
                raise _spec_error('missing "type"', frame)
            node_type = node["type"]
            if node_type == "tube":
                children.append(_tube(node, frame))
                continue
            factory = _FACTORIES.get(node_type) if type(node_type) is str else None
            if factory is None:
                raise _spec_error(
                    f'unknown node type {node_type!r}; expected "tube", "series", or "parallel"',
                    frame,
                )
            if node.keys() != _COMPOSITE_KEYS:
                unknown = node.keys() - _COMPOSITE_KEYS
                if unknown:
                    raise _spec_error(f'unknown key "{min(unknown)}" in {node_type} node', frame)
                raise _spec_error(f'{node_type} node missing "elements"', frame)
            elements = node["elements"]
            if type(elements) is not list:
                raise _spec_error('"elements" must be an array', frame)
            stack.append((factory, iter(elements), [], frame))
            break
        else:
            # Every child of this frame is built.
            stack.pop()
            if enclosing is None:
                return children[0]
            try:
                element = build(children)
            except CapillaryFlowError as exc:
                raise _spec_error(f"{type(exc).__name__}: {exc}", enclosing) from exc
            enclosing[2].append(element)


def parse_network_text(text: str) -> NetworkElement:
    """Parse a network spec document (JSON) into a NetworkElement tree.

    Raises NetworkSpecError with a document location on any syntax or
    validation problem.  The tree is built without recursion, so the only
    depth limit is the JSON decoder's: nesting it cannot follow (about 490
    series/parallel levels) is reported as "nesting too deep to parse".
    """
    try:
        # An integer literal longer than int() converts stays text, so that
        # the node holding it reports it as outside the double range.
        doc = json.loads(text, parse_int=_integer)
    except json.JSONDecodeError as exc:
        raise NetworkSpecError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise NetworkSpecError("nesting too deep to parse", "$") from exc
    return _build_network(doc)


def _read_spec(path: str) -> str:
    """The file's text, newlines translated as a text-mode read translates them.

    Invalid UTF-8 is a NetworkSpecError at the line and column of the first
    bad byte.  CR and LF bytes occur in UTF-8 only as themselves, so the
    translation can run before decoding.
    """
    with open(path, "rb") as handle:
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        line = head.count("\n") + 1
        column = len(head) - head.rfind("\n")
        raise NetworkSpecError(f"invalid UTF-8: {exc.reason}", f"line {line} column {column}") from exc


@cli.command("network")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--viscosity", type=float, required=True, help="Dynamic viscosity [Pa*s].")
@click.option("--flow", type=float, default=None, help="Volumetric flow rate Q [m^3/s].")
@click.option("--pressure", type=float, default=None, help="Pressure drop P [Pa].")
@_format_option
def cmd_network(file, viscosity, flow, pressure, fmt):
    """Total resistance of a network file, plus P (given Q) or Q (given P).

    FILE is a JSON document of nested nodes: {"type": "tube", "shape": ...,
    "rmin": ..., "rmax": ..., "length": ...} at the leaves and
    {"type": "series"|"parallel", "elements": [...]} above them.
    """
    if (flow is None) == (pressure is None):
        raise click.UsageError("exactly one of --flow or --pressure is required")
    fluid = Fluid(viscosity)
    try:
        element = parse_network_text(_read_spec(file))
    except OSError as exc:
        click.echo(f"error: cannot read {file}: {exc}", err=True)
        sys.exit(3)
    except NetworkSpecError as exc:
        raise click.UsageError(str(exc)) from exc

    res = network_resistance(element, fluid)
    if flow is not None:
        given, value, answer, relation = _FLOW, flow, _PRESSURE, res.pressure_drop
    else:
        given, value, answer, relation = _PRESSURE, pressure, _FLOW, res.flow_rate
    _require_finite(given[0], value)
    fields = [
        ("viscosity", viscosity, _U_VISCOSITY),
        ("resistance", res.resistance, _U_RESISTANCE),
        ("geometric_factor", res.geometric_factor, _U_GEOMETRIC),
        (given[1], value, given[2]),
        (answer[1], relation(value), answer[2]),
    ]
    _emit_record(fmt, fields, plain=("resistance", "geometric_factor", answer[1]), csv_start=1)


def main():
    cli()
