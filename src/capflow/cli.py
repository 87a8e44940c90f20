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

Exit codes: 0 success, 1 verification failure, 2 usage/validation error,
3 I/O error.
"""

from __future__ import annotations

import contextlib
import enum
import csv
import io
import json
import math
import sys

import click

from .analytic import Fluid, flow_rate, hydraulic_resistance, pressure_drop
from .errors import CapillaryFlowError, NetworkSpecError
from .geometry import CORRUGATED, RadiusProfile, ShapeKind, make_profile, sample_profile
from .network import NetworkElement, Parallel, Series, Tube, network_resistance

__all__ = ["main", "OutputFormat", "parse_network_text"]


class OutputFormat(enum.Enum):
    PLAIN = "plain"
    CSV = "csv"
    JSON = "json"


_SHAPE_TOKENS = [kind.value for kind in ShapeKind]
_TOKEN_TO_KIND = {kind.value: kind for kind in ShapeKind}

# Unit tokens used in plain lines and JSON records.
_U_PRESSURE = "Pa"
_U_FLOW = "m3_per_s"
_U_LENGTH = "m"
_U_VISCOSITY = "Pa_s"
_U_RESISTANCE = "Pa_s_per_m3"
_U_GEOMETRIC = "per_m3"


def _num(value: float) -> str:
    """Full round-trip decimal form (17 significant digits)."""
    return format(float(value), ".17g")


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _quantity(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise click.UsageError(f"{flag} must be finite, got {value!r}")


@contextlib.contextmanager
def _usage_errors():
    """Report a library validation error as a usage error (exit 2)."""
    try:
        yield
    except CapillaryFlowError as exc:
        raise click.UsageError(f"{type(exc).__name__}: {exc}") from exc


def _geometry_options(f):
    f = click.option("--length", type=float, required=True, help="Tube length L [m].")(f)
    f = click.option("--rmax", type=float, required=True, help="End radius r_max [m].")(f)
    f = click.option("--rmin", type=float, required=True, help="Waist radius r_min [m].")(f)
    f = click.option(
        "--shape",
        type=click.Choice(_SHAPE_TOKENS),
        required=True,
        help="Radius profile.",
    )(f)
    return f


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice([member.value for member in OutputFormat]),
    default=OutputFormat.PLAIN.value,
    show_default=True,
    help="Output format.",
)


@click.group()
def cli():
    """Laminar-flow relations for converging-diverging capillaries."""


# --- single-tube commands -------------------------------------------------


def _tube_record(profile: RadiusProfile, viscosity: float) -> dict:
    return {
        "shape": profile.kind.value,
        "r_min": _quantity(profile.r_min, _U_LENGTH),
        "r_max": _quantity(profile.r_max, _U_LENGTH),
        "length": _quantity(profile.length, _U_LENGTH),
        "viscosity": _quantity(viscosity, _U_VISCOSITY),
    }


@cli.command("pdrop")
@_geometry_options
@click.option("--viscosity", type=float, required=True, help="Dynamic viscosity [Pa*s].")
@click.option("--flow", type=float, required=True, help="Volumetric flow rate Q [m^3/s].")
@_format_option
def cmd_pdrop(shape, rmin, rmax, length, viscosity, flow, fmt):
    """Pressure drop across one tube at flow rate Q."""
    _require_finite("--flow", flow)
    with _usage_errors():
        profile = make_profile(_TOKEN_TO_KIND[shape], rmin, rmax, length)
        fluid = Fluid(viscosity)
        value = pressure_drop(profile, flow, fluid)

    if fmt == OutputFormat.PLAIN.value:
        out = f"pressure_drop {_num(value)} {_U_PRESSURE}\n"
    elif fmt == OutputFormat.CSV.value:
        out = _csv_table(
            ["shape", "r_min", "r_max", "length", "viscosity", "flow_rate", "pressure_drop"],
            [[shape, _num(rmin), _num(rmax), _num(length), _num(viscosity), _num(flow), _num(value)]],
        )
    else:
        record = _tube_record(profile, viscosity)
        record["flow_rate"] = _quantity(flow, _U_FLOW)
        record["pressure_drop"] = _quantity(value, _U_PRESSURE)
        out = _json_doc(record)
    click.echo(out, nl=False)


@cli.command("qflow")
@_geometry_options
@click.option("--viscosity", type=float, required=True, help="Dynamic viscosity [Pa*s].")
@click.option("--pressure", type=float, required=True, help="Pressure drop P [Pa].")
@_format_option
def cmd_qflow(shape, rmin, rmax, length, viscosity, pressure, fmt):
    """Flow rate through one tube at pressure drop P."""
    _require_finite("--pressure", pressure)
    with _usage_errors():
        profile = make_profile(_TOKEN_TO_KIND[shape], rmin, rmax, length)
        fluid = Fluid(viscosity)
        value = flow_rate(profile, pressure, fluid)

    if fmt == OutputFormat.PLAIN.value:
        out = f"flow_rate {_num(value)} {_U_FLOW}\n"
    elif fmt == OutputFormat.CSV.value:
        out = _csv_table(
            ["shape", "r_min", "r_max", "length", "viscosity", "pressure_drop", "flow_rate"],
            [[shape, _num(rmin), _num(rmax), _num(length), _num(viscosity), _num(pressure), _num(value)]],
        )
    else:
        record = _tube_record(profile, viscosity)
        record["pressure_drop"] = _quantity(pressure, _U_PRESSURE)
        record["flow_rate"] = _quantity(value, _U_FLOW)
        out = _json_doc(record)
    click.echo(out, nl=False)


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
    with _usage_errors():
        table = sample_profile(make_profile(_TOKEN_TO_KIND[shape], rmin, rmax, length), samples)

    if fmt == OutputFormat.JSON.value:
        out = _json_doc(
            {
                "shape": shape,
                "units": {"x": _U_LENGTH, "r": _U_LENGTH},
                "rows": [[xi, ri] for xi, ri in table.rows()],
            }
        )
    else:
        # plain is the bare two-column table, identical to csv
        out = _csv_table(["x", "r"], [[_num(xi), _num(ri)] for xi, ri in table.rows()])

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
                f"unknown shape {token!r}; valid: {', '.join(_SHAPE_TOKENS)} or all"
            )
        kinds.append(_TOKEN_TO_KIND[token])
    return kinds


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
    n_failed = sum(1 for r in reports if not r.passed)

    if fmt == OutputFormat.PLAIN.value:
        lines = []
        for i, r in enumerate(reports):
            lines.append(
                f"[{'PASS' if r.passed else 'FAIL'}] shape={r.profile.kind.value}"
                f" trial={i % trials}"
                f" r_min={_num(r.profile.r_min)}"
                f" r_max={_num(r.profile.r_max)}"
                f" length={_num(r.profile.length)}"
                f" discrepancy={_num(r.relative_discrepancy)}"
                f" estimate={_num(r.oracle_error_estimate)}"
                f" converged={_flag(r.converged)}"
            )
        lines.append(f"result passed={len(reports) - n_failed} failed={n_failed}")
        out = "\n".join(lines) + "\n"
    elif fmt == OutputFormat.CSV.value:
        rows = [
            [
                r.profile.kind.value,
                str(i % trials),
                _num(r.profile.r_min),
                _num(r.profile.r_max),
                _num(r.profile.length),
                _num(r.analytic_pressure_drop),
                _num(r.numeric_pressure_drop),
                _num(r.relative_discrepancy),
                _num(r.oracle_error_estimate),
                _flag(r.converged),
                _flag(r.passed),
            ]
            for i, r in enumerate(reports)
        ]
        out = _csv_table(
            [
                "shape", "trial", "r_min", "r_max", "length",
                "analytic_pressure_drop", "numeric_pressure_drop",
                "relative_discrepancy", "oracle_error_estimate",
                "converged", "passed",
            ],
            rows,
        )
    else:
        out = _json_doc(
            {
                "units": {
                    "r_min": _U_LENGTH,
                    "r_max": _U_LENGTH,
                    "length": _U_LENGTH,
                    "analytic_pressure_drop": _U_PRESSURE,
                    "numeric_pressure_drop": _U_PRESSURE,
                    "oracle_error_estimate": _U_GEOMETRIC,
                },
                "reports": [
                    {
                        "shape": r.profile.kind.value,
                        "trial": i % trials,
                        "r_min": r.profile.r_min,
                        "r_max": r.profile.r_max,
                        "length": r.profile.length,
                        "analytic_pressure_drop": r.analytic_pressure_drop,
                        "numeric_pressure_drop": r.numeric_pressure_drop,
                        "relative_discrepancy": r.relative_discrepancy,
                        "oracle_error_estimate": r.oracle_error_estimate,
                        "converged": r.converged,
                        "passed": r.passed,
                    }
                    for i, r in enumerate(reports)
                ],
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


def _location(frame) -> str:
    """Document path of the node being parsed in a _build_network frame.

    That node is the frame's next child, at index len(children); each
    enclosing frame's node sits at the same index of its own frame.
    """
    indices = []
    while frame[3] is not None:
        indices.append(len(frame[2]))
        frame = frame[3]
    return "$" + "".join(f".elements[{i}]" for i in reversed(indices))


def _spec_error(message: str, frame) -> NetworkSpecError:
    return NetworkSpecError(message, _location(frame))


def _spec_number(node: dict, key: str, frame) -> float:
    value = node[key]
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise _spec_error(f'"{key}" is outside the double range, got {value!r}', frame) from None
    raise _spec_error(f'"{key}" must be a number, got {value!r}', frame)


def _tube(node: dict, frame) -> Tube:
    if node.keys() != _TUBE_KEYS:
        for key in ("shape", "rmin", "rmax", "length"):
            if key not in node:
                raise _spec_error(f'tube node missing "{key}"', frame)
        raise _spec_error(f'unknown key "{min(node.keys() - _TUBE_KEYS)}" in tube node', frame)
    shape = node["shape"]
    kind = _TOKEN_TO_KIND.get(shape) if type(shape) is str else None
    if kind is None:
        raise _spec_error(f'unknown shape {shape!r}; valid: {", ".join(_SHAPE_TOKENS)}', frame)
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
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkSpecError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise NetworkSpecError("nesting too deep to parse", "$") from exc
    except ValueError as exc:
        # an integer literal with more digits than int() converts
        raise NetworkSpecError(f"invalid JSON: {exc}", "$") from exc
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
    with _usage_errors():
        fluid = Fluid(viscosity)
    try:
        element = parse_network_text(_read_spec(file))
    except OSError as exc:
        click.echo(f"error: cannot read {file}: {exc}", err=True)
        sys.exit(3)
    except NetworkSpecError as exc:
        raise click.UsageError(str(exc)) from exc

    with _usage_errors():
        res = network_resistance(element, fluid)
    if flow is not None:
        _require_finite("--flow", flow)
        given_name, given_value, given_unit = "flow_rate", flow, _U_FLOW
        dual_name, dual_unit, dual = "pressure_drop", _U_PRESSURE, res.pressure_drop
    else:
        _require_finite("--pressure", pressure)
        given_name, given_value, given_unit = "pressure_drop", pressure, _U_PRESSURE
        dual_name, dual_unit, dual = "flow_rate", _U_FLOW, res.flow_rate
    with _usage_errors():
        dual_value = dual(given_value)

    if fmt == OutputFormat.PLAIN.value:
        out = (
            f"resistance {_num(res.resistance)} {_U_RESISTANCE}\n"
            f"geometric_factor {_num(res.geometric_factor)} {_U_GEOMETRIC}\n"
            f"{dual_name} {_num(dual_value)} {dual_unit}\n"
        )
    elif fmt == OutputFormat.CSV.value:
        out = _csv_table(
            ["resistance", "geometric_factor", given_name, dual_name],
            [[_num(res.resistance), _num(res.geometric_factor), _num(given_value), _num(dual_value)]],
        )
    else:
        out = _json_doc(
            {
                "viscosity": _quantity(viscosity, _U_VISCOSITY),
                "resistance": _quantity(res.resistance, _U_RESISTANCE),
                "geometric_factor": _quantity(res.geometric_factor, _U_GEOMETRIC),
                given_name: _quantity(given_value, given_unit),
                dual_name: _quantity(dual_value, dual_unit),
            }
        )
    click.echo(out, nl=False)


def main():
    cli()
