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

One table-driven parser on the standard library reads the command line.
``_COMMANDS`` declares each command's options once; the parse, the
``--help`` pages (``_help``) and the usage errors all come from it, byte
for byte as click 8.4 wrote them for the same declarations: ``--opt value``
and ``--opt=value``, the last repeat of an option wins, and errors come in
click's order (parameters in command-line order, then in declaration
order).  ``cli.main`` runs one command line as click's ``Group.main`` did:
it writes through ``sys.stdout``/``sys.stderr`` as they are at call time,
and in standalone mode it ends in SystemExit.  ``difflib``, ``textwrap``
and ``shutil`` load only on the help and error paths.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import sys

from .analytic import Fluid, flow_rate, pressure_drop
from .errors import CapillaryFlowError, NetworkSpecError
from .geometry import CORRUGATED, make_profile, sample_profile
from .network import _TOKEN_TO_KIND, _read_spec, network_resistance, parse_network_text

__all__ = ["main", "parse_network_text"]


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


class UsageError(Exception):
    """A usage problem: exit 2, after the usage line of ``usage`` = (command path, arguments) if known."""

    def __init__(self, message: str, usage: tuple[str, str] | None = None):
        super().__init__(message)
        self.message = message
        self.usage = usage

    def show(self) -> None:
        if self.usage is not None:
            from ._help import usage_line

            path, pieces = self.usage
            _echo(f"{usage_line(path, pieces)}\nTry '{path} --help' for help.\n\n", err=True)
        _echo(f"Error: {self.message}\n", err=True)


class _NoArguments(UsageError):
    """No arguments at all: the group's help page on stderr, exit 2."""

    def show(self) -> None:
        _echo(self.message + "\n", err=True)


def _echo(text: str, err: bool = False) -> None:
    """Write and flush, dropping ANSI style codes unless the stream is a terminal, as click.echo does."""
    stream = sys.stderr if err else sys.stdout
    if "\x1b" in text:
        try:
            terminal = stream.isatty()
        except Exception:
            terminal = False
        if not terminal:
            import re

            text = re.sub(r"\033\[[;?0-9]*[a-zA-Z]", "", text)
    stream.write(text)
    stream.flush()


# --- output -----------------------------------------------------------------


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
    import json

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
    _echo(out)


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value!r}")


# --- commands ---------------------------------------------------------------
#
# Each takes its options as keyword arguments named after the flags, writes
# its output, and raises UsageError for a usage problem.


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


def _pdrop(shape, rmin, rmax, length, viscosity, flow, format):
    _emit_tube(format, shape, rmin, rmax, length, viscosity, _FLOW, flow, _PRESSURE, pressure_drop)


def _qflow(shape, rmin, rmax, length, viscosity, pressure, format):
    _emit_tube(format, shape, rmin, rmax, length, viscosity, _PRESSURE, pressure, _FLOW, flow_rate)


def _profile(shape, rmin, rmax, length, samples, format, out):
    rows = list(sample_profile(make_profile(_TOKEN_TO_KIND[shape], rmin, rmax, length), samples).rows())
    if format == "json":
        text = _json_doc({"shape": shape, "units": {"x": _U_LENGTH, "r": _U_LENGTH}, "rows": rows})
    else:
        # plain is the bare two-column table, identical to csv
        text = _csv_table(["x", "r"], rows)

    if out == "-":
        _echo(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        _echo(f"error: cannot write {out}: {exc}\n", err=True)
        sys.exit(3)


def _parse_shape_list(shapes: str) -> list:
    if shapes.strip() == "all":
        return list(CORRUGATED)
    kinds = []
    for token in shapes.split(","):
        token = token.strip()
        if token not in _TOKEN_TO_KIND:
            raise UsageError(f"unknown shape {token!r}; valid: {', '.join(_TOKEN_TO_KIND)} or all")
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


def _verify(shapes, trials, tol, seed, format):
    from .quadrature import QuadratureConfig, verification_sweep

    if not (tol > 0.0) or not math.isfinite(tol):
        raise UsageError(f"--tol must be positive and finite, got {tol!r}")
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

    if format == "plain":
        lines = [
            f"[{'PASS' if row[-1] else 'FAIL'}]"
            + "".join(f" {key}={_cell(value)}" for (_, _, key), value in zip(_VERIFY_COLUMNS, row) if key)
            for row in rows
        ]
        lines.append(f"result passed={len(reports) - n_failed} failed={n_failed}")
        out = "\n".join(lines) + "\n"
    elif format == "csv":
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
    _echo(out)
    if n_failed:
        sys.exit(1)


def _network(file, viscosity, flow, pressure, format):
    if (flow is None) == (pressure is None):
        raise UsageError("exactly one of --flow or --pressure is required")
    fluid = Fluid(viscosity)
    try:
        element = parse_network_text(_read_spec(file))
    except OSError as exc:
        _echo(f"error: cannot read {file}: {exc}\n", err=True)
        sys.exit(3)
    except NetworkSpecError as exc:
        raise UsageError(str(exc)) from exc

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
    _emit_record(format, fields, plain=("resistance", "geometric_factor", answer[1]), csv_start=1)


# --- the command table ------------------------------------------------------
#
# An option is (flag, type, default, help).  The type is "FLOAT", "INTEGER"
# or "TEXT", an int m for an integer of at least m, or a tuple of choices.
# The default is _REQUIRED for a required option; any other default but
# None is shown in the help.  A command is (run, help, positional argument
# or None, options); its help's paragraphs are separated by blank lines.

_REQUIRED = object()
_ARGUMENT = "FILE"  # the one positional argument: network's spec file, which must exist

_GEOMETRY = (
    ("--shape", tuple(_TOKEN_TO_KIND), _REQUIRED, "Radius profile."),
    ("--rmin", "FLOAT", _REQUIRED, "Waist radius r_min [m]."),
    ("--rmax", "FLOAT", _REQUIRED, "End radius r_max [m]."),
    ("--length", "FLOAT", _REQUIRED, "Tube length L [m]."),
)
_VISCOSITY = ("--viscosity", "FLOAT", _REQUIRED, "Dynamic viscosity [Pa*s].")
_FORMAT = ("--format", ("plain", "csv", "json"), "plain", "Output format.")

_COMMANDS = {
    "pdrop": (_pdrop, "Pressure drop across one tube at flow rate Q.", None, (
        *_GEOMETRY,
        _VISCOSITY,
        ("--flow", "FLOAT", _REQUIRED, "Volumetric flow rate Q [m^3/s]."),
        _FORMAT,
    )),
    "qflow": (_qflow, "Flow rate through one tube at pressure drop P.", None, (
        *_GEOMETRY,
        _VISCOSITY,
        ("--pressure", "FLOAT", _REQUIRED, "Pressure drop P [Pa]."),
        _FORMAT,
    )),
    "profile": (_profile, "Uniformly sampled (x, r) table over [-L/2, L/2].", None, (
        *_GEOMETRY,
        ("--samples", "INTEGER", _REQUIRED, "Number of rows (>= 2)."),
        _FORMAT,
        ("--out", "TEXT", "-", "Output file path, or - for stdout."),
    )),
    "verify": (_verify, "Check the closed forms against adaptive quadrature on random tubes.", None, (
        ("--shapes", "TEXT", "all", 'Comma-separated shape tokens, or "all" for the five corrugated shapes.'),
        ("--trials", 1, 100, "Random geometries per shape."),
        ("--tol", "FLOAT", 1e-9, "Relative discrepancy allowed between closed form and quadrature."),
        ("--seed", 0, 42, "Seed for the randomized sweep."),
        _FORMAT,
    )),
    "network": (_network, (
        "Total resistance of a network file, plus P (given Q) or Q (given P).\n\n"
        'FILE is a JSON document of nested nodes: {"type": "tube", "shape": ..., "rmin": ..., '
        '"rmax": ..., "length": ...} at the leaves and {"type": "series"|"parallel", '
        '"elements": [...]} above them.'
    ), _ARGUMENT, (
        _VISCOSITY,
        ("--flow", "FLOAT", None, "Volumetric flow rate Q [m^3/s]."),
        ("--pressure", "FLOAT", None, "Pressure drop P [Pa]."),
        _FORMAT,
    )),
}

_GROUP_HELP = "Laminar-flow relations for converging-diverging capillaries."
_GROUP_USAGE = "[OPTIONS] COMMAND [ARGS]..."
_HELP = ("--help", "Show this message and exit.")


# --- parsing ----------------------------------------------------------------


class _Invalid(Exception):
    """A value its option's type rejects."""


def _convert(kind, raw: str):
    if type(kind) is tuple:
        if raw in kind:
            return raw
        raise _Invalid(f"{raw!r} is not one of {', '.join(map(repr, kind))}.")
    if kind == "TEXT":
        return raw
    if kind == "FLOAT":
        number, name = float, "float"
    else:
        number, name = int, "integer" if kind == "INTEGER" else "integer range"
    try:
        value = number(raw)
    except ValueError:
        raise _Invalid(f"{raw!r} is not a valid {name}.") from None
    if type(kind) is int and value < kind:
        raise _Invalid(f"{value} is not in the range x>={kind}.")
    return value


def _existing_file(path: str) -> str:
    # The name as shown: undecodable bytes of the command line become U+FFFD.
    shown = path.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
    try:
        mode = os.stat(path).st_mode
    except OSError:
        raise _Invalid(f"File {shown!r} does not exist.") from None
    if stat.S_ISDIR(mode):
        raise _Invalid(f"File {shown!r} is a directory.")
    if not os.access(path, os.R_OK):
        raise _Invalid(f"File {shown!r} is not readable.")
    return path


def _scan(args: list[str], flags, interspersed: bool, usage) -> tuple[dict, list[str], list[str]]:
    """One left-to-right pass over the options: ({flag: last value}, flags in order seen, the rest).

    ``flags`` holds the flags that take a value and "--help", which takes
    none.  "--" ends the options; with ``interspersed`` false, so does the
    first token that is no option.
    """
    values, order, positional = {}, [], []
    rargs = list(args)
    while rargs:
        arg = rargs.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or len(arg) == 1:
            if not interspersed:
                rargs.insert(0, arg)
                break
            positional.append(arg)
            continue
        name, eq, explicit = arg.partition("=")
        if name not in flags:
            if arg[:2] != "--":
                raise UsageError(f"No such option {arg[:2]!r}.", usage)
            raise UsageError(_no_such("option", name, flags), usage)
        if name == "--help":
            if eq:
                raise UsageError("Option '--help' does not take a value.")
            values[name] = True
        else:
            if eq:
                rargs.insert(0, explicit)
            if not rargs:
                raise UsageError(f"Option {name!r} requires an argument.")
            values[name] = rargs.pop(0)
        order.append(name)
    return values, order, positional + rargs


def _no_such(what: str, name: str, candidates) -> str:
    from difflib import get_close_matches

    matches = sorted(get_close_matches(name, candidates))
    shown = ", ".join(map(repr, matches))
    if not matches:
        return f"No such {what} {name!r}."
    if len(matches) == 1:
        return f"No such {what} {name!r}. Did you mean {shown}?"
    return f"No such {what} {name!r}. (Did you mean one of: {shown}?)"


def _run(args: list[str], prog: str):
    """Dispatch one command line; 0 after a help page, None after a command."""
    group = (prog, _GROUP_USAGE)
    if not args:
        from ._help import group_page

        raise _NoArguments(group_page(prog))
    values, _, rest = _scan(args, ("--help",), False, group)
    name = rest[0] if rest else ""
    if not values and name not in _COMMANDS and name[:1] and not name[:1].isalnum():
        # click parses an option-like unknown command again as the group's options: "-- --help" shows help.
        values = _scan(rest, ("--help",), False, group)[0]
    if values:
        from ._help import group_page

        _echo(group_page(prog) + "\n")
        return 0
    if not rest:
        raise UsageError("Missing command.", group)
    if name not in _COMMANDS:
        raise UsageError(_no_such("command", name, _COMMANDS), group)

    run, _, argument, options = _COMMANDS[name]
    path = f"{prog} {name}".lstrip()
    usage = (path, "[OPTIONS] FILE" if argument else "[OPTIONS]")
    flags = [flag for flag, *_ in options]
    values, order, rest = _scan(rest[1:], [*flags, "--help"], True, usage)
    declared = [*options, _HELP]
    if argument:
        values[argument] = rest.pop(0) if rest else None
        order.append(argument)
        declared.insert(0, (argument,))
    first_seen = {}
    for flag in order:
        first_seen.setdefault(flag, len(first_seen))
    # click's processing order: --help first, then what the command line names, then the rest.
    declared.sort(key=lambda param: (param[0] != "--help", first_seen.get(param[0], math.inf)))

    params = {}
    for flag, *spec in declared:
        raw = values.get(flag)
        if flag == "--help":
            if raw:
                from ._help import command_page

                _echo(command_page(name, *usage) + "\n")
                return 0
        elif flag == argument:
            if raw is None:
                raise UsageError(f"Missing argument '{argument}'.", usage)
            try:
                params[argument.lower()] = _existing_file(raw)
            except _Invalid as exc:
                raise UsageError(f"Invalid value for '{argument}': {exc}", usage) from None
        elif raw is not None:
            try:
                params[flag[2:]] = _convert(spec[0], raw)
            except _Invalid as exc:
                raise UsageError(f"Invalid value for '{flag}': {exc}", usage) from None
        elif spec[1] is _REQUIRED:
            message = f"Missing option '{flag}'."
            if type(spec[0]) is tuple:
                message += " Choose from:\n\t" + ",\n\t".join(spec[0])
            raise UsageError(message, usage)
        else:
            params[flag[2:]] = spec[1]
    if rest:
        plural = "s" if len(rest) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{plural} ({' '.join(rest)})", usage)

    try:
        run(**params)
    except UsageError as exc:
        exc.usage = usage
        raise
    except CapillaryFlowError as exc:
        raise UsageError(f"{type(exc).__name__}: {exc}", usage) from exc
    except MemoryError as exc:
        # Python's own, which a large table can still reach below MAX_SAMPLES; exit 1
        # means a failed verification.
        _echo(f"error: out of memory{f': {exc}' if str(exc) else ''}\n", err=True)
        sys.exit(2)
    return None


# --- entry points -------------------------------------------------------------


class _QuietFlush:
    """A stream whose flush ignores a closed pipe, for the interpreter's last flush."""

    def __init__(self, stream):
        self._stream = stream

    def flush(self) -> None:
        try:
            self._stream.flush()
        except OSError as exc:
            if exc.errno != errno.EPIPE:
                raise

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _program_name() -> str:
    """The name the program was run by: the script's file name, or "python -m package"."""
    path = sys.argv[0]
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(path)
    name = os.path.splitext(os.path.basename(path))[0]
    if name != "__main__":
        package = f"{package}.{name}"
    return f"python -m {package.lstrip('.')}"


class _Cli:
    """The capflow command group."""

    def main(self, args=None, prog_name=None, standalone_mode=True):
        """Run one command line (default ``sys.argv[1:]``).

        In standalone mode a usage error is shown and every outcome ends in
        SystemExit; otherwise a usage error propagates, and a help page
        returns 0 and a command None.
        """
        args = sys.argv[1:] if args is None else list(args)
        prog = _program_name() if prog_name is None else prog_name
        try:
            rv = _run(args, prog)
        except (EOFError, KeyboardInterrupt):
            _echo("\n", err=True)
            if not standalone_mode:
                raise
            _echo("Aborted!\n", err=True)
            sys.exit(1)
        except UsageError as exc:
            if not standalone_mode:
                raise
            exc.show()
            sys.exit(2)
        except OSError as exc:
            if exc.errno != errno.EPIPE:
                raise
            sys.stdout = _QuietFlush(sys.stdout)
            sys.stderr = _QuietFlush(sys.stderr)
            sys.exit(1)
        if not standalone_mode:
            return rv
        sys.exit(0)

    __call__ = main


cli = _Cli()


def main():
    cli()
