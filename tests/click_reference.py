"""The capflow command line as click declared it: a test-only reference for the CLI's own parser.

These are the click declarations the CLI was first written with.  Each
command runs the CLI's own command function, so the reference and
``capflow.cli.cli`` differ only in how they read the command line and in
the help pages and usage errors they write; ``test_cli_fuzz`` compares the
two on random command lines.
"""

import sys

import click

from capflow import cli as capflow_cli
from capflow.errors import CapillaryFlowError


class _Command(click.Command):
    """A command that reports a library validation error as a usage error, and
    running out of memory as one error line, both with exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except capflow_cli.UsageError as exc:
            raise click.UsageError(exc.message, ctx) from exc
        except CapillaryFlowError as exc:
            raise click.UsageError(f"{type(exc).__name__}: {exc}", ctx) from exc
        except MemoryError as exc:
            click.echo(f"error: out of memory{f': {exc}' if str(exc) else ''}", err=True)
            sys.exit(2)


def _geometry_options(f):
    f = click.option("--length", type=float, required=True, help="Tube length L [m].")(f)
    f = click.option("--rmax", type=float, required=True, help="End radius r_max [m].")(f)
    f = click.option("--rmin", type=float, required=True, help="Waist radius r_min [m].")(f)
    f = click.option(
        "--shape",
        type=click.Choice(["straight", "conical", "parabolic", "hyperbolic", "cosh", "sinusoidal"]),
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


@cli.command("pdrop")
@_geometry_options
@click.option("--viscosity", type=float, required=True, help="Dynamic viscosity [Pa*s].")
@click.option("--flow", type=float, required=True, help="Volumetric flow rate Q [m^3/s].")
@_format_option
def cmd_pdrop(shape, rmin, rmax, length, viscosity, flow, fmt):
    """Pressure drop across one tube at flow rate Q."""
    capflow_cli._pdrop(shape, rmin, rmax, length, viscosity, flow, fmt)


@cli.command("qflow")
@_geometry_options
@click.option("--viscosity", type=float, required=True, help="Dynamic viscosity [Pa*s].")
@click.option("--pressure", type=float, required=True, help="Pressure drop P [Pa].")
@_format_option
def cmd_qflow(shape, rmin, rmax, length, viscosity, pressure, fmt):
    """Flow rate through one tube at pressure drop P."""
    capflow_cli._qflow(shape, rmin, rmax, length, viscosity, pressure, fmt)


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
    capflow_cli._profile(shape, rmin, rmax, length, samples, fmt, out_path)


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
    capflow_cli._verify(shapes, trials, tol, seed, fmt)


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
    capflow_cli._network(file, viscosity, flow, pressure, fmt)
