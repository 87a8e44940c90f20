"""The CLI's own parser against click's, on random command lines.

``click_reference`` declares the commands with click, as the CLI was first
written, and runs the CLI's own command functions.  Hypothesis draws
command lines from the real option vocabulary plus junk tokens, ``=``
forms, repeated options, numbers over the full double range, ANSI codes
and undecodable bytes, and network files that are valid, malformed or not
UTF-8.  Both must give the same exit code, stdout and stderr, byte for
byte; neither may raise, and exit 1 must come from ``verify`` alone.
Help pages and usage errors are also compared at terminal widths from 1
to 200 columns, outside click's test runner, which fixes the width at 80.
"""

import contextlib
import io
import json

import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings

import click_reference
import test_cli_golden

from capflow import cli as capflow_cli

COMMANDS = ("pdrop", "qflow", "profile", "verify", "network")
SHAPES = ("straight", "conical", "parabolic", "hyperbolic", "cosh", "sinusoidal")
FORMATS = ("plain", "csv", "json")
FILES = ("chain.json", "syntax.json", "latin1.json", "emptyseries.json", "badleaf.json", "bigint.json",
         "drawn.json", "missing.json", ".", "", "caf\udce9.json")
JUNK = ("", "-", "--", "---", "-x", "-5", "--fow", "--form", "--=x", "--help=1", "plot", "pdrp", "x",
        "\x1b[31mred\x1b[0m", "\udcff", "é", "all", " straight , conical", "conical,oval")

doubles = st.floats(allow_nan=True, allow_infinity=True).map(repr)
junk_numbers = st.sampled_from(["nan", "-inf", "1e500", "-0", "1_0", " 7 ", "0x10", "abc", ""])
plausible = st.sampled_from(["1e-9", "0.1", "1", "1e300", "-2.5e-7"])
numbers = st.one_of(plausible, plausible, doubles, junk_numbers)
sizes = st.sampled_from(["1e-3", "2e-3", "0.1", "1", "1e-100", "1e-200"])
lengths = st.one_of(sizes, sizes, sizes, doubles, junk_numbers)
small_ints = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["x", "", "1.5", "-05", "1000001"]))

VALUES = {
    "--shape": st.sampled_from(SHAPES * 3 + ("oval", "")),
    "--rmin": lengths,
    "--rmax": lengths,
    "--length": lengths,
    "--viscosity": st.one_of(st.sampled_from(["1e-3", "1", "1e-3", "0", "1e300"]), numbers),
    "--flow": numbers,
    "--pressure": numbers,
    "--samples": st.one_of(st.integers(2, 9).map(str), small_ints),
    "--format": st.sampled_from(FORMATS + FORMATS + ("xml",)),
    "--out": st.sampled_from(["-", "out.csv", ".", "missing/out.csv"]),
    "--shapes": st.sampled_from(["all", "conical", " straight , conical", "conical,oval", "", ","]),
    # Small counts only, so that a sweep stays quick.
    "--trials": st.sampled_from(["1", "2", "3", "+2", "0", "-1", "-05", "x", "", "1.5"]),
    "--tol": st.one_of(st.sampled_from(["1e-9", "1e-300", "1e-6"]), numbers),
    "--seed": st.one_of(small_ints, st.integers(0, 2**70).map(str)),
}
GEOMETRY = ("--shape", "--rmin", "--rmax", "--length")
OPTIONS = {
    "pdrop": (*GEOMETRY, "--viscosity", "--flow", "--format"),
    "qflow": (*GEOMETRY, "--viscosity", "--pressure", "--format"),
    "profile": (*GEOMETRY, "--samples", "--format", "--out"),
    "verify": ("--shapes", "--trials", "--tol", "--seed", "--format"),
    "network": ("--viscosity", "--flow", "--pressure", "--format"),
}


@st.composite
def option(draw, flag):
    if flag == "--help":
        return [flag]
    value = draw(VALUES[flag])
    form = draw(st.sampled_from(["separate"] * 8 + ["equals"] * 3 + ["dangling"]))
    if form == "equals":
        return [f"{flag}={value}"]
    if form == "dangling" and flag != "--trials":
        # A dangling --trials could take a long run of digits for its count.
        return [flag]
    return [flag, value]


@st.composite
def command_lines(draw):
    """A command with most of its own options, in any order, plus a few foreign or junk tokens."""
    argv = []
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.lists(st.sampled_from(JUNK + ("--help",)), max_size=2))
    command = draw(st.sampled_from(COMMANDS))
    argv.append(command)
    own = [[name] for name in FILES if draw(st.integers(0, 2)) == 0] if command == "network" else []
    if command == "network" and draw(st.booleans()):
        own.append([draw(st.sampled_from(("chain.json", "drawn.json")))])
    for flag in OPTIONS[command]:
        # verify always gets a --trials, so that no sweep runs its default 100 trials.
        if draw(st.integers(0, 7)) or flag == "--trials":
            own.append(draw(option(flag)))
    extra = draw(st.lists(st.one_of(
        st.sampled_from((*VALUES, "--help")).flatmap(option),
        st.sampled_from(FILES + JUNK).map(lambda token: [token]),
        st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)), max_size=8)
        .map(lambda token: [token]),
    ), max_size=3))
    for piece in draw(st.permutations(own + extra)):
        argv += piece
    return argv


spec_texts = st.one_of(
    st.binary(max_size=60),
    st.recursive(
        st.fixed_dictionaries({
            "type": st.just("tube"),
            "shape": st.sampled_from(SHAPES + ("oval",)),
            "rmin": st.floats(allow_nan=False) | st.integers(),
            "rmax": st.floats(allow_nan=False) | st.integers(),
            "length": st.floats(allow_nan=False) | st.integers(),
        }),
        lambda children: st.fixed_dictionaries({
            "type": st.sampled_from(["series", "parallel", "pipe"]),
            "elements": st.lists(children, max_size=3),
        }),
        max_leaves=6,
    ).map(lambda doc: json.dumps(doc).encode()),
)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz-specs")
    for name, data in test_cli_golden.SPEC_FILES.items():
        (directory / name).write_bytes(data)
    return directory


def outcome(command, argv):
    result = CliRunner().invoke(command, argv, prog_name="capflow")
    assert result.exception is None or isinstance(result.exception, SystemExit), (argv, result.exception)
    return result.exit_code, result.stdout_bytes, result.stderr_bytes


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines(), spec=spec_texts)
def test_same_outcome_as_click(argv, spec, spec_dir, monkeypatch):
    monkeypatch.chdir(spec_dir)
    (spec_dir / "drawn.json").write_bytes(spec)
    expected = outcome(click_reference.cli, argv)
    got = outcome(capflow_cli.cli, argv)
    assert got == expected, argv
    code, _, stderr = got
    assert b"Traceback" not in stderr
    assert code in (0, 2, 3) or (code == 1 and "verify" in argv), argv


@pytest.mark.parametrize("name", sorted(test_cli_golden.CASES))
def test_reference_gives_the_goldens(name, spec_dir, monkeypatch):
    # The reference is click's reading of the same declarations: the goldens hold for it too.
    monkeypatch.chdir(spec_dir)
    argv = test_cli_golden.CASES[name]
    assert outcome(click_reference.cli, argv) == outcome(capflow_cli.cli, argv)


def direct(command, argv):
    """(exit code, stdout, stderr) of ``command.main`` called outside click's test runner."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            command.main(argv, prog_name="capflow")
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


WIDTH_CASES = (
    [], ["--help"], ["plot"], ["--bogus"], ["--", "--help"],
    *([command, "--help"] for command in COMMANDS),
    *([command, "--fow"] for command in COMMANDS),
    ["network"], ["pdrop", "--shape", "oval"],
)


@pytest.mark.parametrize("columns", [1, 20, 49, 50, 51, 52, 53, 60, 70, 79, 80, 81, 82, 100, 200])
def test_help_wraps_as_click_at_every_width(columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", str(columns))
    for argv in WIDTH_CASES:
        assert direct(capflow_cli.cli, argv) == direct(click_reference.cli, argv), (columns, argv)


@pytest.mark.parametrize("prog", ["c", "a-very-long-program-name-that-leaves-no-room-for-the-usage", ""])
def test_usage_line_for_any_program_name(prog, monkeypatch):
    monkeypatch.setenv("COLUMNS", "60")
    for argv in (["pdrop", "--help"], ["network"], [], ["plot"]):
        out = []
        for command in (capflow_cli.cli, click_reference.cli):
            buffers = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buffers[0]), contextlib.redirect_stderr(buffers[1]):
                with pytest.raises(SystemExit) as exc:
                    command.main(argv, prog_name=prog)
            out.append((exc.value.code, buffers[0].getvalue(), buffers[1].getvalue()))
        assert out[0] == out[1], (prog, argv)


@pytest.mark.parametrize("error", [KeyboardInterrupt, EOFError, lambda: BrokenPipeError(32, "Broken pipe")])
def test_interrupt_and_closed_pipe_as_click(error, monkeypatch):
    # Ctrl-C or end of input prints "Aborted!" and a closed stdout exits quietly, both with exit 1.
    def interrupted(profile, n_samples):
        raise error()

    monkeypatch.setattr(capflow_cli, "sample_profile", interrupted)
    argv = ["profile", "--shape", "conical", "--rmin", "1e-3", "--rmax", "2e-3", "--length", "0.1", "--samples", "3"]
    expected = CliRunner().invoke(click_reference.cli, argv, prog_name="capflow")
    got = CliRunner().invoke(capflow_cli.cli, argv, prog_name="capflow")
    assert (got.exit_code, got.stdout_bytes, got.stderr_bytes) == (
        expected.exit_code, expected.stdout_bytes, expected.stderr_bytes)
    assert got.exit_code == 1


def test_outside_standalone_mode():
    # A help page returns 0 and a command None, as click's main does; a usage error propagates.
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert capflow_cli.cli.main(["--help"], prog_name="capflow", standalone_mode=False) == 0
        assert capflow_cli.cli.main(["pdrop", "--help"], prog_name="capflow", standalone_mode=False) == 0
        argv = ["pdrop", "--shape", "straight", "--rmin", "1", "--rmax", "1", "--length", "1", "--viscosity", "1",
                "--flow", "1"]
        assert capflow_cli.cli.main(argv, prog_name="capflow", standalone_mode=False) is None
    assert out.getvalue().endswith("pressure_drop 2.5464790894703255 Pa\n")
    with pytest.raises(capflow_cli.UsageError, match="No such command 'plot'"):
        capflow_cli.cli.main(["plot"], prog_name="capflow", standalone_mode=False)
