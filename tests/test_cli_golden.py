"""Golden outputs of the CLI: stdout, stderr and exit code of every invocation below.

Each case runs in-process through click's ``CliRunner`` from a scratch
directory holding the network spec files, so relative paths in messages
are the same on every machine.  The expected sha256 digests and a few
literal outputs live in ``reference_data``.  They cover every command in
every format and shape, the error matrix, the cases where two inputs are
bad at once (which error is reported first), and every ``--help`` page.
The README's CLI examples are run too, so the docs cannot drift.
"""

import hashlib
import json
import pathlib
import shlex

import pytest
from click.testing import CliRunner

import reference_data as ref

from capflow.cli import cli

SHAPES = ("straight", "conical", "parabolic", "hyperbolic", "cosh", "sinusoidal")
FORMATS = ("plain", "csv", "json")
FLUID = ["--viscosity", "1e-3"]


def geometry(shape, rmin="1e-3", rmax="2e-3", length="0.1"):
    return ["--shape", shape, "--rmin", rmin, "--rmax", rmin if shape == "straight" else rmax,
            "--length", length]


TUBE = {"type": "tube", "shape": "conical", "rmin": 1e-3, "rmax": 2e-3, "length": 0.1}
STRAIGHT = {"type": "tube", "shape": "straight", "rmin": 1e-3, "rmax": 1e-3, "length": 0.05}


def deep_chain(depth):
    """A series/parallel chain nested ``depth`` levels, a tube beside each level."""
    tube = json.dumps(TUBE)
    opening = "".join(
        f'{{"type": "{"series" if level % 2 else "parallel"}", "elements": [{tube}, ' for level in range(depth)
    )
    return opening + tube + "]}" * depth


SPEC_FILES = {
    "chain.json": json.dumps({"type": "series", "elements": [
        TUBE, {"type": "parallel", "elements": [STRAIGHT, STRAIGHT]}]}, indent=2).encode(),
    "syntax.json": b'{"type": "series", "elements": [\n  {"type": "tube",,}]}',
    "truncated.json": b'{"type": "series", "elements": [',
    "empty.json": b"",
    "badnode.json": json.dumps({"type": "series", "elements": [
        TUBE, {"type": "parallel", "elements": [TUBE, dict(TUBE, colour="red")]}]}).encode(),
    "emptyseries.json": b'{"type": "series", "elements": []}',
    "badleaf.json": json.dumps(dict(TUBE, rmin=2e-3, rmax=1e-3)).encode(),
    "latin1.json": b'{"type": "tube",\r\n "shape": "coni\xe7al"}',
    "bigint.json": json.dumps(TUBE).replace('"rmin": 0.001', '"rmin": 1' + "0" * 400).encode(),
    "digits.json": json.dumps(TUBE).replace('"rmin": 0.001', '"rmin": 1' + "0" * 5000).encode(),
    "deep.json": deep_chain(2000).encode(),
    "tiny.json": json.dumps(dict(TUBE, rmin=1e-200, rmax=1e-100, length=1.0)).encode(),
}


def _cases():
    cases = {}
    for fmt in FORMATS:
        for shape in SHAPES:
            cases[f"pdrop-{shape}-{fmt}"] = ["pdrop", *geometry(shape), *FLUID, "--flow", "1e-9", "--format", fmt]
            cases[f"qflow-{shape}-{fmt}"] = ["qflow", *geometry(shape), *FLUID, "--pressure", "0.1", "--format", fmt]
            cases[f"profile-{shape}-{fmt}"] = ["profile", *geometry(shape), "--samples", "5", "--format", fmt]
        cases[f"verify-{fmt}"] = ["verify", "--trials", "3", "--seed", "7", "--format", fmt]
        cases[f"verify-failing-{fmt}"] = ["verify", "--shapes", "conical,cosh", "--trials", "2",
                                          "--tol", "1e-300", "--seed", "7", "--format", fmt]
        for given, value in (("--flow", "1e-9"), ("--pressure", "0.1")):
            cases[f"network{given}-{fmt}"] = ["network", "chain.json", *FLUID, given, value, "--format", fmt]
    cases.update({
        # single-tube answers off the canonical path
        "pdrop-zero-flow": ["pdrop", *geometry("conical"), *FLUID, "--flow", "0"],
        "pdrop-negative-flow": ["pdrop", *geometry("sinusoidal"), *FLUID, "--flow", "-2.5e-7"],
        "qflow-degenerate": ["qflow", *geometry("cosh", rmax="1e-3"), *FLUID, "--pressure", "1"],
        "profile-two-samples": ["profile", *geometry("hyperbolic"), "--samples", "2"],
        "verify-straight": ["verify", "--shapes", " straight , conical", "--trials", "2", "--seed", "3"],
        # non-finite inputs
        "pdrop-flow-nan": ["pdrop", *geometry("conical"), *FLUID, "--flow", "nan"],
        "pdrop-flow-inf": ["pdrop", *geometry("conical"), *FLUID, "--flow", "inf"],
        "pdrop-flow-not-a-number": ["pdrop", *geometry("conical"), *FLUID, "--flow", "abc"],
        "qflow-pressure-nan": ["qflow", *geometry("conical"), *FLUID, "--pressure", "nan"],
        "qflow-pressure-minus-inf": ["qflow", *geometry("conical"), *FLUID, "--pressure", "-inf"],
        "verify-tol-nan": ["verify", "--tol", "nan"],
        "verify-tol-inf": ["verify", "--tol", "inf"],
        "verify-tol-zero": ["verify", "--tol", "0"],
        "verify-tol-negative": ["verify", "--tol", "-1e-9"],
        "network-flow-nan": ["network", "chain.json", *FLUID, "--flow", "nan"],
        "network-pressure-inf": ["network", "chain.json", *FLUID, "--pressure", "inf"],
        # validation errors from the library
        "pdrop-viscosity-zero": ["pdrop", *geometry("conical"), "--viscosity", "0", "--flow", "1e-9"],
        "qflow-viscosity-nan": ["qflow", *geometry("conical"), "--viscosity", "nan", "--pressure", "1"],
        "network-viscosity-negative": ["network", "chain.json", "--viscosity", "-1", "--flow", "1e-9"],
        "pdrop-swapped-radii": ["pdrop", *geometry("conical", "2e-3", "1e-3"), *FLUID, "--flow", "1e-9"],
        "qflow-negative-radius": ["qflow", *geometry("parabolic", "-1e-3"), *FLUID, "--pressure", "1"],
        "pdrop-zero-length": ["pdrop", *geometry("conical", length="0"), *FLUID, "--flow", "1e-9"],
        "pdrop-straight-mismatch": ["pdrop", "--shape", "straight", "--rmin", "1e-3", "--rmax", "2e-3",
                                    "--length", "0.1", *FLUID, "--flow", "1e-9"],
        "pdrop-geometry-range": ["pdrop", *geometry("conical", "1e-200", "1e-100", "1"),
                                 "--viscosity", "1", "--flow", "1"],
        "qflow-geometry-range": ["qflow", *geometry("straight", "1e-100"), *FLUID, "--pressure", "1"],
        "pdrop-flow-range": ["pdrop", *geometry("conical"), "--viscosity", "1e3", "--flow", "1e300"],
        "qflow-flow-range": ["qflow", *geometry("conical", "1", "2", "1e-300"), *FLUID, "--pressure", "1e300"],
        "network-flow-range": ["network", "chain.json", *FLUID, "--flow", "1e305"],
        "network-resistance-range": ["network", "chain.json", "--viscosity", "1e300", "--pressure", "1"],
        "network-geometry-range": ["network", "tiny.json", *FLUID, "--flow", "1e-9"],
        "profile-one-sample": ["profile", *geometry("conical"), "--samples", "1"],
        "profile-unwritable-out": ["profile", *geometry("conical"), "--samples", "3", "--out", "."],
        # unknown choices and ranges checked by click
        "pdrop-unknown-shape": ["pdrop", *geometry("oval"), *FLUID, "--flow", "1e-9"],
        "verify-unknown-shape": ["verify", "--shapes", "conical,oval"],
        "verify-zero-trials": ["verify", "--trials", "0"],
        "verify-negative-seed": ["verify", "--seed", "-1"],
        "pdrop-missing-option": ["pdrop", *geometry("conical"), "--flow", "1e-9"],
        "unknown-command": ["plot"],
        "network-both-givens": ["network", "chain.json", *FLUID, "--flow", "1e-9", "--pressure", "1"],
        "network-neither-given": ["network", "chain.json", *FLUID],
        # network files
        "network-missing-file": ["network", "missing.json", *FLUID, "--flow", "1e-9"],
        "network-directory": ["network", ".", *FLUID, "--flow", "1e-9"],
        "network-syntax": ["network", "syntax.json", *FLUID, "--flow", "1e-9"],
        "network-truncated": ["network", "truncated.json", *FLUID, "--flow", "1e-9"],
        "network-empty-file": ["network", "empty.json", *FLUID, "--flow", "1e-9"],
        "network-unknown-key": ["network", "badnode.json", *FLUID, "--flow", "1e-9"],
        "network-empty-series": ["network", "emptyseries.json", *FLUID, "--flow", "1e-9"],
        "network-bad-leaf": ["network", "badleaf.json", *FLUID, "--flow", "1e-9"],
        "network-not-utf8": ["network", "latin1.json", *FLUID, "--flow", "1e-9"],
        "network-int-beyond-double": ["network", "bigint.json", *FLUID, "--flow", "1e-9"],
        "network-int-beyond-digit-limit": ["network", "digits.json", *FLUID, "--flow", "1e-9"],
        "network-too-deep": ["network", "deep.json", *FLUID, "--flow", "1e-9"],
        # two bad inputs at once: the first check in each command's order wins
        "pdrop-swapped-radii-and-nan-flow": ["pdrop", *geometry("conical", "2e-3", "1e-3"), *FLUID,
                                             "--flow", "nan"],
        "pdrop-swapped-radii-and-zero-viscosity": ["pdrop", *geometry("conical", "2e-3", "1e-3"),
                                                   "--viscosity", "0", "--flow", "1e-9"],
        "qflow-mismatch-and-nan-viscosity": ["qflow", "--shape", "straight", "--rmin", "1e-3", "--rmax", "2e-3",
                                             "--length", "0.1", "--viscosity", "nan", "--pressure", "1"],
        "qflow-geometry-range-and-inf-pressure": ["qflow", *geometry("straight", "1e-100"), *FLUID,
                                                  "--pressure", "inf"],
        "profile-swapped-radii-and-one-sample": ["profile", *geometry("conical", "2e-3", "1e-3"), "--samples", "1"],
        "profile-one-sample-and-unwritable-out": ["profile", *geometry("conical"), "--samples", "1", "--out", "."],
        "verify-nan-tol-and-unknown-shape": ["verify", "--tol", "nan", "--shapes", "oval"],
        "verify-zero-trials-and-nan-tol": ["verify", "--trials", "0", "--tol", "nan"],
        "network-zero-viscosity-and-bad-file": ["network", "syntax.json", "--viscosity", "0", "--flow", "1e-9"],
        "network-bad-file-and-nan-flow": ["network", "syntax.json", *FLUID, "--flow", "nan"],
        "network-both-givens-and-zero-viscosity": ["network", "chain.json", "--viscosity", "0",
                                                   "--flow", "1", "--pressure", "1"],
        "network-resistance-range-and-nan-flow": ["network", "chain.json", "--viscosity", "1e300",
                                                  "--flow", "nan"],
        "network-missing-file-and-neither-given": ["network", "missing.json", *FLUID],
        # help pages
        "no-arguments": [],
        "help": ["--help"],
    })
    for command in ("pdrop", "qflow", "profile", "verify", "network"):
        cases[f"{command}-help"] = [command, "--help"]
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("specs")
    for name, data in SPEC_FILES.items():
        (directory / name).write_bytes(data)
    return directory


def invoke(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    result = CliRunner().invoke(cli, argv, prog_name="capflow")
    return result.exit_code, result.stdout_bytes, result.stderr_bytes


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(ref.CLI_GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, spec_dir, monkeypatch):
    monkeypatch.chdir(spec_dir)
    code, stdout, stderr = invoke(CASES[name])
    if name in ref.CLI_GOLDEN_LITERALS:
        assert (stdout.decode(), stderr.decode()) == ref.CLI_GOLDEN_LITERALS[name]
    assert (code, sha256(stdout), sha256(stderr)) == ref.CLI_GOLDEN[name]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_sessions():
    """(command line, printed lines) of every ``$ ...`` example in README's code blocks."""
    sessions = []
    for block in README.read_text(encoding="utf-8").split("```")[1::2]:
        lines = block.splitlines()
        while lines:
            if not lines[0].startswith("$ "):
                lines.pop(0)
                continue
            command = lines.pop(0)[2:]
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0)
            printed = []
            while lines and not lines[0].startswith("$ "):
                printed.append(lines.pop(0))
            while printed and not printed[-1]:
                printed.pop()
            sessions.append((command, printed))
    return sessions


def test_readme_examples_print_what_readme_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    checked = []
    for command, printed in readme_sessions():
        argv = shlex.split(command)
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(printed) + "\n", encoding="utf-8")
        elif argv[:1] == ["capflow"] and argv[1] in ("pdrop", "qflow", "network"):
            code, stdout, stderr = invoke(argv[1:])
            assert (code, stdout.decode(), stderr) == (0, "\n".join(printed) + "\n", b""), command
            checked.append(argv[1])
    assert checked == ["pdrop", "qflow", "network"]
