"""Start-up contract: numpy loads only for sampling and seeded sweeps, and
the quadrature module only when a quadrature name is used.

Each check runs in a fresh interpreter, because numpy stays in
``sys.modules`` once anything in the test process has imported it.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from procenv import ENV

TUBE = ["--shape", "conical", "--rmin", "1e-3", "--rmax", "2e-3", "--length", "0.1"]


def run_python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "module", ["capflow", "capflow.analytic", "capflow.network", "capflow.cli", "capflow.quadrature"]
)
def test_import_leaves_numpy_unloaded(module):
    out = run_python(f"""
        import sys
        import {module}
        print("numpy" in sys.modules)
    """)
    assert out == "False\n"


@pytest.mark.parametrize("module", ["capflow", "capflow.cli"])
def test_import_leaves_quadrature_unloaded(module):
    out = run_python(f"""
        import sys
        import {module}
        print("capflow.quadrature" in sys.modules)
    """)
    assert out == "False\n"


def test_oracle_runs_without_numpy():
    out = run_python("""
        import sys
        from capflow import ShapeKind, integrate_inverse_r4, make_profile, verify_analytic
        profile = make_profile(ShapeKind.SINUSOIDAL, 1e-3, 2e-3, 0.1)
        assert integrate_inverse_r4(profile).converged
        assert verify_analytic(profile, 1e-9).passed
        print("numpy" in sys.modules)
    """)
    assert out == "False\n"


def test_sweep_loads_numpy():
    out = run_python("""
        import sys
        from capflow import CORRUGATED, verification_sweep
        assert all(report.passed for report in verification_sweep(CORRUGATED, 1, 1e-9, seed=3))
        print("numpy" in sys.modules)
    """)
    assert out == "True\n"


def _dispatch(argv) -> str:
    """Whether numpy, and then the quadrature module, are loaded after the command."""
    return run_python(f"""
        import contextlib, io, sys
        import capflow.cli
        with contextlib.redirect_stdout(io.StringIO()):
            capflow.cli.cli.main({argv!r}, prog_name="capflow", standalone_mode=False)
        print("numpy" in sys.modules, "capflow.quadrature" in sys.modules)
    """)


@pytest.mark.parametrize(
    "argv",
    [
        ["pdrop", *TUBE, "--viscosity", "1e-3", "--flow", "1e-9"],
        ["qflow", *TUBE, "--viscosity", "1e-3", "--pressure", "0.07"],
    ],
    ids=["pdrop", "qflow"],
)
def test_closed_form_commands_leave_numpy_unloaded(argv):
    assert _dispatch(argv) == "False False\n"


def test_network_command_leaves_numpy_unloaded(tmp_path):
    tube = {"type": "tube", "shape": "cosh", "rmin": 1e-3, "rmax": 2e-3, "length": 0.1}
    spec = tmp_path / "net.json"
    spec.write_text(json.dumps({"type": "parallel", "elements": [tube, tube]}), encoding="utf-8")
    argv = ["network", str(spec), "--viscosity", "1e-3", "--flow", "1e-9"]
    assert _dispatch(argv) == "False False\n"


def test_profile_command_loads_numpy():
    # The same probe must see numpy when a command does need it.
    assert _dispatch(["profile", *TUBE, "--samples", "5"]) == "True False\n"


def test_every_public_name_resolves():
    out = run_python("""
        import capflow
        from capflow import analytic, cli, geometry, network, quadrature, summation
        missing = [
            (module.__name__, name)
            for module in (capflow, analytic, cli, geometry, network, quadrature, summation)
            for name in module.__all__
            if not hasattr(module, name)
        ]
        assert not missing, missing
        assert set(capflow.__all__) <= set(dir(capflow))
        namespace = {}
        exec("from capflow import *", namespace)
        assert set(capflow.__all__) <= set(namespace)
        print("ok")
    """)
    assert out == "ok\n"


def test_quadrature_submodule_and_exports():
    out = run_python("""
        import capflow
        from capflow import quadrature
        assert capflow.QuadratureConfig is quadrature.QuadratureConfig
        assert capflow.verification_sweep is quadrature.verification_sweep
        reports = capflow.verification_sweep(capflow.CORRUGATED, 2, 1e-9, seed=3)
        assert len(reports) == 10 and all(r.passed for r in reports)
        print("ok")
    """)
    assert out == "ok\n"


def test_unknown_attribute_raises_attribute_error():
    out = run_python("""
        import sys
        import capflow
        try:
            capflow.no_such_name
        except AttributeError as exc:
            print(exc)
        print(hasattr(capflow, "quadrature_config"), "numpy" in sys.modules)
    """)
    assert out == "module 'capflow' has no attribute 'no_such_name'\nFalse False\n"
