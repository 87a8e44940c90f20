"""Start-up contract: capflow never loads numpy, and loads the quadrature
module only when a quadrature name is used.  Neither ``import capflow`` nor
any command loads click, dataclasses or inspect, unless a bare interpreter
in the same environment already does.

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


def test_sweep_leaves_numpy_unloaded():
    out = run_python("""
        import sys
        from capflow import CORRUGATED, verification_sweep
        assert all(report.passed for report in verification_sweep(CORRUGATED, 1, 1e-9, seed=3))
        print("numpy" in sys.modules)
    """)
    assert out == "False\n"


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


def test_profile_command_leaves_numpy_unloaded():
    assert _dispatch(["profile", *TUBE, "--samples", "5"]) == "False False\n"


def test_verify_command_leaves_numpy_unloaded():
    assert _dispatch(["verify", "--trials", "2"]) == "False True\n"


def test_probe_sees_numpy():
    # The probe must see numpy when something does import it.
    out = run_python("""
        import sys
        import numpy
        print("numpy" in sys.modules)
    """)
    assert out == "True\n"


def test_everything_runs_with_numpy_blocked(tmp_path):
    # With numpy unimportable, every public function of capflow and every
    # CLI command in every format still runs.
    tube = {"type": "tube", "shape": "cosh", "rmin": 1e-3, "rmax": 2e-3, "length": 0.1}
    spec = tmp_path / "net.json"
    spec.write_text(json.dumps({"type": "series", "elements": [tube, tube]}), encoding="utf-8")
    out = run_python(f"""
        import sys
        sys.modules["numpy"] = None
        import contextlib, inspect, io, math
        import capflow
        import capflow.cli
        from capflow import *
        from capflow._pcg64 import Generator

        called = set()

        def call(name, *args, **kwargs):
            called.add(name)
            return getattr(capflow, name)(*args, **kwargs)

        water = Fluid(1e-3)
        tubes = [call("make_profile", kind, 1e-3, 1e-3 if kind is ShapeKind.STRAIGHT else 2e-3, 0.1)
                 for kind in ShapeKind]
        for p in tubes:
            assert call("radius_at", p, 0.01) > 0.0
            assert len(call("radius_array", p, [-0.05, 0.0, 0.05])) == 3
            assert len(call("sample_profile", p, 7)) == 7
            assert call("pressure_drop", p, 1e-9, water) > 0.0
            assert call("flow_rate", p, 1.0, water) > 0.0
            res = call("hydraulic_resistance", p, water)
            assert res.flow_rate(res.pressure_drop(1e-9)) > 0.0
            assert call("equivalent_radius", p) > 0.0
            assert call("inverse_r4_integral", p) > 0.0
            assert call("integrate_inverse_r4", p).converged
            assert call("numeric_pressure_drop", p, 1e-9, water) > 0.0
            assert call("verify_analytic", p, 1e-9).passed
            assert call("random_profile", p.kind, Generator([1, 2])).kind is p.kind
        assert call("poiseuille_pressure_drop", 1e-3, 0.1, 1e-9, water) > 0.0
        assert call("adaptive_integrate", math.exp, 0.0, 1.0, QuadratureConfig()).converged
        assert all(r.passed for r in call("verification_sweep", CORRUGATED, 2, 1e-9, 3, DEFAULT_CONFIG))
        net = Series([Tube(tubes[1]), Parallel([Tube(tubes[2]), Tube(tubes[3])])])
        assert call("network_resistance", net, water).resistance > 0.0
        assert call("network_pressure_drop", net, 1e-9, water) > 0.0
        assert call("network_flow_rate", net, 1.0, water) > 0.0
        functions = {{name for name in capflow.__all__ if inspect.isfunction(getattr(capflow, name))}}
        assert called == functions, functions ^ called
        assert capflow.cli.parse_network_text({spec.read_text()!r}) is not None

        tube = {TUBE!r}
        commands = [
            ["pdrop", *tube, "--viscosity", "1e-3", "--flow", "1e-9"],
            ["qflow", *tube, "--viscosity", "1e-3", "--pressure", "0.07"],
            ["network", {str(spec)!r}, "--viscosity", "1e-3", "--flow", "1e-9"],
            ["profile", *tube, "--samples", "5"],
            ["verify", "--trials", "2"],
        ]
        for argv in commands:
            for fmt in ("plain", "csv", "json"):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    capflow.cli.cli.main([*argv, "--format", fmt], prog_name="capflow", standalone_mode=False)
                assert stdout.getvalue(), (argv, fmt)
        print(len(called), len(commands))
    """)
    assert out == "19 5\n"


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


# Modules that a capflow process must not load itself.
UNWANTED = ("click", "dataclasses", "inspect")


@pytest.fixture(scope="module")
def preloaded():
    """Those of UNWANTED that a bare interpreter here loads already (a site .pth file can)."""
    return run_python(f"import sys; print(sorted(m for m in {UNWANTED!r} if m in sys.modules))")


def test_import_loads_no_click_dataclasses_or_inspect(preloaded):
    out = run_python(f"""
        import sys
        import capflow
        print(sorted(m for m in {UNWANTED!r} if m in sys.modules))
    """)
    assert out == preloaded


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("command", ["pdrop", "qflow", "network", "profile", "verify"])
def test_command_loads_no_click_dataclasses_or_inspect(command, fmt, preloaded, tmp_path):
    tube = {"type": "tube", "shape": "cosh", "rmin": 1e-3, "rmax": 2e-3, "length": 0.1}
    spec = tmp_path / "net.json"
    spec.write_text(json.dumps({"type": "series", "elements": [tube, tube]}), encoding="utf-8")
    argv = {
        "pdrop": ["pdrop", *TUBE, "--viscosity", "1e-3", "--flow", "1e-9"],
        "qflow": ["qflow", *TUBE, "--viscosity", "1e-3", "--pressure", "0.07"],
        "network": ["network", str(spec), "--viscosity", "1e-3", "--flow", "1e-9"],
        "profile": ["profile", *TUBE, "--samples", "5"],
        "verify": ["verify", "--trials", "2"],
    }[command]
    # The console script's path: main() reads sys.argv and ends in SystemExit.
    out = run_python(f"""
        import contextlib, io, sys
        sys.argv = ["capflow", *{argv!r}, "--format", {fmt!r}]
        import capflow.cli
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                capflow.cli.main()
            except SystemExit as exc:
                assert exc.code == 0, exc.code
        assert stdout.getvalue()
        print(sorted(m for m in {UNWANTED!r} if m in sys.modules))
    """)
    assert out == preloaded
