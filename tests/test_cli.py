import csv
import io
import json
import math
import subprocess
import sys

import pytest

import reference_data as ref
from procenv import ENV

from capflow import NetworkSpecError, ShapeKind, inverse_r4_integral, make_profile
from capflow.cli import parse_network_text

CANONICAL_TUBE = ["--rmin", "1e-3", "--rmax", "2e-3", "--length", "0.1"]
CANONICAL_STRAIGHT = ["--rmin", "1e-3", "--rmax", "1e-3", "--length", "0.1"]
FLUID = ["--viscosity", "1e-3"]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "capflow", *args],
        capture_output=True,
        text=True,
        env=ENV,
    )


def parse_plain(stdout):
    """name -> (value, unit) from 'name value unit' lines."""
    parsed = {}
    for line in stdout.splitlines():
        name, value, unit = line.split()
        parsed[name] = (float(value), unit)
    return parsed


def parse_csv(stdout):
    return list(csv.reader(io.StringIO(stdout)))


def assert_usage_error(r, *fragments):
    """Exit 2, nothing on stdout, and a message instead of a traceback."""
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    for fragment in fragments:
        assert fragment in r.stderr


class TestPdrop:
    def test_plain(self):
        r = run_cli("pdrop", "--shape", "conical", *CANONICAL_TUBE, *FLUID, "--flow", "1e-9")
        assert r.returncode == 0
        assert r.stderr == ""
        name, value, unit = r.stdout.strip().split()
        assert (name, unit) == ("pressure_drop", "Pa")
        assert float(value) == pytest.approx(7.4272e-2, rel=1e-4)
        assert float(value) == pytest.approx(ref.PRESSURE["conical"], rel=1e-13)

    def test_csv(self):
        r = run_cli(
            "pdrop", "--shape", "sinusoidal", *CANONICAL_TUBE, *FLUID,
            "--flow", "1e-9", "--format", "csv",
        )
        assert r.returncode == 0
        rows = parse_csv(r.stdout)
        assert rows[0] == [
            "shape", "r_min", "r_max", "length", "viscosity", "flow_rate", "pressure_drop",
        ]
        assert len(rows) == 2
        assert rows[1][0] == "sinusoidal"
        assert float(rows[1][1]) == 1e-3
        assert float(rows[1][6]) == pytest.approx(ref.PRESSURE["sinusoidal"], rel=1e-13)

    def test_json(self):
        r = run_cli(
            "pdrop", "--shape", "cosh", *CANONICAL_TUBE, *FLUID,
            "--flow", "1e-9", "--format", "json",
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["shape"] == "cosh"
        assert doc["r_min"] == {"value": 1e-3, "unit": "m"}
        assert doc["viscosity"]["unit"] == "Pa_s"
        assert doc["flow_rate"] == {"value": 1e-9, "unit": "m3_per_s"}
        assert doc["pressure_drop"]["unit"] == "Pa"
        assert doc["pressure_drop"]["value"] == pytest.approx(ref.PRESSURE["cosh"], rel=1e-13)

    def test_zero_flow(self):
        r = run_cli("pdrop", "--shape", "conical", *CANONICAL_TUBE, *FLUID, "--flow", "0")
        assert r.returncode == 0
        assert parse_plain(r.stdout)["pressure_drop"][0] == 0.0

    def test_swapped_radii_is_usage_error(self):
        r = run_cli(
            "pdrop", "--shape", "conical", "--rmin", "2e-3", "--rmax", "1e-3",
            "--length", "0.1", *FLUID, "--flow", "1e-9",
        )
        assert r.returncode == 2
        assert "RadiusOrderError" in r.stderr

    def test_nonfinite_flow_is_usage_error(self):
        r = run_cli("pdrop", "--shape", "conical", *CANONICAL_TUBE, *FLUID, "--flow", "inf")
        assert r.returncode == 2

    def test_bad_viscosity_is_usage_error(self):
        r = run_cli(
            "pdrop", "--shape", "conical", *CANONICAL_TUBE,
            "--viscosity", "0", "--flow", "1e-9",
        )
        assert r.returncode == 2
        assert "NonPositiveViscosityError" in r.stderr

    @pytest.mark.parametrize(
        "shape,rmin,rmax,length",
        [("conical", "1e-200", "1e-100", "1"), ("straight", "1e-100", "1e-100", "1")],
        ids=["conical-tiny", "straight-tiny"],
    )
    def test_out_of_range_geometry_is_usage_error(self, shape, rmin, rmax, length):
        r = run_cli(
            "pdrop", "--shape", shape, "--rmin", rmin, "--rmax", rmax, "--length", length,
            "--viscosity", "1", "--flow", "1",
        )
        assert_usage_error(r, "GeometryRangeError")

    def test_overflowing_pressure_is_usage_error(self):
        r = run_cli("pdrop", "--shape", "conical", *CANONICAL_TUBE,
                    "--viscosity", "1e3", "--flow", "1e300")
        assert_usage_error(r, "FlowRangeError", "pressure drop inf")


class TestQflow:
    def test_straight_round_value(self):
        r = run_cli(
            "qflow", "--shape", "straight", *CANONICAL_STRAIGHT, *FLUID,
            "--pressure", "0.254648",
        )
        assert r.returncode == 0
        value, unit = parse_plain(r.stdout)["flow_rate"]
        assert unit == "m3_per_s"
        assert value == pytest.approx(1e-9, rel=1e-5)

    def test_zero_pressure(self):
        r = run_cli("qflow", "--shape", "straight", *CANONICAL_STRAIGHT, *FLUID, "--pressure", "0")
        assert r.returncode == 0
        assert parse_plain(r.stdout)["flow_rate"][0] == 0.0

    def test_negative_pressure_gives_negative_flow(self):
        r = run_cli(
            "qflow", "--shape", "parabolic", *CANONICAL_TUBE, *FLUID, "--pressure", "-0.1"
        )
        assert r.returncode == 0
        assert parse_plain(r.stdout)["flow_rate"][0] < 0.0

    def test_csv_header(self):
        r = run_cli(
            "qflow", "--shape", "conical", *CANONICAL_TUBE, *FLUID,
            "--pressure", "0.1", "--format", "csv",
        )
        rows = parse_csv(r.stdout)
        assert rows[0] == [
            "shape", "r_min", "r_max", "length", "viscosity", "pressure_drop", "flow_rate",
        ]

    @pytest.mark.parametrize(
        "shape,rmin,rmax,length",
        [
            ("cosh", "1e-3", "1e300", "1"),
            ("conical", "1e100", "1e101", "1"),
            ("straight", "1e100", "1e100", "1e-300"),
        ],
        ids=["cosh-huge-ratio", "conical-huge", "straight-huge"],
    )
    def test_out_of_range_geometry_is_usage_error(self, shape, rmin, rmax, length):
        r = run_cli(
            "qflow", "--shape", shape, "--rmin", rmin, "--rmax", rmax, "--length", length,
            "--viscosity", "1", "--pressure", "1",
        )
        assert_usage_error(r, "GeometryRangeError")

    def test_overflowing_flow_is_usage_error(self):
        r = run_cli("qflow", "--shape", "conical", *CANONICAL_TUBE,
                    "--viscosity", "1e-300", "--pressure", "1e300")
        assert_usage_error(r, "FlowRangeError", "flow rate inf")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "shape", ["straight", "conical", "parabolic", "hyperbolic", "cosh", "sinusoidal"]
    )
    def test_pdrop_then_qflow(self, shape):
        tube = CANONICAL_STRAIGHT if shape == "straight" else CANONICAL_TUBE
        first = run_cli("pdrop", "--shape", shape, *tube, *FLUID, "--flow", "1e-9")
        assert first.returncode == 0
        pressure = first.stdout.split()[1]
        second = run_cli("qflow", "--shape", shape, *tube, *FLUID, "--pressure", pressure)
        assert second.returncode == 0
        flow = parse_plain(second.stdout)["flow_rate"][0]
        assert flow == pytest.approx(1e-9, rel=1e-12)


class TestProfile:
    ARGS = ["profile", "--shape", "conical", *CANONICAL_TUBE, "--samples", "5"]

    def test_plain_table(self):
        r = run_cli(*self.ARGS)
        assert r.returncode == 0
        rows = parse_csv(r.stdout)
        assert rows[0] == ["x", "r"]
        radii = [float(row[1]) for row in rows[1:]]
        assert radii == pytest.approx([2e-3, 1.5e-3, 1e-3, 1.5e-3, 2e-3], rel=1e-12)
        xs = [float(row[0]) for row in rows[1:]]
        assert xs == pytest.approx([-0.05, -0.025, 0.0, 0.025, 0.05], rel=1e-12)

    def test_plain_equals_csv(self):
        plain = run_cli(*self.ARGS)
        as_csv = run_cli(*self.ARGS, "--format", "csv")
        assert plain.stdout == as_csv.stdout

    def test_json(self):
        r = run_cli(*self.ARGS, "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["shape"] == "conical"
        assert doc["units"] == {"x": "m", "r": "m"}
        assert len(doc["rows"]) == 5
        assert doc["rows"][2] == [0.0, 1e-3]

    def test_two_samples(self):
        r = run_cli("profile", "--shape", "sinusoidal", *CANONICAL_TUBE, "--samples", "2")
        assert r.returncode == 0
        assert len(parse_csv(r.stdout)) == 3

    def test_one_sample_is_usage_error(self):
        r = run_cli("profile", "--shape", "conical", *CANONICAL_TUBE, "--samples", "1")
        assert r.returncode == 2
        assert "TooFewSamplesError" in r.stderr

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        r = run_cli(*self.ARGS, "--out", str(target))
        assert r.returncode == 0
        assert r.stdout == ""
        piped = run_cli(*self.ARGS)
        assert target.read_text(encoding="utf-8") == piped.stdout

    @pytest.mark.parametrize(
        "shape, length",
        [("cosh", "1"), ("hyperbolic", "1e-300")],
        ids=["cosh-nan-waist", "hyperbolic-overflow"],
    )
    def test_out_of_range_profile_is_usage_error(self, shape, length):
        r = run_cli("profile", "--shape", shape, "--rmin", "1e-300", "--rmax", "1e300",
                    "--length", length, "--samples", "3")
        assert_usage_error(r, "GeometryRangeError")
        assert "Warning" not in r.stderr

    def test_out_to_directory_is_io_error(self, tmp_path):
        r = run_cli(*self.ARGS, "--out", str(tmp_path))
        assert r.returncode == 3
        assert "cannot write" in r.stderr


class TestVerify:
    def test_small_sweep_passes(self):
        r = run_cli("verify", "--shapes", "conical", "--trials", "3", "--seed", "7")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines[:3]):
            assert line.startswith(f"[PASS] shape=conical trial={i} ")
            assert "converged=true" in line
        assert lines[3] == "result passed=3 failed=0"

    def test_reruns_are_byte_identical(self):
        args = ("verify", "--shapes", "all", "--trials", "2", "--seed", "5", "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_all_means_five_corrugated_shapes(self):
        r = run_cli("verify", "--trials", "1", "--format", "csv")
        assert r.returncode == 0
        rows = parse_csv(r.stdout)
        assert [row[0] for row in rows[1:]] == [
            "conical", "parabolic", "hyperbolic", "cosh", "sinusoidal",
        ]

    def test_straight_can_be_requested_explicitly(self):
        r = run_cli("verify", "--shapes", "straight", "--trials", "1")
        assert r.returncode == 0
        assert "shape=straight" in r.stdout

    def test_csv_structure(self):
        r = run_cli("verify", "--shapes", "conical", "--trials", "2", "--format", "csv")
        rows = parse_csv(r.stdout)
        assert rows[0] == [
            "shape", "trial", "r_min", "r_max", "length",
            "analytic_pressure_drop", "numeric_pressure_drop",
            "relative_discrepancy", "oracle_error_estimate",
            "converged", "passed",
        ]
        assert len(rows) == 3
        assert rows[1][9] == "true"
        assert rows[1][10] == "true"

    def test_json_structure(self):
        r = run_cli("verify", "--shapes", "conical,sinusoidal", "--trials", "2", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["passed"] == 4
        assert doc["failed"] == 0
        assert len(doc["reports"]) == 4
        assert doc["reports"][0]["shape"] == "conical"
        assert doc["reports"][2]["shape"] == "sinusoidal"
        assert doc["reports"][0]["converged"] is True
        assert doc["units"]["analytic_pressure_drop"] == "Pa"

    def test_unmeetable_tolerance_fails_closed(self):
        r = run_cli("verify", "--shapes", "conical", "--trials", "1", "--tol", "1e-30")
        assert r.returncode == 1
        assert "converged=false" in r.stdout
        assert "[FAIL]" in r.stdout
        assert "result passed=0 failed=1" in r.stdout

    def test_negative_tolerance_is_usage_error(self):
        r = run_cli("verify", "--tol", "-1")
        assert r.returncode == 2

    def test_unknown_shape_is_usage_error(self):
        r = run_cli("verify", "--shapes", "helical")
        assert r.returncode == 2
        assert "unknown shape" in r.stderr

    def test_zero_trials_is_usage_error(self):
        r = run_cli("verify", "--trials", "0")
        assert r.returncode == 2


def write_network(tmp_path, doc):
    path = tmp_path / "network.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def tube_node(shape, rmin=1e-3, rmax=2e-3, length=0.1):
    if shape == "straight":
        rmax = rmin
    return {"type": "tube", "shape": shape, "rmin": rmin, "rmax": rmax, "length": length}


def chain_text(depth):
    """A series/parallel chain nested ``depth`` levels, a tube beside each level."""
    tube = json.dumps(tube_node("conical"))
    opening = "".join(
        f'{{"type": "{"series" if level % 2 else "parallel"}", "elements": [{tube}, '
        for level in range(depth)
    )
    return opening + tube + "]}" * depth


def chain_factor(depth):
    """G of ``chain_text(depth)``, composed from the innermost level out with math.fsum."""
    leaf = (8.0 / math.pi) * inverse_r4_integral(make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1))
    g = leaf
    for level in reversed(range(depth)):
        g = math.fsum([leaf, g]) if level % 2 else 1.0 / math.fsum([1.0 / leaf, 1.0 / g])
    return g


class TestNetwork:
    def test_single_tube(self, tmp_path):
        path = write_network(tmp_path, tube_node("conical"))
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert r.returncode == 0
        values = parse_plain(r.stdout)
        assert values["pressure_drop"][0] == pytest.approx(ref.PRESSURE["conical"], rel=1e-13)
        assert values["pressure_drop"][1] == "Pa"
        assert values["resistance"][1] == "Pa_s_per_m3"
        assert values["geometric_factor"][1] == "per_m3"
        mu = 1e-3
        assert values["resistance"][0] == pytest.approx(
            mu * values["geometric_factor"][0], rel=1e-15
        )

    def test_split_tube_matches_whole_tube(self, tmp_path):
        split = write_network(
            tmp_path,
            {
                "type": "series",
                "elements": [
                    tube_node("straight", rmin=1e-3, length=0.05),
                    tube_node("straight", rmin=1e-3, length=0.05),
                ],
            },
        )
        whole = (tmp_path / "whole.json")
        whole.write_text(json.dumps(tube_node("straight", rmin=1e-3, length=0.1)), encoding="utf-8")
        a = run_cli("network", split, *FLUID, "--flow", "1e-9")
        b = run_cli("network", str(whole), *FLUID, "--flow", "1e-9")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_five_tube_series(self, tmp_path):
        path = write_network(
            tmp_path,
            {
                "type": "series",
                "elements": [
                    tube_node(shape)
                    for shape in ("conical", "parabolic", "hyperbolic", "cosh", "sinusoidal")
                ],
            },
        )
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert r.returncode == 0
        values = parse_plain(r.stdout)
        assert values["resistance"][0] == pytest.approx(ref.FIVE_SERIES_RESISTANCE, rel=1e-13)
        assert values["pressure_drop"][0] == pytest.approx(ref.FIVE_SERIES_PRESSURE, rel=1e-13)

    def test_pressure_given_emits_flow(self, tmp_path):
        path = write_network(tmp_path, tube_node("straight", rmin=1e-3))
        r = run_cli("network", path, *FLUID, "--pressure", repr(ref.PRESSURE["straight"]))
        assert r.returncode == 0
        values = parse_plain(r.stdout)
        assert values["flow_rate"][0] == pytest.approx(1e-9, rel=1e-12)
        assert values["flow_rate"][1] == "m3_per_s"

    def test_csv_given_and_dual_columns(self, tmp_path):
        path = write_network(tmp_path, tube_node("conical"))
        r = run_cli("network", path, *FLUID, "--flow", "1e-9", "--format", "csv")
        rows = parse_csv(r.stdout)
        assert rows[0] == ["resistance", "geometric_factor", "flow_rate", "pressure_drop"]
        assert float(rows[1][3]) == pytest.approx(ref.PRESSURE["conical"], rel=1e-13)

    def test_json_structure(self, tmp_path):
        path = write_network(
            tmp_path,
            {"type": "parallel", "elements": [tube_node("conical"), tube_node("conical")]},
        )
        r = run_cli("network", path, *FLUID, "--flow", "1e-9", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["viscosity"] == {"value": 1e-3, "unit": "Pa_s"}
        assert doc["resistance"]["unit"] == "Pa_s_per_m3"
        assert doc["flow_rate"] == {"value": 1e-9, "unit": "m3_per_s"}
        # two equal tubes in parallel halve the single-tube pressure drop
        assert doc["pressure_drop"]["value"] == pytest.approx(
            ref.PRESSURE["conical"] / 2.0, rel=1e-13
        )

    def test_empty_elements_is_usage_error(self, tmp_path):
        path = write_network(tmp_path, {"type": "series", "elements": []})
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert r.returncode == 2
        assert "EmptyCompositeError" in r.stderr

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        r = run_cli("network", str(path), *FLUID, "--flow", "1e-9")
        assert r.returncode == 2
        assert "line 1 column" in r.stderr

    def test_unknown_key_reports_location(self, tmp_path):
        bad_tube = tube_node("conical")
        bad_tube["colour"] = "red"
        path = write_network(tmp_path, {"type": "series", "elements": [bad_tube]})
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert r.returncode == 2
        assert "$.elements[0]" in r.stderr
        assert "colour" in r.stderr

    def test_bad_leaf_geometry_reports_location(self, tmp_path):
        path = write_network(
            tmp_path,
            {"type": "series", "elements": [tube_node("conical", rmin=2e-3, rmax=1e-3)]},
        )
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert r.returncode == 2
        assert "RadiusOrderError" in r.stderr
        assert "$.elements[0]" in r.stderr

    def test_unknown_node_type(self, tmp_path):
        path = write_network(tmp_path, {"type": "loop", "elements": []})
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert r.returncode == 2
        assert "unknown node type" in r.stderr

    def test_both_flow_and_pressure_rejected(self, tmp_path):
        path = write_network(tmp_path, tube_node("conical"))
        r = run_cli("network", path, *FLUID, "--flow", "1e-9", "--pressure", "0.1")
        assert r.returncode == 2
        assert "exactly one" in r.stderr

    def test_neither_flow_nor_pressure_rejected(self, tmp_path):
        path = write_network(tmp_path, tube_node("conical"))
        r = run_cli("network", path, *FLUID)
        assert r.returncode == 2

    def test_missing_file(self, tmp_path):
        r = run_cli("network", str(tmp_path / "absent.json"), *FLUID, "--flow", "1e-9")
        assert r.returncode == 2

    def test_nesting_400_deep_composes(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(chain_text(400), encoding="utf-8")
        r = run_cli("network", str(path), *FLUID, "--flow", "1e-9")
        assert r.returncode == 0
        assert r.stderr == ""
        assert parse_plain(r.stdout)["geometric_factor"][0] == chain_factor(400)

    @pytest.mark.parametrize("depth", [2000])
    def test_deep_nesting_is_usage_error(self, tmp_path, depth):
        path = tmp_path / "deep.json"
        path.write_text(chain_text(depth), encoding="utf-8")
        r = run_cli("network", str(path), *FLUID, "--flow", "1e-9")
        assert_usage_error(r, "$: nesting too deep to parse")

    def test_deep_nesting_is_a_spec_error_in_the_parser(self):
        with pytest.raises(NetworkSpecError, match="nesting too deep"):
            parse_network_text(chain_text(2000))

    def test_out_of_range_leaf_is_usage_error(self, tmp_path):
        path = write_network(tmp_path, tube_node("straight", rmin=1e-100))
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert_usage_error(r, "GeometryRangeError")

    @pytest.mark.parametrize(
        "given", [("--viscosity", "1e3", "--flow", "1e300"), ("--viscosity", "1e-300", "--pressure", "1e300")],
        ids=["pressure", "flow"],
    )
    def test_overflowing_answer_is_usage_error(self, tmp_path, given):
        path = write_network(tmp_path, tube_node("conical"))
        r = run_cli("network", path, *given)
        assert_usage_error(r, "FlowRangeError")

    def test_overflowing_resistance_is_usage_error(self, tmp_path):
        path = write_network(tmp_path, tube_node("conical"))
        r = run_cli("network", path, "--viscosity", "1e300", "--pressure", "1")
        assert_usage_error(r, "FlowRangeError", "resistance inf")

    def test_underflowing_network_factor_is_usage_error(self, tmp_path):
        huge = tube_node("straight", rmin=1e77)
        path = write_network(tmp_path, {"type": "parallel", "elements": [huge]})
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert_usage_error(r, "GeometryRangeError")

    def test_non_utf8_file_reports_line_and_column(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"type": "tube",\r\n "shape": "coni\xe7al"}')
        r = run_cli("network", str(path), *FLUID, "--flow", "1e-9")
        assert_usage_error(r, "line 2 column 16: invalid UTF-8")

    @pytest.mark.parametrize(
        "field, literal",
        [("shape", '["conical"]'), ("rmin", "1" + "0" * 400), ("rmin", "1" + "0" * 5000)],
        ids=["list-shape", "int-beyond-double", "int-beyond-digit-limit"],
    )
    def test_malformed_field_is_usage_error(self, tmp_path, field, literal):
        node = tube_node("conical")
        node[field] = 0
        text = json.dumps(node).replace(f'"{field}": 0', f'"{field}": {literal}')
        path = tmp_path / "network.json"
        path.write_text(text, encoding="utf-8")
        r = run_cli("network", str(path), *FLUID, "--flow", "1e-9")
        assert_usage_error(r, "$")

    def test_string_radius_rejected(self, tmp_path):
        node = tube_node("conical")
        node["rmin"] = "wide"
        path = write_network(tmp_path, node)
        r = run_cli("network", path, *FLUID, "--flow", "1e-9")
        assert r.returncode == 2
        assert '"rmin" must be a number' in r.stderr
