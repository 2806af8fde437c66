"""CLI, request parsing, JSON reports, SVG rendering."""

import json
import math

import numpy as np
import pytest

from cyclicpoly import cli, polyio
from cyclicpoly.errors import InfeasibleError, InvariantViolation

from oracles import strict_lengths

HOROCYCLE_L3 = 2 * math.asinh(2 * math.sinh(0.5))


def run_cli(args, stdin_text, capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(args)
    return code, capsys.readouterr().out


class TestParseRequest:
    def test_minimal(self):
        req = polyio.parse_request({"geometry": "euclidean", "lengths": [3, 4, 5]})
        assert req.geometry == "euclidean"
        assert req.lengths == [3.0, 4.0, 5.0]
        assert req.tolerance is None and req.horocycle_band is None

    def test_flag_overrides(self):
        req = polyio.parse_request(
            {"geometry": "euclidean", "lengths": [3, 4, 5], "options": {"tolerance": 1e-10}},
            geometry="spherical",
            tolerance=1e-8,
        )
        assert req.geometry == "spherical"
        assert req.tolerance == 1e-8

    @pytest.mark.parametrize(
        "bad",
        [
            [1, 2, 3],
            {"lengths": [1, 2, 3]},
            {"geometry": "weird", "lengths": [1, 2, 3]},
            {"geometry": "euclidean"},
            {"geometry": "euclidean", "lengths": "nope"},
            {"geometry": "euclidean", "lengths": [1, True, 3]},
            {"geometry": "euclidean", "lengths": [1, 2, 3], "extra": 1},
            {"geometry": "euclidean", "lengths": [1, 2, 3], "options": {"bogus": 1}},
            {"geometry": "euclidean", "lengths": [1, 2, 3], "options": {"tolerance": -1}},
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(polyio.RequestError):
            polyio.parse_request(bad)


class TestSolveReports:
    def test_euclidean_payload(self):
        rep = polyio.cli_solve(polyio.parse_request({"geometry": "euclidean", "lengths": [3, 4, 5]}))
        assert rep["status"] == "ok"
        assert rep["solution"]["radius"] == pytest.approx(2.5, abs=1e-12)
        assert rep["solution"]["center_inside"] is True
        assert len(rep["solution"]["vertices"]) == 3
        res = rep["diagnostics"]["residuals"]
        assert res["side_recovery_max_rel_error"] <= 1e-9
        assert res["angle_sum_abs_error"] <= 1e-11

    def test_hyperbolic_payload(self):
        rep = polyio.cli_solve(
            polyio.parse_request({"geometry": "hyperbolic", "lengths": [1, 1, 1.9]})
        )
        assert rep["solution"]["class"]["kind"] == "hypercycle"
        assert "axis_distance" in rep["solution"]
        assert "foot_distances" in rep["solution"]

    def test_verify_dual_path(self):
        rep = polyio.cli_verify(polyio.parse_request({"geometry": "euclidean", "lengths": [3, 4, 5]}))
        assert rep["checks"]["dual_path_radius_rel_delta"] <= 1e-8

    def test_verify_random_12gon_residual(self):
        rng = np.random.default_rng(71)
        l = strict_lengths(rng, 12, 0.5, 2.0)
        rep = polyio.cli_verify(
            polyio.parse_request({"geometry": "euclidean", "lengths": l.tolist()})
        )
        assert rep["checks"]["side_recovery_max_rel_error"] <= 1e-9
        assert rep["checks"]["dual_path_radius_rel_delta"] <= 1e-8

    def test_classify_report(self):
        rep = polyio.cli_classify(
            polyio.parse_request({"geometry": "hyperbolic", "lengths": [1, 1, HOROCYCLE_L3]})
        )
        assert rep["class"]["kind"] == "horocycle"
        assert rep["class"]["dominant"] == 2

    def test_render_refuses_error_report(self):
        with pytest.raises(InfeasibleError):
            polyio.cli_render({"status": "error", "error": {"code": "x", "message": "nope"}})


class TestResidualGate:
    def test_nan_residual_fails(self):
        with pytest.raises(InvariantViolation, match="x = nan"):
            polyio._enforce({"x": math.nan}, {"x": 1e-9})

    def test_nan_residual_never_reports_ok(self, monkeypatch):
        monkeypatch.setattr(polyio, "_max_rel_err", lambda recovered, expected: math.nan)
        request = polyio.parse_request({"geometry": "euclidean", "lengths": [3, 4, 5]})
        with pytest.raises(InvariantViolation, match="side_recovery_max_rel_error"):
            polyio.cli_solve(request)


class TestCanonicalJson:
    def test_seventeen_digit_floats(self):
        text = polyio.dumps_report({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_idempotent_round_trip(self):
        rep = polyio.cli_solve(polyio.parse_request({"geometry": "euclidean", "lengths": [3, 4, 5]}))
        s1 = polyio.dumps_report(rep)
        s2 = polyio.dumps_report(json.loads(s1))
        s3 = polyio.dumps_report(json.loads(s2))
        assert s1 == s2 == s3

    def test_negative_zero_normalized(self):
        assert "-0" not in polyio.dumps_report({"x": -0.0})

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantViolation):
            polyio.dumps_report({"x": math.nan})
        with pytest.raises(InvariantViolation):
            polyio.dumps_report({"x": math.inf})


class TestCliExitCodes:
    def test_solve_ok(self, capsys, monkeypatch):
        code, out = run_cli(["solve"], '{"geometry":"euclidean","lengths":[3,4,5]}', capsys, monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "ok"
        assert rep["solution"]["radius"] == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize(
        "request_text",
        [
            '{"geometry":"euclidean","lengths":[3,4,5]}',
            '{"geometry":"spherical","lengths":[1,1,1]}',
            '{"geometry":"hyperbolic","lengths":[1,1,1.9]}',
            '{"geometry":"minkowski","lengths":[1,1,3]}',
        ],
    )
    def test_feasible_exit_0_all_geometries(self, request_text, capsys, monkeypatch):
        code, out = run_cli(["solve"], request_text, capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    @pytest.mark.parametrize(
        "request_text,expected_code",
        [
            ('{"geometry":"euclidean","lengths":[1,1,3]}', "polygon_inequality"),
            ('{"geometry":"euclidean","lengths":[1,1,2]}', "polygon_inequality"),
            ('{"geometry":"spherical","lengths":[1,1,1,4]}', "perimeter"),
            ('{"geometry":"hyperbolic","lengths":[1,1,3]}', "polygon_inequality"),
            ('{"geometry":"minkowski","lengths":[1,1,1]}', "reverse_inequality"),
        ],
    )
    def test_infeasible_exit_2(self, request_text, expected_code, capsys, monkeypatch):
        code, out = run_cli(["solve"], request_text, capsys, monkeypatch)
        assert code == 2
        rep = json.loads(out)
        assert rep["status"] == "error"
        assert rep["error"]["code"] == expected_code

    def test_malformed_json_exit_1(self, capsys, monkeypatch):
        code, out = run_cli(["solve"], '{"geometry": euclidean}', capsys, monkeypatch)
        assert code == 1
        rep = json.loads(out)
        assert rep["error"]["code"] == "parse"
        assert "line 1" in rep["error"]["message"]

    def test_invalid_lengths_exit_1(self, capsys, monkeypatch):
        code, out = run_cli(["solve"], '{"geometry":"euclidean","lengths":[1,-2,3]}', capsys, monkeypatch)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "invalid_input"

    def test_internal_error_exit_1(self, capsys, monkeypatch):
        # a solution that misses a residual gate shares exit 1 with bad input
        monkeypatch.setattr(polyio, "_max_rel_err", lambda recovered, expected: 1.0)
        code, out = run_cli(["solve"], '{"geometry":"euclidean","lengths":[3,4,5]}', capsys, monkeypatch)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "internal_error"

    def test_geometry_flag(self, capsys, monkeypatch):
        code, out = run_cli(
            ["solve", "--geometry", "minkowski"], '{"lengths":[1,1,3]}', capsys, monkeypatch
        )
        assert code == 0
        assert json.loads(out)["solution"]["radius"] == pytest.approx(5 ** -0.5, abs=1e-12)

    def test_classify_subcommand(self, capsys, monkeypatch):
        code, out = run_cli(
            ["classify", "--geometry", "hyperbolic"], '{"lengths":[1,1,1]}', capsys, monkeypatch
        )
        assert code == 0
        assert json.loads(out)["class"]["kind"] == "circle"

    def test_verify_subcommand(self, capsys, monkeypatch):
        code, out = run_cli(["verify"], '{"geometry":"minkowski","lengths":[1,1,3]}', capsys, monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["checks"]["side_recovery_max_rel_error"] <= 1e-9

    def test_batch_input(self, capsys, monkeypatch):
        batch = '[{"geometry":"euclidean","lengths":[3,4,5]},{"geometry":"euclidean","lengths":[1,1,3]}]'
        code, out = run_cli(["solve"], batch, capsys, monkeypatch)
        assert code == 2  # one infeasible entry dominates
        reps = json.loads(out)
        assert reps[0]["status"] == "ok"
        assert reps[1]["status"] == "error"

    def test_tolerance_flag(self, capsys, monkeypatch):
        # a loose bisection tolerance is rescued by the Newton polish; the
        # report is still certified against the module tolerances
        code, out = run_cli(
            ["solve", "--tolerance", "1e-6"],
            '{"geometry":"euclidean","lengths":[1,1,1,2.9]}',
            capsys,
            monkeypatch,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["solution"]["radius"] == pytest.approx(math.sqrt(10.0), rel=1e-9)

    def test_horocycle_band_flag(self, capsys, monkeypatch):
        code, out = run_cli(
            ["classify", "--horocycle-band", "0.5"],
            '{"geometry":"hyperbolic","lengths":[1,1,1]}',
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["class"]["kind"] == "horocycle"


class TestRender:
    def test_svg_written_and_deterministic(self, tmp_path, capsys, monkeypatch):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        req = '{"geometry":"euclidean","lengths":[3,4,5]}'
        code1, _ = run_cli(["render", "--out", str(out1)], req, capsys, monkeypatch)
        code2, _ = run_cli(["render", "--out", str(out2)], req, capsys, monkeypatch)
        assert code1 == code2 == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        text = data.decode()
        assert text.startswith("<?xml")
        assert 'r="2.500000"' in text  # circumcircle in user units

    @pytest.mark.parametrize(
        "req,marker",
        [
            ('{"geometry":"spherical","lengths":[1,1,1]}', 'r="1.000000"'),
            ('{"geometry":"hyperbolic","lengths":[1,1,1]}', 'r="1.000000"'),
            ('{"geometry":"hyperbolic","lengths":[1,1,1.9]}', "<polyline"),
            ('{"geometry":"minkowski","lengths":[1,1,3]}', "<line"),
        ],
    )
    def test_all_geometries_render(self, req, marker, tmp_path, capsys, monkeypatch):
        out = tmp_path / "fig.svg"
        code, _ = run_cli(["render", "--out", str(out)], req, capsys, monkeypatch)
        assert code == 0
        text = out.read_text()
        assert marker in text
        assert "<polygon" in text

    def test_hyperbolic_polygon_inside_unit_disk(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "disk.svg"
        code, _ = run_cli(
            ["render", "--out", str(out)],
            '{"geometry":"hyperbolic","lengths":[1,1,1]}',
            capsys,
            monkeypatch,
        )
        assert code == 0
        rep = polyio.cli_solve(polyio.parse_request({"geometry": "hyperbolic", "lengths": [1, 1, 1]}))
        disk = np.array([[x / (1 + z), y / (1 + z)] for x, y, z in rep["solution"]["vertices"]])
        assert np.all(np.linalg.norm(disk, axis=1) < 1.0)

    def test_degenerate_request_writes_nothing(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "never.svg"
        code, text = run_cli(
            ["render", "--out", str(out)],
            '{"geometry":"euclidean","lengths":[1,1,9]}',
            capsys,
            monkeypatch,
        )
        assert code == 2
        assert not out.exists()
        assert json.loads(text)["status"] == "error"
