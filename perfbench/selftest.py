"""Tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Kept out of the library's pytest suite on purpose: the runs below start
interpreters and take under a minute.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from cyclicpoly import polyio  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: counts a later change may cite; they must repeat exactly for a fixed seed
REPEATING = (
    "rootfind.f_evals",
    "hyperbolic.phi.calls",
    "specfun.clausen2_vec.calls",
    "polyio.dumps_report.bytes",
)


def _run(*args: str, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _tiny_all(trace: int) -> dict:
    proc = _run("--workload", "all", "--seed", "7", "--seconds", "0", "--tiny",
                "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["workloads"]


def _ok_report(request: dict, command=polyio.cli_solve) -> dict:
    return json.loads(polyio.dumps_report(command(polyio.parse_request(request))))


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.untraced = _tiny_all(0)
        cls.traced = _tiny_all(1)
        cls.traced_again = _tiny_all(1)

    def _check_result(self, result: dict, level: str) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = {m["name"]: m["unit"] for m in BENCH[level]}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name])
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_end_to_end_metric_on_every_workload(self):
        self.assertEqual(list(self.untraced), list(workloads.WORKLOADS))
        for name, result in self.untraced.items():
            with self.subTest(workload=name):
                self._check_result(result, "end_to_end")
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0.0)

    def test_every_per_layer_metric_on_every_workload(self):
        for name, result in self.traced.items():
            with self.subTest(workload=name):
                self._check_result(result, "per_layer")

    def test_each_layer_is_seen_by_some_workload(self):
        for metric in BENCH["per_layer"]:
            name = metric["name"]
            if ".raised." in name or name.startswith("polyio.gate_reject"):
                continue  # errors occur only where the inputs provoke them
            with self.subTest(metric=name):
                self.assertTrue(any(r["metrics"][name]["value"] > 0
                                    for r in self.traced.values()))

    def test_counts_repeat_for_a_fixed_seed(self):
        for name in workloads.WORKLOADS:
            for count in REPEATING:
                with self.subTest(workload=name, count=count):
                    self.assertEqual(self.traced[name]["metrics"][count],
                                     self.traced_again[name]["metrics"][count])


class CorrectnessCheck(unittest.TestCase):
    def test_correct_answers_pass(self):
        for name in workloads.WORKLOADS:
            for request in workloads.requests_for(name, 3, tiny=True):
                command = polyio.cli_verify if name == "verify" else polyio.cli_solve
                try:
                    report = _ok_report(request, command)
                except Exception as exc:  # an error report is judged as well
                    report = workloads.error_report(exc)
                outcome, reason = check.judge(request, report)
                with self.subTest(workload=name, geometry=request["geometry"]):
                    self.assertNotEqual(outcome, "wrong", reason)

    def test_perturbed_parameters_are_flagged(self):
        cases = [
            ({"geometry": "euclidean", "lengths": [3.0, 4.0, 5.0]}, "radius"),
            ({"geometry": "spherical", "lengths": [0.5, 0.6, 0.7, 0.8]}, "chordal_radius"),
            ({"geometry": "hyperbolic", "lengths": [1.0, 1.2, 1.4]}, "circumradius"),
            ({"geometry": "hyperbolic", "lengths": [1.0, 1.0, 1.9]}, "axis_distance"),
            ({"geometry": "minkowski", "lengths": [1.0, 1.0, 2.5]}, "radius"),
        ]
        for request, key in cases:
            report = _ok_report(request)
            self.assertEqual(check.judge(request, report), ("ok", None))
            bad = copy.deepcopy(report)
            bad["solution"][key] *= 1.0 + 1e-6
            with self.subTest(geometry=request["geometry"], key=key):
                self.assertEqual(check.judge(request, bad)[0], "wrong")

    def test_perturbed_horocycle_offset_is_flagged(self):
        chords = [2.0 * math.sinh(0.5 * l) for l in (0.7, 1.1, 0.9)]
        dominant = 2.0 * math.asinh(0.5 * math.fsum(chords))
        request = {"geometry": "hyperbolic", "lengths": [0.7, 1.1, dominant, 0.9]}
        report = _ok_report(request)
        self.assertEqual(report["solution"]["class"]["kind"], "horocycle")
        self.assertEqual(check.judge(request, report), ("ok", None))
        report["solution"]["offsets"][1] *= 1.0 + 1e-6
        self.assertEqual(check.judge(request, report)[0], "wrong")

    def test_flipped_status_is_flagged(self):
        feasible = {"geometry": "euclidean", "lengths": [3.0, 4.0, 5.0]}
        infeasible = {"geometry": "euclidean", "lengths": [1.0, 1.0, 3.0]}
        refusal = {"status": "error", "error": {"code": "polygon_inequality"}}
        self.assertEqual(check.judge(infeasible, refusal), ("infeasible", None))
        self.assertEqual(check.judge(feasible, refusal)[0], "wrong")
        self.assertEqual(check.judge(infeasible, _ok_report(feasible))[0], "wrong")

    def test_dual_path_delta_is_checked(self):
        request = {"geometry": "euclidean", "lengths": [1.0, 1.5, 2.0, 1.2]}
        report = _ok_report(request, polyio.cli_verify)
        self.assertEqual(check.judge(request, report), ("ok", None))
        report["checks"]["dual_path_radius_rel_delta"] = 0.24
        self.assertEqual(check.judge(request, report)[0], "wrong")

    def test_refusals_are_sorted(self):
        request = {"geometry": "euclidean", "lengths": [1.0, 1.0, 1.5]}
        near = {"status": "error", "error": {"code": "near_degenerate"}}
        internal = {"status": "error", "error": {"code": "internal_error"}}
        self.assertEqual(check.judge(request, near)[0], "near_degenerate")
        self.assertEqual(check.judge(request, internal)[0], "internal_error")


class Generators(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.requests_for(name, 11, tiny=True),
                                 workloads.requests_for(name, 11, tiny=True))
                self.assertNotEqual(workloads.requests_for(name, 11, tiny=True),
                                    workloads.requests_for(name, 12, tiny=True))

    def test_large_n_classes_are_as_built(self):
        from cyclicpoly import hyperbolic

        requests = workloads.requests_for("large-n", 5)
        kinds = [hyperbolic.classify(r["lengths"]).kind
                 for r in requests if r["geometry"] == "hyperbolic"]
        self.assertEqual(kinds, ["circle", "horocycle", "hypercycle"] * 3)
        self.assertTrue(all(check.exists(r["geometry"], r["lengths"]) for r in requests))

    def test_semicircle_band_is_left_out(self):
        centered = [r for label, _, r in workloads.known_defects() if "centered" in label]
        self.assertTrue(workloads.near_semicircle(centered[0]["lengths"]))
        hyperbolic = [r["lengths"] for r in workloads.requests_for("small-single", 3)
                      if r["geometry"] == "hyperbolic"]
        self.assertFalse(any(map(workloads.near_semicircle, hyperbolic)))


class Checkout(unittest.TestCase):
    def test_fails_without_the_library(self):
        # a directory holding only BENCHMARK.json and the benchmark's files
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            bench_dir = Path(tmp) / "perfbench"
            bench_dir.mkdir()
            for src in HERE.glob("*.py"):
                shutil.copy(src, bench_dir)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "small-single",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
