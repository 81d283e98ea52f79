#!/usr/bin/env python3
"""The benchmark's own tests: a smoke run of every workload, untraced and
traced, and one run per correctness check with a perturbed reference.

Run from the root of a checkout (builds and makes fixtures on first use):

    python3 perfbench/test_bench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = 2


def run_bench(workload, trace=0, perturb="", seconds=SMOKE_SECONDS):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    """Every named metric prints, with its unit, on every workload."""

    def check_metrics(self, result, expected):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run_bench(w["name"])
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                       m["name"])

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run_bench(w["name"], trace=1, seconds=4)
                self.check_metrics(result, SPEC["per_layer"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if w["name"] in ("drift_stream", "parked_camera",
                                 "offline_audit"):
                    # The extract, reduce, discrepancy and joint spans
                    # cover the scorer call they sit in.
                    self.assertGreaterEqual(m["trace.scorer_coverage_min"],
                                            0.95)
                if w["name"] == "drift_stream":
                    self.assertEqual(m["cache.activation_hit_ratio"], 0)
                    self.assertEqual(m["cache.decision_hit_ratio"], 0)
                if w["name"] == "parked_camera":
                    self.assertGreater(m["cache.activation_hit_ratio"], 0.9)
                if w["name"] == "bank_refit":
                    self.assertGreater(m["svm.smo_iterations"], 0)


class CheckFiresTest(unittest.TestCase):
    """Each correctness check fails the run when its reference is off by
    one part in 1e9."""

    def assert_fires(self, workload, perturb):
        result = run_bench(workload, perturb=perturb)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_served_verdicts_drift(self):
        self.assert_fires("drift_stream", "verdict")

    def test_served_verdicts_parked(self):
        self.assert_fires("parked_camera", "verdict")

    def test_audit_passes_agree(self):
        self.assert_fires("offline_audit", "audit")

    def test_refit_matches_fixture_bank(self):
        self.assert_fires("bank_refit", "refit")


if __name__ == "__main__":
    unittest.main()
