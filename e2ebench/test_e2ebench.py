#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, at test-sized inputs (--small).

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

They check that every metric BENCHMARK.json names is printed with its unit,
that a clean run passes every output check, that a deliberately perturbed
simulated result raises the failed share, and that the benchmark refuses to
run without the library sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# megafabric is runnable but not gated in BENCHMARK.json; test it too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["megafabric"]


def run_bench(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "e2ebench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "0.2",
               "--trace", str(trace), "--small", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(completed):
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise AssertionError(f"benchmark failed ({completed.returncode}):\n"
                             f"{completed.stdout}\n{completed.stderr}")
    return json.loads(lines[-1]), lines


class MetricsTest(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        result, lines = result_of(run_bench(workload, trace))
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})
        for spec in expected:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float))
        self.assertTrue(lines[-2].startswith("manifest {"), lines[-2])
        manifest = json.loads(lines[-2][len("manifest "):])
        for key in ("git_sha", "git_dirty", "build_type", "compiler", "nproc",
                    "cpu_model", "seed", "params"):
            self.assertIn(key, manifest)
        self.assertEqual(manifest["workload"], workload)
        return result

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_run(workload, 0, SPEC["end_to_end"])
                for spec in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][spec["name"]]["value"],
                                       0, spec["name"])

    def test_per_layer_metrics_printed_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_run(workload, 1, SPEC["per_layer"])
                self.assertGreater(
                    result["metrics"]["bench.spans"]["value"], 0)


class ChecksTest(unittest.TestCase):
    def test_perturbed_result_raises_failed_frac(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = result_of(run_bench(workload, 0, "--perturb"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(
                    any(line.startswith("CHECK FAILED") for line in lines))
                failed_frac = next(l for l in lines if "failed_frac =" in l)
                self.assertGreater(float(failed_frac.split()[2]), 0.0)

    def test_verify_mode_matches_single_thread_results(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = result_of(run_bench(workload, 0, "--verify"))
                self.assertTrue(result["correct"], lines)

    def test_refuses_to_run_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "e2ebench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = run_bench("classify", 0, cwd=tmp)
            self.assertNotEqual(completed.returncode, 0)
            self.assertEqual(completed.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
