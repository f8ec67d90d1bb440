#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs the C++ self-tests (percentile rule, per-case minimum, span self time,
stratified selection), a tiny smoke run of every workload with
and without tracing, and checks that the output checks and the
configuration pinning make a run fail. Builds through run.py, so the first
test pays for the build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args, env=None, cwd=ROOT):
    done = subprocess.run(RUN + args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done, result


def smoke(workload, *extra):
    return run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--smoke", *extra])


class SelfTest(unittest.TestCase):
    def test_arithmetic(self):
        smoke("forge")  # builds rbbench_selftest alongside rbbench
        build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        build = (build if build.is_absolute() else ROOT / build) / "perfbench"
        done = subprocess.run([str(build / "rbbench_selftest")],
                              stdout=subprocess.PIPE, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stdout)


class Smoke(unittest.TestCase):
    def check_result(self, done, result, wanted):
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result = smoke(workload, "--trace", "0")
                self.check_result(done, result, SPEC["end_to_end"])
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result = smoke(workload, "--trace", "1")
                self.check_result(done, result, SPEC["per_layer"])

    def test_same_seed_same_outputs(self):
        # The reported result fingerprint is a function of the seed alone.
        def fingerprint(seed):
            done, _ = run(["--workload", "sweep-cold", "--seed", str(seed),
                           "--seconds", "1", "--smoke"])
            lines = [l for l in done.stdout.splitlines() if "fingerprint" in l]
            self.assertTrue(lines, done.stdout)
            return lines[0].split("fingerprint")[-1]
        self.assertEqual(fingerprint(5), fingerprint(5))
        self.assertNotEqual(fingerprint(5), fingerprint(6))


class Checks(unittest.TestCase):
    def test_mismatch_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result = smoke(workload, "--inject-mismatch")
                self.assertNotEqual(done.returncode, 0)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_rustbrain_env(self):
        env = dict(os.environ, RUSTBRAIN_INTERP="vmm")
        done, result = run(["--workload", "forge", "--seed", "1", "--seconds", "1",
                            "--smoke"], env=env)
        self.assertEqual(done.returncode, 2)
        self.assertIsNone(result)

    def test_fails_without_the_program(self):
        build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        build = build if build.is_absolute() else ROOT / build
        build.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "forge",
                 "--seed", "1", "--seconds", "1"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
