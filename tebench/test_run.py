"""The benchmark's own tests.

    python3 -m unittest discover -s tebench -p 'test_*.py'

Run from the repository root.  Each workload is run once disarmed and once
traced at the tiny size; every metric BENCHMARK.json names must be printed
with its unit, and nothing else.  The correctness gate's negative cases
(corrupted oracle series, corrupted digests) are Rust unit tests:
`cargo test --manifest-path tebench/Cargo.toml`.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("tebench", "run.py")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=900)


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace, expected):
        out = run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                   "--trace", str(trace), "--size", "tiny"])
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in expected})
        for m in expected:
            self.assertIn(f"{m['name']} = ", out.stdout)

    def test_every_workload_prints_every_metric_with_its_unit(self):
        spec = load_benchmark()
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(bench.WORKLOADS))
        # Every workload the command runs, gated in BENCHMARK.json or not.
        for name in bench.WORKLOADS:
            with self.subTest(workload=name, trace=0):
                self.check(name, 0, spec["end_to_end"])
            with self.subTest(workload=name, trace=1):
                self.check(name, 1, spec["per_layer"])


class Packaging(unittest.TestCase):
    def test_fails_without_the_repository(self):
        """With only BENCHMARK.json and the benchmark's own files, the
        worker cannot build: the command must fail and print no result."""
        spec = load_benchmark()
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("target", "__pycache__"))
            out = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=tmp)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
