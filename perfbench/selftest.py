#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the checkout:

    python3 perfbench/selftest.py

Each test drives perfbench/run.py exactly as the benchmark command does,
with one-second runs:
  * every workload's timed run reports every end-to-end metric of
    BENCHMARK.json with its unit and no failed op, and its traced run
    every per-layer metric;
  * a deliberately wrong expected search winner fails every op;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the command exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    """Runs the benchmark command; returns (exit code, stdout lines)."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "11", "--seconds", "1",
        "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines):
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    return result


class Metrics(unittest.TestCase):
    def check(self, workload, trace, declared):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, lines)
        result = result_of(lines)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for metric in declared:
            reported = metrics[metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float))
            if trace == 0:
                self.assertGreater(reported["value"], 0, metric["name"])
        self.assertTrue(any(line.startswith("perfbench stamp: ")
                            for line in lines))

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, SPEC["per_layer"])


class Checks(unittest.TestCase):
    def test_wrong_winner_fails_every_op(self):
        code, lines = run("search_mp3", 0, "--expect-winner-ps", "1")
        self.assertNotEqual(code, 0)
        result = result_of(lines)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_bare_directory_refuses(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = run(WORKLOADS[0], 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        for line in lines:
            self.assertFalse(line.lstrip().startswith("{"), line)


if __name__ == "__main__":
    sys.exit(unittest.main())
