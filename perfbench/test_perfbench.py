#!/usr/bin/env python3
"""Tests of the benchmark itself, at reduced size (seconds once built).

    python3 perfbench/test_perfbench.py

Runs every workload untraced and traced with every check and oracle on,
and checks the result line against BENCHMARK.json. Builds into
$CARGO_TARGET_DIR (default .bench_build) like run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(workload, trace, cwd=ROOT, runner=RUN, env=None):
    cmd = [sys.executable, runner, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--reduced"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=900)


def tree_state(top):
    state = {}
    for dirpath, _, filenames in os.walk(top):
        for name in filenames:
            path = os.path.join(dirpath, name)
            state[path] = os.stat(path).st_mtime_ns
    return state


class ResultLineTest(unittest.TestCase):
    unmeasured = {}

    def check(self, workload, trace):
        before = {d: tree_state(os.path.join(ROOT, d))
                  for d in ("src", "perfbench")}
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        for d, state in before.items():
            self.assertEqual(tree_state(os.path.join(ROOT, d)), state,
                             "running the benchmark wrote into " + d)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertTrue(any(l.startswith("provenance: ") for l in lines))
        if trace:
            for line in lines:
                if line.startswith("unmeasured per-layer metrics"):
                    self.unmeasured[workload] = set(
                        json.loads(line.split(": ", 1)[1]))

    def test_serve_rmat(self):
        self.check("serve_rmat", 0)
        self.check("serve_rmat", 1)

    def test_batch_dense(self):
        self.check("batch_dense", 0)
        self.check("batch_dense", 1)

    def test_cuts_road(self):
        self.check("cuts_road", 0)
        self.check("cuts_road", 1)

    def test_zz_every_layer_metric_is_measured_somewhere(self):
        if len(self.unmeasured) != len(WORKLOADS):
            self.skipTest("needs the traced run of every workload")
        never = set.intersection(*self.unmeasured.values())
        self.assertEqual(never, set(), "per-layer metrics no workload emits")


class StandaloneTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                       ".bench_build"))
        os.makedirs(build_root, exist_ok=True)
        top = tempfile.mkdtemp(dir=build_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), top)
            shutil.copytree(HERE, os.path.join(top, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = run("serve_rmat", 0, cwd=top,
                       runner=os.path.join(top, "perfbench", "run.py"),
                       env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(top, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
