#!/usr/bin/env python3
"""Build and run the graphsketch end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload serve_rmat --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (and the library from src/) into $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild only what changed. The seeded stream is
written to a work directory under the build directory and removed
afterwards, so nothing is written into the source tree.

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics: the end-to-end metrics that
BENCHMARK.json declares (--trace 0) or its per-layer metrics (--trace 1).
A per-layer metric the workload does not exercise reads 0. Every earlier
line is a human-readable report, including the run's provenance and, for a
traced run, the path of its spans file under the build directory.

--reduced runs the small sizes the benchmark's own tests use.
Exit status: 0 when every check passed, nonzero otherwise.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("serve_rmat", "batch_dense", "cuts_road")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_revision(root):
    """git rev when the tree is a repository, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configure once, then let ninja/make rebuild whatever changed."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr,
                              env=dict(os.environ, TMPDIR=tmp)).returncode != 0:
                fail("configure failed", 3)
        jobs = str(min(4, os.cpu_count() or 1))
        env = dict(os.environ, TMPDIR=tmp)  # compiler temp files stay inside
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed", 3)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no library sources (src/) next to perfbench/; run from a "
             "full source tree")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)

    start = time.monotonic()
    work = os.path.join(build_dir, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.reduced:
            common.append("--reduced")
        stream = os.path.join(work, "stream.gmsb")
        gen = subprocess.run([binary, "gen", *common, "--out", stream],
                             capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
        sys.stdout.write(gen.stdout)
        if gen.returncode != 0:
            sys.stderr.write(gen.stderr)
            fail("stream generation failed", 3)
        cmd = [binary, "run", *common, "--file", stream,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-rev", source_revision(root)]
        remaining = RUN_TIMEOUT_S - (time.monotonic() - start)
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(remaining, 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail("run aborted (exit %d)" % run.returncode, 3)
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(raw["provenance"], sort_keys=True))

    metrics = {}
    if args.trace:
        unmeasured = []
        for m in declared["per_layer"]:
            got = raw["per_layer"].get(m["name"])
            if got is None:
                unmeasured.append(m["name"])
                got = {"value": 0.0, "unit": m["unit"]}
            metrics[m["name"]] = got
        print("unmeasured per-layer metrics (reported as 0): " +
              json.dumps(unmeasured))
    else:
        for m in declared["end_to_end"]:
            got = raw["end_to_end"].get(m["name"])
            if got is None:
                fail("workload did not report " + m["name"], 3)
            metrics[m["name"]] = got
    for name, got in metrics.items():
        print("%-36s %.6g %s" % (name, got["value"], got["unit"]))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
