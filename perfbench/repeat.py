#!/usr/bin/env python3
"""Run one workload of the benchmark N times and summarize each metric.

    python3 perfbench/repeat.py --workload serve_rmat --runs 10 [--trace 0]

Run i uses seed --first-seed + i. For every metric the summary prints the
median and the first and third quartiles over the runs (Python's
statistics.quantiles(values, n=4)), and their distance as a share of the
median: the spread the benchmark's bounds are checked against. For
end-to-end metrics it also flags a spread of a third of the bound or more.
Exits nonzero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    seconds = args.seconds or declared["run_seconds"]

    values = {}
    units = {}
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        if args.reduced:
            cmd.append("--reduced")
        run = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
        lines = run.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if run.returncode != 0 or result is None or not result["correct"]:
            failures += 1
            print("seed %d FAILED (exit %d)\n%s" % (seed, run.returncode,
                                                    run.stderr[-2000:]))
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: attempted=%d failed=%d %s" % (
            seed, result["attempted"], result["failed"],
            " ".join("%s=%.6g" % (k, m["value"])
                     for k, m in result["metrics"].items())))

    print("\n%-36s %12s %12s %12s %8s  %s" % ("metric", "median", "q1", "q3",
                                            "iqr/med", "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / med if med else float("nan")
        flag = ""
        bound = bounds.get(name) if args.trace == 0 else None
        if bound is not None and not spread < bound / 3:
            flag = "  <-- spread >= bound/3 (bound %.2f)" % bound
        print("%-36s %12.6g %12.6g %12.6g %8.4f  %s%s" % (
            name, med, q1, q3, spread, units[name], flag))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
