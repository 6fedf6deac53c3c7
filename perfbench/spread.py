#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each named workload
(tracing off) and prints, per metric, the median and the distance
between the first and third quartile as a share of the median
(statistics.quantiles, n=4), next to a third of the metric's bound.

    python3 perfbench/spread.py [--seeds N] [--first-seed S] [workload ...]

Run it from the repository root. Without workload names it covers every
workload in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    failed = False
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                failed = True
                continue
            runs.append(json.loads(last)["metrics"])
        if len(runs) < 2:
            continue
        print(f"{name}: {len(runs)} runs")
        for m in bench["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:<22} median {med:<14.6g} spread {spread:.4f}"
                  f" (bound/3 {m['bound'] / 3:.4f}){flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
