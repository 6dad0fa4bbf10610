#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread (IQR over median) against the
bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload sweep_cold --runs 10
    python3 perfbench/spread.py --workload all --runs 10 --json out.json

Seeds are first-seed, first-seed + 1, ... A spread above a third of
its bound is flagged: the benchmark is not steady enough there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write the raw values here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])

    raw = {}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        counts = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} incorrect:\n{proc.stdout}")
            counts.append((result["attempted"], result["failed"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = {"values": values, "attempted_failed": counts}
        print(f"{workload}: {args.runs} runs, ops attempted/failed per run "
              f"{counts}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  > bound/3"
                steady = False
            print(f"  {name:18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bounds[name]:6.2f}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
