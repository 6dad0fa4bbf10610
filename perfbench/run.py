#!/usr/bin/env python3
"""Build and run the lsim benchmark described by BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --selftest              # the harness's own tests

The harness (perfbench/src) is compiled from this checkout's sources
in an optimized build under $CARGO_TARGET_DIR (default .bench_build).
Each run prints an environment record, every metric with its unit and
sample count, and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"} — end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.

A run fails (exit 2, no result) when LSIM_FAULTS or LSIM_TRACE is
set, or when the lsim sources are missing. Any "warn:" line the
program logs makes the result incorrect.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_warm", "sweep_cold", "sweep_adaptive"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(targets):
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr)
    return out


def source_id():
    """Git commit when there is one, plus a digest of the sources."""
    commit = "none"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{commit} src:{digest.hexdigest()[:16]}"


def run_one(binary, workload, seed, seconds, trace, commit):
    """Run the harness once; return (human lines, result dict)."""
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    # Relative to ROOT, the harness's working directory: the daemon's
    # socket lives under the temp root and sun_path is short.
    tmp_root = os.path.relpath(
        os.path.join(runs, f"{os.getpid()}-{workload}-{time.monotonic_ns()}"),
        ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp-root", tmp_root, "--commit", commit]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{workload}: harness exited with {proc.returncode}", 1)
    result = json.loads(lines[-1])
    warnings = [l for l in proc.stderr.splitlines() if l.startswith("warn:")]
    if warnings:
        result["correct"] = False
        lines.insert(-1, f"failure {len(warnings)} warning(s) logged")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness's own tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    for var in ("LSIM_FAULTS", "LSIM_TRACE"):
        if os.environ.get(var):
            fail(f"refusing to measure with {var} set")
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "batch.hh")):
        fail("lsim sources not found next to perfbench/; run from a "
             "checkout of the repository")

    if args.selftest:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)

    binary = os.path.join(build(["perfbench"]), "perfbench")
    commit = source_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        lines, result = run_one(binary, workload, args.seed, args.seconds,
                                args.trace, commit)
        prefix = f"[{workload}] " if len(workloads) > 1 else ""
        for line in lines:
            print(prefix + line)
        if len(workloads) == 1:
            total = result
            break
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))


if __name__ == "__main__":
    main()
