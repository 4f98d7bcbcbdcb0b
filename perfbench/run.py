#!/usr/bin/env python3
"""Builds and runs the layered benchmark, and prints its contract result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary is built from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
the traced run writes its spans under that directory's traces/. Progress
and a readable table go before the last stdout line, which is the result
JSON object of the benchmark contract. Any build failure, crash or
malformed output exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import contract  # noqa: E402

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", "perfbench", "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs], BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def print_table(raw):
    print(f"# {raw.get('workload')} trace={raw.get('trace')} "
          f"attempted={raw['attempted']} failed={raw['failed']} "
          f"fail_frac={raw['failed'] / raw['attempted']:.6g}")
    for note in raw.get("notes", []):
        print(f"#   failure: {note}")
    for m in raw.get("detail", []) + raw["metrics"]:
        print(f"  {m['name']:<36} {m['value']:>16.6g} {m['unit']:<6} n={m['n']}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        contract.check_spec(spec)
    except (OSError, ValueError, contract.ContractError) as e:
        fail(f"BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark printed nothing")
    try:
        raw = json.loads(lines[-1])
        result = contract.to_result(raw, spec, args.trace == 1)
    except (ValueError, contract.ContractError) as e:
        fail(f"malformed output: {e}")

    print_table(raw)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
