#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench from source, runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
the repository's libraries and the perfbench program with CMake under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
perfbench's standard output is passed through; its last line is the JSON
result. Traced runs also write Chrome trace-event JSON to
<build dir>/traces/<workload>-seed<n>.json. Build logs and the host steal
share go to standard error. The exit code is nonzero, with no result
printed, if the build fails, perfbench fails, or its result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hoststat  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds perfbench; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "3"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited with {done.returncode}")
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("perfbench's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("perfbench's result has the wrong keys")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}")
    if result["attempted"] < 1:
        fail("perfbench attempted no broadcast")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-test scale: a few broadcasts per workload")
    parser.add_argument("--inject", choices=("dup", "data"),
                        help="self-test: run a deliberately faulty protocol")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.quick:
        cmd.append("--quick")
    if args.inject:
        cmd += ["--inject", args.inject]

    before = hoststat.cpu_times()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    steal = hoststat.steal_share(before, hoststat.cpu_times())
    if steal is not None:
        print(f"perfbench: host steal share during the run: {steal:.4f}", file=sys.stderr)
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    check_result(lines[-1], args.trace)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
