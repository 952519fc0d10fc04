#!/usr/bin/env python3
"""Benchmark self-test: every workload, a few broadcasts, two seeds.

    python3 perfbench/selftest.py

For each workload and seed it makes one untraced and one traced run at
self-test scale (run.py --quick) and checks that the run is correct, that
no broadcast failed (success_frac is 1, i.e. fail_frac is 0), that every
metric BENCHMARK.json names appears with its unit, and that the traced run
wrote a Chrome trace with broadcast spans and the probe's counters. It
covers sim_mc and udp_lossy too, which are runnable but not in
BENCHMARK.json (see NOTES.md). Then it runs sim_mc and rt_oneshot with a deliberately faulty
protocol, one that delivers twice and one that delivers a word the root
never sent, and checks that the oracles fail those broadcasts. Exits
nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import build_dir  # noqa: E402

SEEDS = (11, 12)
UNGATED = ("sim_mc", "udp_lossy")
FAULTS = ("dup", "data")


def run(workload, seed, trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition, what):
    if not condition:
        raise SystemExit(f"FAIL {what}")


def trace_file(workload, seed):
    return os.path.join(build_dir(), "traces", f"{workload}-seed{seed}.json")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]] + list(UNGATED):
        for seed in SEEDS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                tag = f"{workload} seed {seed} trace {trace}"
                result = run(workload, seed, trace)
                check(result["correct"] is True, f"{tag}: outputs did not check out")
                check(result["attempted"] >= 1, f"{tag}: nothing attempted")
                check(result["failed"] == 0, f"{tag}: {result['failed']} broadcasts failed")
                for metric in spec[key]:
                    got = result["metrics"].get(metric["name"])
                    check(got is not None and got["unit"] == metric["unit"],
                          f"{tag}: {metric['name']} missing or not in {metric['unit']}")
                if trace == 0:
                    check(result["metrics"]["success_frac"]["value"] == 1.0,
                          f"{tag}: fail_frac is not 0")
                    continue
                with open(trace_file(workload, seed)) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"] for e in events}
                check({"setup", "window", "bcast", "probe"} <= names,
                      f"{tag}: trace lacks setup/window/bcast spans or probe counters")
            print(f"ok {workload} seed {seed}")
    for workload in ("sim_mc", "rt_oneshot"):
        for inject in FAULTS:
            tag = f"{workload} with fault {inject}"
            result = run(workload, SEEDS[0], 0, inject)
            check(result["failed"] > 0, f"{tag}: the oracles passed a faulty protocol")
            check(result["metrics"]["success_frac"]["value"] < 1.0,
                  f"{tag}: success_frac ignored the failed broadcasts")
            print(f"ok {tag}: {result['failed']} of {result['attempted']} broadcasts failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
