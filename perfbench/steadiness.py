#!/usr/bin/env python3
"""Steadiness record: repeated seeded runs of every workload.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--out perfbench/STEADINESS.md] [--against set1.json]

Runs perfbench/run.py (untraced) once per seed on each workload and reports,
per workload and end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median next to the
metric's bound in BENCHMARK.json. The host steal share is sampled from
/proc/stat around every run as a diagnostic. Writes a Markdown table to
--out (and the raw values next to it as JSON) when given, else to stdout.

With --against (the raw JSON of an earlier set of the same code), each
metric also gets the change of its median from that set, counted in the
direction that makes it worse, next to its bound: two sets agree when no
metric got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import hoststat  # noqa: E402


def run_once(spec, workload, seed):
    before = hoststat.cpu_times()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    steal = hoststat.steal_share(before, hoststat.cpu_times())
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, steal


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worsening(metric, earlier, now):
    """Share by which the median `now` is worse than `earlier` (negative: better)."""
    if not earlier:
        return 0.0
    change = (now - earlier) / earlier
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--against", default="",
                        help="raw JSON of an earlier set to compare medians with")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    raw = {}
    lines = [f"# Steadiness record\n",
             f"{args.runs} untraced runs per workload, seeds {args.first_seed}.."
             f"{args.first_seed + args.runs - 1}, run_seconds = {spec['run_seconds']}. "
             "Spread = (Q3 - Q1) / median. Every spread but setup_s's must "
             "stay within its bound; the aim is under a third of it for "
             "every metric, setup_s included.\n"]
    if earlier:
        lines.append(f"Worse = change of the median from the earlier set {args.against}, "
                     "counted in the direction that makes the metric worse; two sets "
                     "agree when no metric got worse by more than its bound.\n")
    worst = []
    worst_change = []
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, steal = run_once(spec, workload, seed)
            runs.append({"seed": seed, "steal": steal, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} steal={steal:.4f}",
                  file=sys.stderr)
        raw[workload] = runs
        steals = [r["steal"] for r in runs if r["steal"] is not None]
        lines.append(f"\n## {workload}\n")
        if steals:
            lines.append(f"Host steal share per run: min {min(steals):.4f}, "
                         f"median {statistics.median(steals):.4f}, max {max(steals):.4f}.\n")
        before = earlier.get(workload)
        head = "| metric | unit | median | Q1 | Q3 | spread | bound |"
        if before:
            head += " earlier median | worse |"
        lines.append(head)
        lines.append("|" + "---|" * (head.count("|") - 1))
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            s = summarize(values)
            row = (f"| {metric['name']} | {metric['unit']} | {s['median']:.6g} | "
                   f"{s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.4f} | "
                   f"{metric['bound']} |")
            if before:
                old = statistics.median(
                    [r["result"]["metrics"][metric["name"]]["value"] for r in before])
                worse = worsening(metric, old, s["median"])
                row += f" {old:.6g} | {worse:+.4f} |"
                worst_change.append((worse / metric["bound"], workload, metric["name"]))
            lines.append(row)
            worst.append((s["spread"] / metric["bound"], workload, metric["name"]))
    worst.sort(reverse=True)
    lines.append("\nLargest spread/bound ratios: " + ", ".join(
        f"{w}/{m} {r:.2f}" for r, w, m in worst[:5]) + ".\n")
    if worst_change:
        worst_change.sort(reverse=True)
        lines.append("Largest worsening/bound ratios against the earlier set: " + ", ".join(
            f"{w}/{m} {r:.2f}" for r, w, m in worst_change[:5]) + ".\n")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        with open(os.path.splitext(args.out)[0] + ".json", "w") as f:
            json.dump(raw, f, indent=1)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
