#!/usr/bin/env bash
# Interleaved A/B benchmarking against a baseline git ref (EXPERIMENTS.md,
# "Regenerating BENCH_PR7.json"). Builds the baseline from a `git archive`
# export of BASELINE_REF in .ab-bench/<sha>, then alternates baseline/head
# runs of each cell A B A B ... so slow drift of the host (thermal state,
# background load) hits both sides equally, and reports per-cell median
# throughput and the head/baseline ratio of medians.
#
# Usage:
#   tools/ab_bench.sh BASELINE_REF [-r ROUNDS] [-c CELL]...
#
# CELL syntax (repeatable; the defaults are the cells listed below):
#   micro:REGEX    bench/micro_simulator --benchmark_filter=REGEX; metric is
#                  the events/s counter (falling back to items_per_second).
#   report:FILTER  tools/bench_report --filter=FILTER; metric is
#                  messages_per_sec of the matched record (rt cells) or
#                  runs/wall_seconds (sim cells). FILTER must match exactly
#                  one registered cell on both refs.
#
# Default cells: the 64Ki sim broadcast micro, the P=1024 rt ladder cell,
# and the 16Ki open-loop rt_stream cell at window=8,rate=1000 (the
# wide-window streaming cell of EXPERIMENTS.md). Its W=1 twin, for the
# W=8 >= W=1 check, is
#   -c 'report:rt_stream bcast:binomial:opportunistic:4:overlapped@P=16384,reps=24,deadline-ms=30000,rate=1000'
#
# Requires: git, tar, cmake, python3. Head binaries are taken from ./build
# (build it first); the baseline is configured Release into
# .ab-bench/<sha>/build and reused by later runs.

set -euo pipefail

usage() { sed -n '2,29p' "$0" >&2; exit 2; }

[ $# -ge 1 ] || usage
BASE_REF=$1
shift
ROUNDS=5
CELLS=()
while [ $# -gt 0 ]; do
  case $1 in
    -r) ROUNDS=$2; shift 2 ;;
    -c) CELLS+=("$2"); shift 2 ;;
    *) usage ;;
  esac
done
if [ ${#CELLS[@]} -eq 0 ]; then
  CELLS=(
    # 64Ki sim broadcast: raw discrete-event core events/s (SoA lanes).
    'micro:BM_SimulateBroadcast/65536$'
    # w=1 rt ladder cell: sharded executor messages/s (copy-free step).
    'report:rt bcast:binomial:opportunistic:4:overlapped@P=1024,reps=9'
    # 16Ki W=8 open-loop stream: cross-shard hop latency under a window.
    'report:rt_stream bcast:binomial:opportunistic:4:overlapped@P=16384,reps=24,deadline-ms=30000,window=8,rate=1000'
  )
fi

REPO_ROOT=$(git rev-parse --show-toplevel)
cd "$REPO_ROOT"
HEAD_BUILD=$REPO_ROOT/build
[ -x "$HEAD_BUILD/tools/bench_report" ] || {
  echo "ab_bench: build ./build first (missing $HEAD_BUILD/tools/bench_report)" >&2
  exit 1
}

BASE_SHA=$(git rev-parse --short "$BASE_REF")
BASE_TREE=$REPO_ROOT/.ab-bench/$BASE_SHA
BASE_BUILD=$BASE_TREE/build
if [ ! -f "$BASE_TREE/CMakeLists.txt" ]; then
  mkdir -p "$BASE_TREE"
  git archive "$BASE_SHA" | tar -x -C "$BASE_TREE"
fi
if [ ! -x "$BASE_BUILD/tools/bench_report" ]; then
  cmake -S "$BASE_TREE" -B "$BASE_BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BASE_BUILD" -j --target bench_report micro_simulator >/dev/null
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# measure BUILD_DIR CELL -> prints one throughput number
measure() {
  local build=$1 cell=$2 out=$TMP/out.json
  case $cell in
    micro:*)
      "$build/bench/micro_simulator" \
        --benchmark_filter="${cell#micro:}" \
        --benchmark_out="$out" --benchmark_out_format=json >/dev/null 2>&1
      python3 - "$out" <<'EOF'
import json, sys
bm = json.load(open(sys.argv[1]))["benchmarks"][0]
print(bm.get("events/s") or bm.get("items_per_second"))
EOF
      ;;
    report:*)
      "$build/tools/bench_report" --filter="${cell#report:}" --out "$out" >/dev/null
      python3 - "$out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
# Every sectioned list of RunRecords bench_report can emit under --filter;
# first matching record wins. Keep in sync with bench_report.cpp sections.
for section in ("sweep_matrix", "rt", "rt_chaos", "rt_stream", "sim_stream",
                "rt_recovery", "rt_udp"):
    for rec in report.get(section) or []:
        if rec.get("messages_per_sec"):
            print(rec["messages_per_sec"])
        else:
            print(rec["runs"] / rec["wall_seconds"])
        sys.exit(0)
sys.exit("ab_bench: filter matched no cell")
EOF
      ;;
    *) echo "ab_bench: bad cell '$cell'" >&2; exit 2 ;;
  esac
}

echo "ab_bench: baseline $BASE_SHA vs HEAD ($(git rev-parse --short HEAD)), $ROUNDS rounds"
for cell in "${CELLS[@]}"; do
  base_vals=()
  head_vals=()
  for ((i = 0; i < ROUNDS; ++i)); do
    base_vals+=("$(measure "$BASE_BUILD" "$cell")")
    head_vals+=("$(measure "$HEAD_BUILD" "$cell")")
  done
  python3 - "$cell" "${base_vals[*]}" "${head_vals[*]}" <<'EOF'
import statistics, sys
cell, base, head = sys.argv[1], *(list(map(float, a.split())) for a in sys.argv[2:4])
mb, mh = statistics.median(base), statistics.median(head)
print(f"{cell}\n  baseline median {mb:14.1f}   head median {mh:14.1f}   ratio {mh / mb:.3f}x")
EOF
done
