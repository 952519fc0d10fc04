// perfbench: the repository benchmark program.
//
//   perfbench --workload <sim_mc|rt_oneshot|rt_stream|udp_lossy> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>] [--quick]
//             [--inject <dup|data>]
//
// Runs one workload and prints, as its last line, one JSON object with
// keys correct, attempted, failed and metrics. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics and, with
// --trace-out, write the spans as Chrome trace-event JSON. --quick shrinks
// every minimum count to a few broadcasts (self-test scale). --inject
// wraps the benchmarked protocol in a deliberately faulty one, so the
// self-test can see the oracles fail. Exit code 0
// means the run completed; the result's "correct" says whether the
// outputs checked out.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"bcasts_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"msgs_per_rank", "count"},
    {"success_frac", "ratio"},
    {"cpu_ms_per_bcast", "ms"},
    {"peak_rss_mb", "MiB"},
    {"model_latency_ticks_p50", "ticks"},
};

// Layers a workload does not run report 0 (see perfbench/NOTES.md).
const std::vector<MetricDef> kPerLayer = {
    {"topology.build_ms", "ms"},
    {"experiment.rep_ms_p50", "ms"},
    {"experiment.parallel_efficiency", "ratio"},
    {"sim.events_per_bcast", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.scale_penalty", "ratio"},
    {"sim.dropped_arrival_share", "ratio"},
    {"protocol.calls_per_bcast", "count"},
    {"protocol.ns_per_call", "ns"},
    {"protocol.busy_share", "ratio"},
    {"protocol.correction_msg_share", "ratio"},
    {"protocol.useful_recv_share", "ratio"},
    {"rt.engine_ctor_ms", "ms"},
    {"rt.rank_done_p50_us", "us"},
    {"rt.straggler_us", "us"},
    {"stream.admit_wait_p50_us", "us"},
    {"stream.service_p50_us", "us"},
    {"stream.inflight_mean", "count"},
    {"udp.retransmits_per_bcast", "count"},
    {"udp.dup_drops_per_bcast", "count"},
    {"udp.spurious_share", "ratio"},
    {"udp.setup_ms", "ms"},
    {"chaos.drops_per_bcast", "count"},
    {"trace.overhead_share", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <sim_mc|rt_oneshot|rt_stream|"
               "udp_lossy> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--quick] [--inject <dup|data>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--inject") {
      args.inject = value;
    } else {
      usage("unknown flag " + key);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

void print_result(const Report& report, const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              report.correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                defs[i].name, std::isfinite(value) ? value : 0.0, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;
  perfbench::TraceLog trace(args.trace);
  try {
    if (args.workload == "sim_mc") {
      perfbench::run_sim_mc(args, report, trace);
    } else if (args.workload == "rt_oneshot") {
      perfbench::run_rt_oneshot(args, report, trace);
    } else if (args.workload == "rt_stream") {
      perfbench::run_rt_stream(args, report, trace);
    } else if (args.workload == "udp_lossy") {
      perfbench::run_udp_lossy(args, report, trace);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  if (!args.trace) {
    for (const MetricDef& def : kEndToEnd) {
      if (!report.end_to_end.count(def.name)) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", def.name);
        return 1;
      }
    }
  }
  if (args.trace && !args.trace_out.empty() && !trace.write(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  std::fflush(stderr);
  if (args.trace) {
    print_result(report, kPerLayer, report.per_layer);
  } else {
    print_result(report, kEndToEnd, report.end_to_end);
  }
  return 0;
}
