#pragma once
// Shared measurement helpers of perfbench: the run's arguments,
// the result it prints, order statistics, and process resource counters.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event file (traced runs only)
  bool quick = false;     ///< self-test scale: a few broadcasts per workload
  std::string inject;     ///< self-test: a fault for make_faulty ("dup", "data")
};

/// What one run prints as its last line. `failed` counts broadcasts that
/// timed out, left survivors uncolored or failed an oracle; `correct` is
/// cleared by deterministic mismatches, which no amount of retrying fixes.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Metric values by name; main.cpp owns the name/unit tables.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<std::string> errors;

  void mismatch(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Median of integer-valued data with the tie block spread evenly over
/// [v - 0.5, v + 0.5) (the grouped-data median). Model latencies are whole
/// ticks; this keeps their p50 sensitive to how the mass sits around it.
double grouped_median(std::vector<double> values);

/// Quantile `q` within each fixed-size consecutive window of `samples`
/// (taken in measurement order), then quantile `across` of those per-window
/// values. A trailing remainder shorter than a window joins the window
/// before it; fewer samples than one window form a single window. One
/// burst of host noise then moves a few windows, not the run.
double windowed_quantile(const std::vector<double>& samples, std::size_t window, double q,
                         double across);

/// User + system CPU seconds of this process plus its reaped children.
double cpu_seconds();

/// Cumulative CPU time of the whole machine, in clock ticks, from the first
/// line of /proc/stat: the part the hypervisor stole for other guests, and
/// the total. Both 0 where /proc/stat cannot be read.
struct HostCpu {
  std::int64_t steal = 0;
  std::int64_t total = 0;
};
HostCpu host_cpu();
/// Stolen share of the machine's CPU time between two samples (0 if none).
double steal_share(const HostCpu& before, const HostCpu& after);
/// Restarts this process's peak resident set count at its current size
/// (Linux clear_refs); a no-op where that is unavailable.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss() of this process, or
/// of its largest reaped child if that is higher, MiB.
double peak_rss_mb();

}  // namespace perfbench
