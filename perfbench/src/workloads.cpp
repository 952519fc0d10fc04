#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/run_spec.hpp"
#include "experiment/runner.hpp"
#include "probe.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/engine.hpp"
#include "rt/harness.hpp"
#include "rt/udp_engine.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/factory.hpp"
#include "topology/gaps.hpp"

namespace perfbench {
namespace {

using ct::topo::Rank;

/// Worker threads, shards or UDP processes: at most 3 on a 4-core host.
constexpr std::size_t kWorkers = 3;
constexpr const char* kSimSpec = "bcast:binomial:checked:sync@P=65536,f=1%";
constexpr const char* kRtSpec =
    "bcast:binomial:opportunistic:4:overlapped@P=4096,f=1%,gap=2";
constexpr double kUdpDropProb = 0.01;
constexpr auto kEpochTimeout = std::chrono::seconds(2);

/// Replications in each run_replicated_range window (4 per pool worker).
constexpr std::size_t kWindowReps = 12;
/// Serial replications per round, interleaved with one pool window so that
/// slow drift of the host affects both measurements alike.
constexpr std::size_t kSerialPerRound = 6;
/// The fixed replication set [0, kModelReps) that the exact model metrics
/// (messages per rank, model latency) are computed over.
constexpr std::size_t kModelReps = 24;
/// Set-ups per sim_mc run; the run reports their median.
constexpr int kSimSetups = 5;
/// Rounds per runtime run (see rounds_of).
constexpr int kRtRounds = 12;
/// Host noise (steal bursts, neighbours' memory traffic) only ever slows a
/// window down. sim_mc's rates and times therefore take the faster quartile
/// of its windows rather than the median: a burst that spoils half of a
/// run's windows leaves that quartile in place.
constexpr double kFastQuartile = 0.75;   // of per-window rates
constexpr double kQuietQuartile = 0.25;  // of per-window times and costs
/// Host steal time stalls whichever shard or UDP process sits on the
/// stolen vCPU, and with it every broadcast in flight; at 10-15% steal the
/// per-window rate falls by a third and the p90 rises by more than half.
/// Steal comes in periods that can cover a whole run, so neither a quartile
/// of the timings nor the windows with the least steal set it aside. The
/// runtime workloads therefore fit how each timing grows with steal over
/// the windows in the quieter kQuietShare of their steal shares (ties
/// included) and read the fit at the least steal the run saw (see
/// Windows::at_least_steal). In a run without steal, or where /proc/stat
/// is unreadable, that is the median.
constexpr double kQuietShare = 0.5;
/// Minimum measured broadcasts of a runtime workload.
constexpr std::int64_t kMinBroadcasts = 2000;
/// Warm-up broadcasts of each in-process runtime set-up. One pays the
/// engine's first-use costs inside set-up, so work moved there shows in
/// setup_s. More would only add broadcasts that host steal stretches: with
/// 16 of them, rt_stream's setup_s rose by 40% in runs at 6-8% steal.
constexpr int kWarmBroadcasts = 1;

std::uint64_t input_seed(const Args& args) {
  return ct::support::derive_seed(args.seed, 0xbe7c4);
}

double to_ms(double seconds) { return seconds * 1e3; }

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// --- simulator side ----------------------------------------------------------

/// The benchmarked protocol of one broadcast: a corrected tree broadcast
/// carrying `payload`, made faulty on request (--inject, self-test only).
std::unique_ptr<ct::sim::Protocol> broadcast_protocol(const ct::topo::Tree& tree,
                                                      const ct::proto::CorrectionConfig& c,
                                                      std::int64_t payload,
                                                      const std::string& inject) {
  auto protocol = std::make_unique<ct::proto::CorrectedTreeBroadcast>(tree, c, payload);
  if (inject.empty()) return protocol;
  return make_faulty(std::move(protocol), inject);
}

/// A spec's sim Scenario, its tree, and its correction with the
/// synchronized start time resolved the way exp::run_once resolves it.
struct SimModel {
  ct::exp::Scenario scenario;
  ct::proto::CorrectionConfig resolved;
  std::unique_ptr<ct::topo::Tree> tree;
  double tree_ms = 0.0;
  std::string inject;
};

SimModel make_model(const ct::exp::RunSpec& spec, const std::string& inject) {
  SimModel m;
  m.inject = inject;
  m.scenario = spec.to_scenario();
  const auto start = Clock::now();
  m.tree = std::make_unique<ct::topo::Tree>(ct::topo::make_tree(spec.tree, spec.params.P));
  m.tree_ms = ns_between(start, Clock::now()) / 1e6;
  m.resolved = m.scenario.correction;
  if (m.resolved.kind != ct::proto::CorrectionKind::kNone &&
      m.resolved.start == ct::proto::CorrectionStart::kSynchronized &&
      m.resolved.sync_time == 0) {
    m.resolved.sync_time = ct::proto::fault_free_dissemination_time(*m.tree, spec.params);
  }
  return m;
}

/// One replication through the probe instead of exp::run_once: the same
/// fault set, tree and correction, with a nonzero payload. Its result must
/// equal run_once's for the same replication seed.
const ct::sim::RunResult& probed_run(const SimModel& m, std::uint64_t rep_seed,
                                     SlotTable& slots, std::int32_t bcast,
                                     std::int64_t payload, bool timed,
                                     const ct::sim::RunOptions& options,
                                     ct::exp::ReplicaPlan& plan) {
  plan.faults = ct::exp::scenario_faults(m.scenario, rep_seed);
  ct::sim::Simulator simulator(m.scenario.params, &plan.faults);
  ProbeProtocol probe(broadcast_protocol(*m.tree, m.resolved, payload, m.inject), slots, bcast,
                      payload, timed);
  simulator.run(probe, options, plan.workspace, plan.result);
  return plan.result;
}

bool same_run(const ct::sim::RunResult& a, const ct::sim::RunResult& b) {
  return a.num_procs == b.num_procs && a.failed == b.failed &&
         a.coloring_latency == b.coloring_latency &&
         a.quiescence_latency == b.quiescence_latency &&
         a.total_messages == b.total_messages && a.events_processed == b.events_processed &&
         a.uncolored_live == b.uncolored_live && a.correction_start == b.correction_start &&
         a.has_dissemination_snapshot == b.has_dissemination_snapshot &&
         a.dissemination_gaps.max_gap == b.dissemination_gaps.max_gap &&
         a.dissemination_gaps.gap_count == b.dissemination_gaps.gap_count;
}

bool same_samples(const ct::support::Samples& a, const ct::support::Samples& b) {
  const auto& x = a.values();
  const auto& y = b.values();
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool same_aggregate(const ct::exp::Aggregate& a, const ct::exp::Aggregate& b) {
  return a.runs == b.runs && a.not_fully_colored == b.not_fully_colored &&
         a.uncolored_total == b.uncolored_total &&
         same_samples(a.coloring_latency, b.coloring_latency) &&
         same_samples(a.quiescence_latency, b.quiescence_latency) &&
         same_samples(a.messages_per_process, b.messages_per_process) &&
         same_samples(a.max_gap, b.max_gap) && same_samples(a.gap_count, b.gap_count) &&
         same_samples(a.correction_time, b.correction_time);
}

double live_of(const ct::sim::RunResult& r) {
  return static_cast<double>(r.num_procs - r.failed);
}

/// Timed serial run_once replications and timed run_replicated_range
/// windows of one scenario. Serial replication i and window k (covering
/// [k*kWindowReps, (k+1)*kWindowReps)) use the same replication stream.
struct SimStream {
  std::vector<ct::sim::RunResult> serial;
  std::vector<double> serial_ns;
  std::vector<ct::exp::Aggregate> windows;
  std::vector<double> window_rate;    ///< replications per second
  std::vector<double> window_cpu_ms;  ///< CPU ms per replication
  std::vector<double> window_rss_mb;  ///< peak resident set in the window
  std::int64_t failed = 0;            ///< replications leaving survivors uncolored

  std::int64_t attempted() const {
    return static_cast<std::int64_t>(serial.size() + windows.size() * kWindowReps);
  }
};

void serial_reps(const SimModel& m, std::uint64_t seed, std::size_t count,
                 ct::exp::ReplicaPlan& plan, SimStream& s, TraceLog& trace,
                 std::int64_t parent) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t rep = s.serial.size();
    Scope span(trace, "bcast", parent, static_cast<std::int64_t>(rep));
    const auto start = Clock::now();
    const ct::sim::RunResult& r =
        ct::exp::run_once(m.scenario, ct::support::derive_seed(seed, rep), {}, plan);
    s.serial_ns.push_back(ns_between(start, Clock::now()));
    s.serial.push_back(r);
    if (!r.fully_colored()) ++s.failed;
  }
}

void pool_window(const SimModel& m, std::uint64_t seed, const ct::support::ThreadPool& pool,
                 SimStream& s, TraceLog& trace, std::int64_t parent) {
  const std::size_t k = s.windows.size();
  Scope span(trace, "window", parent);
  reset_peak_rss();
  const double cpu = cpu_seconds();
  const auto start = Clock::now();
  ct::exp::Aggregate a = ct::exp::run_replicated_range(m.scenario, k * kWindowReps,
                                                       (k + 1) * kWindowReps, seed, &pool);
  const double wall = seconds_since(start);
  s.window_rate.push_back(static_cast<double>(kWindowReps) / wall);
  s.window_cpu_ms.push_back(to_ms(cpu_seconds() - cpu) / static_cast<double>(kWindowReps));
  s.window_rss_mb.push_back(peak_rss_mb());
  s.failed += a.not_fully_colored;
  s.windows.push_back(std::move(a));
}

/// Interleaved rounds of serial replications and pool windows until the
/// budget is spent and the minimum counts are met.
void sim_rounds(const SimModel& m, std::uint64_t seed, double budget_s,
                std::size_t min_serial, std::size_t min_windows,
                const ct::support::ThreadPool& pool, ct::exp::ReplicaPlan& plan,
                SimStream& s, TraceLog& trace) {
  Scope span(trace, "measure");
  const auto start = Clock::now();
  while (seconds_since(start) < budget_s || s.serial.size() < min_serial ||
         s.windows.size() < min_windows) {
    serial_reps(m, seed, kSerialPerRound, plan, s, trace, span.id());
    pool_window(m, seed, pool, s, trace, span.id());
  }
}

/// The oracle that the thread pool changes nothing: every window lying
/// inside the serial stream must aggregate byte-identically to the serial
/// run_once results of the same replications.
void check_pool_matches_serial(const SimStream& s, Report& report) {
  std::size_t compared = 0;
  for (std::size_t k = 0; k < s.windows.size(); ++k) {
    if ((k + 1) * kWindowReps > s.serial.size()) break;
    ct::exp::Aggregate serial;
    for (std::size_t i = k * kWindowReps; i < (k + 1) * kWindowReps; ++i) {
      serial.add(s.serial[i]);
    }
    if (!same_aggregate(serial, s.windows[k])) {
      report.mismatch("run_replicated_range window " + std::to_string(k) +
                      " differs from the run_once stream");
    }
    ++compared;
  }
  if (compared == 0) report.mismatch("no pool window overlapped the run_once stream");
}

/// Exact model metrics over the fixed replication set [0, kModelReps).
struct ModelFacts {
  double latency_ticks_p50 = 0.0;
  double msgs_per_rank = 0.0;
  double events_per_bcast = 0.0;
};

ModelFacts model_facts(const std::vector<ct::sim::RunResult>& serial) {
  ModelFacts f;
  const std::size_t n = std::min(serial.size(), kModelReps);
  std::vector<double> quiescence;
  for (std::size_t i = 0; i < n; ++i) {
    quiescence.push_back(static_cast<double>(serial[i].quiescence_latency));
    f.msgs_per_rank += static_cast<double>(serial[i].total_messages) / live_of(serial[i]);
    f.events_per_bcast += static_cast<double>(serial[i].events_processed);
  }
  f.latency_ticks_p50 = grouped_median(quiescence);
  f.msgs_per_rank /= static_cast<double>(n);
  f.events_per_bcast /= static_cast<double>(n);
  return f;
}

/// Probed replications of one model, untimed and (optionally) timed on the
/// same replication seeds in alternation. Unlike exp::run_once they reuse
/// the model's tree and resolved sync time, so their wall time is the
/// simulator's and the protocol's alone.
struct ProbeRuns {
  std::vector<double> plain_ns;
  std::vector<double> timed_ns;
  std::vector<double> plain_ns_per_event;
  SlotTotals timed_slots;  ///< probe counters of the timed runs
};

ProbeRuns probe_runs(const SimModel& m, std::uint64_t seed, double budget_s, bool timed,
                     TraceLog& trace) {
  Scope span(trace, "traced");
  SlotTable slots(static_cast<std::size_t>(m.scenario.params.P));
  ct::exp::ReplicaPlan plan;
  ProbeRuns out;
  std::int32_t id = 0;
  const auto start = Clock::now();
  for (std::size_t rep = 0; rep < 2 || seconds_since(start) < budget_s; ++rep) {
    for (const bool timed_run : {false, true}) {
      if (timed_run && !timed) continue;
      const SlotTotals before = slots.totals();
      Scope bcast(trace, "bcast", span.id(), id);
      const auto t0 = Clock::now();
      const ct::sim::RunResult& r = probed_run(m, ct::support::derive_seed(seed, rep), slots, id,
                                               payload_of(seed, id), timed_run, {}, plan);
      const double ns = ns_between(t0, Clock::now());
      ++id;
      if (!timed_run) {
        out.plain_ns.push_back(ns);
        out.plain_ns_per_event.push_back(ns / static_cast<double>(r.events_processed));
        continue;
      }
      out.timed_ns.push_back(ns);
      out.timed_slots = out.timed_slots + (slots.totals() - before);
    }
  }
  return out;
}

/// Share of message arrivals that found their destination dead, from the
/// simulator's event trace of replication 0.
double dropped_arrival_share(const SimModel& m, std::uint64_t seed) {
  std::int64_t arrivals = 0;
  std::int64_t dropped = 0;
  ct::sim::RunOptions options;
  options.trace = [&](const ct::sim::TraceEvent& e) {
    if (e.kind == ct::sim::TraceEvent::Kind::kArrival) ++arrivals;
    if (e.kind == ct::sim::TraceEvent::Kind::kArrivalDropped) ++dropped;
  };
  ct::exp::run_once(m.scenario, ct::support::derive_seed(seed, 0), options);
  return share(static_cast<double>(dropped), static_cast<double>(arrivals + dropped));
}

/// Per-layer metrics of the experiment and sim layers from the measured
/// run_once stream `s` of `spec` and the untimed probed replications
/// `probed` of the same model, plus untimed probed replications of the same
/// spec at P=1024 for `scale_budget_s` (the scale penalty).
void fill_sim_layers(const ct::exp::RunSpec& spec, const SimModel& model, const SimStream& s,
                     const ProbeRuns& probed, std::uint64_t seed, double scale_budget_s,
                     Report& report, TraceLog& trace) {
  ct::exp::RunSpec small = spec;
  small.params.P = 1024;
  const ProbeRuns small_runs =
      probe_runs(make_model(small, model.inject), seed, scale_budget_s, false, trace);

  const double rep_ns = median(s.serial_ns);
  const double nspe = median(probed.plain_ns_per_event);
  report.per_layer["experiment.rep_ms_p50"] = rep_ns / 1e6;
  report.per_layer["experiment.parallel_efficiency"] =
      median(s.window_rate) / (static_cast<double>(kWorkers) * 1e9 / rep_ns);
  report.per_layer["sim.events_per_bcast"] = model_facts(s.serial).events_per_bcast;
  report.per_layer["sim.ns_per_event"] = nspe;
  report.per_layer["sim.scale_penalty"] = nspe / median(small_runs.plain_ns_per_event);
  report.per_layer["sim.dropped_arrival_share"] = dropped_arrival_share(model, seed);
}

/// The experiment and sim layers of a runtime workload's spec, simulated:
/// serial and pooled replications for `budget_s`.
void sim_layers(const ct::exp::RunSpec& spec, std::uint64_t seed, double budget_s,
                const Args& args, Report& report, TraceLog& trace) {
  const SimModel model = make_model(spec, args.inject);
  const ct::support::ThreadPool pool(kWorkers);
  ct::exp::ReplicaPlan plan;
  SimStream s;
  sim_rounds(model, seed, budget_s * 0.6, args.quick ? kWindowReps : kModelReps, 1, pool, plan,
             s, trace);
  check_pool_matches_serial(s, report);
  const ProbeRuns probed = probe_runs(model, seed, budget_s * 0.25, false, trace);
  fill_sim_layers(spec, model, s, probed, seed, budget_s * 0.15, report, trace);
}

/// The model latency of a runtime workload's spec: the LogP simulation of
/// the same spec over the fixed replication set.
double model_latency(const ct::exp::RunSpec& spec, std::uint64_t seed, TraceLog& trace) {
  Scope span(trace, "model");
  const SimModel model = make_model(spec, "");
  ct::exp::ReplicaPlan plan;
  SimStream s;
  serial_reps(model, seed, kModelReps, plan, s, trace, span.id());
  return model_facts(s.serial).latency_ticks_p50;
}

// --- runtime side --------------------------------------------------------------

ct::exp::RunSpec rt_spec() { return ct::exp::parse_run_spec(kRtSpec); }

/// Static failure placement number `placement` of a runtime workload: a
/// seeded fraction, resampled until the statically uncolored ranks leave no
/// ring gap wider than the spec's gap limit, so opportunistic correction
/// completes every broadcast (the placement exp::run uses for rt executors).
std::vector<char> gap_safe_failures(const ct::exp::RunSpec& spec, const ct::topo::Tree& tree,
                                    std::uint64_t seed, int placement) {
  const Rank procs = spec.params.P;
  ct::support::Xoshiro256ss rng(
      ct::support::derive_seed(seed, 0x91ace + static_cast<std::uint64_t>(placement)));
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const ct::sim::FaultSet faults =
        ct::sim::FaultSet::random_fraction(procs, spec.faults.fraction, rng);
    std::vector<char> colored(static_cast<std::size_t>(procs), 1);
    for (Rank r = 1; r < procs; ++r) {
      for (Rank cur = r; cur != 0; cur = tree.parent(cur)) {
        if (faults.failed_from_start(cur)) {
          colored[static_cast<std::size_t>(r)] = 0;
          break;
        }
      }
    }
    if (ct::topo::analyze_gaps(colored).max_gap > spec.faults.gap_limit) continue;
    std::vector<char> failed(static_cast<std::size_t>(procs), 0);
    for (Rank r : faults.initially_failed()) failed[static_cast<std::size_t>(r)] = 1;
    return failed;
  }
  throw std::runtime_error("no gap-safe failure placement found");
}

/// The shared state of a runtime workload: spec, tree, the current failure
/// placement, probe slots and the probe factory handing out numbered
/// broadcasts.
struct RtBed {
  ct::exp::RunSpec spec;
  std::uint64_t seed;
  std::unique_ptr<ct::topo::Tree> tree;
  std::vector<char> failed;
  Rank live = 0;
  std::unique_ptr<SlotTable> slots;
  std::int32_t next_bcast = 0;
  bool timed = false;
  ct::rt::ProtocolFactory factory;
  std::vector<double> setup_s;
  std::vector<double> tree_ms;
  std::vector<double> ctor_ms;

  RtBed(ct::exp::RunSpec s, std::uint64_t input, const std::string& inject)
      : spec(std::move(s)), seed(input) {
    slots = std::make_unique<SlotTable>(static_cast<std::size_t>(spec.params.P));
    factory = probe_factory(
        [this, inject](std::int64_t payload) {
          return broadcast_protocol(*tree, spec.correction, payload, inject);
        },
        *slots, seed, &next_bcast, &timed);
  }

  void build_tree(TraceLog& trace, std::int64_t parent) {
    Scope span(trace, "topology.build", parent);
    const auto start = Clock::now();
    tree = std::make_unique<ct::topo::Tree>(ct::topo::make_tree(spec.tree, spec.params.P));
    tree_ms.push_back(to_ms(seconds_since(start)));
  }

  void place(int placement) {
    failed = gap_safe_failures(spec, *tree, seed, placement);
    live = 0;
    for (char f : failed) live += f ? 0 : 1;
  }

  /// Oracle verdict on `epochs` broadcasts run since `before`: every
  /// survivor but the root delivered once with the root's data. Returns the
  /// failed broadcasts the probe saw beyond `degraded` already counted.
  std::int64_t oracle_failures(const SlotTotals& before, std::int64_t epochs,
                               std::int64_t degraded) const {
    const SlotTotals d = slots->totals() - before;
    std::int64_t bad = std::min<std::int64_t>(d.violations, epochs);
    const std::int64_t expected = static_cast<std::int64_t>(live - 1) * epochs;
    if (degraded == 0 && d.deliveries != expected) bad = std::max<std::int64_t>(bad, 1);
    if (d.deliveries > expected) bad = std::max<std::int64_t>(bad, 1);
    return bad;
  }
};

/// Per-window figures shared by the runtime workloads. A window is one
/// measuring call: 100 (one-shot), 128 (stream) or 300 (UDP) broadcasts.
struct Windows {
  std::vector<double> rate;
  std::vector<double> cpu_ms;
  std::vector<double> rss_mb;
  std::vector<double> msgs_per_rank;
  std::vector<double> latency_p50_us;
  std::vector<double> latency_p90_us;
  std::vector<double> wall_s;
  std::vector<double> steal;  ///< host steal share during the window
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Records one window's figures. `cpu_s` is the window's process CPU,
  /// `cpu_epochs` the broadcasts it paid for, and `host` the host CPU
  /// counters sampled when the window began.
  void add(double wall, std::int64_t epochs, std::int64_t messages, Rank live, double cpu_s,
           std::int64_t cpu_epochs, const std::vector<double>& latencies, const HostCpu& host) {
    steal.push_back(steal_share(host, host_cpu()));
    rate.push_back(static_cast<double>(epochs) / wall);
    wall_s.push_back(wall);
    cpu_ms.push_back(to_ms(cpu_s) / static_cast<double>(cpu_epochs));
    rss_mb.push_back(peak_rss_mb());
    msgs_per_rank.push_back(static_cast<double>(messages) / static_cast<double>(live) /
                            static_cast<double>(epochs));
    latency_p50_us.push_back(quantile(latencies, 0.5));
    latency_p90_us.push_back(quantile(latencies, 0.9));
    attempted += epochs;
  }

  /// Per-window `values` read at the least steal share of any window. A
  /// Theil-Sen line (median pairwise slope, then median intercept) is fitted
  /// through (steal share, log value) of the quiet windows, those whose
  /// share is at most the kQuietShare quantile: steal slows a window by a
  /// factor, and the tail times grow faster than linearly with it. Steal
  /// only slows a workload down, so a slope that says otherwise is taken as
  /// 0: `rising` figures (times, costs) get a slope of at least 0, the
  /// others (rates) one of at most 0. The line is not read below the
  /// smallest measured share, where the steep slopes of a heavily stolen
  /// run would extrapolate to values no run shows.
  double at_least_steal(const std::vector<double>& values, bool rising) const {
    const double cut = quantile(steal, kQuietShare);
    const double least = *std::min_element(steal.begin(), steal.end());
    std::vector<double> x;
    std::vector<double> y;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (steal[i] <= cut) {
        x.push_back(steal[i]);
        y.push_back(std::log(values[i]));
      }
    }
    std::vector<double> slopes;
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t j = i + 1; j < x.size(); ++j) {
        if (x[j] != x[i]) slopes.push_back((y[j] - y[i]) / (x[j] - x[i]));
      }
    }
    const double fit = slopes.empty() ? 0.0 : median(std::move(slopes));
    const double slope = rising ? std::max(fit, 0.0) : std::min(fit, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) y[i] -= slope * (x[i] - least);
    return std::exp(median(std::move(y)));
  }
};

void fill_end_to_end(Report& report, const Windows& w, double setup_s, double model_ticks) {
  report.attempted += w.attempted;
  report.failed += w.failed;
  report.end_to_end["setup_s"] = setup_s;
  report.end_to_end["bcasts_per_s"] = w.at_least_steal(w.rate, false);
  report.end_to_end["latency_p50_us"] = w.at_least_steal(w.latency_p50_us, true);
  report.end_to_end["latency_p90_us"] = w.at_least_steal(w.latency_p90_us, true);
  report.end_to_end["msgs_per_rank"] = median(w.msgs_per_rank);
  report.end_to_end["success_frac"] =
      1.0 - share(static_cast<double>(report.failed), static_cast<double>(report.attempted));
  report.end_to_end["cpu_ms_per_bcast"] = w.at_least_steal(w.cpu_ms, true);
  report.end_to_end["peak_rss_mb"] = median(w.rss_mb);
  report.end_to_end["model_latency_ticks_p50"] = model_ticks;
}

void fill_protocol_layers(Report& report, const SlotTotals& d, double bcasts,
                          double busy_wall_s, double workers) {
  report.per_layer["protocol.calls_per_bcast"] = share(static_cast<double>(d.calls), bcasts);
  report.per_layer["protocol.ns_per_call"] =
      share(static_cast<double>(d.self_ns), static_cast<double>(d.calls));
  report.per_layer["protocol.busy_share"] =
      share(static_cast<double>(d.self_ns) / 1e9, busy_wall_s * workers);
  report.per_layer["protocol.correction_msg_share"] =
      share(static_cast<double>(d.correction_sends), static_cast<double>(d.sends));
  report.per_layer["protocol.useful_recv_share"] =
      share(static_cast<double>(d.useful_receives), static_cast<double>(d.receives));
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

void trace_counters(TraceLog& trace, const std::string& name, const SlotTotals& d) {
  trace.counter(name, {{"calls", static_cast<double>(d.calls)},
                       {"self_ns", static_cast<double>(d.self_ns)},
                       {"receives", static_cast<double>(d.receives)},
                       {"useful_receives", static_cast<double>(d.useful_receives)},
                       {"sends", static_cast<double>(d.sends)},
                       {"correction_sends", static_cast<double>(d.correction_sends)},
                       {"deliveries", static_cast<double>(d.deliveries)},
                       {"violations", static_cast<double>(d.violations)}});
}

/// One set-up of an in-process runtime workload: tree, failure placement
/// `round`, engine constructor and warm-up broadcasts.
template <class Warm>
std::unique_ptr<ct::rt::Engine> engine_setup(RtBed& bed, int round, TraceLog& trace,
                                             Warm&& warm) {
  Scope span(trace, "setup");
  const auto start = Clock::now();
  bed.build_tree(trace, span.id());
  bed.place(round);
  ct::rt::EngineOptions options;
  options.workers = static_cast<int>(kWorkers);
  options.epoch_deadline = kEpochTimeout;
  std::unique_ptr<ct::rt::Engine> engine;
  {
    Scope ctor(trace, "rt.engine_ctor", span.id());
    const auto ctor_start = Clock::now();
    engine = std::make_unique<ct::rt::Engine>(bed.spec.params.P, bed.failed, options);
    bed.ctor_ms.push_back(to_ms(seconds_since(ctor_start)));
  }
  warm(*engine);
  bed.setup_s.push_back(seconds_since(start));
  return engine;
}

/// Rounds per run of the runtime workloads. Each round (each rt-udp call)
/// runs on its own failure placement, so one run averages over several
/// placements instead of resting on the one its seed happened to draw; each
/// in-process round starts with a fresh set-up, whose median is setup_s.
int rounds_of(const Args& args) { return args.quick ? 1 : kRtRounds; }

std::int64_t min_per_round(const Args& args) {
  return (args.quick ? 40 : kMinBroadcasts) / rounds_of(args);
}

/// Transport counters of one rt-udp phase; they span whole calls, warm-up
/// included.
struct UdpTotals {
  std::vector<double> setup_s;
  std::int64_t epochs = 0;
  std::int64_t retransmits = 0;
  std::int64_t dup_drops = 0;
  std::int64_t chaos_drops = 0;
};

/// rt-udp calls of a bed's spec on kWorkers processes with kUdpDropProb
/// datagram drop. Each call forks its worker processes, so a workload makes
/// them before it starts any thread.
struct UdpBench {
  RtBed& bed;
  TraceLog& trace;
  ct::rt::UdpEngineOptions options;
  int call = 0;

  UdpBench(RtBed& b, const Args& args, TraceLog& t) : bed(b), trace(t) {
    std::string why;
    if (!ct::rt::udp_loopback_available(why)) {
      throw std::runtime_error("loopback UDP unavailable: " + why);
    }
    options.num_procs = bed.spec.params.P;
    options.procs = static_cast<int>(kWorkers);
    options.warmup = 5;
    options.iterations = args.quick ? 30 : 300;
    options.epoch_timeout = kEpochTimeout;
  }

  std::int64_t epochs_per_call() const { return options.warmup + options.iterations; }

  /// Calls until `budget_s` has passed and `min_total` epochs were measured.
  /// One window = one measure_broadcast_udp call on its own failure
  /// placement and chaos seed: fork, warm-up, measured epochs, reap.
  void measure(double budget_s, std::int64_t min_total, Windows& w, UdpTotals& t,
               const char* name) {
    Scope span(trace, name);
    const auto start = Clock::now();
    for (std::int64_t done = 0; seconds_since(start) < budget_s || done < min_total; ++call) {
      Scope win(trace, "window", span.id());
      const auto t0 = Clock::now();
      bed.place(call);
      options.failed = bed.failed;
      ct::rt::ChaosOptions chaos;
      chaos.seed = ct::support::derive_seed(bed.seed, 1000 + static_cast<std::uint64_t>(call));
      chaos.drop_prob = kUdpDropProb;
      options.chaos = ct::rt::ChaosPlan(chaos);
      // Worker processes number their broadcasts from here.
      bed.next_bcast = call * 100000;
      const SlotTotals before = bed.slots->totals();
      reset_peak_rss();
      const HostCpu host = host_cpu();
      const double cpu = cpu_seconds();
      const ct::rt::UdpRunResult u = ct::rt::measure_broadcast_udp(options, bed.factory);
      const double cpu_s = cpu_seconds() - cpu;
      if (!u.error.empty()) throw std::runtime_error("rt-udp: " + u.error);
      const ct::rt::HarnessResult& r = u.harness;
      t.setup_s.push_back(seconds_since(t0) - r.wall_seconds);
      w.add(r.wall_seconds, r.iterations, r.total_messages, bed.live, cpu_s, epochs_per_call(),
            r.latency_us.values(), host);
      // The probe slots also saw the warm-up epochs; all must be clean, and
      // a failure among them counts against the call's measured epochs.
      const std::int64_t degraded = r.timeouts + r.incomplete;
      w.failed += std::min<std::int64_t>(
          r.iterations, degraded + bed.oracle_failures(before, epochs_per_call(), degraded));
      done += r.iterations;
      t.epochs += epochs_per_call();
      t.retransmits += r.retransmits;
      t.dup_drops += r.dup_drops;
      t.chaos_drops += r.messages_dropped;
    }
  }
};

void fill_udp_layers(Report& report, const UdpTotals& t) {
  const auto runs = static_cast<double>(t.epochs);
  report.per_layer["udp.retransmits_per_bcast"] = static_cast<double>(t.retransmits) / runs;
  report.per_layer["udp.dup_drops_per_bcast"] = static_cast<double>(t.dup_drops) / runs;
  report.per_layer["udp.spurious_share"] =
      share(static_cast<double>(t.dup_drops), static_cast<double>(t.retransmits));
  report.per_layer["udp.setup_ms"] = to_ms(median(t.setup_s));
  report.per_layer["chaos.drops_per_bcast"] = static_cast<double>(t.chaos_drops) / runs;
}

}  // namespace

// --- sim_mc ---------------------------------------------------------------------

void run_sim_mc(const Args& args, Report& report, TraceLog& trace) {
  const std::uint64_t seed = input_seed(args);
  const int setups = args.quick ? 1 : kSimSetups;
  std::vector<double> setup_s;
  std::vector<double> tree_ms;
  SimModel model;
  std::unique_ptr<ct::support::ThreadPool> pool;
  std::unique_ptr<ct::exp::ReplicaPlan> plan;
  for (int i = 0; i < setups; ++i) {
    plan.reset();
    pool.reset();
    Scope span(trace, "setup");
    const auto start = Clock::now();
    {
      Scope build(trace, "topology.build", span.id());
      model = make_model(ct::exp::parse_run_spec(kSimSpec), args.inject);
    }
    pool = std::make_unique<ct::support::ThreadPool>(kWorkers);
    plan = std::make_unique<ct::exp::ReplicaPlan>();
    // First touch of the plan's O(P) buffers; not part of the stream.
    ct::exp::run_once(model.scenario, ct::support::derive_seed(seed, 1u << 30), {}, *plan);
    setup_s.push_back(seconds_since(start));
    tree_ms.push_back(model.tree_ms);
  }

  const std::size_t min_serial = args.quick ? kWindowReps : kModelReps;
  const double measure_s = args.trace ? args.seconds * 0.45 : args.seconds * 0.9;
  SimStream s;
  sim_rounds(model, seed, measure_s, min_serial, args.quick ? 1 : 3, *pool, *plan, s, trace);
  check_pool_matches_serial(s, report);
  report.attempted += s.attempted();
  report.failed += s.failed;

  // Oracles on the first and the last serial replication, rerun through
  // the probe with per-rank detail: the probe reproduces run_once exactly,
  // every survivor delivers once, and holds the root's data word.
  SlotTable slots(static_cast<std::size_t>(model.scenario.params.P));
  ct::exp::ReplicaPlan oracle_plan;
  ct::sim::RunOptions detail;
  detail.keep_per_rank_detail = true;
  for (const std::size_t rep : {std::size_t{0}, s.serial.size() - 1}) {
    const auto id = static_cast<std::int32_t>(rep);
    const std::int64_t payload = payload_of(seed, id);
    const SlotTotals before = slots.totals();
    const ct::sim::RunResult& r =
        probed_run(model, ct::support::derive_seed(seed, rep), slots, id, payload, false,
                   detail, oracle_plan);
    if (!same_run(r, s.serial[rep])) {
      report.mismatch("probed replication " + std::to_string(rep) + " differs from run_once");
    }
    const SlotTotals d = slots.totals() - before;
    std::int64_t wrong = 0;
    for (Rank p = 0; p < r.num_procs; ++p) {
      if (!oracle_plan.faults.always_alive(p)) continue;
      if (r.rank_data[static_cast<std::size_t>(p)] != payload) ++wrong;
    }
    if (wrong > 0 || d.violations > 0 ||
        d.deliveries != static_cast<std::int64_t>(live_of(r)) - 1) {
      ++report.failed;
      report.mismatch("broadcast oracle failed on replication " + std::to_string(rep));
    }
  }

  const ModelFacts facts = model_facts(s.serial);
  if (!args.trace) {
    report.end_to_end["setup_s"] = median(setup_s);
    report.end_to_end["bcasts_per_s"] = quantile(s.window_rate, kFastQuartile);
    // Windows are the rounds' serial runs. The host's memory traffic moves
    // whole rounds between about 105 and 140 ms per run_once, so the p50
    // takes the quiet quartile of the rounds' medians.
    report.end_to_end["latency_p50_us"] =
        windowed_quantile(s.serial_ns, kSerialPerRound, 0.5, kQuietQuartile) / 1e3;
    report.end_to_end["latency_p90_us"] = quantile(s.serial_ns, 0.9) / 1e3;
    report.end_to_end["msgs_per_rank"] = facts.msgs_per_rank;
    report.end_to_end["success_frac"] =
        1.0 - share(static_cast<double>(report.failed), static_cast<double>(report.attempted));
    report.end_to_end["cpu_ms_per_bcast"] = quantile(s.window_cpu_ms, kQuietQuartile);
    report.end_to_end["peak_rss_mb"] = median(s.window_rss_mb);
    report.end_to_end["model_latency_ticks_p50"] = facts.latency_ticks_p50;
    return;
  }

  // Traced: the protocol layer through timed probes, in alternation with
  // untimed ones on the same replications; the untimed ones also give the
  // simulator's cost per event.
  const ProbeRuns probed = probe_runs(model, seed, args.seconds * 0.3, true, trace);
  trace_counters(trace, "probe", probed.timed_slots);
  if (probed.timed_slots.violations > 0) {
    report.mismatch("broadcast oracle failed in the traced replications");
  }
  fill_protocol_layers(report, probed.timed_slots, static_cast<double>(probed.timed_ns.size()),
                       sum(probed.timed_ns) / 1e9, 1.0);
  fill_sim_layers(ct::exp::parse_run_spec(kSimSpec), model, s, probed, seed,
                  args.seconds * 0.05, report, trace);
  report.per_layer["topology.build_ms"] = median(tree_ms);
  report.per_layer["trace.overhead_share"] =
      1.0 - median(probed.plain_ns) / median(probed.timed_ns);
}

// --- rt_oneshot ---------------------------------------------------------------

void run_rt_oneshot(const Args& args, Report& report, TraceLog& trace) {
  RtBed bed(rt_spec(), input_seed(args), args.inject);
  const int rounds = rounds_of(args);
  ct::rt::HarnessOptions options;
  options.warmup = 0;
  options.iterations = args.quick ? 20 : 100;
  options.epoch_timeout = kEpochTimeout;
  ct::rt::HarnessOptions warm = options;
  warm.iterations = kWarmBroadcasts;

  // One window = one measure_broadcast call of options.iterations
  // closed-loop epochs.
  const auto measure = [&](ct::rt::Engine& engine, double budget_s, std::int64_t min_total,
                           Windows& w, const char* name) {
    Scope span(trace, name);
    const auto start = Clock::now();
    for (std::int64_t done = 0; seconds_since(start) < budget_s || done < min_total;) {
      Scope win(trace, "window", span.id());
      const SlotTotals before = bed.slots->totals();
      reset_peak_rss();
      const HostCpu host = host_cpu();
      const double cpu = cpu_seconds();
      const ct::rt::HarnessResult r = ct::rt::measure_broadcast(engine, bed.factory, options);
      w.add(r.wall_seconds, r.iterations, r.total_messages, bed.live, cpu_seconds() - cpu,
            r.iterations, r.latency_us.values(), host);
      const std::int64_t degraded = r.timeouts + r.incomplete;
      w.failed += degraded + bed.oracle_failures(before, r.iterations, degraded);
      done += r.iterations;
    }
  };

  Windows plain;
  Windows timed;
  SlotTotals probe;
  std::vector<double> rank_done_us;
  std::vector<double> straggler_us;
  if (args.trace) {
    // The udp layer: rt-udp calls of the same spec, on a bed of their own so
    // that their probe counts stay apart from the engine's. The calls fork,
    // so they come before the first engine starts its threads.
    RtBed udp_bed(rt_spec(), input_seed(args), args.inject);
    udp_bed.build_tree(trace, 0);
    UdpBench udp(udp_bed, args, trace);
    Windows w;
    UdpTotals totals;
    udp.measure(args.seconds * 0.1, udp.options.iterations, w, totals, "udp");
    report.attempted += w.attempted;
    report.failed += w.failed;
    fill_udp_layers(report, totals);
  }
  for (int round = 0; round < rounds; ++round) {
    const std::unique_ptr<ct::rt::Engine> engine = engine_setup(
        bed, round, trace,
        [&](ct::rt::Engine& e) { ct::rt::measure_broadcast(e, bed.factory, warm); });
    if (!args.trace) {
      measure(*engine, args.seconds * 0.9 / rounds, min_per_round(args), plain, "measure");
      continue;
    }
    measure(*engine, args.seconds * 0.25 / rounds, options.iterations, plain, "measure");
    const SlotTotals before = bed.slots->totals();
    bed.timed = true;
    measure(*engine, args.seconds * 0.25 / rounds, options.iterations, timed, "traced");
    bed.timed = false;
    const SlotTotals d = bed.slots->totals() - before;
    probe = probe + d;

    // Per-rank completion spread, from single run_epoch calls.
    Scope span(trace, "epochs");
    const auto start = Clock::now();
    for (int n = 0; seconds_since(start) < args.seconds * 0.15 / rounds || n < 5; ++n) {
      const std::int64_t id = bed.next_bcast;
      const SlotTotals epoch_before = bed.slots->totals();
      const std::unique_ptr<ct::sim::Protocol> protocol = bed.factory();
      const std::int64_t t0 = trace.now_ns();
      const ct::rt::EpochResult e = engine->run_epoch(*protocol, kEpochTimeout);
      trace.add("bcast", t0, trace.now_ns(), span.id(), id);
      std::vector<double> done;
      for (const std::int64_t ns : e.rank_completion_ns) {
        if (ns >= 0) done.push_back(static_cast<double>(ns));
      }
      const double mid = median(done);
      rank_done_us.push_back(mid / 1e3);
      straggler_us.push_back((static_cast<double>(e.completion_ns) - mid) / 1e3);
      const std::int64_t degraded = e.degraded() ? 1 : 0;
      ++report.attempted;
      report.failed += std::max(degraded, bed.oracle_failures(epoch_before, 1, degraded));
    }
  }

  if (!args.trace) {
    fill_end_to_end(report, plain, median(bed.setup_s),
                    model_latency(bed.spec, bed.seed, trace));
    return;
  }
  trace_counters(trace, "probe", probe);
  report.attempted += plain.attempted + timed.attempted;
  report.failed += plain.failed + timed.failed;
  fill_protocol_layers(report, probe, static_cast<double>(timed.attempted), sum(timed.wall_s),
                       static_cast<double>(kWorkers));
  report.per_layer["topology.build_ms"] = median(bed.tree_ms);
  report.per_layer["rt.engine_ctor_ms"] = median(bed.ctor_ms);
  report.per_layer["rt.rank_done_p50_us"] = median(rank_done_us);
  report.per_layer["rt.straggler_us"] = median(straggler_us);
  report.per_layer["trace.overhead_share"] = 1.0 - median(timed.rate) / median(plain.rate);
  sim_layers(bed.spec, bed.seed, args.seconds * 0.2, args, report, trace);
}

// --- rt_stream ------------------------------------------------------------------

void run_rt_stream(const Args& args, Report& report, TraceLog& trace) {
  RtBed bed(rt_spec(), input_seed(args), args.inject);
  const int rounds = rounds_of(args);
  ct::rt::StreamOptions options;
  options.epochs = args.quick ? 24 : 128;
  options.window = 8;
  options.rate = 0.0;  // closed loop: the next epoch enters as a slot frees
  options.epoch_timeout = kEpochTimeout;
  // Set-up warms up with one-shot broadcasts, as rt_oneshot's does. The
  // stream path's first use, which sizes its W*P slot state, then falls in
  // each round's first window: as a one-epoch stream warm-up it made setup_s
  // range over 5.6-9.3 ms from run to run without host steal.
  ct::rt::HarnessOptions warm;
  warm.warmup = 0;
  warm.iterations = kWarmBroadcasts;
  warm.epoch_timeout = kEpochTimeout;

  std::vector<double> admit_wait_us;
  std::vector<double> service_us;
  std::vector<double> inflight;
  // One window = one measure_stream call of options.epochs epochs.
  const auto measure = [&](ct::rt::Engine& engine, double budget_s, std::int64_t min_total,
                           Windows& w, const char* name) {
    Scope span(trace, name);
    const auto start = Clock::now();
    for (std::int64_t done = 0; seconds_since(start) < budget_s || done < min_total;) {
      Scope win(trace, "window", span.id());
      const std::int64_t first_id = bed.next_bcast;
      const std::int64_t origin = trace.now_ns();
      const SlotTotals before = bed.slots->totals();
      reset_peak_rss();
      const HostCpu host = host_cpu();
      const double cpu = cpu_seconds();
      const ct::rt::StreamHarnessResult r = ct::rt::measure_stream(engine, bed.factory, options);
      w.add(r.wall_seconds, r.epochs, r.total_messages, bed.live, cpu_seconds() - cpu,
            r.epochs, r.sojourn_us.values(), host);
      double busy_ns = 0.0;
      std::int64_t first_ns = -1;
      std::int64_t last_ns = 0;
      for (std::size_t i = 0; i < r.raw.epochs.size(); ++i) {
        const ct::rt::StreamEpoch& e = r.raw.epochs[i];
        admit_wait_us.push_back(static_cast<double>(e.begin_ns - e.scheduled_ns) / 1e3);
        service_us.push_back(static_cast<double>(e.service_ns()) / 1e3);
        busy_ns += static_cast<double>(e.service_ns());
        if (first_ns < 0) first_ns = e.begin_ns;
        last_ns = std::max(last_ns, e.retire_ns);
        trace.add("bcast", origin + e.begin_ns, origin + e.retire_ns, win.id(),
                  first_id + static_cast<std::int64_t>(i));
      }
      inflight.push_back(share(busy_ns, static_cast<double>(last_ns - first_ns)));
      const std::int64_t degraded = r.timeouts + r.incomplete;
      w.failed += degraded + bed.oracle_failures(before, r.epochs, degraded);
      done += r.epochs;
    }
  };

  Windows plain;
  Windows timed;
  SlotTotals probe;
  for (int round = 0; round < rounds; ++round) {
    const std::unique_ptr<ct::rt::Engine> engine = engine_setup(
        bed, round, trace,
        [&](ct::rt::Engine& e) { ct::rt::measure_broadcast(e, bed.factory, warm); });
    if (!args.trace) {
      measure(*engine, args.seconds * 0.9 / rounds, min_per_round(args), plain, "measure");
      continue;
    }
    measure(*engine, args.seconds * 0.35 / rounds, options.epochs, plain, "measure");
    const SlotTotals before = bed.slots->totals();
    bed.timed = true;
    const std::size_t untimed_epochs = service_us.size();
    const std::size_t untimed_windows = inflight.size();
    measure(*engine, args.seconds * 0.35 / rounds, options.epochs, timed, "traced");
    bed.timed = false;
    probe = probe + (bed.slots->totals() - before);
    // The stream layer's figures come from the untimed windows only.
    admit_wait_us.resize(untimed_epochs);
    service_us.resize(untimed_epochs);
    inflight.resize(untimed_windows);
  }

  if (!args.trace) {
    fill_end_to_end(report, plain, median(bed.setup_s),
                    model_latency(bed.spec, bed.seed, trace));
    return;
  }
  trace_counters(trace, "probe", probe);
  report.attempted += plain.attempted + timed.attempted;
  report.failed += plain.failed + timed.failed;
  fill_protocol_layers(report, probe, static_cast<double>(timed.attempted), sum(timed.wall_s),
                       static_cast<double>(kWorkers));
  report.per_layer["topology.build_ms"] = median(bed.tree_ms);
  report.per_layer["rt.engine_ctor_ms"] = median(bed.ctor_ms);
  report.per_layer["stream.admit_wait_p50_us"] = median(admit_wait_us);
  report.per_layer["stream.service_p50_us"] = median(service_us);
  report.per_layer["stream.inflight_mean"] = median(inflight);
  report.per_layer["trace.overhead_share"] = 1.0 - median(timed.rate) / median(plain.rate);
  sim_layers(bed.spec, bed.seed, args.seconds * 0.2, args, report, trace);
}

// --- udp_lossy ------------------------------------------------------------------

void run_udp_lossy(const Args& args, Report& report, TraceLog& trace) {
  RtBed bed(rt_spec(), input_seed(args), args.inject);
  double tree_s = 0.0;
  {
    Scope span(trace, "setup");
    const auto start = Clock::now();
    bed.build_tree(trace, span.id());
    tree_s = seconds_since(start);
  }
  UdpBench udp(bed, args, trace);

  Windows plain;
  UdpTotals totals;
  if (!args.trace) {
    udp.measure(args.seconds * 0.9, rounds_of(args) * min_per_round(args), plain, totals,
                "measure");
    fill_end_to_end(report, plain, tree_s + median(totals.setup_s),
                    model_latency(bed.spec, bed.seed, trace));
    return;
  }

  udp.measure(args.seconds * 0.35, udp.options.iterations * 2, plain, totals, "measure");
  Windows timed;
  UdpTotals timed_totals;
  const SlotTotals before = bed.slots->totals();
  bed.timed = true;
  udp.measure(args.seconds * 0.35, udp.options.iterations * 2, timed, timed_totals, "traced");
  bed.timed = false;
  const SlotTotals d = bed.slots->totals() - before;
  trace_counters(trace, "probe", d);
  report.attempted += plain.attempted + timed.attempted;
  report.failed += plain.failed + timed.failed;
  fill_protocol_layers(report, d, static_cast<double>(timed_totals.epochs),
                       sum(timed.wall_s), static_cast<double>(kWorkers));

  report.per_layer["topology.build_ms"] = median(bed.tree_ms);
  fill_udp_layers(report, totals);
  report.per_layer["trace.overhead_share"] = 1.0 - median(timed.rate) / median(plain.rate);
  // Threads only after the last fork.
  sim_layers(bed.spec, bed.seed, args.seconds * 0.2, args, report, trace);
}

}  // namespace perfbench
