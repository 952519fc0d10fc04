#pragma once
// OSU-style broadcast latency harness over the threaded runtime (§4.4: "This
// benchmark repeatedly executes MPI_Bcast and measures its runtime across
// all the processes of the application"). A ProtocolFactory supplies a fresh
// protocol instance per iteration; the harness reports the distribution of
// per-iteration full-completion latencies (max over live ranks), as the
// paper's median-latency plots do.

#include <chrono>

#include "rt/engine.hpp"
#include "support/stats.hpp"

namespace ct::rt {

struct HarnessResult {
  support::Samples latency_us;  ///< per-iteration completion latency, µs
  support::Samples messages_per_process;
  std::int64_t iterations = 0;
  std::int64_t timeouts = 0;
  std::int64_t incomplete = 0;      ///< iterations leaving live ranks uncolored
  std::int64_t total_messages = 0;  ///< summed over all measured iterations
  double wall_seconds = 0.0;        ///< wall clock of the measured loop

  // --- chaos aggregates (zeros when the engine has no ChaosPlan) ---
  std::int64_t epochs_degraded = 0;  ///< iterations with EpochResult::degraded()
  std::int64_t ranks_crashed = 0;    ///< mid-epoch crashes, summed
  std::int64_t messages_dropped = 0;
  std::int64_t messages_delayed = 0;
  std::int64_t messages_duplicated = 0;
  /// First degraded epoch of the run, kept whole so callers can print a
  /// degradation report (crashed ranks, uncolored survivors, gaps) without
  /// re-running; meaningful only when epochs_degraded > 0.
  EpochResult first_degraded;
  /// Last degraded epoch of the run, kept whole alongside the first:
  /// recovery runs show both the injury and the final state before
  /// convergence. Equals first_degraded when only one epoch degraded;
  /// meaningful only when epochs_degraded > 0.
  EpochResult last_degraded;
  /// First measured epoch, kept whole (degraded or not). exp::run reads its
  /// crashed_ranks / uncolored_survivors so one RunSpec execution yields the
  /// same per-rank detail the simulator's keep_per_rank_detail run does.
  EpochResult first;

  // --- transport aggregates (rt-udp only; zeros on in-process executors) ---
  std::int64_t retransmits = 0;  ///< perfect-links datagram retransmissions
  std::int64_t dup_drops = 0;    ///< duplicate datagrams dropped by (peer, seq) dedup

  // --- recovery aggregates (measure_recovery only; zeros elsewhere) ---
  std::int64_t repairs = 0;          ///< effective membership rebuilds
  std::int64_t rejoins = 0;          ///< revived ranks that rejoined
  std::int64_t replayed_epochs = 0;  ///< missed epochs caught up via the replay log
  std::int64_t state_transfers = 0;  ///< rejoins whose outage outran the log
  /// Epochs between the last injected fault (crash or rejoin) and the last
  /// degraded epoch — the convergence-k of DESIGN.md §4i. 0 = the service
  /// was already clean when the fault stream went quiet.
  std::int64_t epochs_to_converge = 0;

  /// Percentile over clean (non-timed-out) iteration latencies. Single
  /// empty-sample policy for every accessor below: when *every* iteration
  /// timed out (`latency_us` empty, `timeouts` == iterations) this returns
  /// 0.0 — never NaN and never a throwing percentile() call — so tables and
  /// JSON reports stay finite for fully-degraded runs. A 0 µs latency is
  /// unreachable for a real epoch, making the sentinel unambiguous next to
  /// the timeout counters.
  double clean_percentile_us(double q) const {
    return latency_us.empty() ? 0.0 : latency_us.percentile(q);
  }
  double median_us() const { return clean_percentile_us(0.5); }
  double p50_us() const { return median_us(); }
  double p95_us() const { return clean_percentile_us(0.95); }
  double p99_us() const { return clean_percentile_us(0.99); }
  double p999_us() const { return clean_percentile_us(0.999); }

  /// Delivered-send throughput of the measured loop (the scaling-table
  /// metric: epochs overlap setup and drain, so messages/s is fairer across
  /// executors than per-epoch latency alone).
  double messages_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(total_messages) / wall_seconds
                              : 0.0;
  }
};

struct HarnessOptions {
  std::int64_t warmup = 3;
  std::int64_t iterations = 20;
  std::chrono::nanoseconds epoch_timeout = std::chrono::seconds(10);
  /// measure_recovery only: epochs the sender-side replay log retains. A
  /// rejoin whose outage fits the log replays the missed epochs; a longer
  /// outage falls back to a fresh-epoch state transfer (DESIGN.md §4i).
  std::size_t replay_log_capacity = 64;
};

/// Runs `options.iterations` measured epochs (after warmup) of protocols
/// built by `factory` on `engine`.
HarnessResult measure_broadcast(Engine& engine, const ProtocolFactory& factory,
                                const HarnessOptions& options = {});

// --- Recovery harness (PR9) -------------------------------------------------

/// Builds a fresh protocol instance sized to the *live* membership. The
/// factory receives the engine's current MembershipView each epoch; when the
/// view is compacted (num_live < num_global) the harness wraps the returned
/// protocol in a RemappedProtocol so it runs over dense ranks [0, num_live)
/// while the engine keeps addressing stable global ranks.
using MembershipProtocolFactory =
    std::function<std::unique_ptr<sim::Protocol>(const MembershipView& view)>;

/// Self-healing variant of measure_broadcast for engines constructed with
/// EngineOptions::repair. At every epoch boundary the harness consumes the
/// previous epoch's degradation report, schedules revivals from the engine's
/// ChaosPlan (revive_after_ns keyed by the epoch index the crash was
/// detected in), and calls Engine::repair_membership so the next epoch runs
/// over survivors only. Rejoins are served from a bounded sender-side replay
/// log when it still covers the outage, and counted as state transfers
/// otherwise; the log is truncated at quiescence (no rank down or pending).
/// Recovery counters (repairs / rejoins / replayed_epochs / state_transfers)
/// span the whole run including warmup — a recovery soak's faults don't
/// pause for the measurement window — while latency aggregates keep the
/// usual measured-only semantics. epochs_to_converge is the convergence-k:
/// epochs between the last injected fault (crash or rejoin) and the last
/// degraded epoch.
HarnessResult measure_recovery(Engine& engine,
                               const MembershipProtocolFactory& factory,
                               const HarnessOptions& options = {});

// --- Streaming harness (PR8) -----------------------------------------------

/// Aggregate view of one Engine::run_stream execution. Latencies are
/// *sojourn* times (retire − scheduled): in the closed loop they equal
/// service times; in the open loop they additionally surface queueing
/// delay, which is the point of the open-loop mode. The empty-sample
/// policy matches HarnessResult: percentiles over clean epochs only, 0.0
/// when every epoch timed out.
struct StreamHarnessResult {
  StreamResult raw;             ///< per-epoch detail, admission order
  support::Samples sojourn_us;  ///< clean (non-timed-out) epochs only
  support::Samples service_us;  ///< retire − begin, clean epochs only
  std::int64_t epochs = 0;
  std::int64_t timeouts = 0;
  std::int64_t incomplete = 0;  ///< clean epochs leaving survivors uncolored
  std::int64_t ranks_crashed = 0;
  std::int64_t total_messages = 0;
  std::int64_t deliveries = 0;  ///< colored live ranks, summed over epochs
  double wall_seconds = 0.0;

  // --- recovery aggregates (repair-mode streams only; zeros otherwise) ---
  std::int64_t repairs = 0;          ///< membership-generation bumps
  std::int64_t rejoins = 0;          ///< revived ranks readmitted at a boundary
  std::int64_t state_transfers = 0;  ///< stream rejoins are always fresh-epoch
  /// Convergence-k over the admission-ordered epoch sequence: epochs between
  /// the last fault epoch (crash or rejoin) and the last degraded epoch.
  std::int64_t epochs_to_converge = 0;

  double clean_percentile_us(double q) const {
    return sojourn_us.empty() ? 0.0 : sojourn_us.percentile(q);
  }
  double p50_us() const { return clean_percentile_us(0.5); }
  double p99_us() const { return clean_percentile_us(0.99); }
  double p999_us() const { return clean_percentile_us(0.999); }

  /// Sustained payload deliveries per second: every live rank colored in a
  /// retired epoch counts once — the stream-throughput headline metric.
  double deliveries_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(deliveries) / wall_seconds : 0.0;
  }
  /// Completed-epoch rate, for offered-vs-achieved comparison against
  /// StreamOptions::rate.
  double achieved_rate() const {
    return wall_seconds > 0.0 ? static_cast<double>(epochs) / wall_seconds : 0.0;
  }
};

/// Runs one stream on `engine` and aggregates it.
StreamHarnessResult measure_stream(Engine& engine, const ProtocolFactory& factory,
                                   const StreamOptions& options);

}  // namespace ct::rt
