#pragma once
// Message-passing runtime — the repo's stand-in for the MPI cluster of §4.4
// (see DESIGN.md §1, §4c). It drives the very same executor-independent
// Protocol state machines as the LogP simulator, in wall-clock time over
// in-process queues. "Failed" ranks get no execution slot; messages
// addressed to them vanish without feedback — the paper's fault emulation
// ("Processes 'failed' during benchmark initialization and stayed as such
// during the whole benchmark run").
//
// The executor is an M:N scheduler (DESIGN.md §4c): N worker threads
// (default hardware_concurrency), each owning a contiguous slice of ranks
// whose state machines it steps cooperatively. Intra-shard delivery is a
// plain per-rank ring buffer (no locks — single-threaded within a shard);
// cross-shard delivery batches through a lock-free SPSC ring per ordered
// shard pair. Workers only step ranks with pending work — an active-set run
// queue replaces the full slice scan per pass. This is the path that
// reaches the paper's 36 864-rank prototype scale.
//
// An Engine is persistent: it spawns its threads once and then executes a
// sequence of epochs (benchmark iterations). Every epoch — one-shot or
// streamed — runs in a window slot through the same worker loop: a one-shot
// run_epoch is a one-epoch stream the caller waits on. Within an epoch each
// rank records its local completion time (colored + own sends drained) but
// keeps servicing deliveries — remote protocols may still need its replies —
// until every live rank has completed. Per-epoch message envelopes carry the
// epoch number so leftovers of epoch e are discarded in epoch e+1.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rt/chaos.hpp"
#include "rt/membership.hpp"
#include "sim/protocol.hpp"
#include "topology/gaps.hpp"

namespace ct::rt {

using Clock = std::chrono::steady_clock;

/// Builds a fresh protocol instance per epoch (harness iterations, stream
/// admissions).
using ProtocolFactory = std::function<std::unique_ptr<sim::Protocol>()>;

/// How a rank ended an epoch — the per-rank last-state of the degradation
/// report.
enum class RankEnd : std::uint8_t {
  kFailedAtStart,  ///< marked failed at Engine construction (no slot at all)
  kColored,        ///< live survivor, received the broadcast
  kUncolored,      ///< live survivor the protocol failed to reach
  kCrashed,        ///< killed mid-epoch by the ChaosPlan
};

/// Outcome of one epoch (one broadcast execution).
struct EpochResult {
  bool timed_out = false;
  /// Wall time from epoch start until the last live rank completed locally.
  std::int64_t completion_ns = 0;
  /// Per-rank local completion times for ranks live at epoch start (ns
  /// since epoch start); -1 for ranks that never completed (timed out or
  /// crashed mid-epoch).
  std::vector<std::int64_t> rank_completion_ns;
  /// Survivors (live, never crashed) that were never colored. With no
  /// chaos this is the old "live ranks never colored" count. Invariant:
  /// an epoch that did not time out has uncolored_live == 0 — completion
  /// requires every survivor colored.
  std::int32_t uncolored_live = 0;
  std::int64_t total_messages = 0;

  // --- chaos / degradation diagnostics (zeros when no ChaosPlan is set) ---
  std::int32_t crashed_mid_epoch = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t messages_delayed = 0;
  std::int64_t messages_duplicated = 0;
  /// Timers set by survivors that never fired before the epoch ended (a
  /// timed-out correction phase leaves these behind).
  std::int32_t timers_pending = 0;
  std::vector<topo::Rank> crashed_ranks;
  std::vector<topo::Rank> uncolored_survivors;
  /// Per-rank last-state, size P (filled for every epoch).
  std::vector<RankEnd> rank_state;
  /// Gap structure of the survivor coloring on the correction ring
  /// (crashed and failed ranks count as uncolored). Populated only for
  /// degraded epochs with at least one colored rank.
  topo::GapStats coloring_gaps;

  /// True when this epoch needed the deadline or left survivors uncolored
  /// — i.e. the result is a degradation report, not a clean measurement.
  bool degraded() const noexcept { return timed_out || uncolored_live > 0; }
};

// --- Streaming broadcast (PR8) ---------------------------------------------
// A stream is a sequence of epochs admitted through a sliding window of W
// concurrently-executing in-flight epochs, each retired by its own
// completion countdown, so epoch e+1's dissemination overlaps epoch e's
// correction tail.

struct StreamOptions {
  /// Measured epochs to admit (the whole stream; no separate warmup —
  /// callers wanting warmup run a short throwaway stream first).
  std::int64_t epochs = 64;
  /// Window size W: maximum epochs in flight. 1 = serialized epochs
  /// (admission still follows the arrival process).
  std::int32_t window = 1;
  /// Offered arrival rate in epochs/s. > 0 selects the open-loop mode:
  /// epoch i is *scheduled* at i/rate; if the window is full it queues
  /// (blocks) — epochs are never dropped, so sojourn time (retire −
  /// scheduled) surfaces the queueing delay. 0 = closed loop: each epoch
  /// is scheduled the moment a window slot frees up.
  double rate = 0.0;
  /// Per-epoch deadline, measured from the epoch's begin. A stuck epoch is
  /// force-retired (timed_out) so the stream always terminates. Clamped by
  /// EngineOptions::epoch_deadline like run_epoch's timeout.
  std::chrono::nanoseconds epoch_timeout = std::chrono::seconds(10);
  /// Record per-rank end states per epoch (parity tests); off for
  /// benchmarks — it is W·P extra copying per epoch.
  bool keep_rank_state = false;
};

/// Outcome of one streamed epoch. All times are ns since stream start.
struct StreamEpoch {
  std::int64_t epoch = 0;          ///< engine-wide epoch tag
  std::int64_t scheduled_ns = 0;   ///< arrival per the offered-rate process
  std::int64_t admitted_ns = 0;    ///< when a window slot accepted it
  std::int64_t begin_ns = 0;       ///< when Protocol::begin ran
  std::int64_t retire_ns = 0;      ///< last live rank completed (or deadline)
  bool timed_out = false;
  std::int32_t crashed = 0;        ///< mid-epoch chaos crashes
  std::int32_t uncolored = 0;      ///< live survivors never colored
  std::int64_t messages = 0;
  /// Repair mode only: ranks already dead (persisted crashes) when this
  /// epoch was admitted — excluded from the live set, not survivors and not
  /// counted in `crashed`/`uncolored`.
  std::int32_t dead_at_start = 0;
  /// Repair mode only: revived ranks that rejoined at this admission (each
  /// one a fresh-epoch state transfer; streams carry no replay log).
  std::int32_t rejoined = 0;
  std::vector<RankEnd> rank_state;  ///< filled only with keep_rank_state

  /// Open-loop sojourn: queueing delay + service time.
  std::int64_t sojourn_ns() const noexcept { return retire_ns - scheduled_ns; }
  std::int64_t service_ns() const noexcept { return retire_ns - begin_ns; }
  bool degraded() const noexcept { return timed_out || uncolored > 0; }
};

struct StreamResult {
  std::vector<StreamEpoch> epochs;  ///< in admission order
  double wall_seconds = 0.0;        ///< first admission wait to last retire collection
  /// Repair mode only: admissions at which the membership changed (deaths
  /// persisted and/or ranks revived) and the generation was bumped.
  std::int64_t repairs = 0;
};

struct EngineOptions {
  /// Worker (= shard) count; <= 0 means hardware_concurrency. Clamped to
  /// the rank count (no empty shards) and to an oversubscription cap of
  /// max(16, 8 × hardware_concurrency()) — past that, extra shards only
  /// grow the S² ring mesh and timeshare a fixed core budget.
  int workers = 0;
  /// Per-ordered-shard-pair ring capacity in envelopes, rounded up to a
  /// power of two. Mesh memory is S² × capacity × sizeof(Envelope);
  /// backpressure (staged retry) keeps any capacity correct, so small rings
  /// are safe. Must be >= 1 (constructor rejects 0).
  std::size_t mesh_capacity = 1024;
  /// Pin worker s to core (s mod hardware_concurrency()). Best effort
  /// (Linux only; silently a no-op elsewhere or on failure). With
  /// contiguous rank slices this keeps a shard's rank state and the rings
  /// it owns on the node that first touches them — the NUMA story is
  /// placement by first touch plus a stable shard→core map.
  bool pin_threads = false;
  /// Hard upper bound on any epoch's wall time; 0 = none. Combined with the
  /// per-call run_epoch timeout (the smaller positive bound wins), so chaos
  /// soaks always terminate: on expiry the engine force-quiesces and the
  /// EpochResult carries the degradation diagnostics instead of hanging.
  std::chrono::nanoseconds epoch_deadline{0};
  /// Self-healing membership (DESIGN.md §4i). Chaos crashes become
  /// *persistent*: a rank killed mid-epoch stays dead across epochs until
  /// revived, and the caller repairs the membership at epoch boundaries via
  /// Engine::repair_membership (one-shot epochs) or the stream coordinator
  /// does so at admission boundaries (run_stream). Off by default — without
  /// it every epoch starts from the constructed failure set, the pre-PR9
  /// behavior.
  bool repair = false;
};

class Engine {
 public:
  /// `failed[r] != 0` marks rank r as crashed for the engine's lifetime.
  /// Rank 0 must be alive (it roots every collective).
  Engine(topo::Rank num_procs, std::vector<char> failed, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  topo::Rank num_procs() const noexcept { return num_procs_; }
  topo::Rank live_count() const noexcept { return live_count_; }
  const EngineOptions& options() const noexcept { return options_; }
  /// OS threads the executor runs (one per shard).
  std::size_t worker_threads() const noexcept;

  /// Executes one epoch of `protocol` (freshly constructed by the caller)
  /// and returns its timing. Serializes epochs internally.
  EpochResult run_epoch(sim::Protocol& protocol, std::chrono::nanoseconds timeout);

  /// Runs a windowed epoch stream (see StreamOptions). Serializes with
  /// run_epoch — never call both concurrently. In repair mode the stream
  /// persists crashes and readmits revived ranks at admission boundaries,
  /// and membership()/generation()/live_count() reflect its final state.
  StreamResult run_stream(const ProtocolFactory& factory, const StreamOptions& options);

  /// Installs (or, with a default-constructed plan, removes) a fault-
  /// injection plan. Applies to subsequent epochs; must not be called
  /// while an epoch is running. With no plan the injection hooks compile
  /// down to a per-pass branch on two cached bools.
  void set_chaos(ChaosPlan plan);
  const ChaosPlan& chaos() const noexcept { return chaos_; }

  // --- Self-healing membership (EngineOptions::repair; DESIGN.md §4i) ----

  /// Epoch-boundary repair pass. Marks `newly_dead` (global ranks, e.g. the
  /// previous EpochResult's crashed_ranks) as persistently dead, clears the
  /// dead flag of `revived` ranks (chaos-crashed only — ranks failed at
  /// construction have no execution slot to revive), recomputes the dense
  /// survivor view and pushes the new membership + bumped generation into
  /// the executor. Returns false (and changes nothing) when the requested
  /// transition is a no-op. Must not be called while an epoch is running;
  /// throws std::logic_error unless EngineOptions::repair is set,
  /// std::invalid_argument for rank 0, out-of-range or construction-failed
  /// revivals.
  bool repair_membership(const std::vector<topo::Rank>& newly_dead,
                         const std::vector<topo::Rank>& revived);

  /// Current global->dense survivor mapping (identity until the first
  /// effective repair_membership call).
  const MembershipView& membership() const noexcept { return membership_; }
  std::int32_t generation() const noexcept { return generation_; }
  /// True when `r` holds no execution slot in the current membership
  /// (failed at construction, or crashed and persisted by a repair pass).
  bool is_dead(topo::Rank r) const {
    return dead_[static_cast<std::size_t>(r)] != 0;
  }

 private:
  topo::Rank num_procs_;
  std::vector<char> failed_;
  EngineOptions options_;
  topo::Rank live_count_ = 0;
  ChaosPlan chaos_;
  /// The persistent dead set: failed_ plus persisted chaos crashes minus
  /// revivals; equals failed_ when repair is off. The executor reads it at
  /// every admission and repair-mode streams write it. Declared before
  /// impl_ — the executor references it during destruction.
  std::vector<char> dead_;
  MembershipView membership_;
  std::int32_t generation_ = 0;
  class Impl;  // the sharded executor (engine_sharded.cpp)
  std::unique_ptr<Impl> impl_;  // last member: destroyed before the state it references
};

}  // namespace ct::rt
