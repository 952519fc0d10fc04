// The runtime executor (DESIGN.md §4c, §4f, §4h): N worker threads, each
// owning a contiguous slice of ranks whose unchanged sim::Protocol state
// machines it steps cooperatively. Intra-shard delivery lands in per-rank
// LocalFifo ring buffers (no locks — single-threaded within a shard);
// cross-shard delivery is staged per destination during a scheduling pass
// and flushed as whole batches through the Transport seam (DESIGN.md §4j),
// a lock-free SPSC ring per ordered shard pair, every kFlushQuantum steps
// and at pass end. The synchronization traffic is O(shards²) per flush for
// the whole engine, never O(messages): two uncontended cache-line publishes
// per pair.
//
// Every epoch runs in a window slot. A stream admits up to W epochs at
// once; a one-shot run_epoch admits one and waits for it to retire. Both go
// through the same worker loop, the same step_rank and the same slot state
// machine, so there is one code path to keep fast and correct.
//
// Scheduling within a shard is an active set, not a slice sweep: a run
// queue holds exactly the (virtual) ranks with pending work (seeded with
// every live rank when its epoch launches so begin()-time state is
// noticed), and delivery, timer expiry, and chaos events re-arm ranks as
// work appears. Idle ranks cost nothing per pass — at 36Ki ranks on one
// core this, not protocol cost, was the dominant term. Ranks with no queue
// entry can still owe events, so three side watch lists cover them:
// pending timers, scheduled chaos crashes, and chaos-delayed envelopes.
//
// The same loop runs one process's share of rt-udp (DESIGN.md §4j): the
// process owns one shard of the rt-sharded:w=<procs> slice layout, steps
// it on one worker thread, and moves every other shard's mail over a
// UdpTransport. The only rule that differs is when an epoch retires (see
// retire()): across processes the local countdown reports DONE to process
// 0, whose END seals the epoch everywhere. Mail for an epoch this process
// has not launched yet is held back and replayed at launch. That work runs
// once per pass or once per epoch, so the in-process path never pays it.
//
// Concurrency contract: during an epoch, protocol callbacks for rank `me`
// may only call Context::send/set_timer/mark_colored/set_rank_data for `me`
// itself — cross-rank Context writes are legal only from Protocol::begin(),
// which the coordinator runs before the epoch's slot turns active. Every
// protocol in this repo satisfies this (tests/rt_stress_test.cpp checks it
// under TSan).

#include <algorithm>
#include <atomic>
#include <barrier>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rt/engine.hpp"
#include "rt/shard_queue.hpp"
#include "rt/transport_mem.hpp"
#include "rt/udp_transport.hpp"

namespace ct::rt {

namespace {

using topo::Rank;

constexpr std::chrono::microseconds kIdleWait{50};
/// Park bound for a worker with no slot to serve. Wakeups are lossless
/// (Doorbell predicate), so this is only a safety net.
constexpr std::chrono::milliseconds kIdlePark{5};

// Per-rank-step drain bounds. Everything already in the outbox when a step
// begins is drained in full — that backlog is bounded by protocol fan-out
// (tree children, correction distance) and draining it per pass is what the
// pre-chaos engine did. What must be capped is the *chained* overflow:
// on_sent may enqueue new sends during the drain (checked correction streams
// ring probes until a stop message arrives from the other direction), and
// following that chain to the end runs O(P) sends for one rank in one step —
// O(P²) envelopes in a single scheduling pass at large P, with no receive
// ever getting a turn to stop it. A small chained allowance restores the
// simulator's pacing, where stops arrive after a handful of probes. The
// receive cap only bounds pass *latency* (work is resumed next pass),
// keeping the epoch deadline responsive.
constexpr std::size_t kMaxChainedSends = 4;
constexpr std::size_t kMaxStepReceives = 4096;

/// Steps between publishes of a shard's staged cross-shard mail inside one
/// pass. A pass may run live_ranks × W steps, and a tree edge into another
/// shard would otherwise wait for all of them while the receiving shard
/// sits parked. 64 steps still amortize the per-destination release store
/// over a batch and keep a hop's wait far below a pass (at least 1024
/// steps); the exact value is not critical (DESIGN.md §4f).
constexpr std::size_t kFlushQuantum = 64;

// rt-udp epoch control rides the same perfect links as protocol mail,
// marked by negative Message::tag values (sim::tag's well-known tags are all
// positive). src/dst hold process indices, payload the epoch, data the
// timed-out flag; the envelope tag carries the epoch like any mail.
constexpr std::int32_t kCtrlDone = -101;
constexpr std::int32_t kCtrlEnd = -102;
/// Message-flight allowance past the epoch deadline before process 0 ends
/// an epoch with DONEs still missing.
constexpr std::int64_t kCoordinatorGraceNs = 250'000'000;
/// A process with no END after twice the timeout plus this presumes process
/// 0 dead and retires the epoch as timed out, so every run terminates.
constexpr std::int64_t kWatchdogGraceNs = 500'000'000;

/// True when the 24-bit tag epoch `tagged` lies after `current`: mail for
/// an epoch this process has not launched yet.
bool ahead(std::int32_t tagged, std::int64_t current) {
  const std::uint32_t diff =
      (static_cast<std::uint32_t>(tagged) - static_cast<std::uint32_t>(current)) &
      Envelope::kEpochMask;
  return diff != 0 && diff <= (Envelope::kEpochMask >> 1);
}

}  // namespace

void finish_from_rank_state(EpochResult& epoch) {
  for (std::size_t r = 0; r < epoch.rank_state.size(); ++r) {
    if (epoch.rank_state[r] == RankEnd::kCrashed) {
      ++epoch.crashed_mid_epoch;
      epoch.crashed_ranks.push_back(static_cast<Rank>(r));
    } else if (epoch.rank_state[r] == RankEnd::kUncolored) {
      ++epoch.uncolored_live;
      epoch.uncolored_survivors.push_back(static_cast<Rank>(r));
    }
  }
  if (!epoch.degraded()) return;
  std::vector<char> survivor_colored(epoch.rank_state.size(), 0);
  bool any_colored = false;
  for (std::size_t r = 0; r < survivor_colored.size(); ++r) {
    if (epoch.rank_state[r] == RankEnd::kColored) {
      survivor_colored[r] = 1;
      any_colored = true;
    }
  }
  if (any_colored) epoch.coloring_gaps = topo::analyze_gaps(survivor_colored);
}

class Engine::Impl {
 public:
  Impl(Rank num_procs, const std::vector<char>& failed, const EngineOptions& options,
       const ProcessSlice* slice)
      : num_procs_(num_procs),
        failed_(failed),
        dead_(failed),
        live_count_(static_cast<Rank>(std::count(failed.begin(), failed.end(), 0))),
        membership_(MembershipView::identity(num_procs)),
        repair_(options.repair),
        session_barrier_(build_shards(options, slice) + 1) {
    resize_rank_state(1);
    threads_.reserve(local_shards_);
    for (std::size_t s = first_local_; s < first_local_ + local_shards_; ++s) {
      threads_.emplace_back([this, s] { worker_main(s); });
    }
  }

  ~Impl() {
    close_session();
    shutdown_.store(true, std::memory_order_release);
    session_barrier_.arrive_and_wait();  // release workers into the shutdown check
    threads_.clear();                    // join
  }

  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  /// One epoch of the caller's protocol: admitted into the open window
  /// (opened with W = 1 on first use) and waited on until it retires.
  EpochResult run_epoch(sim::Protocol& protocol, std::int64_t timeout_ns) {
    if (!session_open_) open_session(1);
    timeout_ns_ = timeout_ns;
    StreamEpoch rec;
    EpochResult result;
    drive(
        1, 0.0, [&](std::size_t w) { launch(w, protocol); },
        [&](std::size_t w, std::size_t, sim::Time origin) {
          collect(w, origin, rec, &result, false);
        });
    result.timed_out = rec.timed_out;
    result.total_messages = rec.messages;
    result.retire_ns = rec.service_ns();
    result.rank_state = std::move(rec.rank_state);
    // One process of rt-udp sees only its own slice; the parent merge
    // finishes the reassembled full-P result instead.
    if (remote_ == nullptr) finish_from_rank_state(result);
    return result;
  }

  /// Coordinator side of a stream: epoch base+i always runs in window slot
  /// (base+i) mod W, matching the delivery-side slot_of_epoch map.
  StreamResult run_stream(const ProtocolFactory& factory, const StreamOptions& options,
                          std::int64_t timeout_ns) {
    if (!session_open_ || window_ != options.window) {
      close_session();
      open_session(options.window);
    }
    timeout_ns_ = timeout_ns;

    StreamResult result;
    result.epochs.resize(static_cast<std::size_t>(options.epochs));
    const Clock::time_point wall_start = Clock::now();
    drive(
        options.epochs, options.rate,
        [&](std::size_t w) {
          StreamSlot& slot = slots_[w];
          if (repair_) {
            const Mend mended = mend();
            slot.rejoined = mended.rejoined;
            result.repairs += mended.generation_moved;
          }
          slot.owned = factory();
          launch(w, *slot.owned);
        },
        [&](std::size_t w, std::size_t index, sim::Time origin) {
          collect(w, origin, result.epochs[index], nullptr, options.keep_rank_state);
        });
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    return result;
  }

  std::size_t worker_threads() const noexcept { return threads_.size(); }

  /// Workers latch the chaos switches per session, so a new plan closes
  /// the open one; the next epoch opens a fresh session under it.
  void set_chaos(const ChaosPlan* plan) {
    close_session();
    chaos_ = plan;
  }

  /// Admission-boundary membership step (Engine::mend, DESIGN.md §4i):
  /// revive ranks whose schedule came due — each joins the fresh epoch, whose
  /// new protocol instance carries its whole state — and, if the membership
  /// changed since the last boundary, bump the generation and recompute the
  /// survivor view. Coordinator-only: workers never read the dead set, so
  /// this runs without quiescing them.
  Mend mend() {
    Mend result;
    const sim::Time at = now();
    std::size_t keep = 0;
    for (const Down& down : down_) {
      if (at >= down.revive_at_ns) {
        dead_[static_cast<std::size_t>(down.rank)] = 0;
        ++live_count_;
        ++result.rejoined;
      } else {
        down_[keep++] = down;
      }
    }
    down_.resize(keep);
    if (!membership_dirty_ && result.rejoined == 0) return result;
    membership_dirty_ = false;
    generation_ = (generation_ + 1) & 0xFF;  // 8-bit field in the envelope tag
    membership_ = MembershipView::over_survivors(dead_, generation_);
    result.generation_moved = true;
    return result;
  }

  Rank live_count() const noexcept { return live_count_; }
  std::int32_t generation() const noexcept { return generation_; }
  const MembershipView& membership() const noexcept { return membership_; }
  bool is_dead(Rank r) const { return dead_[static_cast<std::size_t>(r)] != 0; }

 private:
  struct Timer {
    sim::Time when;  ///< epoch time (SlotContext::now), not engine time
    std::int64_t id;
    bool fired = false;
  };

  /// Per-rank hot scalars, one cache line per virtual rank. A step used to
  /// touch ~eight parallel arrays — eight cache-miss streams once P outgrows
  /// the L2 — and at 16Ki–36Ki ranks those misses, not protocol work,
  /// dominated the epoch. One line holds everything a step reads or writes
  /// outside the fifo/outbox/timer payloads. alignas(64) also makes the line
  /// owner-exclusive: no false sharing across a shard boundary.
  struct alignas(64) RankCore {
    std::int64_t sends = 0;
    std::int64_t rank_data = 0;
    std::int64_t completion_ns = -1;  // engine time
    std::int64_t crash_at_ns = -1;    // engine time
    std::int64_t crash_budget = -1;
    char colored = 0;
    char completed = 0;
    char crashed = 0;
    char queued = 0;         // rank is in its shard's run_queue
    char timer_watched = 0;  // rank is on its shard's timer_watch
    /// Repair mode: this rank was already persistently dead when the slot's
    /// epoch was admitted (pre-marked crashed+completed by the coordinator)
    /// — collection reports it as failed-at-start, not as a fresh crash.
    char dead_at_start = 0;
  };
  static_assert(sizeof(RankCore) == 64);

  /// An envelope held back by the chaos layer until release_ns (engine
  /// time). Owned by the *sending* shard — the network keeps in-flight
  /// messages even if the sender crashes after the send.
  struct Delayed {
    Envelope envelope;
    std::int64_t release_ns;
  };

  /// Per-worker state. The rank slice [lo, hi) is contiguous so the rank →
  /// shard map is one division; live_ranks caches the slice minus
  /// construction failures. Cross-shard queues, parking and wakeup live
  /// behind transport_. The run queue and watch lists hold *virtual* ranks
  /// (slot·P + r).
  struct Shard {
    Shard(Rank lo_in, Rank hi_in, std::size_t num_shards)
        : lo(lo_in), hi(hi_in), staged(num_shards) {}

    Rank lo;
    Rank hi;
    std::vector<Rank> live_ranks;
    std::vector<std::vector<Envelope>> staged;  // outgoing, per destination shard
    std::vector<Delayed> delayed;               // chaos-delayed, awaiting release

    // Active-set scheduler (owner-thread only). run_queue is a FIFO with a
    // consumed prefix [0, run_head); RankCore::queued keeps membership O(1).
    std::vector<Rank> run_queue;
    std::size_t run_head = 0;
    std::vector<Rank> timer_watch;  // virtual ranks with >= 1 unfired timer
    std::vector<Rank> crash_watch;  // virtual ranks with a scheduled chaos crash

    // The epoch this shard last serviced per window slot, one entry per
    // handshake phase — comparing against StreamSlot::epoch makes each
    // phase idempotent per pass without extra atomics.
    std::vector<std::int64_t> slot_staged;
    std::vector<std::int64_t> slot_seeded;
    std::vector<std::int64_t> slot_sealed;
  };

  // --- Window slots ---------------------------------------------------------
  // W window slots, each hosting one in-flight epoch over a full virtual
  // copy of the rank state (virtual rank v = slot·P + r, arrays sized W·P).
  // A slot cycles through an atomic state machine; every transition into
  // worker-owned territory is a staged handshake so the coordinator only
  // ever touches a slot's rank state while no worker does:
  //
  //   kFree     coordinator-owned, nothing in flight
  //   kStaging  every shard resets its own slice (fifos may hold stale mail
  //             only the owner may touch), acks; last ack -> kStaged
  //   kStaged   coordinator runs begin(), seeds chaos crash schedules and
  //             repair pre-marks, arms the countdown -> kActive
  //   kActive   shards seed their run queues/watches once, then step ranks;
  //             the last completion (or the coordinator's deadline scan)
  //             CASes -> kSealing
  //   kSealing  every shard acks "no further callbacks for this slot";
  //             last ack -> kDone
  //   kDone     coordinator collects metrics, drops the protocol -> kFree
  //
  // Delivery maps an envelope to its slot by epoch mod W; a late envelope
  // of a retired epoch lands in the reused slot's fifo and is discarded by
  // the consumption-time tag filter.
  enum : std::uint32_t {
    kSlotFree = 0,
    kSlotStaging = 1,
    kSlotStaged = 2,
    kSlotActive = 3,
    kSlotSealing = 4,
    kSlotDone = 5,
  };

  class SlotContext;  // defined below (needs Impl complete)

  struct alignas(64) StreamSlot {
    std::atomic<std::uint32_t> state{kSlotFree};
    std::atomic<std::uint32_t> stage_acks{0};
    std::atomic<std::uint32_t> seal_acks{0};
    /// Live ranks still to complete; armed by the coordinator pre-kActive.
    std::atomic<std::int32_t> remaining{0};
    /// Written by whoever wins the kActive -> kSealing CAS (see seal()).
    std::atomic<std::int64_t> retire_ns{-1};
    std::atomic<bool> timed_out{false};
    /// rt-udp: this process's DONE verdict — 0 pending, 1 every local rank
    /// completed, 2 the local deadline passed. The worker reports it to
    /// process 0 once per epoch.
    std::atomic<std::uint8_t> done{0};
    // Coordinator-owned plain fields, published by the release transitions.
    // All times are engine time (Impl::now).
    std::int64_t epoch = -1;
    std::int64_t scheduled_ns = 0;
    std::int64_t admitted_ns = 0;
    std::int64_t begin_ns = 0;     // when Protocol::begin ran
    std::int64_t launch_ns = -1;   // when begin() returned; -1 while it runs
    std::int64_t deadline_ns = 0;  // 0 = none
    std::int32_t tag = 0;          // Envelope::make_tag(epoch, generation)
    std::int32_t rejoined = 0;     // repair-mode streams: mend() rejoins at launch
    sim::Protocol* protocol = nullptr;
    std::unique_ptr<sim::Protocol> owned;  // streams: the factory's instance
    std::unique_ptr<SlotContext> context;
  };

  /// The sim::Context facade handed to protocol callbacks for one window
  /// slot: rank r translates to virtual rank v = slot·P + r, and sends are
  /// stamped with the slot's tag. Its clock is the epoch's: 0 while begin()
  /// runs, then time since launch — the moment shards may step.
  class SlotContext final : public sim::Context {
   public:
    SlotContext(Impl& impl, std::size_t w) : impl_(impl), w_(w) {}

    sim::Time now() const override { return impl_.epoch_now(impl_.slots_[w_]); }
    Rank num_procs() const override { return impl_.num_procs_; }

    void send(Rank from, Rank to, sim::Tag tag, std::int64_t payload) override {
      // Queued on the sender's outbox; the shard stepping `from` delivers
      // it and then runs the on_sent callback.
      const std::size_t v = impl_.vindex(w_, from);
      impl_.outbox_[v].push_back(Envelope{
          sim::Message{.src = from, .dst = to, .tag = tag, .payload = payload,
                       .data = impl_.core_[v].rank_data},
          impl_.slots_[w_].tag});
    }
    void set_rank_data(Rank r, std::int64_t data) override {
      impl_.core_[impl_.vindex(w_, r)].rank_data = data;
    }
    std::int64_t rank_data(Rank r) const override {
      return impl_.core_[impl_.vindex(w_, r)].rank_data;
    }
    void set_timer(Rank on, sim::Time when, std::int64_t id) override {
      // No watch registration here: the caller may be the coordinator
      // (begin(), pre-kActive), which must not touch shard watch lists
      // while workers run. begin()-time timers are picked up by the owning
      // shard's seeding scan, callback-time timers by the post-step check —
      // both on the owner thread.
      impl_.timers_[impl_.vindex(w_, on)].push_back({when, id, false});
    }
    void mark_colored(Rank r) override {
      impl_.core_[impl_.vindex(w_, r)].colored = 1;
    }
    bool is_colored(Rank r) const override {
      return impl_.core_[impl_.vindex(w_, r)].colored != 0;
    }
    void note_correction_start() override {}

   private:
    Impl& impl_;
    std::size_t w_;  ///< the window slot this context translates into
  };

  /// rt-udp state of this process (remote_ is null in-process), owned by
  /// its one worker thread. The process index is first_local_, the process
  /// count shards_.size().
  struct Remote {
    UdpTransport* udp = nullptr;
    /// Mail (protocol and control) for epochs not launched here yet.
    std::vector<Envelope> holdback;
    std::int64_t done_epoch = -1;  ///< last epoch this process sent DONE for
    // Process 0: DONEs of the launched epoch, its own included.
    std::size_t dones = 0;
    bool dones_timed_out = false;
  };

  /// Carves [0, P) into contiguous slices of ceil(P / workers) ranks (rt-
  /// udp: the slice's `chunk`), builds the S² ring mesh or adopts the
  /// slice's transport, and returns the local shard count (for the
  /// barrier's participant total).
  std::ptrdiff_t build_shards(const EngineOptions& options, const ProcessSlice* slice) {
    const auto p = static_cast<std::size_t>(num_procs_);
    if (slice != nullptr) {
      chunk_ = slice->chunk;
    } else {
      const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
      std::size_t workers =
          options.workers > 0 ? static_cast<std::size_t>(options.workers) : hw;
      // Oversubscription cap (see EngineOptions::workers): shards beyond
      // this only inflate the S² mesh and timeshare the same cores. Generous
      // floor of 16 so multi-worker tests behave identically on small CI
      // hosts.
      workers = std::min(workers, std::max<std::size_t>(16, 8 * hw));
      workers = std::min(workers, p);
      chunk_ = (p + workers - 1) / workers;
    }
    // Round-up reciprocal for the delivery path's shard lookup: exact for
    // every rank and chunk below 2^32 (rank·e < 2^64 in the usual round-up
    // bound). chunk_ == 1 wraps the reciprocal to 0; shard_of branches.
    chunk_mul_ = ~std::uint64_t{0} / chunk_ + 1;
    const std::size_t num_shards = (p + chunk_ - 1) / chunk_;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const auto lo = static_cast<Rank>(s * chunk_);
      const auto hi = static_cast<Rank>(std::min(p, (s + 1) * chunk_));
      Shard& shard = shards_.emplace_back(lo, hi, num_shards);
      for (Rank r = lo; r < hi; ++r) {
        if (!failed_[static_cast<std::size_t>(r)]) shard.live_ranks.push_back(r);
      }
    }
    if (slice != nullptr) {
      remote_ = std::make_unique<Remote>();
      remote_->udp = slice->transport;
      transport_ = slice->transport;
      first_local_ = slice->self;
      local_shards_ = 1;
    } else {
      mesh_ = std::make_unique<MeshTransport>(num_shards, options.mesh_capacity);
      transport_ = mesh_.get();
      local_shards_ = num_shards;
    }
    const Shard& first = shards_[first_local_];
    const Shard& last = shards_[first_local_ + local_shards_ - 1];
    local_lo_ = first.lo;
    local_hi_ = last.hi;
    for (std::size_t s = first_local_; s < first_local_ + local_shards_; ++s) {
      local_live_ += static_cast<Rank>(shards_[s].live_ranks.size());
    }
    return static_cast<std::ptrdiff_t>(local_shards_);
  }

  /// Engine time: ns since construction. Every slot-internal timestamp
  /// (completion, crash schedule, delay release, deadline) uses it.
  sim::Time now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  /// The protocol-visible clock of a slot's epoch.
  sim::Time epoch_now(const StreamSlot& slot) const {
    return slot.launch_ns < 0 ? 0 : now() - slot.launch_ns;
  }

  std::size_t vindex(std::size_t w, Rank r) const noexcept {
    return w * static_cast<std::size_t>(num_procs_) + static_cast<std::size_t>(r);
  }
  // The W = 1 branch keeps the integer divide off one-shot epochs' per-step
  // path.
  std::size_t vslot(std::size_t v) const noexcept {
    return window_ == 1 ? 0 : v / static_cast<std::size_t>(num_procs_);
  }
  Rank vrank(std::size_t v) const noexcept {
    return static_cast<Rank>(window_ == 1 ? v : v % static_cast<std::size_t>(num_procs_));
  }
  /// Keyed by the envelope tag's 24-bit epoch field, so admission and
  /// delivery agree on the slot even after the field wraps.
  std::size_t slot_of_epoch(std::int64_t epoch) const noexcept {
    return static_cast<std::size_t>(epoch & Envelope::kEpochMask) %
           static_cast<std::size_t>(window_);
  }

  /// shard(r) = r / chunk_, strength-reduced to one high multiply — this
  /// runs once per delivered message, and the integer divide was measurable
  /// on the single-shard ladder cells.
  std::size_t shard_of(std::size_t rank) const noexcept {
    if (chunk_mul_ == 0) return rank;  // chunk_ == 1
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(rank) * chunk_mul_) >> 64);
  }

  void resize_rank_state(std::int32_t window) {
    const std::size_t total =
        static_cast<std::size_t>(window) * static_cast<std::size_t>(num_procs_);
    if (fifo_.size() >= total) return;
    fifo_.resize(total);
    outbox_.resize(total);
    timers_.resize(total);
    core_.resize(total);
    dropped_.resize(total, 0);
    delayed_stat_.resize(total, 0);
    duped_.resize(total, 0);
  }

  // --- Sessions ---------------------------------------------------------------
  // Workers run the shard loop for a whole session: the window size and the
  // chaos switches they latch stay fixed for its length. Epochs inside a
  // session synchronize through the slot handshakes only; the barrier is
  // crossed just when the window changes, the chaos plan changes, or the
  // engine shuts down.

  /// Runs with every worker parked at the session barrier.
  void open_session(std::int32_t window) {
    window_ = window;
    resize_rank_state(window);
    slots_.clear();
    for (std::size_t w = 0; w < static_cast<std::size_t>(window); ++w) {
      StreamSlot& slot = slots_.emplace_back();
      slot.context = std::make_unique<SlotContext>(*this, w);
    }
    crash_active_ = chaos_ != nullptr && chaos_->crashes_enabled();
    // rt-udp applies link verdicts per datagram inside UdpTransport, below
    // perfect links; envelope-level link chaos is the in-process model.
    link_active_ = chaos_ != nullptr && chaos_->links_enabled() && remote_ == nullptr;
    for (Shard& shard : shards_) {
      for (auto& staged : shard.staged) staged.clear();
      shard.delayed.clear();
      shard.run_queue.clear();
      shard.run_head = 0;
      shard.timer_watch.clear();
      shard.crash_watch.clear();
      shard.slot_staged.assign(static_cast<std::size_t>(window), -1);
      shard.slot_seeded.assign(static_cast<std::size_t>(window), -1);
      shard.slot_sealed.assign(static_cast<std::size_t>(window), -1);
    }
    // No rank-state sweep: staging resets each virtual rank before its slot
    // runs, and nothing reaches a slot before its first staging.
    transport_->clear();
    session_done_.store(false, std::memory_order_relaxed);
    session_barrier_.arrive_and_wait();  // workers enter shard_loop
    session_open_ = true;
  }

  void close_session() {
    if (!session_open_) return;
    session_done_.store(true, std::memory_order_release);
    wake_workers();
    session_barrier_.arrive_and_wait();  // workers leave shard_loop
    session_open_ = false;
  }

  void kick_all_shards() {
    for (std::size_t s = first_local_; s < first_local_ + local_shards_; ++s) {
      transport_->kick(s);
    }
  }

  /// Wakes workers parked on mail (transport) and on slot work (idle bell).
  void wake_workers() {
    kick_all_shards();
    idle_bell_.notify();
  }

  // --- Worker side ------------------------------------------------------------

  void worker_main(std::size_t s) {
    for (;;) {
      session_barrier_.arrive_and_wait();  // session start (or shutdown)
      if (shutdown_.load(std::memory_order_acquire)) return;
      shard_loop(s);
      session_barrier_.arrive_and_wait();  // session end
    }
  }

  /// One worker's session: scheduling passes — slot service, cross-shard
  /// drain, watch scans, bounded stepping of the active set, staged flushes
  /// — until the coordinator closes the session. An idle pass parks: on the
  /// transport while a slot is active (mail wakes it), on the idle bell
  /// otherwise (the next admission wakes it).
  void shard_loop(std::size_t s) {
    Shard& shard = shards_[s];
    // Per-pass step bound: an activation cascade (each step re-arming the
    // ranks it delivered to) may otherwise run arbitrarily long before the
    // next flush/drain/slot-service checkpoint. A full window's worth keeps
    // the pass no heavier than a sweep; leftovers stay queued in order.
    const std::size_t step_budget = std::max<std::size_t>(
        shard.live_ranks.size() * static_cast<std::size_t>(window_), 1024);
    while (!session_done_.load(std::memory_order_acquire)) {
      bool progress = service_slots(shard);
      progress |=
          remote_ != nullptr ? drain_remote(s, shard) : drain_cross_shard(s, shard);

      const sim::Time pass_now = now();
      if (link_active_ && !shard.delayed.empty()) {
        progress |= release_delayed(s, shard, pass_now);
      }
      if (crash_active_ && !shard.crash_watch.empty()) {
        progress |= scan_crash_watch(shard, pass_now);
      }
      if (!shard.timer_watch.empty()) {
        progress |= scan_timer_watch(shard, pass_now);
      }

      std::size_t stepped = 0;
      while (shard.run_head < shard.run_queue.size() && stepped < step_budget) {
        // Publish mid-pass, drain at pass start only: a mid-pass drain lets
        // more orderings reach the correction phase's sweep-skip rule, which
        // can leave a rank uncolored (DESIGN.md §4f, the correction-skip
        // hazard).
        if (stepped != 0 && stepped % kFlushQuantum == 0) {
          progress |= flush_staged(s, shard);
        }
        const Rank vr = shard.run_queue[shard.run_head++];
        const auto v = static_cast<std::size_t>(vr);
        core_[v].queued = 0;
        ++stepped;
        StreamSlot& slot = slots_[vslot(v)];
        // Stale entry (slot sealed, retired, or restaged since queueing):
        // skip without re-arming. Re-checked per step, so a deadline seal
        // cuts even a long pass short.
        if (slot.state.load(std::memory_order_acquire) != kSlotActive) continue;
        progress |= step_rank(s, shard, v, slot, pass_now);
        // Receive/chained-send caps can leave backlog behind; re-arm so the
        // rank resumes without waiting for fresh mail.
        if (!fifo_[v].empty() || !outbox_[v].empty()) activate(shard, vr);
      }
      if (shard.run_head > 0) {
        if (shard.run_head == shard.run_queue.size()) {
          shard.run_queue.clear();
        } else {
          shard.run_queue.erase(
              shard.run_queue.begin(),
              shard.run_queue.begin() + static_cast<std::ptrdiff_t>(shard.run_head));
        }
        shard.run_head = 0;
      }
      // A budget-cut pass must not park on top of runnable work.
      progress |= !shard.run_queue.empty();

      if (remote_ != nullptr) progress |= service_remote(shard, pass_now);
      progress |= flush_staged(s, shard);

      if (progress) continue;
      if (remote_ != nullptr) {
        // Always on the socket: acks and retransmits are due between
        // epochs too, and the transport's kick wakes poll(2).
        transport_->park(s, any_slot_active() ? kIdleWait : kIdlePark);
      } else if (any_slot_active()) {
        transport_->park(s, kIdleWait);
      } else {
        idle_bell_.wait(kIdlePark, [&] {
          return session_done_.load(std::memory_order_acquire) || slots_need(shard);
        });
      }
    }
  }

  bool any_slot_active() const {
    for (const StreamSlot& slot : slots_) {
      if (slot.state.load(std::memory_order_acquire) == kSlotActive) return true;
    }
    return false;
  }

  /// Idle-park predicate: does any slot wait on this shard? Reading
  /// slot.epoch under kSlotStaging is safe for the reason service_slots
  /// gives.
  bool slots_need(const Shard& shard) const {
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      const StreamSlot& slot = slots_[w];
      const std::uint32_t state = slot.state.load(std::memory_order_acquire);
      if (state == kSlotActive ||
          (state == kSlotStaging && shard.slot_staged[w] != slot.epoch) ||
          (state == kSlotSealing && shard.slot_sealed[w] != shard.slot_staged[w])) {
        return true;
      }
    }
    return false;
  }

  /// Per-pass slot service: stage resets, seed fresh actives, ack seals.
  /// Runs before the step loop so stale run-queue entries of a slot being
  /// restaged are popped only after its state says so.
  bool service_slots(Shard& shard) {
    bool any = false;
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      StreamSlot& slot = slots_[w];
      const std::uint32_t state = slot.state.load(std::memory_order_acquire);
      // Only the kSlotStaging branch may read slot.epoch: the admission
      // write happens-before the kSlotStaging release store, and the next
      // admission write needs this shard's seal ack first. The later
      // branches compare against shard.slot_staged[w] — this shard's own
      // durable record of the staged epoch (staging runs on every shard
      // before launch) — because a pass that observes kSlotSealing *after*
      // this shard already acked is unordered against the coordinator
      // re-admitting the slot, so reading slot.epoch there would race.
      if (state == kSlotStaging && shard.slot_staged[w] != slot.epoch) {
        stage_slice(shard, w, slot);
        any = true;
      } else if (state == kSlotActive &&
                 shard.slot_seeded[w] != shard.slot_staged[w]) {
        seed_slice(shard, w);
        any = true;
      } else if (state == kSlotSealing &&
                 shard.slot_sealed[w] != shard.slot_staged[w]) {
        // Ack point: this shard runs no further callbacks for this slot's
        // epoch (every callback site re-checks the state first).
        shard.slot_sealed[w] = shard.slot_staged[w];
        if (slot.seal_acks.fetch_add(1, std::memory_order_acq_rel) + 1 == local_shards_) {
          slot.state.store(kSlotDone, std::memory_order_release);
          coordinator_bell_.notify();
        }
        any = true;
      }
    }
    return any;
  }

  /// kStaging: this shard resets its own slice of the slot — the fifos may
  /// hold stale mail only the owner may touch — then acks. The last ack
  /// hands the slot to the coordinator (kStaged).
  void stage_slice(Shard& shard, std::size_t w, StreamSlot& slot) {
    shard.slot_staged[w] = slot.epoch;
    for (Rank r = shard.lo; r < shard.hi; ++r) {
      const std::size_t v = vindex(w, r);
      fifo_[v].clear();
      outbox_[v].clear();
      timers_[v].clear();
      core_[v] = RankCore{};
      if (link_active_) {
        dropped_[v] = 0;
        delayed_stat_[v] = 0;
        duped_[v] = 0;
      }
    }
    purge_slot_watch(shard.timer_watch, w);
    purge_slot_watch(shard.crash_watch, w);
    if (slot.stage_acks.fetch_add(1, std::memory_order_acq_rel) + 1 == local_shards_) {
      slot.state.store(kSlotStaged, std::memory_order_release);
      coordinator_bell_.notify();
    }
  }

  /// Drops list entries belonging to window slot `w` (their dedup flags
  /// were just reset by the staging pass).
  void purge_slot_watch(std::vector<Rank>& list, std::size_t w) {
    std::size_t keep = 0;
    for (const Rank v : list) {
      if (vslot(static_cast<std::size_t>(v)) != w) list[keep++] = v;
    }
    list.resize(keep);
  }

  /// First kActive sighting: arm the run queue and watch lists for this
  /// shard's slice — begin()-time outboxes, timers and crash schedules must
  /// be noticed even if no mail ever arrives for a rank.
  void seed_slice(Shard& shard, std::size_t w) {
    shard.slot_seeded[w] = shard.slot_staged[w];  // == slot.epoch, raceless
    for (const Rank r : shard.live_ranks) {
      const std::size_t v = vindex(w, r);
      activate(shard, static_cast<Rank>(v));
      if (!timers_[v].empty() && !core_[v].timer_watched) {
        core_[v].timer_watched = 1;
        shard.timer_watch.push_back(static_cast<Rank>(v));
      }
      if (crash_active_ && core_[v].crash_at_ns >= 0) {
        shard.crash_watch.push_back(static_cast<Rank>(v));
      }
    }
    if (remote_ != nullptr) start_remote_epoch(shard);
  }

  /// Adds virtual rank `v` (owned by `shard`) to the active set if absent.
  void activate(Shard& shard, Rank v) {
    RankCore& core = core_[static_cast<std::size_t>(v)];
    if (!core.queued) {
      core.queued = 1;
      shard.run_queue.push_back(v);
    }
  }

  /// Steps one virtual rank: pending receives, then the send queue (on_sent
  /// may extend it; the index loop keeps draining), then due timers, then
  /// the completion check. Completed ranks keep being stepped — remote
  /// protocols may still need their replies — until the epoch retires.
  bool step_rank(std::size_t s, Shard& shard, std::size_t v, StreamSlot& slot,
                 sim::Time pass_now) {
    const Rank me = vrank(v);
    RankCore& core = core_[v];
    if (core.crashed) {
      // A dead rank's fifo still receives traffic (delivery only drops
      // construction failures — crash state is owner-local, never read
      // cross-thread). Discard it so the ring stays bounded.
      fifo_[v].clear();
      return false;
    }
    if (crash_active_ && core.crash_at_ns >= 0 && pass_now >= core.crash_at_ns) {
      crash_rank(v, slot);
      return true;
    }

    bool progress = false;
    const std::int32_t etag = slot.tag;
    LocalFifo& fifo = fifo_[v];
    Envelope envelope;
    std::size_t received = 0;
    while (received < kMaxStepReceives && fifo.pop(envelope)) {
      progress = true;
      ++received;
      if (envelope.tag() == etag) {
        slot.protocol->on_receive(*slot.context, me, envelope.msg);
      }
    }
    auto& outbox = outbox_[v];
    if (!outbox.empty()) {
      progress = true;
      // Full drain of the entry backlog plus a bounded chained allowance.
      const std::size_t limit = outbox.size() + kMaxChainedSends;
      std::size_t i = 0;
      for (; i < outbox.size() && i < limit; ++i) {
        if (crash_active_ && core.crash_budget >= 0 && core.sends >= core.crash_budget) {
          // Step-count crash: the unsent outbox tail dies with the rank.
          crash_rank(v, slot);
          return true;
        }
        ++core.sends;
        // Delivery reads the envelope in place — deliver/deliver_chaos never
        // touch this rank's outbox. Only on_sent can grow (and reallocate)
        // it, so only the 32-byte message it needs is copied to the stack.
        if (link_active_) {
          deliver_chaos(s, shard, v, slot.epoch, outbox[i], pass_now);
        } else {
          deliver(s, shard, outbox[i]);
        }
        const sim::Message sent = outbox[i].msg;
        slot.protocol->on_sent(*slot.context, me, sent);
      }
      if (i == outbox.size()) {
        outbox.clear();
      } else {
        // Chain cap hit: keep the unsent tail for the next pass so receives
        // (and their stop conditions) get a turn first.
        outbox.erase(outbox.begin(), outbox.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }

    auto& timers = timers_[v];
    if (!timers.empty()) {
      progress |= fire_due_timers(slot, me, timers, pass_now);
      // Callback-time set_timer skips watch registration (see
      // SlotContext::set_timer); cover it here on the owner thread.
      if (!core.timer_watched) {
        for (const Timer& timer : timers) {
          if (!timer.fired) {
            core.timer_watched = 1;
            shard.timer_watch.push_back(static_cast<Rank>(v));
            break;
          }
        }
      }
    }

    if (!core.completed && core.colored && outbox.empty()) {
      core.completed = 1;
      core.completion_ns = now();
      credit_completion(slot);
    }
    return progress;
  }

  /// Same-shard destinations go straight into the rank's LocalFifo (and
  /// onto the active set); other shards' traffic is staged per destination
  /// and flushed every kFlushQuantum steps and at pass end. The slot is
  /// keyed by the envelope's epoch, so a late envelope of a retired epoch
  /// lands in the reused slot's fifo and dies at the consumption-time tag
  /// filter. Failed destinations are dropped, indistinguishable from
  /// success.
  void deliver(std::size_t s, Shard& shard, const Envelope& envelope) {
    const auto dst = static_cast<std::size_t>(envelope.msg.dst);
    if (failed_[dst]) return;
    const std::size_t dest_shard = shard_of(dst);
    if (dest_shard == s) {
      const std::size_t v = vindex(slot_of_epoch(envelope.epoch()), envelope.msg.dst);
      fifo_[v].push(envelope);
      activate(shard, static_cast<Rank>(v));
    } else {
      shard.staged[dest_shard].push_back(envelope);
    }
  }

  /// Chaos-audited delivery: consults the plan once per send (the verdict
  /// is a pure hash — no shared RNG state between workers) and drops,
  /// duplicates, delays, or forwards the envelope.
  void deliver_chaos(std::size_t s, Shard& shard, std::size_t v, std::int64_t epoch,
                     const Envelope& envelope, sim::Time pass_now) {
    const ChaosPlan::Verdict verdict =
        chaos_->classify(epoch, envelope.msg.src, core_[v].sends);
    if (verdict.drop) {
      ++dropped_[v];
      return;  // on_sent still fires at the caller: the paper's fail-stop
               // semantics — a lost message is indistinguishable from a
               // delivered one at the sender.
    }
    if (verdict.delay_ns > 0) {
      ++delayed_stat_[v];
      shard.delayed.push_back(Delayed{envelope, pass_now + verdict.delay_ns});
      return;
    }
    deliver(s, shard, envelope);
    if (verdict.duplicate) {
      ++duped_[v];
      deliver(s, shard, envelope);
    }
  }

  /// Forwards chaos-delayed envelopes whose release time has come. The
  /// surviving tail is compacted in place, preserving order.
  bool release_delayed(std::size_t s, Shard& shard, sim::Time pass_now) {
    bool any = false;
    std::size_t keep = 0;
    for (Delayed& d : shard.delayed) {
      if (d.release_ns <= pass_now) {
        any = true;
        deliver(s, shard, d.envelope);
      } else {
        shard.delayed[keep++] = d;
      }
    }
    shard.delayed.resize(keep);
    return any;
  }

  /// Claims pending cross-shard mail from the transport in one batch,
  /// delivers it into the per-rank fifos of the envelope's slot, and
  /// activates the receivers. Envelopes go straight from the transport's
  /// queue slot into the destination fifo through the sink (one 32-byte
  /// copy plus a predicted indirect call); the poll itself is one virtual
  /// call per pass.
  bool drain_cross_shard(std::size_t s, Shard& shard) {
    auto sink = [&](const Envelope& envelope) { land(shard, envelope); };
    return transport_->poll_into(s, EnvelopeSink(sink)) > 0;
  }

  void land(Shard& shard, const Envelope& envelope) {
    const std::size_t v = vindex(slot_of_epoch(envelope.epoch()), envelope.msg.dst);
    fifo_[v].push(envelope);
    activate(shard, static_cast<Rank>(v));
  }

  // --- rt-udp: one process's share (W = 1 lockstep, slot 0) -------------------

  /// The rt-udp drain: every envelope passes route_remote.
  bool drain_remote(std::size_t s, Shard& shard) {
    auto sink = [&](const Envelope& envelope) { route_remote(shard, envelope); };
    return transport_->poll_into(s, EnvelopeSink(sink)) > 0;
  }

  /// Mail for an epoch not launched here yet waits in the holdback (UDP
  /// gives no ordering between END and a faster peer's next-epoch mail);
  /// control of the launched epoch is acted on, stale control dropped;
  /// protocol mail lands as in-process, stale mail dying at the tag filter.
  void route_remote(Shard& shard, const Envelope& envelope) {
    const std::int64_t launched = shard.slot_seeded[0];
    if (ahead(envelope.epoch(), launched)) {
      remote_->holdback.push_back(envelope);
    } else if (envelope.msg.tag >= 0) {
      land(shard, envelope);
    } else if (envelope.msg.payload == launched) {
      on_control(envelope);
    }
  }

  /// DONE (process 0 only) counts toward the END; END seals the slot.
  void on_control(const Envelope& envelope) {
    if (envelope.msg.tag == kCtrlDone) {
      ++remote_->dones;
      remote_->dones_timed_out = remote_->dones_timed_out || envelope.msg.data != 0;
    } else {
      seal(slots_[0], envelope.msg.data != 0, now());
    }
  }

  void send_control(Shard& shard, std::size_t to, std::int32_t kind, std::int64_t epoch,
                    bool timed_out) {
    const Envelope envelope{
        sim::Message{.src = static_cast<Rank>(first_local_),
                     .dst = static_cast<Rank>(to), .tag = kind, .payload = epoch,
                     .data = timed_out ? 1 : 0},
        Envelope::make_tag(epoch, generation_)};
    if (to == first_local_) {
      on_control(envelope);
    } else {
      shard.staged[to].push_back(envelope);
    }
  }

  /// Once per epoch, at the first kActive sighting: a fresh DONE tally, the
  /// epoch as the datagram chaos verdicts' domain, and the held-back mail
  /// replayed (entries still ahead stay held).
  void start_remote_epoch(Shard& shard) {
    Remote& remote = *remote_;
    remote.dones = 0;
    remote.dones_timed_out = false;
    remote.udp->set_epoch(shard.slot_seeded[0]);
    std::vector<Envelope> held;
    held.swap(remote.holdback);
    for (const Envelope& envelope : held) route_remote(shard, envelope);
  }

  /// Once per pass: report this process's DONE verdict to process 0. Process
  /// 0 ends the epoch everywhere once every DONE arrived or the deadline
  /// grace ran out; elsewhere a watchdog retires an epoch whose END never
  /// comes.
  bool service_remote(Shard& shard, sim::Time pass_now) {
    StreamSlot& slot = slots_[0];
    const std::int64_t epoch = shard.slot_seeded[0];
    // Seeded and still active: the slot's plain fields are stable until this
    // worker acks the seal.
    if (epoch != shard.slot_staged[0] ||
        slot.state.load(std::memory_order_acquire) != kSlotActive) {
      return false;
    }
    Remote& remote = *remote_;
    bool progress = false;
    const std::uint8_t done = slot.done.load(std::memory_order_acquire);
    if (done != 0 && remote.done_epoch != epoch) {
      remote.done_epoch = epoch;
      send_control(shard, 0, kCtrlDone, epoch, done == 2);
      progress = true;
    }
    const bool bounded = slot.deadline_ns > 0;
    if (first_local_ != 0) {
      if (bounded &&
          pass_now > 2 * slot.deadline_ns - slot.launch_ns + kWatchdogGraceNs) {
        progress |= seal(slot, true, pass_now);  // process 0 presumed dead
      }
      return progress;
    }
    const bool all = remote.dones == shards_.size();
    if (all || (bounded && pass_now > slot.deadline_ns + kCoordinatorGraceNs)) {
      // END retires the epoch and admits the next: no separate BEGIN.
      const bool timed_out = !all || remote.dones_timed_out;
      for (std::size_t k = 1; k < shards_.size(); ++k) {
        send_control(shard, k, kCtrlEnd, epoch, timed_out);
      }
      seal(slot, timed_out, now());  // the END time is rt-udp's latency
      progress = true;
    }
    return progress;
  }

  /// One batch publish per destination shard with staged traffic — a single
  /// send_batch call on the transport (one release store on the pair's
  /// ring). A full ring accepts a prefix; the leftover stays staged in order
  /// and is retried at the next flush, preserving per-sender FIFO, so the
  /// chained-send bound and the epoch deadline hold under any capacity.
  bool flush_staged(std::size_t s, Shard& shard) {
    bool any = false;
    const std::size_t num_shards = shards_.size();
    for (std::size_t d = 0; d < num_shards; ++d) {
      std::vector<Envelope>& staged = shard.staged[d];
      if (staged.empty()) continue;
      const std::size_t accepted =
          transport_->send_batch(s, d, staged.data(), staged.size());
      if (accepted == staged.size()) {
        staged.clear();
      } else if (accepted > 0) {
        staged.erase(staged.begin(), staged.begin() + static_cast<std::ptrdiff_t>(accepted));
      }
      any |= accepted > 0;
    }
    transport_->flush(s);
    return any;
  }

  /// Index loop: on_timer may call set_timer and grow the vector mid-scan.
  bool fire_due_timers(StreamSlot& slot, Rank me, std::vector<Timer>& timers,
                       sim::Time pass_now) {
    const sim::Time due = pass_now - slot.launch_ns;  // epoch time
    bool fired = false;
    for (std::size_t i = 0; i < timers.size(); ++i) {
      if (!timers[i].fired && timers[i].when <= due) {
        timers[i].fired = true;
        fired = true;
        slot.protocol->on_timer(*slot.context, me, timers[i].id);
      }
    }
    return fired;
  }

  /// Fires due timers for watched ranks and compacts the watch list down to
  /// ranks that still owe one. Index loop: on_timer may set a new timer,
  /// which appends to this very list.
  bool scan_timer_watch(Shard& shard, sim::Time pass_now) {
    bool any = false;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < shard.timer_watch.size(); ++i) {
      const Rank vr = shard.timer_watch[i];
      const auto v = static_cast<std::size_t>(vr);
      StreamSlot& slot = slots_[vslot(v)];
      if (slot.state.load(std::memory_order_acquire) != kSlotActive || core_[v].crashed) {
        core_[v].timer_watched = 0;  // retired/sealed slot or dead rank: stale
        continue;
      }
      auto& timers = timers_[v];
      if (fire_due_timers(slot, vrank(v), timers, pass_now)) {
        any = true;
        activate(shard, vr);  // the handler may have queued sends
      }
      bool pending = false;
      for (const Timer& timer : timers) {
        if (!timer.fired) {
          pending = true;
          break;
        }
      }
      if (pending) {
        shard.timer_watch[keep++] = vr;
      } else {
        core_[v].timer_watched = 0;
      }
    }
    shard.timer_watch.resize(keep);
    return any;
  }

  /// Triggers due scheduled chaos crashes — these must fire even for ranks
  /// with no queue entry, or an idle victim would survive and the
  /// completion countdown would hang on it.
  bool scan_crash_watch(Shard& shard, sim::Time pass_now) {
    bool any = false;
    std::size_t keep = 0;
    for (const Rank vr : shard.crash_watch) {
      const auto v = static_cast<std::size_t>(vr);
      StreamSlot& slot = slots_[vslot(v)];
      if (slot.state.load(std::memory_order_acquire) != kSlotActive) continue;
      if (core_[v].crashed) continue;  // a send-budget crash already took it
      if (pass_now >= core_[v].crash_at_ns) {
        crash_rank(v, slot);
        any = true;
        continue;
      }
      shard.crash_watch[keep++] = vr;
    }
    shard.crash_watch.resize(keep);
    return any;
  }

  /// Kills a rank mid-epoch: its pending work vanishes, but it still
  /// credits the completion countdown so no surviving peer waits on it.
  /// completion_ns stays -1 — the rank never completed, it died.
  void crash_rank(std::size_t v, StreamSlot& slot) {
    core_[v].crashed = 1;
    outbox_[v].clear();
    timers_[v].clear();
    fifo_[v].clear();
    if (!core_[v].completed) {
      core_[v].completed = 1;
      credit_completion(slot);
    }
  }

  /// Completion credit for one live virtual rank (completed or crashed).
  /// The last credit retires the epoch.
  void credit_completion(StreamSlot& slot) {
    if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      retire(slot, /*timed_out=*/false);
    }
  }

  /// When an epoch retires — the one decision the two executors make
  /// differently. Fed by the last completion credit and by the
  /// coordinator's deadline scan (timed_out). In-process it seals the slot
  /// on the spot. On rt-udp it records this process's DONE verdict, which
  /// the worker reports to process 0 on its next pass; the slot seals when
  /// END comes back. Returns whether the call changed anything; a
  /// coordinator-side caller then wakes the worker.
  bool retire(StreamSlot& slot, bool timed_out) {
    if (remote_ == nullptr) return seal(slot, timed_out, now());
    std::uint8_t pending = 0;
    return slot.done.compare_exchange_strong(pending, timed_out ? 2 : 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed);
  }

  /// kActive -> kSealing. Only the CAS winner — last credit, deadline scan,
  /// END or watchdog — stamps the retire time and verdict; the seal-ack
  /// chain publishes both to the coordinator's collect. In-process the
  /// other shards must ack, so they are woken; rt-udp seals only on its one
  /// worker, which acks on its next pass.
  bool seal(StreamSlot& slot, bool timed_out, sim::Time at) {
    std::uint32_t expected = kSlotActive;
    if (!slot.state.compare_exchange_strong(expected, kSlotSealing,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
      return false;
    }
    slot.retire_ns.store(at, std::memory_order_relaxed);
    slot.timed_out.store(timed_out, std::memory_order_relaxed);
    if (remote_ == nullptr) {
      wake_workers();
      coordinator_bell_.notify();
    }
    return true;
  }

  // --- Coordinator side -------------------------------------------------------

  /// The admission/collection loop behind both run_epoch and run_stream:
  /// admits `epochs` epochs at `rate` (0 = closed loop) through the open
  /// window, calls `start(w)` for each slot every shard has staged (it must
  /// end in launch()), force-retires epochs past their deadline, and hands
  /// every retired slot to `retired(w, index, origin)` before freeing it.
  template <class Start, class Retired>
  void drive(std::int64_t epochs, double rate, Start&& start, Retired&& retired) {
    const std::int64_t base_epoch = epoch_ + 1;
    const double interval_ns = rate > 0.0 ? 1e9 / rate : 0.0;
    const sim::Time origin = now();
    std::int64_t admitted = 0;
    std::int64_t collected = 0;

    while (collected < epochs) {
      bool progress = false;

      // Collect retired epochs (any slot, any completion order).
      for (std::size_t w = 0; w < slots_.size(); ++w) {
        StreamSlot& slot = slots_[w];
        if (slot.state.load(std::memory_order_acquire) != kSlotDone) continue;
        retired(w, static_cast<std::size_t>(slot.epoch - base_epoch), origin);
        slot.protocol = nullptr;
        slot.owned.reset();
        slot.state.store(kSlotFree, std::memory_order_release);
        ++collected;
        progress = true;
      }

      // Deadline scan: force-retire stuck epochs so every call terminates.
      if (timeout_ns_ > 0) {
        const sim::Time scan_now = now();
        for (StreamSlot& slot : slots_) {
          if (slot.state.load(std::memory_order_acquire) != kSlotActive) continue;
          if (scan_now <= slot.deadline_ns) continue;
          if (retire(slot, /*timed_out=*/true)) {
            wake_workers();
            progress = true;
          }
        }
      }

      // Launch any slot whose staging reset all shards have acked.
      for (std::size_t w = 0; w < slots_.size(); ++w) {
        if (slots_[w].state.load(std::memory_order_acquire) != kSlotStaged) continue;
        try {
          start(w);
        } catch (...) {
          // A throwing factory or begin() strands slots mid-handshake: drop
          // the window so the next call opens a fresh session, with epoch
          // numbers the shards have not staged yet.
          epoch_ = base_epoch + admitted - 1;
          close_session();
          throw;
        }
        progress = true;
      }

      // Admit the next epoch once its arrival is due and its slot is free.
      // A full window *blocks* admission (epochs queue, never drop) — that
      // queueing delay is exactly what open-loop sojourn times surface.
      if (admitted < epochs) {
        const std::int64_t epoch = base_epoch + admitted;
        StreamSlot& slot = slots_[slot_of_epoch(epoch)];
        const std::int64_t due_ns =
            origin + static_cast<std::int64_t>(static_cast<double>(admitted) * interval_ns);
        if ((interval_ns == 0.0 || now() >= due_ns) &&
            slot.state.load(std::memory_order_acquire) == kSlotFree) {
          slot.epoch = epoch;
          slot.admitted_ns = now();
          slot.scheduled_ns = interval_ns > 0.0 ? due_ns : slot.admitted_ns;
          slot.stage_acks.store(0, std::memory_order_relaxed);
          slot.seal_acks.store(0, std::memory_order_relaxed);
          slot.remaining.store(0, std::memory_order_relaxed);
          slot.retire_ns.store(-1, std::memory_order_relaxed);
          slot.timed_out.store(false, std::memory_order_relaxed);
          slot.done.store(0, std::memory_order_relaxed);
          slot.rejoined = 0;
          slot.state.store(kSlotStaging, std::memory_order_release);
          wake_workers();
          ++admitted;
          progress = true;
        }
      }

      if (!progress) {
        // Bounded park: the deadline scan and open-loop arrivals need the
        // coordinator back within kIdleWait even without a notify. rt-udp
        // admits no open-loop arrivals and retires through DONE/END at the
        // socket's millisecond granularity, so its processes park longer
        // instead of waking 20k times a second each.
        coordinator_bell_.wait(remote_ != nullptr ? kIdlePark : kIdleWait, [&] {
          for (const StreamSlot& slot : slots_) {
            const std::uint32_t state = slot.state.load(std::memory_order_acquire);
            if (state == kSlotDone || state == kSlotStaged) return true;
          }
          return false;
        });
      }
    }
    epoch_ = base_epoch + epochs - 1;
  }

  /// kStaged → kActive: the coordinator owns the slot here — every shard
  /// has acked the staging reset, no worker touches the slot's rank state
  /// until the kActive release-store publishes everything written below.
  void launch(std::size_t w, sim::Protocol& protocol) {
    StreamSlot& slot = slots_[w];
    slot.protocol = &protocol;
    slot.begin_ns = now();
    slot.launch_ns = -1;  // begin() sees epoch time 0
    if (repair_) {
      // Ranks already dead at admission become corpses of this slot: they
      // complete and discard their mail without ever stepping a protocol.
      // Epochs already in flight keep the membership they were admitted
      // with.
      for (Rank r = 0; r < num_procs_; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (failed_[ri] || !dead_[ri]) continue;
        RankCore& core = core_[vindex(w, r)];
        core.dead_at_start = 1;
        core.crashed = 1;
        core.completed = 1;
      }
    }
    if (remote_ != nullptr) reset_foreign_ranks(w);
    slot.tag = Envelope::make_tag(slot.epoch, generation_);
    slot.protocol->begin(*slot.context);
    slot.launch_ns = now();
    slot.deadline_ns = timeout_ns_ > 0 ? slot.launch_ns + timeout_ns_ : 0;
    if (crash_active_) {
      for (Rank r = local_lo_; r < local_hi_; ++r) {
        const std::size_t v = vindex(w, r);
        if (failed_[static_cast<std::size_t>(r)] || core_[v].dead_at_start) continue;
        const std::int64_t at = chaos_->crash_ns(slot.epoch, r);
        core_[v].crash_at_ns = at >= 0 ? slot.launch_ns + at : -1;
        core_[v].crash_budget = chaos_->crash_send_budget(r);
      }
    }
    const Rank countdown = remote_ != nullptr ? local_live_ : live_count_;
    slot.remaining.store(countdown, std::memory_order_relaxed);
    slot.state.store(kSlotActive, std::memory_order_release);
    if (countdown == 0) retire(slot, /*timed_out=*/false);  // a slice of failed ranks
    wake_workers();
  }

  /// rt-udp: ranks other processes own are never stepped here. Reset them
  /// before begin() as staging resets the local slice, so begin() sees the
  /// same fresh state everywhere; the sends and timers it then gives them
  /// are never run here (their owner emits that traffic) and go at the next
  /// launch.
  void reset_foreign_ranks(std::size_t w) {
    auto reset = [&](Rank lo, Rank hi) {
      for (Rank r = lo; r < hi; ++r) {
        const std::size_t v = vindex(w, r);
        outbox_[v].clear();
        timers_[v].clear();
        core_[v] = RankCore{};
      }
    };
    reset(0, local_lo_);
    reset(local_hi_, num_procs_);
  }

  /// kDone: all shards acked the seal, so the seal-ack chain's acq_rel
  /// fetch_adds give the coordinator a happens-after edge over every worker
  /// write to this slot's slice. Fills `rec` (times relative to `origin`)
  /// and, for one-shot epochs, the per-rank detail of `full`. In repair
  /// mode it also persists this epoch's crashes for the next mend().
  void collect(std::size_t w, sim::Time origin, StreamEpoch& rec, EpochResult* full,
               bool keep_rank_state) {
    StreamSlot& slot = slots_[w];
    rec.epoch = slot.epoch;
    rec.scheduled_ns = slot.scheduled_ns - origin;
    rec.admitted_ns = slot.admitted_ns - origin;
    rec.begin_ns = slot.begin_ns - origin;
    rec.retire_ns = slot.retire_ns.load(std::memory_order_relaxed) - origin;
    rec.timed_out = slot.timed_out.load(std::memory_order_relaxed);
    rec.rejoined = slot.rejoined;
    const bool keep_state = keep_rank_state || full != nullptr;
    // rt-udp: only the local slice is this process's to report; the rest
    // stays kFailedAtStart here and is filled in by the parent merge.
    if (keep_state) rec.rank_state.resize(static_cast<std::size_t>(num_procs_));
    for (Rank r = local_lo_; r < local_hi_; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const std::size_t v = vindex(w, r);
      const RankCore& core = core_[v];
      if (failed_[ri] || core.dead_at_start) {
        // Failed at construction or dead before this epoch was admitted:
        // no execution slot, not a survivor, not a fresh crash.
        if (!failed_[ri]) ++rec.dead_at_start;
        if (keep_state) rec.rank_state[ri] = RankEnd::kFailedAtStart;
        continue;
      }
      rec.messages += core.sends;
      if (full != nullptr) {
        const std::int64_t done =
            core.completion_ns < 0 ? -1 : core.completion_ns - slot.launch_ns;
        full->rank_completion_ns.push_back(done);
        full->completion_ns = std::max(full->completion_ns, done);
        if (link_active_) {
          full->messages_dropped += dropped_[v];
          full->messages_delayed += delayed_stat_[v];
          full->messages_duplicated += duped_[v];
        }
      }
      if (core.crashed) {
        ++rec.crashed;
        if (keep_state) rec.rank_state[ri] = RankEnd::kCrashed;
        if (repair_ && !dead_[ri]) {
          // Persist the death and draw its revive schedule, keyed by the
          // epoch the rank crashed in (the ChaosPlan determinism contract).
          // Schedules that never fire are not tracked: the rank simply
          // stays dead.
          dead_[ri] = 1;
          --live_count_;
          membership_dirty_ = true;
          const std::int64_t delay = chaos_->revive_after_ns(rec.epoch, r);
          if (delay >= 0) down_.push_back(Down{r, now() + delay});
        }
        continue;
      }
      if (!core.colored) {
        ++rec.uncolored;
        if (keep_state) rec.rank_state[ri] = RankEnd::kUncolored;
      } else if (keep_state) {
        rec.rank_state[ri] = RankEnd::kColored;
      }
      if (full != nullptr) {
        for (const Timer& timer : timers_[v]) {
          if (!timer.fired) ++full->timers_pending;
        }
      }
    }
  }

  Rank num_procs_;
  const std::vector<char>& failed_;
  /// The persistent dead set: failed_ plus persisted chaos crashes minus
  /// rejoins; equals failed_ when repair is off. Coordinator-only:
  /// admissions turn it into per-slot pre-marks, so workers never read it.
  std::vector<char> dead_;
  Rank live_count_;  ///< ranks not in dead_ — each epoch's countdown start
  /// dead_ as of the last generation move. Identity until then, even with
  /// construction failures (the initial tree spans [0, P) with failed ranks
  /// as holes); the first move compacts over every dead rank.
  MembershipView membership_;
  const bool repair_;

  std::size_t chunk_ = 1;        // ranks per shard; shard(r) = r / chunk_
  std::uint64_t chunk_mul_ = 0;  // ceil(2^64 / chunk_); 0 when chunk_ == 1
  std::deque<Shard> shards_;
  /// The shards this process steps, one worker thread each: all of them
  /// in-process, shard `self` alone on rt-udp. Their ranks span
  /// [local_lo_, local_hi_), local_live_ of them live at construction.
  std::size_t first_local_ = 0;
  std::size_t local_shards_ = 0;
  Rank local_lo_ = 0;
  Rank local_hi_ = 0;
  Rank local_live_ = 0;
  /// Cross-shard movement, parking and wakeup (DESIGN.md §4j): the owned
  /// SPSC mesh in-process, the slice's UdpTransport on rt-udp.
  std::unique_ptr<MeshTransport> mesh_;
  Transport* transport_ = nullptr;
  std::unique_ptr<Remote> remote_;

  // Rank state, W·P virtual ranks (grown on demand, never shrunk).
  std::vector<LocalFifo> fifo_;
  std::vector<std::vector<Envelope>> outbox_;
  std::vector<std::vector<Timer>> timers_;
  /// Per-rank hot scalars (see RankCore). Entries are only read/written by
  /// the owning shard while their slot is staged or active.
  std::vector<RankCore> core_;

  // Chaos state. crash_active_/link_active_ are latched per session so the
  // no-chaos hot path costs two branch-on-false per pass; the link-stat
  // arrays are cold relative to RankCore and stay out of its cache line.
  const ChaosPlan* chaos_ = nullptr;
  bool crash_active_ = false;
  bool link_active_ = false;
  std::vector<std::int64_t> dropped_;
  std::vector<std::int64_t> delayed_stat_;
  std::vector<std::int64_t> duped_;

  const Clock::time_point origin_ = Clock::now();
  std::int64_t epoch_ = 0;  ///< last epoch admitted
  std::int32_t generation_ = 0;
  std::int64_t timeout_ns_ = 0;  ///< per-epoch deadline of the running call

  // Session and window. window_ and slots_ change only between sessions.
  bool session_open_ = false;
  std::int32_t window_ = 0;
  std::deque<StreamSlot> slots_;  // deque: slots hold atomics, must not move
  std::atomic<bool> session_done_{false};
  Doorbell coordinator_bell_;
  Doorbell idle_bell_;  ///< workers with no slot to serve park here

  /// Repair mode, coordinator-owned: persisted crashes with a revive
  /// schedule, and whether dead_ changed since the last mend().
  struct Down {
    Rank rank;
    std::int64_t revive_at_ns;  ///< engine time the revive is due
  };
  std::vector<Down> down_;
  bool membership_dirty_ = false;

  std::barrier<> session_barrier_;  // shards + coordinator, twice per session
  std::atomic<bool> shutdown_{false};
  std::vector<std::jthread> threads_;
};

// ---------------------------------------------------------------------------
// Engine facade: validation and deadline resolution.
// ---------------------------------------------------------------------------

Engine::Engine(Rank num_procs, std::vector<char> failed, EngineOptions options)
    : Engine(num_procs, std::move(failed), options, nullptr) {}

Engine::Engine(Rank num_procs, std::vector<char> failed, EngineOptions options,
               const ProcessSlice* slice)
    : num_procs_(num_procs), failed_(std::move(failed)), options_(options) {
  if (num_procs < 1) throw std::invalid_argument("engine needs at least one rank");
  if (static_cast<Rank>(failed_.size()) != num_procs) {
    throw std::invalid_argument("failed flag vector must have P entries");
  }
  if (failed_[0]) throw std::invalid_argument("rank 0 (the root) cannot fail");
  if (options_.mesh_capacity == 0) {
    throw std::invalid_argument(
        "EngineOptions::mesh_capacity must be >= 1 (0 would make every "
        "SPSC ring unable to accept any envelope)");
  }
  impl_ = std::make_unique<Impl>(num_procs_, failed_, options_, slice);
}

Engine::~Engine() = default;

std::size_t Engine::worker_threads() const noexcept { return impl_->worker_threads(); }

void Engine::set_chaos(ChaosPlan plan) {
  chaos_ = std::move(plan);
  impl_->set_chaos(chaos_.enabled() ? &chaos_ : nullptr);
}

topo::Rank Engine::live_count() const noexcept { return impl_->live_count(); }
std::int32_t Engine::generation() const noexcept { return impl_->generation(); }
const MembershipView& Engine::membership() const noexcept { return impl_->membership(); }
bool Engine::is_dead(topo::Rank r) const { return impl_->is_dead(r); }

Mend Engine::mend() {
  if (!options_.repair) {
    throw std::logic_error(
        "Engine::mend requires EngineOptions::repair (without it crashes are "
        "per-epoch and there is no persistent dead set to mend)");
  }
  return impl_->mend();
}

EpochResult Engine::run_epoch(sim::Protocol& protocol, std::chrono::nanoseconds timeout) {
  std::int64_t timeout_ns = timeout.count();
  const std::int64_t deadline_ns = options_.epoch_deadline.count();
  if (deadline_ns > 0 && (timeout_ns <= 0 || deadline_ns < timeout_ns)) {
    timeout_ns = deadline_ns;
  }
  return impl_->run_epoch(protocol, timeout_ns);
}

StreamResult Engine::run_stream(const ProtocolFactory& factory,
                                const StreamOptions& options) {
  if (!factory) throw std::invalid_argument("run_stream: factory must be callable");
  if (options.epochs < 1) throw std::invalid_argument("run_stream: epochs must be >= 1");
  if (options.window < 1 || options.window > 64) {
    throw std::invalid_argument("run_stream: window must be in [1, 64]");
  }
  if (options.rate < 0.0) throw std::invalid_argument("run_stream: rate must be >= 0");
  std::int64_t timeout_ns = options.epoch_timeout.count();
  const std::int64_t deadline_ns = options_.epoch_deadline.count();
  if (deadline_ns > 0 && (timeout_ns <= 0 || deadline_ns < timeout_ns)) {
    timeout_ns = deadline_ns;
  }
  return impl_->run_stream(factory, options, timeout_ns);
}

}  // namespace ct::rt
