// Threaded message-passing runtime: the same Protocol objects as the
// simulator, in wall-clock time. Keep rank counts small — the suite shares
// one CPU with everything else.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "experiment/run_spec.hpp"
#include "protocol/ack_tree.hpp"
#include "protocol/gossip_broadcast.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/harness.hpp"
#include "topology/factory.hpp"

namespace ct::rt {
namespace {

using topo::Rank;

std::vector<char> no_failures(Rank procs) {
  return std::vector<char>(static_cast<std::size_t>(procs), 0);
}

proto::CorrectionConfig opportunistic(int distance) {
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kOptimizedOpportunistic;
  config.start = proto::CorrectionStart::kOverlapped;
  config.distance = distance;
  return config;
}

TEST(RtEngine, FaultFreeBroadcastColorsEveryone) {
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kNone;
  proto::CorrectedTreeBroadcast protocol(tree, config);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
  EXPECT_EQ(result.total_messages, procs - 1);
  EXPECT_GT(result.completion_ns, 0);
}

TEST(RtEngine, FaultAgnosticTreeLosesSubtreesCorrectionRecoversThem) {
  const Rank procs = 24;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  failed[1] = 1;  // rank 1 roots a large subtree
  Engine engine(procs, failed);

  proto::CorrectionConfig none;
  none.kind = proto::CorrectionKind::kNone;
  // The bare tree can never complete, so its epoch ends at the deadline;
  // a short one keeps the test fast.
  proto::CorrectedTreeBroadcast bare(tree, none);
  const EpochResult bare_result =
      engine.run_epoch(bare, std::chrono::milliseconds(300));
  EXPECT_TRUE(bare_result.timed_out);
  EXPECT_GT(bare_result.uncolored_live, 0);  // descendants of 1 missed

  proto::CorrectedTreeBroadcast corrected(tree, opportunistic(4));
  const EpochResult corrected_result = engine.run_epoch(corrected, std::chrono::seconds(20));
  EXPECT_FALSE(corrected_result.timed_out);
  EXPECT_EQ(corrected_result.uncolored_live, 0);
}

TEST(RtEngine, CheckedCorrectionWorksOnTheRuntime) {
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  failed[2] = failed[9] = 1;
  Engine engine(procs, failed);
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kChecked;
  config.start = proto::CorrectionStart::kOverlapped;
  proto::CorrectedTreeBroadcast protocol(tree, config);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
}

TEST(RtEngine, EpochsAreIsolated) {
  // Repeated epochs must not leak messages or coloring across iterations.
  const Rank procs = 12;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  for (int epoch = 0; epoch < 5; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(tree, opportunistic(2));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
    EXPECT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
  }
}

TEST(RtEngine, RoundBasedGossipRunsOnRuntime) {
  const Rank procs = 16;
  Engine engine(procs, no_failures(procs));
  proto::GossipConfig config;
  config.budget = proto::GossipConfig::Budget::kRounds;
  config.gossip_rounds = 6;
  config.correction = opportunistic(4);
  config.seed = 5;
  proto::CorrectedGossipBroadcast protocol(procs, config);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
}

TEST(RtEngine, TimesOutWhenProtocolCannotComplete) {
  // A bare tree with a failed inner node leaves ranks uncolored forever;
  // the engine must report a timeout instead of hanging.
  const Rank procs = 8;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  failed[1] = 1;
  Engine engine(procs, failed);
  proto::CorrectionConfig none;
  none.kind = proto::CorrectionKind::kNone;
  proto::CorrectedTreeBroadcast protocol(tree, none);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::milliseconds(300));
  EXPECT_TRUE(result.timed_out);
}

TEST(RtEngine, ThrowingBeginLeavesTheEngineUsable) {
  // A protocol that rejects its configuration in begin() (as synchronized
  // correction does without a sync time) must surface the exception and
  // leave the engine able to run the next epoch.
  class ThrowingBegin final : public sim::Protocol {
   public:
    void begin(sim::Context&) override { throw std::invalid_argument("bad config"); }
    void on_receive(sim::Context&, Rank, const sim::Message&) override {}
    void on_sent(sim::Context&, Rank, const sim::Message&) override {}
  };
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  Engine engine(procs, no_failures(procs), options);
  for (int round = 0; round < 2; ++round) {
    ThrowingBegin bad;
    EXPECT_THROW(engine.run_epoch(bad, std::chrono::seconds(20)), std::invalid_argument);
    proto::CorrectedTreeBroadcast protocol(tree, opportunistic(2));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
    EXPECT_FALSE(result.timed_out) << "round " << round;
    EXPECT_EQ(result.uncolored_live, 0) << "round " << round;
  }
}

TEST(RtEngine, ValidatesConstruction) {
  EXPECT_THROW(Engine(4, std::vector<char>{1, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(Engine(4, std::vector<char>{0, 0}), std::invalid_argument);
}

TEST(RtHarness, MeasuresIterations) {
  const Rank procs = 12;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  const ProtocolFactory factory = [&]() -> std::unique_ptr<sim::Protocol> {
    return std::make_unique<proto::CorrectedTreeBroadcast>(tree, opportunistic(2));
  };
  HarnessOptions options;
  options.warmup = 1;
  options.iterations = 6;
  const HarnessResult result = measure_broadcast(engine, factory, options);
  EXPECT_EQ(result.iterations, 6);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.incomplete, 0);
  EXPECT_EQ(result.latency_us.count(), 6u);
  EXPECT_GT(result.median_us(), 0.0);
  // Opportunistic d=2 both directions: tree + at most 4 correction messages
  // per process.
  EXPECT_LE(result.messages_per_process.max(), 5.0);
}

TEST(RtHarness, AllTimeoutRunReportsZeroPercentilesNotNaN) {
  // Every epoch times out: a failed inner node, no correction, and a tiny
  // timeout. The percentile accessors share one empty-sample policy — 0.0,
  // never NaN and never a throwing Samples::percentile() call — so reports
  // of fully-degraded runs stay finite next to the timeout counters.
  const Rank procs = 8;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  failed[1] = 1;
  Engine engine(procs, failed);
  proto::CorrectionConfig none;
  none.kind = proto::CorrectionKind::kNone;
  const ProtocolFactory factory = [&]() -> std::unique_ptr<sim::Protocol> {
    return std::make_unique<proto::CorrectedTreeBroadcast>(tree, none);
  };
  HarnessOptions options;
  options.warmup = 0;
  options.iterations = 3;
  options.epoch_timeout = std::chrono::milliseconds(50);
  const HarnessResult result = measure_broadcast(engine, factory, options);
  EXPECT_EQ(result.iterations, 3);
  EXPECT_EQ(result.timeouts, 3);
  EXPECT_TRUE(result.latency_us.empty());
  EXPECT_EQ(result.p50_us(), 0.0);
  EXPECT_EQ(result.p95_us(), 0.0);
  EXPECT_EQ(result.p99_us(), 0.0);
  EXPECT_EQ(result.p999_us(), 0.0);
  EXPECT_EQ(result.median_us(), 0.0);
  // The kept first epoch is the degradation report for the whole run.
  EXPECT_TRUE(result.first.timed_out);
  EXPECT_GT(result.first.uncolored_live, 0);
}

// --- Sharded scheduler: shard-boundary suite -------------------------------
// The sharded engine carves [0, P) into contiguous slices of ceil(P/N)
// ranks; these tests pin the boundary cases (uneven split, dead slices,
// degenerate single shard, all-cross-shard traffic) and survivor-coloring
// parity with the simulator.

TEST(RtSharded, UnevenRankSplitColorsEveryone) {
  // P = 17 over 3 workers: slices of 6, 6 and 5 ranks.
  const Rank procs = 17;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 3;
  Engine engine(procs, no_failures(procs), options);
  EXPECT_EQ(engine.worker_threads(), 3u);
  proto::CorrectionConfig none;
  none.kind = proto::CorrectionKind::kNone;
  proto::CorrectedTreeBroadcast protocol(tree, none);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
  EXPECT_EQ(result.total_messages, procs - 1);
  EXPECT_EQ(result.rank_completion_ns.size(), static_cast<std::size_t>(procs));
}

TEST(RtSharded, AllFailedShardIsRecoveredByCorrection) {
  // Ranks 4..7 — worker 1's whole slice — are dead; their live tree
  // descendants must be colored via checked correction anyway, and the
  // engine must not wait on the empty shard.
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  for (Rank r = 4; r < 8; ++r) failed[static_cast<std::size_t>(r)] = 1;
  EngineOptions options;
  options.workers = 4;
  Engine engine(procs, failed, options);
  EXPECT_EQ(engine.live_count(), 12);
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kChecked;
  config.start = proto::CorrectionStart::kOverlapped;
  proto::CorrectedTreeBroadcast protocol(tree, config);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
}

TEST(RtSharded, MoreWorkersThanLiveRanksWithWholeShardsFailed) {
  // Failure-flag audit (the crashed-rank barrier hazard): ranks marked
  // failed at construction must not hold an epoch-barrier slot or a
  // completion-countdown unit hostage. P = 12 over 6 workers (slices of 2)
  // with ranks 2..11 failed leaves five entirely-dead shards and more
  // worker threads than live ranks; every epoch must still terminate with
  // both survivors colored.
  const Rank procs = 12;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  for (Rank r = 2; r < procs; ++r) failed[static_cast<std::size_t>(r)] = 1;
  EngineOptions options;
  options.workers = 6;
  Engine engine(procs, failed, options);
  EXPECT_EQ(engine.live_count(), 2);
  EXPECT_EQ(engine.worker_threads(), 6u);
  for (int epoch = 0; epoch < 4; ++epoch) {
    proto::CorrectionConfig config;
    config.kind = proto::CorrectionKind::kChecked;
    config.start = proto::CorrectionStart::kOverlapped;
    proto::CorrectedTreeBroadcast protocol(tree, config);
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
    EXPECT_EQ(result.rank_completion_ns.size(), 2u) << "epoch " << epoch;
  }
}

TEST(RtSharded, SingleLiveRankAmongManyWorkers) {
  // Degenerate extreme of the same audit: only the root survives, one
  // worker per rank. Seven of the eight shards own nothing but corpses.
  const Rank procs = 8;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  for (Rank r = 1; r < procs; ++r) failed[static_cast<std::size_t>(r)] = 1;
  EngineOptions options;
  options.workers = 8;
  Engine engine(procs, failed, options);
  EXPECT_EQ(engine.live_count(), 1);
  proto::CorrectionConfig none;
  none.kind = proto::CorrectionKind::kNone;
  proto::CorrectedTreeBroadcast protocol(tree, none);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
  // The root's sends to its (dead) children are still accounted: sends
  // complete locally, delivery is what vanishes.
  EXPECT_EQ(result.total_messages,
            static_cast<std::int64_t>(tree.children(0).size()));
}

TEST(RtSharded, SingleShardDegenerateCase) {
  // One worker owns everything: the scheduler reduces to a sequential
  // event loop, with no cross-shard ring traffic at all.
  const Rank procs = 24;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  failed[5] = failed[17] = 1;
  EngineOptions options;
  options.workers = 1;
  Engine engine(procs, failed, options);
  EXPECT_EQ(engine.worker_threads(), 1u);
  for (int epoch = 0; epoch < 3; ++epoch) {
    proto::CorrectionConfig config;
    config.kind = proto::CorrectionKind::kChecked;
    config.start = proto::CorrectionStart::kOverlapped;
    proto::CorrectedTreeBroadcast protocol(tree, config);
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
    EXPECT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
  }
}

TEST(RtSharded, CrossShardOnlyTree) {
  // One rank per shard: every tree edge crosses shards, so the whole
  // broadcast flows through the SPSC ring mesh.
  const Rank procs = 8;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = static_cast<int>(procs);
  Engine engine(procs, no_failures(procs), options);
  EXPECT_EQ(engine.worker_threads(), static_cast<std::size_t>(procs));
  proto::CorrectionConfig none;
  none.kind = proto::CorrectionKind::kNone;
  proto::CorrectedTreeBroadcast protocol(tree, none);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
  EXPECT_EQ(result.total_messages, procs - 1);
}

TEST(RtSharded, WorkerCountClampsToRanks) {
  EngineOptions options;
  options.workers = 64;
  Engine engine(4, no_failures(4), options);
  EXPECT_LE(engine.worker_threads(), 4u);
}

TEST(RtSharded, TinyInboxBackpressureStillDelivers) {
  // Each shard's inbox is its column of SPSC rings. Capacity 2 forces
  // partial batch flushes and staged retries; ordering and completeness
  // must survive the backpressure.
  const Rank procs = 32;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  options.mesh_capacity = 2;
  Engine engine(procs, no_failures(procs), options);
  proto::CorrectedTreeBroadcast protocol(tree, opportunistic(2));
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
}

// Every rank sends kBurst numbered messages to each of the ranks one and
// two shards ahead; receivers count numbers that do not increase per
// sender, and a rank is colored once both bursts arrived.
class NumberedBursts final : public sim::Protocol {
 public:
  static constexpr sim::Tag kData = 100;
  static constexpr std::int64_t kBurst = 8;

  NumberedBursts(Rank procs, Rank shard)
      : procs_(procs), shard_(shard),
        last_(2 * static_cast<std::size_t>(procs), -1),
        received_(static_cast<std::size_t>(procs), 0) {}

  void begin(sim::Context& ctx) override {
    for (Rank r = 0; r < procs_; ++r) {
      for (std::int64_t n = 0; n < kBurst; ++n) {
        ctx.send(r, (r + shard_) % procs_, kData, n);
        ctx.send(r, (r + 2 * shard_) % procs_, kData, n);
      }
    }
  }
  void on_receive(sim::Context& ctx, Rank me, const sim::Message& msg) override {
    // Senders are me - shard and me - 2·shard; each receiver's entries
    // are touched only by the thread stepping it.
    const Rank hops = ((me - msg.src + procs_) % procs_) / shard_;
    std::int64_t& last = last_[2 * static_cast<std::size_t>(me) +
                               static_cast<std::size_t>(hops - 1)];
    if (msg.payload <= last) reorders.fetch_add(1, std::memory_order_relaxed);
    last = msg.payload;
    if (++received_[static_cast<std::size_t>(me)] == 2 * kBurst) ctx.mark_colored(me);
  }
  void on_sent(sim::Context&, Rank, const sim::Message&) override {}

  std::atomic<int> reorders{0};

 private:
  Rank procs_;
  Rank shard_;
  std::vector<std::int64_t> last_;
  std::vector<std::int64_t> received_;
};

// Rank 0 sends PING into shard 1 and then starts a WORK token that
// circles shard 0 for more hops than any pass's step budget (at least
// 1024 steps). At hop kWaitHop the token waits for PING to land. Mail
// published only at pass end cannot land while the token holds the pass,
// so PING would meet a whole budget of hops; published mid-pass, it lands
// during the wait. Only the order of events is checked: the wait is
// bounded so that a failing build reports instead of hanging.
class PingThenChain final : public sim::Protocol {
 public:
  static constexpr sim::Tag kPing = 100;
  static constexpr sim::Tag kWork = 101;
  static constexpr sim::Tag kFill = 102;
  static constexpr std::int64_t kWaitHop = 128;
  static constexpr std::int64_t kChainHops = 4096;

  explicit PingThenChain(Rank shard) : shard_(shard) {}

  void begin(sim::Context& ctx) override {
    ctx.mark_colored(0);
    ctx.send(0, shard_, kPing, 0);  // first in rank 0's outbox
    ctx.send(0, 1, kWork, 0);
  }
  void on_receive(sim::Context& ctx, Rank me, const sim::Message& msg) override {
    ctx.mark_colored(me);
    if (msg.tag == kPing) {
      hops_at_ping.store(hops_.load(std::memory_order_acquire),
                         std::memory_order_relaxed);
      pinged_.store(true, std::memory_order_release);
      for (Rank r = me + 1; r < ctx.num_procs(); ++r) ctx.send(me, r, kFill, 0);
    } else if (msg.tag == kWork) {
      const std::int64_t hop = hops_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (hop == kWaitHop) {
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!pinged_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
      }
      // Circle ranks 1 .. shard-1, one rank step per hop.
      if (hop < kChainHops) ctx.send(me, me % (shard_ - 1) + 1, kWork, 0);
    }
  }
  void on_sent(sim::Context&, Rank, const sim::Message&) override {}

  std::atomic<std::int64_t> hops_at_ping{-1};

 private:
  Rank shard_;
  std::atomic<std::int64_t> hops_{0};
  std::atomic<bool> pinged_{false};
};

TEST(RtSharded, TinyMeshKeepsPerSenderFifoAcrossMidPassFlushes) {
  // Three shards of 128 ranks and 2-slot rings: each shard's first pass
  // stages 2048 envelopes per destination, so the mid-pass flushes keep
  // hitting full rings and retrying the staged remainder.
  const Rank shard = 128;
  const Rank procs = 3 * shard;
  EngineOptions options;
  options.workers = 3;
  options.mesh_capacity = 2;
  Engine engine(procs, no_failures(procs), options);
  NumberedBursts protocol(procs, shard);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);  // every message arrived
  EXPECT_EQ(protocol.reorders.load(), 0);
}

TEST(RtSharded, CrossShardMailLeavesBeforeTheSenderPassEnds) {
  const Rank shard = 32;
  EngineOptions options;
  options.workers = 2;
  Engine engine(2 * shard, no_failures(2 * shard), options);
  PingThenChain protocol(shard);
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
  const std::int64_t at_ping = protocol.hops_at_ping.load();
  EXPECT_GE(at_ping, 0);
  EXPECT_LT(at_ping, 1024 / 4) << "PING waited for the sender's whole pass";
}

TEST(RtSharded, MatchesSimOutcomes) {
  // Survivor-coloring parity with the simulator over the six correction
  // configs, on a single shard — the sequential event loop, where every
  // epoch of one engine shares one worker's run queue. The kill= victims
  // die before sending anything, so the outcome is the timing-independent
  // coverage of the correction algorithm.
  const Rank procs = 48;
  const struct {
    const char* correction;
    bool completes;  // guaranteed to color every survivor -> no timeout
  } kinds[] = {
      {"none", false},    {"opportunistic-plain:4", false}, {"opportunistic:4", false},
      {"checked", true},  {"failure-proof", true},          {"delayed", true},
  };
  for (const auto& k : kinds) {
    const std::string cell = std::string("bcast:binomial:") + k.correction +
                             ":overlapped@P=" + std::to_string(procs) +
                             ",kill=3+21+40,reps=3,warmup=0";
    SCOPED_TRACE(cell);
    const exp::RunRecord sim = exp::run(exp::parse_run_spec(cell + ",exec=sim"));
    const bool bounded = !k.completes && !sim.uncolored_survivors.empty();
    const exp::RunRecord rt = exp::run(exp::parse_run_spec(
        cell + (bounded ? ",deadline-ms=400" : "") + ",exec=rt-sharded:w=1"));
    EXPECT_EQ(rt.uncolored_survivors, sim.uncolored_survivors);
    EXPECT_EQ(rt.crashed_ranks, sim.crashed_ranks);
    // An epoch that leaves a survivor uncolored runs into its deadline on
    // the runtime, so it counts as a timeout there.
    EXPECT_EQ(rt.incomplete + rt.timeouts > 0, sim.incomplete > 0);
    if (k.completes) {
      EXPECT_EQ(rt.timeouts, 0);
    }
  }
}

TEST(RtSharded, PrototypeScaleEpochCompletesQuickly) {
  // A taste of the §4.4 scale on the CI budget: 4 Ki ranks through the
  // default sharded engine must complete an epoch well inside the timeout.
  const Rank procs = 4096;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  proto::CorrectedTreeBroadcast protocol(tree, opportunistic(4));
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
}

}  // namespace
}  // namespace ct::rt

// NOTE: appended suite — collectives and calibration on the runtime.
#include "protocol/allreduce.hpp"
#include "rt/logp_fit.hpp"

namespace ct::rt {
namespace {

TEST(RtCollectives, AllReduceDeliversMaxToAllLiveRanks) {
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  // The reduce phase schedules timers from the LogP timetable; on the
  // runtime a "step" is a nanosecond, so scale the model so deadlines give
  // threads real time (1 step = 50 us).
  sim::LogP params{2 * 50'000, 50'000, 50'000, procs};
  std::vector<char> failed = no_failures(procs);
  failed[3] = 1;
  Engine engine(procs, failed);

  std::vector<std::int64_t> values;
  std::int64_t live_max = 0;
  for (Rank r = 0; r < procs; ++r) {
    values.push_back(r * 7 % 23);
    if (!failed[static_cast<std::size_t>(r)]) live_max = std::max(live_max, values.back());
  }
  proto::AllReduceConfig config;
  config.reduce.distance = 2;
  config.correction = opportunistic(4);
  proto::CorrectedAllReduce allreduce(tree, params, values, config);
  const EpochResult result = engine.run_epoch(allreduce, std::chrono::seconds(30));
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
  EXPECT_TRUE(allreduce.reduction_done());
  EXPECT_EQ(allreduce.result(), live_max);
}

TEST(RtLogPFit, ProducesPlausibleParameters) {
  Engine engine(2, no_failures(2));
  const LogPFit fit = fit_logp(engine, /*round_trips=*/50, /*burst_size=*/32);
  EXPECT_GT(fit.rtt_ns, 0.0);
  EXPECT_GE(fit.o_ns, 0.0);
  EXPECT_GE(fit.L_ns, 0.0);
  // The model identity RTT/2 = 2o + L holds by construction of the fit.
  EXPECT_NEAR(fit.rtt_ns / 2.0, 2.0 * fit.o_ns + fit.L_ns, fit.rtt_ns);
}

TEST(RtLogPFit, Validation) {
  Engine engine(2, no_failures(2));
  EXPECT_THROW(fit_logp(engine, 0, 32), std::invalid_argument);
  EXPECT_THROW(fit_logp(engine, 10, 1), std::invalid_argument);
}

}  // namespace
}  // namespace ct::rt
