// SPSC mesh suite (DESIGN.md §4f), registered under the `sanitize` ctest
// label so the tsan preset runs it. Covers the ring primitive itself
// (wrap-around, prefix-accept backpressure, a two-thread FIFO stress), the
// engine built on top of it (capacity-1 rings with the chained-send bound,
// crashed-rank discard under chaos, shutdown while rings still hold mail),
// sim vs backpressured-mesh outcome equality across the six correction
// algorithms, and the EngineOptions validation the mesh added.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/run_spec.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/engine.hpp"
#include "rt/shard_queue.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"

namespace ct::rt {
namespace {

using topo::Rank;

Envelope make_envelope(std::int64_t payload) {
  return Envelope{
      sim::Message{.src = 0, .dst = 1, .tag = sim::tag::kTree, .payload = payload},
      /*tag=*/Envelope::make_tag(/*epoch=*/1, /*generation=*/0)};
}

proto::CorrectionConfig make_correction(proto::CorrectionKind kind) {
  proto::CorrectionConfig config;
  config.kind = kind;
  config.start = proto::CorrectionStart::kOverlapped;
  config.distance = 4;
  return config;
}

TEST(SpscRing, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SpscRing(0).capacity(), 1u);  // engine rejects 0; the ring clamps
  EXPECT_EQ(SpscRing(1).capacity(), 1u);
  EXPECT_EQ(SpscRing(5).capacity(), 8u);
  EXPECT_EQ(SpscRing(1024).capacity(), 1024u);
}

TEST(SpscRing, WrapAroundPreservesFifoAcrossManyGenerations) {
  SpscRing ring(8);
  std::vector<Envelope> out;
  std::int64_t next_push = 0;
  std::int64_t next_pop = 0;
  // Push in batches of 3 against capacity 8 so head/tail lap the slot
  // array hundreds of times and every offset sees both roles.
  while (next_pop < 2000) {
    Envelope batch[3];
    for (int i = 0; i < 3; ++i) batch[i] = make_envelope(next_push + i);
    next_push += static_cast<std::int64_t>(ring.push_batch(batch, 3));
    out.clear();
    ring.pop_all_into(out);
    for (const Envelope& e : out) {
      ASSERT_EQ(e.msg.payload, next_pop);
      ++next_pop;
    }
  }
  EXPECT_GE(next_push, next_pop);
}

TEST(SpscRing, FullRingAcceptsAPrefixAndResumesAfterDrain) {
  SpscRing ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  std::vector<Envelope> batch;
  for (std::int64_t i = 0; i < 6; ++i) batch.push_back(make_envelope(i));
  // A full ring accepts exactly the free prefix — the producer keeps the
  // rest staged, which is the mesh's whole backpressure story.
  EXPECT_EQ(ring.push_batch(batch.data(), batch.size()), 4u);
  EXPECT_TRUE(ring.poll());
  EXPECT_EQ(ring.push_batch(batch.data() + 4, 2), 0u);
  std::vector<Envelope> out;
  EXPECT_EQ(ring.pop_all_into(out), 4u);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].msg.payload, i);
  EXPECT_FALSE(ring.poll());
  EXPECT_EQ(ring.push_batch(batch.data() + 4, 2), 2u);
  out.clear();
  EXPECT_EQ(ring.pop_all_into(out), 2u);
  EXPECT_EQ(out[0].msg.payload, 4);
  EXPECT_EQ(out[1].msg.payload, 5);
}

TEST(SpscRing, ClearResetsBothSides) {
  SpscRing ring(2);
  const Envelope e = make_envelope(7);
  ASSERT_EQ(ring.push_batch(&e, 1), 1u);
  ring.clear();
  EXPECT_FALSE(ring.poll());
  std::vector<Envelope> out;
  EXPECT_EQ(ring.pop_all_into(out), 0u);
  EXPECT_EQ(ring.push_batch(&e, 1), 1u);  // indices restart cleanly
  EXPECT_EQ(ring.pop_all_into(out), 1u);
}

TEST(SpscRing, TwoThreadStressKeepsStrictFifo) {
  // The TSan-facing test: one producer, one consumer, a ring small enough
  // that backpressure and wrap-around fire constantly. Any missing
  // acquire/release pairing shows up as a torn payload or a data race.
  constexpr std::int64_t kTotal = 200'000;
  SpscRing ring(64);
  std::thread producer([&] {
    std::int64_t sent = 0;
    while (sent < kTotal) {
      Envelope batch[16];
      const std::int64_t n = std::min<std::int64_t>(16, kTotal - sent);
      for (std::int64_t i = 0; i < n; ++i) batch[i] = make_envelope(sent + i);
      std::size_t accepted = 0;
      while (accepted < static_cast<std::size_t>(n)) {
        const std::size_t got =
            ring.push_batch(batch + accepted,
                            static_cast<std::size_t>(n) - accepted);
        accepted += got;
        if (got == 0) std::this_thread::yield();
      }
      sent += n;
    }
  });
  std::vector<Envelope> out;
  std::int64_t received = 0;
  while (received < kTotal) {
    out.clear();
    if (ring.pop_all_into(out) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const Envelope& e : out) {
      ASSERT_EQ(e.msg.payload, received);
      ++received;
    }
  }
  producer.join();
  EXPECT_FALSE(ring.poll());
}

TEST(MeshEngine, CapacityOneRingsCompleteUnderBackpressure) {
  // mesh_capacity=1 is the worst case: every cross-shard batch degenerates
  // to one-envelope hops and almost every send stages and retries. The
  // chained-send bound (drain work discovered while flushing is deferred,
  // not recursed into) is what keeps this from livelocking; the assertion
  // is simply that epochs still complete and color everyone.
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;  // forces real cross-shard traffic even on 1 core
  options.mesh_capacity = 1;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  for (int epoch = 0; epoch < 6; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
  }
}

TEST(MeshEngine, CrashedRankMailIsDiscardedUnderChaos) {
  // Mid-epoch crashes leave mail addressed to dead ranks in flight inside
  // the rings; the consumer must discard it (and balance the crash
  // bookkeeping) rather than deliver to a crashed rank or wedge. Tiny
  // rings keep plenty of envelopes staged at crash time.
  const Rank procs = 256;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  options.mesh_capacity = 4;
  options.epoch_deadline = std::chrono::seconds(5);
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  ChaosOptions chaos;
  chaos.seed = 0x6E57u;
  chaos.crash_fraction = 0.03;
  chaos.drop_prob = 0.01;
  chaos.delay_prob = 0.01;
  chaos.delay_ns = 100'000;
  engine.set_chaos(ChaosPlan(chaos));
  std::int64_t crashes = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(30));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
    ASSERT_EQ(result.crashed_mid_epoch,
              static_cast<std::int32_t>(result.crashed_ranks.size()));
    crashes += result.crashed_mid_epoch;
  }
  EXPECT_GT(crashes, 0);  // 3% of 256 ranks over 12 epochs
}

TEST(MeshEngine, ShutdownAndEpochResetWithNonEmptyRings) {
  // Force a deadline expiry mid-broadcast so rings and staged buffers still
  // hold mail, then (a) run a clean epoch on the same engine — reset must
  // drop every stale-epoch leftover — and (b) end the scope with mail still
  // in flight so the destructor's shutdown path runs against non-empty
  // rings. The test passing at all (no hang, no sanitizer report) is the
  // assertion for (b).
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  options.mesh_capacity = 2;
  options.epoch_deadline = std::chrono::milliseconds(100);
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  ChaosPlan plan;
  const Rank victim = tree.children(0)[0];
  plan.kill_at_ns(victim, 0);
  engine.set_chaos(std::move(plan));
  {
    // No correction + a dead first child: the subtree is unreachable, so
    // the epoch must end at the deadline with traffic still queued.
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kNone));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_TRUE(result.timed_out);
    EXPECT_GT(result.uncolored_live, 0);
  }
  {
    // Same engine, next epoch: checked correction reaches everyone, so a
    // single stale envelope surviving the reset would surface as a wrong
    // color or a sanitizer report.
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_FALSE(result.timed_out);
    EXPECT_EQ(result.uncolored_live, 0);
    EXPECT_EQ(result.crashed_ranks, std::vector<Rank>{victim});
  }
  {
    // Leave the engine dirty again right before destruction.
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kNone));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_TRUE(result.timed_out);
  }
}

// --- sim vs mesh: outcome equality across the six algorithms ---
//
// Spec-driven like the sim/rt parity suite (DESIGN.md §4e): the kill=
// victims die before sending anything, so the survivor-coloring outcome is
// the timing-independent coverage of the correction algorithm — identical
// on the simulator and on the runtime, however the mail was carried. The
// runtime side runs with mesh-cap=2 so the equality also holds under heavy
// cross-shard backpressure.

std::string ab_cell(Rank procs, const std::vector<Rank>& victims,
                    proto::CorrectionKind kind) {
  std::string spec = "bcast:binomial:";
  spec += proto::correction_kind_name(kind);
  if (kind == proto::CorrectionKind::kOpportunistic ||
      kind == proto::CorrectionKind::kOptimizedOpportunistic) {
    spec += ":4";
  }
  spec += ":overlapped@P=" + std::to_string(procs);
  spec += ",kill=";
  for (std::size_t i = 0; i < victims.size(); ++i) {
    if (i) spec += '+';
    spec += std::to_string(victims[i]);
  }
  spec += ",reps=1,warmup=0";
  return spec;
}

std::vector<Rank> pick_victims(Rank procs, int count, support::Xoshiro256ss& rng) {
  std::vector<Rank> victims;
  while (static_cast<int>(victims.size()) < count) {
    const auto v =
        static_cast<Rank>(1 + rng.below(static_cast<std::uint64_t>(procs) - 1));
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  std::sort(victims.begin(), victims.end());
  return victims;
}

TEST(MeshSimParity, SixCorrectionAlgorithmsAgreeUnderCrashes) {
  const Rank procs = 24;
  const struct {
    proto::CorrectionKind kind;
    bool completes;  // guaranteed to color every survivor -> no timeout
  } kinds[] = {
      {proto::CorrectionKind::kNone, false},
      {proto::CorrectionKind::kOpportunistic, false},
      {proto::CorrectionKind::kOptimizedOpportunistic, false},
      {proto::CorrectionKind::kChecked, true},
      {proto::CorrectionKind::kFailureProof, true},
      {proto::CorrectionKind::kDelayed, true},
  };
  support::Xoshiro256ss rng(0x3E5Du);
  for (int scenario = 0; scenario < 2; ++scenario) {
    const std::vector<Rank> victims = pick_victims(procs, 2 + scenario, rng);
    for (const auto& k : kinds) {
      const std::string cell = ab_cell(procs, victims, k.kind);
      SCOPED_TRACE(cell);
      const exp::RunRecord sim = exp::run(exp::parse_run_spec(cell + ",exec=sim"));
      // Coverage-bounded corrections that cannot reach someone never
      // complete; bound those cells so the runtime stops at the deadline.
      const bool bounded = !k.completes && !sim.uncolored_survivors.empty();
      const std::string deadline = bounded ? std::string("deadline-ms=400,") : "";
      const exp::RunRecord mesh = exp::run(exp::parse_run_spec(
          cell + "," + deadline + "exec=rt-sharded:w=4:mesh-cap=2"));
      EXPECT_EQ(mesh.uncolored_survivors, sim.uncolored_survivors);
      EXPECT_EQ(mesh.crashed_ranks, sim.crashed_ranks);
      EXPECT_EQ(sim.crashed_ranks, victims);
      // An epoch that leaves a survivor uncolored runs into its deadline on
      // the runtime, so it counts as a timeout there.
      EXPECT_EQ(mesh.incomplete + mesh.timeouts > 0, sim.incomplete > 0);
    }
  }
}

// --- EngineOptions validation added with the mesh ---

TEST(MeshOptions, ZeroCapacitiesAreRejectedUpFront) {
  const std::vector<char> none(8, 0);
  EngineOptions mesh_zero;
  mesh_zero.mesh_capacity = 0;
  EXPECT_THROW(Engine(8, none, mesh_zero), std::invalid_argument);
}

TEST(MeshOptions, WorkerCountIsClampedToRanksAndOversubscriptionCap) {
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  {
    // More workers than ranks: no empty shards.
    EngineOptions options;
    options.workers = 64;
    Engine engine(8, std::vector<char>(8, 0), options);
    EXPECT_EQ(engine.worker_threads(), 8u);
  }
  {
    // Absurd worker counts hit the oversubscription cap instead of building
    // a gigantic S² mesh. Small rings keep the clamp test cheap.
    EngineOptions options;
    options.workers = 100000;
    options.mesh_capacity = 2;
    Engine engine(256, std::vector<char>(256, 0), options);
    EXPECT_EQ(engine.worker_threads(),
              std::min<std::size_t>(256, std::max<std::size_t>(16, 8 * hw)));
  }
  {
    // workers <= 0 falls back to hardware concurrency (clamped to P; the
    // ceiling-division slicing may merge a remainder shard, hence LE).
    EngineOptions options;
    options.workers = -3;
    Engine engine(8, std::vector<char>(8, 0), options);
    EXPECT_GE(engine.worker_threads(), 1u);
    EXPECT_LE(engine.worker_threads(), std::min<std::size_t>(8, hw));
  }
}

}  // namespace
}  // namespace ct::rt
