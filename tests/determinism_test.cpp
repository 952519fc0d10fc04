// Tier-1 determinism guarantees of the rebuilt hot path (run under TSan via
// the `sanitize` ctest label):
//  * run_replicated over a thread pool (2/4/8 workers, work-stealing) is
//    byte-identical to the serial loop, and run_replicated_range slices
//    merged in ascending order reproduce the whole sweep;
//  * the calendar event queue replays the exact (time, lane, seq) event
//    order of the binary-heap reference on recorded traces, fault-free and
//    with 2 % faults;
//  * workspace reuse — including reuse across different P and after an
//    aborted run — never changes a seeded RunResult.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "experiment/runner.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"

namespace ct {
namespace {

using topo::Rank;

exp::Scenario corrected_tree_scenario(Rank procs, double fault_fraction) {
  exp::Scenario scenario;
  scenario.label = "determinism";
  scenario.params = sim::LogP{2, 1, 1, procs};
  scenario.protocol = exp::ProtocolKind::kCorrectedTree;
  scenario.tree.kind = topo::TreeKind::kBinomialInterleaved;
  scenario.correction.kind = proto::CorrectionKind::kChecked;
  scenario.correction.start = proto::CorrectionStart::kSynchronized;
  scenario.fault_fraction = fault_fraction;
  return scenario;
}

void expect_same_samples(const support::Samples& a, const support::Samples& b,
                         const char* what) {
  // values() preserves insertion order, so equality here is byte-identity
  // of the whole replication sequence, not just of summary statistics.
  EXPECT_EQ(a.values(), b.values()) << what;
}

void expect_same_aggregate(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.not_fully_colored, b.not_fully_colored);
  EXPECT_EQ(a.uncolored_total, b.uncolored_total);
  expect_same_samples(a.coloring_latency, b.coloring_latency, "coloring_latency");
  expect_same_samples(a.quiescence_latency, b.quiescence_latency, "quiescence_latency");
  expect_same_samples(a.messages_per_process, b.messages_per_process,
                      "messages_per_process");
  expect_same_samples(a.max_gap, b.max_gap, "max_gap");
  expect_same_samples(a.gap_count, b.gap_count, "gap_count");
  expect_same_samples(a.correction_time, b.correction_time, "correction_time");
}

void expect_same_result(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(a.num_procs, b.num_procs);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.coloring_latency, b.coloring_latency);
  EXPECT_EQ(a.quiescence_latency, b.quiescence_latency);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.uncolored_live, b.uncolored_live);
  EXPECT_EQ(a.has_dissemination_snapshot, b.has_dissemination_snapshot);
  EXPECT_EQ(a.dissemination_gaps.max_gap, b.dissemination_gaps.max_gap);
  EXPECT_EQ(a.dissemination_gaps.gap_count, b.dissemination_gaps.gap_count);
  EXPECT_EQ(a.correction_start, b.correction_start);
  EXPECT_EQ(a.colored_at, b.colored_at);
  EXPECT_EQ(a.sends_per_rank, b.sends_per_rank);
  EXPECT_EQ(a.rank_data, b.rank_data);
}

TEST(RunReplicated, PooledIsByteIdenticalToSerial) {
  const exp::Scenario scenario = corrected_tree_scenario(256, 0.02);
  const std::size_t reps = 48;
  const std::uint64_t seed = 0xfeedULL;
  const exp::Aggregate serial = exp::run_replicated(scenario, reps, seed);
  for (std::size_t workers : {2u, 4u, 8u}) {
    const support::ThreadPool pool(workers);
    const exp::Aggregate pooled = exp::run_replicated(scenario, reps, seed, &pool);
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    expect_same_aggregate(serial, pooled);
  }
}

TEST(RunReplicated, RangeSlicesConcatenateToFullSweep) {
  // Replication i draws derive_seed(seed, i) from its global index, so
  // slice aggregates merged in ascending order must reproduce the whole
  // serial sweep byte for byte, whether each slice ran serially or pooled.
  const exp::Scenario scenario = corrected_tree_scenario(1024, 0.02);
  const std::size_t reps = 24;
  const std::uint64_t seed = 0x5eed5eedULL;
  const exp::Aggregate whole = exp::run_replicated(scenario, reps, seed);
  const support::ThreadPool pool(4);
  const support::ThreadPool* const slice_pools[] = {&pool, nullptr};
  for (std::size_t split : {std::size_t{1}, std::size_t{7}, reps - 1}) {
    for (const support::ThreadPool* slice_pool : slice_pools) {
      exp::Aggregate joined =
          exp::run_replicated_range(scenario, 0, split, seed, slice_pool);
      joined.merge(exp::run_replicated_range(scenario, split, reps, seed, slice_pool));
      SCOPED_TRACE(testing::Message() << "split=" << split
                                      << " pooled=" << (slice_pool != nullptr));
      expect_same_aggregate(whole, joined);
    }
  }
}

TEST(RunReplicated, GossipPooledIsByteIdenticalToSerial) {
  exp::Scenario scenario;
  scenario.params = sim::LogP{2, 1, 1, 128};
  scenario.protocol = exp::ProtocolKind::kGossip;
  scenario.gossip.gossip_time = 60;
  scenario.gossip.correction.kind = proto::CorrectionKind::kChecked;
  scenario.gossip.correction.start = proto::CorrectionStart::kSynchronized;
  scenario.gossip.correction.sync_time = scenario.gossip.gossip_time;
  scenario.fault_fraction = 0.05;
  const exp::Aggregate serial = exp::run_replicated(scenario, 24, 7);
  const support::ThreadPool pool(4);
  const exp::Aggregate pooled = exp::run_replicated(scenario, 24, 7, &pool);
  expect_same_aggregate(serial, pooled);
}

// --- ReplicaPlan reuse ------------------------------------------------------

exp::Scenario gossip_scenario(Rank procs, double fault_fraction) {
  exp::Scenario scenario;
  scenario.label = "determinism-gossip";
  scenario.params = sim::LogP{2, 1, 1, procs};
  scenario.protocol = exp::ProtocolKind::kGossip;
  scenario.gossip.gossip_time = 60;
  scenario.gossip.correction.kind = proto::CorrectionKind::kChecked;
  scenario.gossip.correction.start = proto::CorrectionStart::kSynchronized;
  scenario.gossip.correction.sync_time = scenario.gossip.gossip_time;
  scenario.fault_fraction = fault_fraction;
  return scenario;
}

/// Reusing one ReplicaPlan across replications (what run_replicated does,
/// serial and per pool worker) must be byte-identical to constructing a
/// fresh plan for every replication — for tree and gossip protocols, with
/// and without faults.
TEST(ReplicaPlan, ReuseMatchesFreshPlanSerialAndPooled) {
  const std::size_t reps = 24;
  const std::uint64_t seed = 0x9e11ULL;
  for (const bool gossip : {false, true}) {
    for (const double fault_fraction : {0.0, 0.02}) {
      const exp::Scenario scenario = gossip
                                         ? gossip_scenario(192, fault_fraction)
                                         : corrected_tree_scenario(192, fault_fraction);
      SCOPED_TRACE(testing::Message() << "gossip=" << gossip
                                      << " fault_fraction=" << fault_fraction);
      exp::Aggregate fresh;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        exp::ReplicaPlan plan;  // fresh buffers every replication
        fresh.add(exp::run_once(scenario, support::derive_seed(seed, rep), {}, plan));
      }
      const exp::Aggregate reused = exp::run_replicated(scenario, reps, seed);
      expect_same_aggregate(fresh, reused);
      for (std::size_t workers : {2u, 4u}) {
        const support::ThreadPool pool(workers);
        const exp::Aggregate pooled = exp::run_replicated(scenario, reps, seed, &pool);
        SCOPED_TRACE(testing::Message() << "workers=" << workers);
        expect_same_aggregate(fresh, pooled);
      }
    }
  }
}

// --- Calendar queue vs binary-heap reference --------------------------------

/// One recorded trace entry; every observable field of a TraceEvent.
using TraceRec = std::tuple<int, sim::Time, Rank, Rank, sim::Tag, std::int64_t,
                            std::int64_t, std::int64_t>;

std::vector<TraceRec> record_trace(const sim::LogP& params, const sim::FaultSet& faults,
                                   const topo::Tree& tree, sim::QueueKind queue) {
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kChecked;
  config.start = proto::CorrectionStart::kSynchronized;
  config.sync_time = proto::fault_free_dissemination_time(tree, params);
  proto::CorrectedTreeBroadcast protocol(tree, config);
  sim::Simulator simulator(params, faults);
  std::vector<TraceRec> trace;
  sim::RunOptions options;
  options.queue = queue;
  options.trace = [&trace](const sim::TraceEvent& event) {
    trace.emplace_back(static_cast<int>(event.kind), event.time, event.msg.src,
                       event.msg.dst, event.msg.tag, event.msg.payload, event.msg.data,
                       event.timer_id);
  };
  simulator.run(protocol, options);
  return trace;
}

TEST(CalendarQueue, ReplaysHeapOrderFaultFree) {
  const sim::LogP params{2, 1, 1, 512};
  const topo::Tree tree = topo::make_binomial_interleaved(params.P);
  const sim::FaultSet faults = sim::FaultSet::none(params.P);
  const auto heap = record_trace(params, faults, tree, sim::QueueKind::kBinaryHeap);
  const auto calendar = record_trace(params, faults, tree, sim::QueueKind::kCalendar);
  ASSERT_FALSE(heap.empty());
  EXPECT_EQ(heap, calendar);
}

TEST(CalendarQueue, ReplaysHeapOrderWithFaults) {
  const sim::LogP params{2, 1, 1, 512};
  const topo::Tree tree = topo::make_binomial_interleaved(params.P);
  support::Xoshiro256ss rng(21);
  const sim::FaultSet faults = sim::FaultSet::random_fraction(params.P, 0.02, rng);
  const auto heap = record_trace(params, faults, tree, sim::QueueKind::kBinaryHeap);
  const auto calendar = record_trace(params, faults, tree, sim::QueueKind::kCalendar);
  ASSERT_FALSE(heap.empty());
  EXPECT_EQ(heap, calendar);
}

/// Minimal scriptable protocol for poking queue edge cases.
class ScriptProtocol : public sim::Protocol {
 public:
  std::function<void(sim::Context&)> on_begin;
  std::function<void(sim::Context&, Rank, std::int64_t)> on_timer_fn;

  void begin(sim::Context& ctx) override {
    if (on_begin) on_begin(ctx);
  }
  void on_receive(sim::Context& ctx, Rank me, const sim::Message&) override {
    ctx.mark_colored(me);
  }
  void on_sent(sim::Context&, Rank, const sim::Message&) override {}
  void on_timer(sim::Context& ctx, Rank me, std::int64_t id) override {
    if (on_timer_fn) on_timer_fn(ctx, me, id);
  }
};

TEST(CalendarQueue, FarTimersTakeOverflowTierInOrder) {
  // Timers far beyond the ring window (> 2^16 ticks) interleaved with near
  // activity: overflow-tier merging must preserve (time, lane, seq) order.
  const sim::LogP params{2, 1, 1, 4};
  std::vector<std::pair<sim::Time, std::int64_t>> fired;
  auto build = [&fired]() {
    ScriptProtocol proto;
    proto.on_begin = [](sim::Context& ctx) {
      ctx.set_timer(1, 1 << 20, 1);  // far: overflow tier
      ctx.set_timer(2, 1 << 20, 2);  // same far tick: seq tie-break
      ctx.set_timer(3, 5, 3);        // near: ring
      ctx.send(0, 1, 1, 0);
    };
    proto.on_timer_fn = [&fired](sim::Context& ctx, Rank, std::int64_t id) {
      fired.emplace_back(ctx.now(), id);
      if (id == 1) ctx.set_timer(1, ctx.now(), 9);  // re-arm for "now"
    };
    return proto;
  };
  for (sim::QueueKind queue : {sim::QueueKind::kBinaryHeap, sim::QueueKind::kCalendar}) {
    fired.clear();
    ScriptProtocol proto = build();
    sim::Simulator simulator(params, sim::FaultSet::none(4));
    sim::RunOptions options;
    options.queue = queue;
    simulator.run(proto, options);
    const std::vector<std::pair<sim::Time, std::int64_t>> expected = {
        {5, 3}, {1 << 20, 1}, {1 << 20, 2}, {1 << 20, 9}};
    EXPECT_EQ(fired, expected) << "queue=" << static_cast<int>(queue);
  }
}

TEST(Simulator, QueueKindsProduceIdenticalResults) {
  const sim::LogP params{2, 1, 1, 1024};
  const topo::Tree tree = topo::make_binomial_interleaved(params.P);
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kChecked;
  config.start = proto::CorrectionStart::kSynchronized;
  config.sync_time = proto::fault_free_dissemination_time(tree, params);
  support::Xoshiro256ss rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const sim::FaultSet faults = sim::FaultSet::random_fraction(params.P, 0.02, rng);
    sim::RunOptions options;
    options.keep_per_rank_detail = true;
    options.queue = sim::QueueKind::kBinaryHeap;
    proto::CorrectedTreeBroadcast heap_protocol(tree, config);
    sim::Simulator heap_sim(params, faults);
    const sim::RunResult heap = heap_sim.run(heap_protocol, options);
    options.queue = sim::QueueKind::kCalendar;
    proto::CorrectedTreeBroadcast cal_protocol(tree, config);
    sim::Simulator cal_sim(params, faults);
    const sim::RunResult calendar = cal_sim.run(cal_protocol, options);
    SCOPED_TRACE(testing::Message() << "trial=" << trial);
    expect_same_result(heap, calendar);
  }
}

// --- Workspace reuse --------------------------------------------------------

sim::RunResult run_broadcast(const sim::LogP& params, const sim::FaultSet& faults,
                             sim::Workspace* workspace) {
  const topo::Tree tree = topo::make_binomial_interleaved(params.P);
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kChecked;
  config.start = proto::CorrectionStart::kSynchronized;
  config.sync_time = proto::fault_free_dissemination_time(tree, params);
  proto::CorrectedTreeBroadcast protocol(tree, config);
  sim::Simulator simulator(params, faults);
  sim::RunOptions options;
  options.keep_per_rank_detail = true;
  return workspace ? simulator.run(protocol, options, *workspace)
                   : simulator.run(protocol, options);
}

TEST(Workspace, ReuseIsBitIdenticalToFresh) {
  support::Xoshiro256ss rng(11);
  sim::Workspace reused;
  for (int trial = 0; trial < 4; ++trial) {
    const sim::LogP params{2, 1, 1, 300};
    const sim::FaultSet faults = sim::FaultSet::random_fraction(params.P, 0.05, rng);
    const sim::RunResult fresh = run_broadcast(params, faults, nullptr);
    const sim::RunResult warm = run_broadcast(params, faults, &reused);
    SCOPED_TRACE(testing::Message() << "trial=" << trial);
    expect_same_result(fresh, warm);
  }
}

TEST(Workspace, ReuseAcrossDifferentSizes) {
  // Shrinking then regrowing P must not leak state between runs.
  sim::Workspace reused;
  support::Xoshiro256ss rng(13);
  for (Rank procs : {300, 64, 300, 511}) {
    const sim::LogP params{2, 1, 1, procs};
    const sim::FaultSet faults =
        sim::FaultSet::random_fraction(procs, 0.05, rng);
    const sim::RunResult fresh = run_broadcast(params, faults, nullptr);
    const sim::RunResult warm = run_broadcast(params, faults, &reused);
    SCOPED_TRACE(testing::Message() << "procs=" << procs);
    expect_same_result(fresh, warm);
  }
}

TEST(Workspace, SurvivesAbortedRun) {
  // A run killed by the max_events guard leaves the workspace dirty; the
  // next run must hard-clear and still be bit-identical to a fresh one.
  const sim::LogP params{2, 1, 1, 64};
  sim::Workspace reused;
  {
    ScriptProtocol runaway;
    runaway.on_begin = [](sim::Context& ctx) { ctx.set_timer(0, 1, 1); };
    runaway.on_timer_fn = [](sim::Context& ctx, Rank, std::int64_t) {
      ctx.set_timer(0, ctx.now() + 1, 1);  // infinite timer chain
    };
    sim::Simulator simulator(params, sim::FaultSet::none(params.P));
    sim::RunOptions options;
    options.max_events = 100;
    EXPECT_THROW(simulator.run(runaway, options, reused), std::runtime_error);
  }
  const sim::FaultSet faults = sim::FaultSet::from_list(params.P, {3, 9});
  const sim::RunResult fresh = run_broadcast(params, faults, nullptr);
  const sim::RunResult warm = run_broadcast(params, faults, &reused);
  expect_same_result(fresh, warm);
}

}  // namespace
}  // namespace ct
