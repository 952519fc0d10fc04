// Chaos-layer tests (DESIGN.md §4d): ChaosPlan determinism, mid-epoch
// crash termination, sim/rt fault-model parity,
// deadline-expiry degradation reports, and link-perturbation accounting.
// Registered under the fast `chaos-smoke` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "experiment/run_spec.hpp"
#include "protocol/allreduce.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/engine.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"

namespace ct::rt {
namespace {

using topo::Rank;

proto::CorrectionConfig make_correction(proto::CorrectionKind kind,
                                        sim::Time delay = 0) {
  proto::CorrectionConfig config;
  config.kind = kind;
  config.start = proto::CorrectionStart::kOverlapped;
  config.distance = 4;
  config.delay = delay;
  return config;
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

TEST(ChaosPlan, ScheduleIsAPureFunctionOfSeedEpochRankAndSend) {
  ChaosOptions options;
  options.seed = 0xFACEu;
  options.crash_fraction = 0.10;
  options.drop_prob = 0.05;
  options.delay_prob = 0.05;
  options.duplicate_prob = 0.02;
  const ChaosPlan a(options);
  const ChaosPlan b(options);  // independent instance, same options
  for (std::int64_t epoch = 1; epoch <= 4; ++epoch) {
    for (Rank r = 0; r < 64; ++r) {
      const std::int64_t when = a.crash_ns(epoch, r);
      ASSERT_EQ(when, b.crash_ns(epoch, r));
      if (r == 0) {
        EXPECT_EQ(when, -1);  // the root never crashes
      }
      if (when >= 0) {
        EXPECT_GE(when, 1);
        EXPECT_LE(when, options.crash_window_ns);
      }
      for (std::int64_t send = 1; send <= 8; ++send) {
        const auto va = a.classify(epoch, r, send);
        const auto vb = b.classify(epoch, r, send);
        ASSERT_EQ(va.drop, vb.drop);
        ASSERT_EQ(va.duplicate, vb.duplicate);
        ASSERT_EQ(va.delay_ns, vb.delay_ns);
        // Perturbations are mutually exclusive per send.
        EXPECT_LE((va.drop ? 1 : 0) + (va.duplicate ? 1 : 0) +
                      (va.delay_ns > 0 ? 1 : 0),
                  1);
      }
    }
  }

  // A different seed must produce a different schedule somewhere.
  options.seed = 0xFACFu;
  const ChaosPlan c(options);
  bool differs = false;
  for (std::int64_t epoch = 1; epoch <= 4 && !differs; ++epoch) {
    for (Rank r = 1; r < 64 && !differs; ++r) {
      differs = a.crash_ns(epoch, r) != c.crash_ns(epoch, r);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosPlan, EnablementReflectsOptions) {
  EXPECT_FALSE(ChaosPlan{}.enabled());
  ChaosOptions crash_only;
  crash_only.crash_fraction = 0.01;
  EXPECT_TRUE(ChaosPlan(crash_only).crashes_enabled());
  EXPECT_FALSE(ChaosPlan(crash_only).links_enabled());
  ChaosOptions link_only;
  link_only.drop_prob = 0.01;
  EXPECT_FALSE(ChaosPlan(link_only).crashes_enabled());
  EXPECT_TRUE(ChaosPlan(link_only).links_enabled());
  ChaosPlan overrides;
  overrides.kill_at_ns(3, 100);
  EXPECT_TRUE(overrides.crashes_enabled());
  EXPECT_EQ(overrides.crash_ns(1, 3), 100);
  EXPECT_EQ(overrides.crash_ns(7, 3), 100);  // overrides apply every epoch
  EXPECT_EQ(overrides.crash_ns(1, 4), -1);
  ChaosPlan budget;
  budget.kill_after_sends(5, 2);
  EXPECT_TRUE(budget.crashes_enabled());
  EXPECT_EQ(budget.crash_send_budget(5), 2);
  EXPECT_EQ(budget.crash_send_budget(6), -1);
}

// The fault-model parity suite, spec-driven (DESIGN.md §4e): build ONE
// RunSpec string per scenario, execute it under exec=sim and exec=rt-*, and
// require the identical survivor-coloring outcome from the two RunRecords.
// The kill= victims die before processing anything in either executor (sim:
// t = 1, first receive completes at t >= 4 under LogP{2,1,1}; rt:
// crash_ns = 0, checked before the rank's first step), so the coloring
// outcome is the timing-independent coverage of the correction algorithm.
std::string parity_cell(Rank procs, const std::vector<Rank>& victims,
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

exp::RunRecord run_cell(const std::string& cell, const std::string& executor) {
  return exp::run(exp::parse_run_spec(cell + "," + executor));
}

TEST(ChaosParity, SimAndRtAgreeOnSurvivorColoringUnderMidBroadcastDeaths) {
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
  support::Xoshiro256ss rng(0x9A17u);
  for (int scenario = 0; scenario < 6; ++scenario) {
    const std::vector<Rank> victims =
        pick_victims(procs, 1 + scenario % 3, rng);
    for (const auto& k : kinds) {
      const std::string cell = parity_cell(procs, victims, k.kind);
      SCOPED_TRACE(cell);
      const exp::RunRecord expected = run_cell(cell, "exec=sim");
      // A coverage-bounded correction that cannot reach someone never
      // completes the epoch; bound that case by a short deadline. The
      // completion-guaranteed algorithms get none (default 10 s timeout,
      // never used).
      const bool bounded = !k.completes && !expected.uncolored_survivors.empty();
      const exp::RunRecord actual = run_cell(
          cell, bounded ? std::string("deadline-ms=400,exec=rt-sharded:w=4")
                        : std::string("exec=rt-sharded:w=4"));
      EXPECT_EQ(actual.uncolored_survivors, expected.uncolored_survivors);
      EXPECT_EQ(actual.crashed_ranks, expected.crashed_ranks);
      EXPECT_EQ(expected.crashed_ranks, victims);
      EXPECT_EQ(expected.incomplete > 0, !expected.uncolored_survivors.empty());
    }
  }
}

TEST(ChaosParity, SingleShardMatchesSimForCheckedCorrection) {
  const Rank procs = 16;
  support::Xoshiro256ss rng(0xB0B0u);
  for (int scenario = 0; scenario < 3; ++scenario) {
    const std::vector<Rank> victims = pick_victims(procs, 2, rng);
    const std::string cell =
        parity_cell(procs, victims, proto::CorrectionKind::kChecked);
    SCOPED_TRACE(cell);
    const exp::RunRecord expected = run_cell(cell, "exec=sim");
    EXPECT_TRUE(expected.uncolored_survivors.empty());  // checked reaches everyone
    const exp::RunRecord actual = run_cell(cell, "exec=rt-sharded:w=1");
    EXPECT_EQ(actual.uncolored_survivors, expected.uncolored_survivors);
    EXPECT_EQ(actual.crashed_ranks, victims);
  }
}

TEST(ChaosEngine, MidEpochCrashesTerminate) {
  const Rank procs = 96;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0), options);
  ChaosOptions chaos;
  chaos.seed = 0xDEAD;
  chaos.crash_fraction = 0.08;
  chaos.crash_window_ns = 500'000;  // inside dissemination/correction
  engine.set_chaos(ChaosPlan(chaos));
  std::int64_t crashes = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
    crashes += result.crashed_mid_epoch;
    EXPECT_EQ(result.crashed_mid_epoch,
              static_cast<std::int32_t>(result.crashed_ranks.size()));
    EXPECT_EQ(result.rank_state.size(), static_cast<std::size_t>(procs));
    for (Rank r : result.crashed_ranks) {
      EXPECT_EQ(result.rank_state[static_cast<std::size_t>(r)], RankEnd::kCrashed);
    }
    // Crashed ranks are reported in rank_completion_ns (they were live at
    // start) but never completed.
    EXPECT_EQ(result.rank_completion_ns.size(), static_cast<std::size_t>(procs));
  }
  // With an 8% per-epoch crash rate over 6 epochs someone must have died;
  // the run completing anyway is the point of the countdown credit.
  EXPECT_GT(crashes, 0);
}

TEST(ChaosEngine, SendBudgetCrashKillsRankMidSend) {
  const Rank procs = 32;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  ChaosPlan plan;
  const Rank victim = 1;  // an inner tree rank with several children
  plan.kill_after_sends(victim, 1);
  engine.set_chaos(std::move(plan));
  proto::CorrectedTreeBroadcast protocol(
      tree, make_correction(proto::CorrectionKind::kChecked));
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
  ASSERT_EQ(result.crashed_ranks, std::vector<Rank>{victim});
  EXPECT_EQ(result.rank_state[static_cast<std::size_t>(victim)], RankEnd::kCrashed);
}

TEST(ChaosEngine, DeadlineExpiryYieldsDegradationReportNotAHang) {
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  options.epoch_deadline = std::chrono::milliseconds(100);
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  // Kill the root's first child before it forwards anything and run with
  // no correction: its subtree can never be colored, so the epoch *must*
  // end at the deadline with an explanation.
  ChaosPlan plan;
  const Rank victim = tree.children(0)[0];
  plan.kill_at_ns(victim, 0);
  engine.set_chaos(std::move(plan));
  const auto start = Clock::now();
  proto::CorrectedTreeBroadcast protocol(
      tree, make_correction(proto::CorrectionKind::kNone));
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
  const auto elapsed = Clock::now() - start;
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(result.degraded());
  EXPECT_LT(elapsed, std::chrono::seconds(10));  // deadline, not the timeout
  EXPECT_GT(result.uncolored_live, 0);
  EXPECT_EQ(result.uncolored_survivors.size(),
            static_cast<std::size_t>(result.uncolored_live));
  EXPECT_EQ(result.crashed_ranks, std::vector<Rank>{victim});
  // The report's gap structure covers the ring: victim + uncolored
  // survivors are the holes.
  EXPECT_EQ(result.coloring_gaps.uncolored,
            static_cast<std::int64_t>(result.uncolored_live) + 1);
  EXPECT_GT(result.coloring_gaps.gap_count, 0);
  for (Rank r : result.uncolored_survivors) {
    EXPECT_EQ(result.rank_state[static_cast<std::size_t>(r)], RankEnd::kUncolored);
  }
}

TEST(ChaosEngine, DropsAreRecoveredByCheckedCorrection) {
  const Rank procs = 128;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  ChaosOptions chaos;
  chaos.seed = 0x0D0Du;
  chaos.drop_prob = 0.05;
  engine.set_chaos(ChaosPlan(chaos));
  std::int64_t dropped = 0;
  for (int epoch = 0; epoch < 4; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
    dropped += result.messages_dropped;
  }
  EXPECT_GT(dropped, 0);  // 5% of thousands of sends
}

TEST(ChaosEngine, DelayAndDuplicateAccounting) {
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  ChaosOptions chaos;
  chaos.seed = 0xD1Ceu;
  chaos.delay_prob = 0.10;
  chaos.delay_ns = 100'000;
  chaos.delay_jitter_ns = 50'000;
  chaos.duplicate_prob = 0.10;
  engine.set_chaos(ChaosPlan(chaos));
  std::int64_t delayed = 0;
  std::int64_t duplicated = 0;
  for (int epoch = 0; epoch < 4; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    // Duplicates and delays must be harmless to the outcome: protocols
    // already tolerate re-delivery and reordering.
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
    delayed += result.messages_delayed;
    duplicated += result.messages_duplicated;
  }
  EXPECT_GT(delayed, 0);
  EXPECT_GT(duplicated, 0);
}

// --- survivor agreement (PR9): allreduce under mid-epoch kills --------------
// The recovery suite's correctness anchor: whatever subset of contributions
// a killed gather loses, every *survivor* must end the epoch holding one
// and the same reduction value. Sim asserts value-level agreement from the
// per-rank detail (rank_data); the runtime asserts it through the coloring
// contract (colored ⇔ holds the result broadcast) plus the root's result,
// which is deterministic under rt because kill= victims die before their
// first step and so contribute nothing.

std::string allreduce_cell(Rank procs, const std::vector<Rank>& victims) {
  std::string spec = "allreduce:binomial:checked:overlapped@P=" + std::to_string(procs);
  spec += ",kill=";
  for (std::size_t i = 0; i < victims.size(); ++i) {
    if (i) spec += '+';
    spec += std::to_string(victims[i]);
  }
  spec += ",reps=1,warmup=0";
  return spec;
}

TEST(SurvivorAgreement, SimSurvivorsHoldOneReductionValueUnderMidGatherKills) {
  const Rank procs = 24;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  sim::LogP params;
  params.P = procs;
  std::vector<std::int64_t> values(static_cast<std::size_t>(procs));
  for (Rank r = 0; r < procs; ++r) values[static_cast<std::size_t>(r)] = r % 97;

  support::Xoshiro256ss rng(0xA11Du);
  for (int scenario = 0; scenario < 4; ++scenario) {
    std::vector<Rank> victims = pick_victims(procs, 2, rng);
    if (scenario % 2 == 0) victims.back() = procs - 1;  // lose the max holder
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
    SCOPED_TRACE(allreduce_cell(procs, victims));

    sim::FaultSet faults = sim::FaultSet::none(procs);
    for (const Rank v : victims) faults.kill_at(v, 1);
    proto::AllReduceConfig config;
    config.reduce.distance = 4;  // gather guarantee needs failures <= distance
    config.correction = make_correction(proto::CorrectionKind::kChecked);
    proto::CorrectedAllReduce protocol(tree, params, values, config);
    sim::Simulator simulator(params, &faults);
    sim::RunOptions options;
    options.keep_per_rank_detail = true;
    const sim::RunResult result = simulator.run(protocol, options);

    ASSERT_TRUE(protocol.reduction_done());
    std::int64_t survivors_checked = 0;
    for (Rank r = 0; r < procs; ++r) {
      if (!faults.always_alive(r)) continue;
      ASSERT_NE(result.colored_at[static_cast<std::size_t>(r)], sim::kTimeNever)
          << "survivor " << r << " never received the result";
      EXPECT_EQ(result.rank_data[static_cast<std::size_t>(r)], protocol.result())
          << "survivor " << r << " disagrees with the root";
      ++survivors_checked;
    }
    EXPECT_EQ(survivors_checked,
              procs - static_cast<Rank>(victims.size()));
  }
}

TEST(SurvivorAgreement, RtSurvivorsAgreeOnTheSurvivorOnlyReduction) {
  const Rank procs = 24;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  sim::LogP params;
  params.P = procs;
  // The gather forwards on LogP-timetable deadlines; under wall clock a
  // tick is a microsecond, so widen the timetable to give live partials
  // real slack. The value-exact assertion still has to stay one-sided
  // (result <= survivor max): a slow live contribution can legitimately
  // miss its parent's deadline on a loaded machine, which is the paper's
  // deadline-driven semantics, not a bug. Sim pins exact agreement above.
  params.L = 200;
  params.o = 50;
  params.g = 50;
  std::vector<std::int64_t> values(static_cast<std::size_t>(procs));
  for (Rank r = 0; r < procs; ++r) values[static_cast<std::size_t>(r)] = r % 97;

  support::Xoshiro256ss rng(0xA22Du);
  for (int scenario = 0; scenario < 3; ++scenario) {
    std::vector<Rank> victims = pick_victims(procs, 2, rng);
    victims.back() = procs - 1;  // always lose the max contribution
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
    SCOPED_TRACE(allreduce_cell(procs, victims));

    // kill= victims die before their first step, so nothing they hold can
    // enter the reduction: the agreed value is bounded by the survivor max.
    std::int64_t expected = 0;
    for (Rank r = 0; r < procs; ++r) {
      if (std::find(victims.begin(), victims.end(), r) == victims.end()) {
        expected = std::max(expected, values[static_cast<std::size_t>(r)]);
      }
    }
    ASSERT_LT(expected, procs - 1);  // the lost max is really observable

    EngineOptions options;
    options.workers = 4;
    Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                  options);
    ChaosPlan plan;
    for (const Rank v : victims) plan.kill_at_ns(v, 0);
    engine.set_chaos(std::move(plan));

    proto::AllReduceConfig config;
    config.reduce.distance = 4;  // gather guarantee needs failures <= distance
    config.correction = make_correction(proto::CorrectionKind::kChecked);
    proto::CorrectedAllReduce protocol(tree, params, values, config);
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_FALSE(result.timed_out);
    // Every survivor colored = every survivor holds the result broadcast,
    // i.e. all survivors agree on one reduction value.
    EXPECT_EQ(result.uncolored_live, 0);
    EXPECT_EQ(result.crashed_ranks, victims);
    EXPECT_TRUE(protocol.reduction_done());
    EXPECT_GE(protocol.result(), 0);
    EXPECT_LE(protocol.result(), expected);  // dead values never resurrect
  }
}

TEST(SurvivorAgreement, SpecDrivenAllreduceCellsAgreeAcrossSubstrates) {
  // The same allreduce cell under exec=sim and rt-sharded on four shards
  // and on one: identical survivor-coloring outcome, nobody left without
  // the result.
  const Rank procs = 24;
  support::Xoshiro256ss rng(0xA33Du);
  for (int scenario = 0; scenario < 3; ++scenario) {
    const std::vector<Rank> victims = pick_victims(procs, 1 + scenario, rng);
    const std::string cell = allreduce_cell(procs, victims);
    SCOPED_TRACE(cell);
    const exp::RunRecord expected = run_cell(cell, "exec=sim");
    EXPECT_TRUE(expected.uncolored_survivors.empty());  // checked reaches all
    EXPECT_EQ(expected.incomplete, 0);
    for (const char* executor : {"exec=rt-sharded:w=4", "exec=rt-sharded:w=1"}) {
      const exp::RunRecord actual = run_cell(cell, executor);
      EXPECT_EQ(actual.uncolored_survivors, expected.uncolored_survivors);
      EXPECT_EQ(actual.crashed_ranks, victims);
      EXPECT_EQ(actual.incomplete, 0);
      EXPECT_EQ(actual.timeouts, 0);
    }
  }
}

TEST(ChaosEngine, DisabledPlanLeavesResultsCleanAndDeterministic) {
  const Rank procs = 48;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  engine.set_chaos(ChaosPlan{});  // disabled: hooks must be no-ops
  proto::CorrectedTreeBroadcast protocol(
      tree, make_correction(proto::CorrectionKind::kChecked));
  const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(result.uncolored_live, 0);
  EXPECT_EQ(result.crashed_mid_epoch, 0);
  EXPECT_EQ(result.messages_dropped, 0);
  EXPECT_EQ(result.messages_delayed, 0);
  EXPECT_EQ(result.messages_duplicated, 0);
  EXPECT_TRUE(result.crashed_ranks.empty());
  EXPECT_TRUE(result.uncolored_survivors.empty());
  EXPECT_FALSE(result.degraded());
}

}  // namespace
}  // namespace ct::rt
