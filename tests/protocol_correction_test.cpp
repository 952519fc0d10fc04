// Corrected Tree broadcast + correction algorithms: fault-free guarantees,
// Lemma 2 / Corollary 1 / Lemma 3 agreement between analysis and simulation,
// per-algorithm coloring guarantees under fault injection, and the §3.2.1
// k-ary tolerance bound.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/bounds.hpp"
#include "experiment/runner.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/simulator.hpp"
#include "topology/factory.hpp"

namespace ct::proto {
namespace {

using exp::ProtocolKind;
using exp::run_once;
using exp::Scenario;
using topo::Rank;

Scenario base_scenario(const std::string& tree, Rank procs, sim::Time L = 2,
                       sim::Time o = 1) {
  Scenario scenario;
  scenario.params = sim::LogP{L, o, /*g=*/o, procs};
  scenario.tree = topo::parse_tree_spec(tree);
  return scenario;
}

// --- Fault-free dissemination --------------------------------------------------

class FaultFreeTreeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultFreeTreeTest, ColorsEveryoneWithMinimalMessages) {
  for (Rank procs : {1, 2, 33, 256, 1000}) {
    Scenario scenario = base_scenario(GetParam(), procs);
    scenario.correction.kind = CorrectionKind::kNone;
    const sim::RunResult result = run_once(scenario, 1);
    EXPECT_TRUE(result.fully_colored()) << GetParam() << " P=" << procs;
    EXPECT_EQ(result.total_messages, procs - 1);  // exactly one per non-root
    EXPECT_EQ(result.coloring_latency, result.quiescence_latency);
  }
}

INSTANTIATE_TEST_SUITE_P(Trees, FaultFreeTreeTest,
                         ::testing::Values("binomial", "binomial-inorder", "kary:4",
                                           "lame:2", "optimal"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == ':' || ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(FaultFreeDissemination, OptimalTreeIsFastest) {
  // Fig. 7 ordering: optimal < lame(2) < binomial in latency at L=2, o=1.
  const sim::LogP p{2, 1, 1, 4096};
  const sim::Time binomial =
      fault_free_dissemination_time(topo::make_binomial_interleaved(4096), p);
  const sim::Time lame = fault_free_dissemination_time(topo::make_lame(4096, 2), p);
  const sim::Time optimal = fault_free_dissemination_time(topo::make_optimal(4096, 1, 2), p);
  EXPECT_LT(optimal, lame);
  EXPECT_LT(lame, binomial);
}

TEST(FaultFreeDissemination, OptimalTreeMatchesItsSchedule) {
  // §3.2.3: T_t colors R(t + 2o + L)-ish processes by construction; inverse
  // check: the simulated latency t satisfies R(t) >= P > R(t - o).
  // (Aligned parameters, L % o == 0, where the slotted recurrence applies.)
  const sim::LogP p{4, 2, 2, 500};
  const sim::Time t =
      fault_free_dissemination_time(topo::make_optimal(500, p.o, p.L), p);
  EXPECT_GE(topo::optimal_ready_to_send(p.o, p.L, t), 500);
  EXPECT_LT(topo::optimal_ready_to_send(p.o, p.L, t - p.o), 500);
}

TEST(FaultFreeDissemination, LameOptimalWhenParametersMatch) {
  // §3.2.3/Fig. 5: with 2o + L = k the Lamé tree is latency-optimal, i.e.
  // as fast as the optimal tree.
  const sim::LogP p{1, 1, 1, 512};  // 2o+L = 3
  const sim::Time lame = fault_free_dissemination_time(topo::make_lame(512, 3), p);
  const sim::Time optimal =
      fault_free_dissemination_time(topo::make_optimal(512, p.o, p.L), p);
  EXPECT_EQ(lame, optimal);
}

// --- Lemma 2 / Corollary 1 across LogP parameters -------------------------------

class CheckedLemmaTest : public ::testing::TestWithParam<std::tuple<sim::Time, sim::Time>> {
};

TEST_P(CheckedLemmaTest, SyncCheckedMatchesClosedForms) {
  const auto [o, L] = GetParam();
  const Rank procs = 512;
  Scenario scenario = base_scenario("binomial", procs, L, o);
  scenario.correction.kind = CorrectionKind::kChecked;
  scenario.correction.start = CorrectionStart::kSynchronized;
  const sim::RunResult result = run_once(scenario, 1);
  ASSERT_TRUE(result.fully_colored());
  const sim::LogP params = scenario.params;
  EXPECT_EQ(result.correction_time(),
            analysis::checked_correction_fault_free_latency(params))
      << "o=" << o << " L=" << L;
  // Total = (P-1) tree messages + M_SCC correction messages per process.
  EXPECT_EQ(result.total_messages,
            (procs - 1) + procs * analysis::checked_correction_fault_free_messages(params))
      << "o=" << o << " L=" << L;
  EXPECT_EQ(result.dissemination_gaps.max_gap, 0);
}

INSTANTIATE_TEST_SUITE_P(LogPGrid, CheckedLemmaTest,
                         ::testing::Values(std::tuple<sim::Time, sim::Time>{1, 2},
                                           std::tuple<sim::Time, sim::Time>{1, 1},
                                           std::tuple<sim::Time, sim::Time>{1, 5},
                                           std::tuple<sim::Time, sim::Time>{2, 3},
                                           std::tuple<sim::Time, sim::Time>{2, 8},
                                           std::tuple<sim::Time, sim::Time>{3, 2}));

// --- Checked correction under faults ---------------------------------------------

struct FaultCase {
  std::string tree;
  Rank procs;
  Rank faults;
};

class CheckedFaultsTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(CheckedFaultsTest, AlwaysColorsAllLiveProcesses) {
  const auto& param = GetParam();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Scenario scenario = base_scenario(param.tree, param.procs);
    scenario.correction.kind = CorrectionKind::kChecked;
    scenario.correction.start = CorrectionStart::kSynchronized;
    scenario.fault_count = param.faults;
    const sim::RunResult result = run_once(scenario, seed);
    EXPECT_TRUE(result.fully_colored())
        << param.tree << " P=" << param.procs << " f=" << param.faults
        << " seed=" << seed << " left " << result.uncolored_live << " uncolored";

    // Lemma 3: the correction time lies within the g_max bounds.
    const auto gap = result.dissemination_gaps.max_gap;
    EXPECT_GE(result.correction_time(),
              analysis::checked_correction_latency_lower_bound(scenario.params, gap));
    EXPECT_LE(result.correction_time(),
              analysis::checked_correction_latency_upper_bound(scenario.params, gap));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultGrid, CheckedFaultsTest,
    ::testing::Values(FaultCase{"binomial", 256, 1}, FaultCase{"binomial", 256, 8},
                      FaultCase{"binomial", 256, 64}, FaultCase{"binomial-inorder", 256, 4},
                      FaultCase{"kary:4", 256, 8}, FaultCase{"lame:2", 333, 10},
                      FaultCase{"optimal", 512, 16}, FaultCase{"binomial", 64, 32}),
    [](const auto& info) {
      std::string name = info.param.tree + "_" + std::to_string(info.param.procs) + "_f" +
                         std::to_string(info.param.faults);
      for (char& ch : name) {
        if (ch == ':' || ch == '-') ch = '_';
      }
      return name;
    });

TEST(CheckedCorrection, OverlappedAlsoColorsEverything) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario scenario = base_scenario("binomial", 256);
    scenario.correction.kind = CorrectionKind::kChecked;
    scenario.correction.start = CorrectionStart::kOverlapped;
    scenario.fault_count = 16;
    const sim::RunResult result = run_once(scenario, seed);
    EXPECT_TRUE(result.fully_colored()) << "seed=" << seed;
  }
}

// --- Opportunistic correction -----------------------------------------------------

TEST(Opportunistic, GuaranteeFollowsGapSize) {
  // Construct a worst case with the in-order tree: killing an inner node of
  // the in-order binomial tree leaves a contiguous gap the size of its
  // subtree. Opportunistic correction with both directions covers gaps of
  // at most 2d.
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_inorder(procs);
  // Rank 33 in a 64-rank in-order binomial tree roots a subtree of 16..?
  // Use a rank with subtree size 4 < 2d for d=2, then one with size > 2d.
  Rank small_victim = topo::kNoRank;
  Rank big_victim = topo::kNoRank;
  for (Rank r = 1; r < procs; ++r) {
    if (tree.subtree_size(r) == 4 && small_victim == topo::kNoRank) small_victim = r;
    if (tree.subtree_size(r) >= 8 && big_victim == topo::kNoRank && r != 1) big_victim = r;
  }
  ASSERT_NE(small_victim, topo::kNoRank);
  ASSERT_NE(big_victim, topo::kNoRank);

  auto run_with_victim = [&](Rank victim, int distance) {
    CorrectionConfig config;
    config.kind = CorrectionKind::kOpportunistic;
    config.start = CorrectionStart::kSynchronized;
    config.distance = distance;
    config.sync_time = fault_free_dissemination_time(tree, sim::LogP{2, 1, 1, procs});
    CorrectedTreeBroadcast protocol(tree, config);
    sim::Simulator simulator(sim::LogP{2, 1, 1, procs},
                             sim::FaultSet::from_list(procs, {victim}));
    return simulator.run(protocol);
  };

  // Gap of 4 (subtree), d=2: covered from both sides.
  EXPECT_TRUE(run_with_victim(small_victim, 2).fully_colored());
  // Gap of >= 8, d=2: cannot be covered; interior stays uncolored.
  EXPECT_FALSE(run_with_victim(big_victim, 2).fully_colored());
  // Same big gap, d large enough: covered again.
  EXPECT_TRUE(run_with_victim(big_victim, 8).fully_colored());
}

TEST(Opportunistic, KAryToleranceBound) {
  // §3.2.1: in a k-ary interleaved tree, up to k-1 failures leave every
  // k-th process colored; opportunistic correction with d >= k-1 then
  // colors all (tested over many random placements).
  for (int k : {2, 4}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      Scenario scenario = base_scenario("kary:" + std::to_string(k), 256);
      scenario.correction.kind = CorrectionKind::kOpportunistic;
      scenario.correction.start = CorrectionStart::kSynchronized;
      scenario.correction.distance = k - 1 > 0 ? k - 1 : 1;
      scenario.fault_count = static_cast<Rank>(
          analysis::kary_guaranteed_failure_tolerance(k));
      if (scenario.fault_count == 0) continue;
      const sim::RunResult result = run_once(scenario, seed);
      EXPECT_TRUE(result.fully_colored()) << "k=" << k << " seed=" << seed;
      EXPECT_LT(result.dissemination_gaps.max_gap, k);
    }
  }
}

TEST(Opportunistic, EveryKthColoredAfterDissemination) {
  // The structural half of the §3.2.1 guarantee, independent of correction:
  // with k-1 failures the dissemination snapshot has max gap < k.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario scenario = base_scenario("kary:4", 341);
    scenario.correction.kind = CorrectionKind::kOpportunistic;
    scenario.correction.start = CorrectionStart::kSynchronized;
    scenario.correction.distance = 3;
    scenario.fault_count = 3;
    const sim::RunResult result = run_once(scenario, seed);
    ASSERT_TRUE(result.has_dissemination_snapshot);
    EXPECT_LT(result.dissemination_gaps.max_gap, 4) << "seed=" << seed;
  }
}

TEST(OptimizedOpportunistic, NeverMoreMessagesThanPlain) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Scenario plain = base_scenario("binomial", 256);
    plain.correction.kind = CorrectionKind::kOpportunistic;
    plain.correction.start = CorrectionStart::kSynchronized;
    plain.correction.distance = 4;
    plain.fault_count = 5;

    Scenario optimized = plain;
    optimized.correction.kind = CorrectionKind::kOptimizedOpportunistic;

    const sim::RunResult plain_result = run_once(plain, seed);
    const sim::RunResult optimized_result = run_once(optimized, seed);
    EXPECT_LE(optimized_result.total_messages, plain_result.total_messages)
        << "seed=" << seed;
    // §3.3: the optimization preserves non-faulty liveness.
    EXPECT_EQ(optimized_result.uncolored_live, plain_result.uncolored_live)
        << "seed=" << seed;
  }
}

TEST(OptimizedOpportunistic, AtMostCheckedMessagesFaultFree) {
  // §4.1: "Optimized opportunistic correction sends at most as many
  // messages as checked correction."
  for (const char* tree : {"binomial", "kary:4", "lame:2", "optimal"}) {
    Scenario checked = base_scenario(tree, 512);
    checked.correction.kind = CorrectionKind::kChecked;
    checked.correction.start = CorrectionStart::kSynchronized;

    Scenario optimized = base_scenario(tree, 512);
    optimized.correction.kind = CorrectionKind::kOptimizedOpportunistic;
    optimized.correction.start = CorrectionStart::kOverlapped;
    optimized.correction.distance = 4;

    EXPECT_LE(run_once(optimized, 1).total_messages, run_once(checked, 1).total_messages)
        << tree;
  }
}

TEST(OptimizedOpportunistic, LeftOnlyStillColorsSmallGaps) {
  // The §4.4 prototype's single-direction mode: each process covers d ranks
  // below itself, so gaps up to d are colored from above.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Scenario scenario = base_scenario("binomial", 256);
    scenario.correction.kind = CorrectionKind::kOptimizedOpportunistic;
    scenario.correction.start = CorrectionStart::kOverlapped;
    scenario.correction.directions = CorrectionDirections::kLeftOnly;
    scenario.correction.distance = 4;
    scenario.fault_count = 3;
    const sim::RunResult result = run_once(scenario, seed);
    if (result.has_dissemination_snapshot &&
        result.dissemination_gaps.max_gap > 4) {
      continue;  // beyond the single-direction guarantee
    }
    EXPECT_TRUE(result.fully_colored()) << "seed=" << seed;
  }
}

// --- Delayed correction -------------------------------------------------------------

TEST(Delayed, OneMessagePerProcessFaultFree) {
  // §3.3 + Fig. 6's "Minimum" line: delayed correction reaches the
  // one-message-per-process floor when nothing fails.
  const Rank procs = 256;
  Scenario scenario = base_scenario("binomial", procs);
  scenario.correction.kind = CorrectionKind::kDelayed;
  scenario.correction.start = CorrectionStart::kSynchronized;
  scenario.correction.delay = 2 * scenario.params.message_cost();
  const sim::RunResult result = run_once(scenario, 1);
  EXPECT_TRUE(result.fully_colored());
  EXPECT_EQ(result.total_messages, (procs - 1) + procs);  // tree + 1 each
}

TEST(Delayed, ProbesRightwardAcrossGapsAndRecovers) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Scenario scenario = base_scenario("binomial", 256);
    scenario.correction.kind = CorrectionKind::kDelayed;
    scenario.correction.start = CorrectionStart::kSynchronized;
    scenario.correction.delay = 2 * scenario.params.message_cost();
    scenario.fault_count = 10;
    const sim::RunResult result = run_once(scenario, seed);
    EXPECT_TRUE(result.fully_colored()) << "seed=" << seed;
  }
}

TEST(Delayed, FailureCostsLatencyNotMessagesElsewhere) {
  // §3.3: "The reduced overhead in the fault-free case comes at the cost of
  // a higher latency when a failure does occur."
  Scenario clean = base_scenario("binomial", 256);
  clean.correction.kind = CorrectionKind::kDelayed;
  clean.correction.start = CorrectionStart::kSynchronized;
  clean.correction.delay = 2 * clean.params.message_cost();

  Scenario faulty = clean;
  faulty.fault_count = 5;

  const sim::RunResult clean_result = run_once(clean, 3);
  const sim::RunResult faulty_result = run_once(faulty, 3);
  EXPECT_GT(faulty_result.quiescence_latency, clean_result.quiescence_latency);
}

// --- Failure-proof correction ---------------------------------------------------------

TEST(FailureProof, ColorsAllFaultFreeWithAcks) {
  const Rank procs = 128;
  Scenario scenario = base_scenario("binomial", procs);
  scenario.correction.kind = CorrectionKind::kFailureProof;
  scenario.correction.start = CorrectionStart::kSynchronized;
  const sim::RunResult result = run_once(scenario, 1);
  EXPECT_TRUE(result.fully_colored());
  // Probes demand replies: strictly more traffic than checked would need.
  EXPECT_GT(result.total_messages, 3 * procs);
}

TEST(FailureProof, SurvivesStaticFaults) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Scenario scenario = base_scenario("binomial", 256);
    scenario.correction.kind = CorrectionKind::kFailureProof;
    scenario.correction.start = CorrectionStart::kSynchronized;
    scenario.fault_count = 30;
    const sim::RunResult result = run_once(scenario, seed);
    EXPECT_TRUE(result.fully_colored()) << "seed=" << seed;
  }
}

TEST(FailureProof, SurvivesDeathDuringCorrection) {
  // Kill one additional participant right after correction starts; checked
  // correction's guarantee explicitly excludes this case, failure-proof
  // (redundancy 2) must still color every process that remains alive.
  const Rank procs = 128;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  const sim::Time sync = fault_free_dissemination_time(tree, params);

  for (Rank mid_death : {3, 40, 77, 126}) {
    for (Rank static_death : {10, 60, 100}) {
      if (mid_death == static_death) continue;
      sim::FaultSet faults = sim::FaultSet::from_list(procs, {static_death});
      faults.kill_at(mid_death, sync + 2);  // dies while correcting

      CorrectionConfig config;
      config.kind = CorrectionKind::kFailureProof;
      config.start = CorrectionStart::kSynchronized;
      config.sync_time = sync;
      config.redundancy = 2;
      CorrectedTreeBroadcast protocol(tree, config);
      sim::Simulator simulator(params, faults);
      const sim::RunResult result = simulator.run(protocol);
      EXPECT_TRUE(result.fully_colored())
          << "mid=" << mid_death << " static=" << static_death << " left "
          << result.uncolored_live;
    }
  }
}

// --- Synchronized vs overlapped -----------------------------------------------------

TEST(Overlapped, NoSlowerColoringThanSynchronized) {
  // Overlapped correction starts strictly earlier on every process, so the
  // (fault-free) quiescence cannot be later than sync + its correction.
  Scenario sync = base_scenario("binomial", 512);
  sync.correction.kind = CorrectionKind::kOptimizedOpportunistic;
  sync.correction.start = CorrectionStart::kSynchronized;
  sync.correction.distance = 4;

  Scenario overlapped = sync;
  overlapped.correction.start = CorrectionStart::kOverlapped;

  const sim::RunResult sync_result = run_once(sync, 1);
  const sim::RunResult overlapped_result = run_once(overlapped, 1);
  EXPECT_TRUE(sync_result.fully_colored());
  EXPECT_TRUE(overlapped_result.fully_colored());
  EXPECT_LE(overlapped_result.coloring_latency, sync_result.quiescence_latency);
}

TEST(Overlapped, CheckedKeepsStopEvidenceFromBeforeStart) {
  // Under overlapped start an inner node starts correcting only after it has
  // sent to all its children, when its ring neighbours have already sent to
  // it. If their messages were ignored because the node was not active yet,
  // it swept on towards the far side of the ring: ~71 messages per process
  // and quiescence ~P at P=4096, against 6 messages and 56 ticks under sync.
  Scenario sync = base_scenario("binomial", 4096);
  sync.correction.kind = CorrectionKind::kChecked;
  sync.correction.start = CorrectionStart::kSynchronized;

  Scenario overlapped = sync;
  overlapped.correction.start = CorrectionStart::kOverlapped;

  const sim::RunResult sync_result = run_once(sync, 1);
  const sim::RunResult overlapped_result = run_once(overlapped, 1);
  ASSERT_TRUE(sync_result.fully_colored());
  ASSERT_TRUE(overlapped_result.fully_colored());
  EXPECT_LT(overlapped_result.total_messages, 2 * sync_result.total_messages);
  EXPECT_LT(overlapped_result.quiescence_latency, 2 * sync_result.quiescence_latency);
}

TEST(SyncCorrection, RequiresSyncTime) {
  const topo::Tree tree = topo::make_binomial_interleaved(8);
  CorrectionConfig config;
  config.kind = CorrectionKind::kChecked;
  config.start = CorrectionStart::kSynchronized;
  config.sync_time = 0;
  EXPECT_THROW(CorrectedTreeBroadcast(tree, config), std::invalid_argument);
}

TEST(TreeBroadcast, EarlyCorrectionStillForwardsTreeMessages) {
  // §3.3: a process colored early by a correction message still sends tree
  // messages to its children once the tree message arrives. With overlapped
  // opportunistic correction and a failure, descendants of an
  // early-corrected process must still be tree-colored.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario scenario = base_scenario("binomial", 512);
    scenario.correction.kind = CorrectionKind::kOptimizedOpportunistic;
    scenario.correction.start = CorrectionStart::kOverlapped;
    scenario.correction.distance = 8;
    scenario.fault_count = 3;
    const sim::RunResult result = run_once(scenario, seed);
    EXPECT_TRUE(result.fully_colored()) << "seed=" << seed;
  }
}

// --- Config plumbing ----------------------------------------------------------------

TEST(Config, KindNamesRoundTrip) {
  for (CorrectionKind kind :
       {CorrectionKind::kNone, CorrectionKind::kOpportunistic,
        CorrectionKind::kOptimizedOpportunistic, CorrectionKind::kChecked,
        CorrectionKind::kFailureProof, CorrectionKind::kDelayed}) {
    EXPECT_EQ(parse_correction_kind(correction_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_correction_kind("nope"), std::invalid_argument);
}

TEST(Config, ToStringMentionsParameters) {
  CorrectionConfig config;
  config.kind = CorrectionKind::kOptimizedOpportunistic;
  config.distance = 7;
  config.start = CorrectionStart::kSynchronized;
  const std::string text = config.to_string();
  EXPECT_NE(text.find("opportunistic"), std::string::npos);
  EXPECT_NE(text.find('7'), std::string::npos);
  EXPECT_NE(text.find("sync"), std::string::npos);
}

}  // namespace
}  // namespace ct::proto
