#pragma once
// Replicated-simulation driver. A Scenario describes one broadcast
// configuration (protocol x tree x correction x fault model x LogP); the
// runner executes N seeded replications (optionally across a thread pool)
// and aggregates the paper's metrics. Every figure/table bench is a sweep
// over Scenarios.

#include <cstdint>
#include <optional>
#include <string>

#include "protocol/ack_tree.hpp"
#include "protocol/config.hpp"
#include "protocol/gossip_broadcast.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/logp.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "topology/factory.hpp"

namespace ct::exp {

enum class ProtocolKind {
  kCorrectedTree,  ///< tree dissemination + configured correction
  kAckTree,        ///< acknowledged tree broadcast baseline
  kGossip,         ///< Corrected Gossip baseline
};

struct Scenario {
  std::string label;
  sim::LogP params{};  // P required

  ProtocolKind protocol = ProtocolKind::kCorrectedTree;
  topo::TreeSpec tree{};
  proto::CorrectionConfig correction{};
  proto::GossipConfig gossip{};  // gossip only (correction taken from here)

  /// Fault model: explicit count wins over fraction; both zero = fault-free.
  topo::Rank fault_count = 0;
  double fault_fraction = 0.0;

  /// Ranks killed at simulated time 1 in every replication, *after* the
  /// static sample above — the sim-side mirror of rt::ChaosPlan::kill_at_ns
  /// "mid-epoch" deaths (a rank's first receive completes no earlier than
  /// message_cost() >= 3, so these victims process nothing, exactly like a
  /// chaos kill at ns 0). Used by the RunSpec fault model and the sim/rt
  /// parity tests.
  std::vector<topo::Rank> mid_run_deaths;

  /// For synchronized tree correction with sync_time == 0 the runner fills
  /// in the fault-free dissemination time automatically.
  bool auto_sync_time = true;
};

/// The fault set replication `rep_seed` will run under (static sample plus
/// mid_run_deaths), exposed so callers can tell crashed ranks from uncolored
/// survivors without re-deriving the RNG stream.
sim::FaultSet scenario_faults(const Scenario& scenario, std::uint64_t rep_seed);

/// Reusable per-worker buffers for a replication stream. One plan serves any
/// sequence of replications (any scenario, any P) on one thread at a time;
/// `run_replicated` keeps one per pool worker next to its `sim::Workspace`.
/// Reusing a plan is bit-identical to constructing fresh state per
/// replication: every member follows the epoch-invalidation contract
/// documented in protocol/scratch.hpp, so a rep's setup touches O(faults)
/// slots instead of allocating ~10 O(P) buffers.
struct ReplicaPlan {
  sim::Workspace workspace;
  sim::FaultSet faults;               // resampled into per rep
  proto::TreeScratch tree;            // CorrectedTreeBroadcast per-rank state
  proto::AckScratch ack;              // AckTreeBroadcast per-rank state
  proto::CorrectionScratch correction;  // CorrectionEngine per-rank state
  proto::GossipScratch gossip;        // CorrectedGossipBroadcast per-rank state
  sim::RunResult result;              // detail vectors recycled across reps
};

/// Aggregated metrics over all replications of one scenario.
struct Aggregate {
  support::Samples coloring_latency;
  support::Samples quiescence_latency;
  support::Samples messages_per_process;
  support::Samples max_gap;         // only runs with a dissemination snapshot
  support::Samples gap_count;       // ditto
  support::Samples correction_time; // ditto
  std::int64_t runs = 0;
  std::int64_t not_fully_colored = 0;  // runs leaving live processes uncolored
  std::int64_t uncolored_total = 0;    // sum of uncolored live processes

  void add(const sim::RunResult& result);
  void merge(const Aggregate& other);
  /// Pre-sizes every Samples store for `reps` add() calls (an upper bound —
  /// some series only record a subset of runs) so the replication loop's
  /// aggregation allocates nothing (alloc_guard_test).
  void reserve(std::size_t reps);
};

/// Runs `reps` replications of `scenario`; replication i uses the RNG
/// stream derive_seed(seed, i) for faults (and gossip). Deterministic for a
/// fixed (scenario, reps, seed) regardless of the pool size: chunks are
/// stolen dynamically but partial aggregates merge in fixed chunk order, so
/// the result is byte-identical to the serial loop. Each worker reuses one
/// ReplicaPlan (workspace, fault set, protocol scratches, result buffers)
/// across its replications.
Aggregate run_replicated(const Scenario& scenario, std::size_t reps, std::uint64_t seed,
                         const support::ThreadPool* pool = nullptr);

/// Replications [rep_begin, rep_end) of the same stream: replication i
/// still uses derive_seed(seed, i) with its *global* index, so slices
/// reproduce exactly the runs the full sweep would execute and
/// concatenating slice aggregates in ascending order is byte-identical to
/// run_replicated(scenario, rep_end, seed) started at rep 0
/// (determinism_test pins this). perfbench's sim_mc workload drives its
/// sweeps through this entry point.
Aggregate run_replicated_range(const Scenario& scenario, std::size_t rep_begin,
                               std::size_t rep_end, std::uint64_t seed,
                               const support::ThreadPool* pool = nullptr);

/// Single replication, exposed for tests and detailed inspection.
sim::RunResult run_once(const Scenario& scenario, std::uint64_t rep_seed,
                        const sim::RunOptions& options = {});

/// Single replication into a caller-held plan (the sweep hot path); returns
/// plan.result. Reusing the same plan across calls is bit-identical to the
/// plain overload.
const sim::RunResult& run_once(const Scenario& scenario, std::uint64_t rep_seed,
                               const sim::RunOptions& options, ReplicaPlan& plan);

/// Global experiment scale knobs, honoring CT_PROCS / CT_REPS / CT_SEED env
/// overrides used by the bench suite (see DESIGN.md).
struct Scale {
  topo::Rank procs;
  std::size_t reps;
  std::uint64_t seed;
};
Scale default_scale(topo::Rank default_procs, std::size_t default_reps,
                    std::uint64_t default_seed = 0x5eed5eedULL);

}  // namespace ct::exp
