// RunSpec layer tests (DESIGN.md §4e): the string round-trip property over
// every axis, rejection diagnostics for malformed specs, the JSON writer,
// and one tiny exp::run smoke per (executor x protocol) cell — the
// "spec-smoke" ctest label. The acceptance property of the layer is that
// one spec string runs unmodified under exec=sim and exec=rt-* and yields
// RunRecords with the identical metric key set.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "experiment/run_spec.hpp"
#include "support/json.hpp"

namespace ct::exp {
namespace {

RunSpec base_spec(topo::Rank procs = 64) {
  RunSpec spec;
  spec.params.P = procs;
  return spec;
}

// --- round-trip property -------------------------------------------------

void expect_roundtrip(const RunSpec& spec) {
  const std::string text = spec.to_string();
  SCOPED_TRACE(text);
  const RunSpec parsed = parse_run_spec(text);
  EXPECT_EQ(parsed, spec);
  // Canonical form is a fixed point.
  EXPECT_EQ(parsed.to_string(), text);
}

TEST(RunSpecRoundTrip, Defaults) { expect_roundtrip(base_spec()); }

TEST(RunSpecRoundTrip, EveryCollective) {
  for (const Collective c :
       {Collective::kBroadcast, Collective::kReduce, Collective::kAllreduce}) {
    RunSpec spec = base_spec();
    spec.collective = c;
    expect_roundtrip(spec);
  }
}

TEST(RunSpecRoundTrip, EveryExecutor) {
  for (const Executor e : {Executor::kSim, Executor::kRtSharded, Executor::kRtUdp}) {
    RunSpec spec = base_spec();
    spec.executor = e;
    expect_roundtrip(spec);
    if (e == Executor::kRtSharded) {
      spec.workers = 8;
      expect_roundtrip(spec);
    }
  }
}

TEST(RunSpecRoundTrip, RtShardedCrossShardKnobs) {
  // The rt-sharded executor options: ':pin' (shard→core pinning) and
  // ':mesh-cap=N' (per-pair ring capacity).
  RunSpec spec = base_spec();
  spec.executor = Executor::kRtSharded;
  spec.workers = 8;
  spec.rt_pin = true;
  expect_roundtrip(spec);
  spec.rt_mesh_capacity = 64;
  expect_roundtrip(spec);
  spec.rt_pin = false;
  spec.rt_mesh_capacity = 2;
  expect_roundtrip(spec);
}

TEST(RunSpecRoundTrip, EveryProtocol) {
  for (const ProtocolKind p : {ProtocolKind::kCorrectedTree, ProtocolKind::kAckTree,
                               ProtocolKind::kGossip}) {
    RunSpec spec = base_spec();
    spec.protocol = p;
    expect_roundtrip(spec);
  }
}

TEST(RunSpecRoundTrip, EveryTreeFamily) {
  for (const char* tree : {"binomial", "binomial-inorder", "kary:3", "kary-inorder:4",
                           "lame:2", "optimal"}) {
    RunSpec spec = base_spec();
    spec.tree = topo::parse_tree_spec(tree);
    expect_roundtrip(spec);
  }
}

TEST(RunSpecRoundTrip, EveryCorrectionKindStartAndDirection) {
  for (const proto::CorrectionKind kind :
       {proto::CorrectionKind::kNone, proto::CorrectionKind::kOpportunistic,
        proto::CorrectionKind::kOptimizedOpportunistic, proto::CorrectionKind::kChecked,
        proto::CorrectionKind::kFailureProof, proto::CorrectionKind::kDelayed}) {
    for (const proto::CorrectionStart start :
         {proto::CorrectionStart::kSynchronized, proto::CorrectionStart::kOverlapped}) {
      for (const proto::CorrectionDirections dir :
           {proto::CorrectionDirections::kBoth, proto::CorrectionDirections::kLeftOnly}) {
        RunSpec spec = base_spec();
        spec.correction.kind = kind;
        spec.correction.start = start;
        spec.correction.directions = dir;
        // The :d head token exists only for the opportunistic kinds; other
        // kinds keep the (unused) default so the round-trip is exact.
        if (kind == proto::CorrectionKind::kOpportunistic ||
            kind == proto::CorrectionKind::kOptimizedOpportunistic) {
          spec.correction.distance = 2;
        }
        expect_roundtrip(spec);
      }
    }
  }
}

TEST(RunSpecRoundTrip, AllKeyValueAxes) {
  RunSpec spec = base_spec(1024);
  spec.params.L = 7;
  spec.params.o = 2;
  spec.params.g = 3;
  spec.params.G = 1;
  spec.params.O = 1;
  spec.params.bytes = 64;
  spec.correction.kind = proto::CorrectionKind::kDelayed;
  spec.correction.delay = 123;
  spec.correction.sync_time = 55;
  spec.correction.redundancy = 3;
  spec.faults.count = 17;
  spec.faults.fraction = 0.02;
  spec.faults.gap_limit = 8;
  spec.faults.kill = {3, 9, 11};
  spec.faults.chaos_seed = 0xC0FFEE;
  spec.faults.crash_fraction = 0.015625;
  spec.faults.crash_window_us = 750;
  spec.faults.drop_prob = 0.01;
  spec.faults.delay_prob = 0.25;
  spec.faults.duplicate_prob = 0.001;
  spec.faults.delay_us = 333;
  spec.reps = 7;
  spec.warmup = 0;
  spec.seed = 42;
  spec.deadline_ms = 400;
  spec.executor = Executor::kRtSharded;
  spec.workers = 4;
  expect_roundtrip(spec);
}

TEST(RunSpecRoundTrip, GossipBudgets) {
  RunSpec spec = base_spec();
  spec.protocol = ProtocolKind::kGossip;
  spec.gossip_rounds = 9;
  expect_roundtrip(spec);
  spec.gossip_rounds = 0;
  spec.gossip_time = 60;
  expect_roundtrip(spec);
}

TEST(RunSpecRoundTrip, ReduceDistance) {
  RunSpec spec = base_spec();
  spec.collective = Collective::kAllreduce;
  spec.reduce_distance = 3;
  expect_roundtrip(spec);
}

TEST(RunSpecRoundTrip, RepairAndReviveAxes) {
  // PR9 self-healing axes: repair alone, repair + a revive schedule, and
  // the fixed-outage variant.
  {
    RunSpec spec = base_spec();
    spec.executor = Executor::kRtSharded;
    spec.faults.repair = true;
    expect_roundtrip(spec);
    spec.faults.chaos_seed = 0xBEEF;
    spec.faults.crash_fraction = 0.02;
    spec.faults.revive_fraction = 0.5;
    expect_roundtrip(spec);
    spec.faults.revive_fraction = 1.0;
    spec.faults.revive_after_us = 1500;
    expect_roundtrip(spec);
  }
  // kill= as the crash source works too.
  RunSpec spec = base_spec();
  spec.executor = Executor::kRtSharded;
  spec.faults.kill = {3, 9};
  spec.faults.repair = true;
  spec.faults.revive_fraction = 1.0;
  expect_roundtrip(spec);
}

TEST(RunSpecParse, AcceptsConveniences) {
  // Percent fractions, key order, aliases.
  const RunSpec a = parse_run_spec("bcast:binomial:checked:overlapped@P=256,f=2%");
  EXPECT_DOUBLE_EQ(a.faults.fraction, 0.02);
  const RunSpec b = parse_run_spec("broadcast:binomial:checked:sync@f=0.02,P=256");
  EXPECT_EQ(a.faults.fraction, b.faults.fraction);
  EXPECT_EQ(b.correction.start, proto::CorrectionStart::kSynchronized);
}

TEST(RunSpecParse, AcceptanceExampleSpecString) {
  const RunSpec spec = parse_run_spec(
      "bcast:binomial:checked:overlapped@P=1024,f=2%,exec=rt-sharded:w=8");
  EXPECT_EQ(spec.collective, Collective::kBroadcast);
  EXPECT_EQ(spec.correction.kind, proto::CorrectionKind::kChecked);
  EXPECT_EQ(spec.params.P, 1024);
  EXPECT_EQ(spec.executor, Executor::kRtSharded);
  EXPECT_EQ(spec.workers, 8);
}

TEST(RunSpecParse, RtUdpExecutorTokensRoundTrip) {
  const RunSpec spec = parse_run_spec(
      "bcast:binomial:checked:overlapped@P=256,exec=rt-udp:port-base=9000:procs=8");
  EXPECT_EQ(spec.executor, Executor::kRtUdp);
  EXPECT_EQ(spec.rt_port_base, 9000);
  EXPECT_EQ(spec.rt_procs, 8);
  EXPECT_EQ(parse_run_spec(spec.to_string()), spec);
  // Kernel-assigned ports and the default process count are canonical: the
  // bare executor name round-trips with no suffix.
  const RunSpec bare =
      parse_run_spec("bcast:binomial:checked:overlapped@P=256,exec=rt-udp");
  EXPECT_EQ(bare.rt_port_base, 0);
  EXPECT_EQ(bare.rt_procs, 0);
  EXPECT_NE(bare.to_string().find("exec=rt-udp"), std::string::npos);
  EXPECT_EQ(bare.to_string().find("port-base"), std::string::npos);
  EXPECT_EQ(bare.to_string().find("procs="), std::string::npos);
}

// --- rejection diagnostics ----------------------------------------------

void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    parse_run_spec(text);
    FAIL() << "expected rejection of '" << text << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message for '" << text << "' was: " << e.what();
  }
}

TEST(RunSpecParse, RejectsMalformedSpecs) {
  expect_rejected("", "not a spec");
  expect_rejected("bcast:binomial", "not a spec");
  expect_rejected("mcast:binomial:checked:overlapped@P=8", "unknown collective");
  expect_rejected("bcast:quadtree:checked:overlapped@P=8", "quadtree");
  expect_rejected("bcast:binomial:sometimes:overlapped@P=8", "sometimes");
  expect_rejected("bcast:binomial:checked:never@P=8", "correction start");
  expect_rejected("bcast:binomial:checked:overlapped:extra@P=8", "trailing token");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,zzz=1", "unknown parameter");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,reps", "key=value");
  expect_rejected("bcast:binomial:checked:overlapped@P=abc", "integer");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,f=banana", "number");
  expect_rejected("bcast:binomial:checked:overlapped@reps=3", "P=");
  // The unknown-executor diagnostic must enumerate the full valid set.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=gpu",
                  "(use sim|rt-sharded|rt-udp)");
  // The thread-per-rank executor and the locked-inbox option are gone; the
  // parser says so instead of calling them unknown.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-tpr",
                  "'rt-tpr' was removed");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-thread-per-rank",
                  "'rt-thread-per-rank' was removed");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:inbox",
                  "':inbox' was removed");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:x=2",
                  "executor option");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=sim:w=2", "ThreadPool");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:mesh-cap=0",
                  "mesh-cap must be >= 1");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=sim:pin",
                  "rt-sharded only");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-udp:pin",
                  "rt-sharded only");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-udp:mesh-cap=4",
                  "rt-sharded only");
  // rt-udp knobs: processes are counted via ':procs=', and the knobs apply
  // to that executor alone.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-udp:w=4",
                  "':procs='");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-udp:inbox",
                  "':inbox' was removed");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:procs=4",
                  "rt-udp only");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=sim:port-base=9000",
                  "rt-udp only");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,exec=rt-udp:port-base=70000",
      "[0, 65535]");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-udp:procs=100",
                  "[1, 64]");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,exec=rt-udp:port-base=65530:procs=10",
      "port space");
}

TEST(RunSpecParse, RejectsInconsistentAxes) {
  expect_rejected("bcast:binomial:checked:overlapped@P=8,kill=0", "root");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,kill=9", "out of range");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,f=1.5", "fraction");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,drop-prob=2", "probabilities");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,reps=0", "reps");
  expect_rejected("reduce:binomial:checked:overlapped@P=8,exec=rt-sharded",
                  "exec=sim");
  expect_rejected("reduce:binomial:checked:overlapped@P=8,proto=gossip",
                  "reduce/allreduce");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,proto=gossip,gap=4",
                  "tree protocol");
  // A synchronized start needs the simulator's model-time sync point; the
  // runtimes reject it up front instead of aborting mid-run.
  expect_rejected("bcast:binomial:checked:sync@P=64,reps=3,exec=rt-sharded:w=2",
                  "use start=overlapped on exec=rt-sharded");
  expect_rejected("bcast:binomial:checked:sync@P=64,reps=3,exec=rt-udp",
                  "use start=overlapped on exec=rt-udp");
  expect_rejected("bcast:binomial:none:sync@P=64,sync=500,exec=rt-sharded",
                  "start=sync");
  expect_rejected(
      "bcast:binomial:checked:sync@P=64,proto=gossip,gossip-rounds=4,exec=rt-sharded",
      "start=sync");
  // PR9 self-healing axes: repair is a wall-clock (rt) concept, and the
  // revive knobs form a dependency chain repair=1 -> revive-frac ->
  // revive-after-us with a crash source required to ever fire.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,repair=1",
                  "exec=rt-sharded");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,revive-frac=1,crash-frac=2%,"
      "exec=rt-sharded",
      "repair=1");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,repair=1,revive-frac=1.5,"
      "crash-frac=2%,exec=rt-sharded",
      "revive-frac");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,repair=1,revive-frac=1,"
      "exec=rt-sharded",
      "crash source");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,repair=1,revive-after-us=100,"
      "crash-frac=2%,exec=rt-sharded",
      "revive-frac > 0");
  // rt-udp runs fixed membership: no repair, no streaming window.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,repair=1,exec=rt-udp",
                  "membership");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,window=4,exec=rt-udp",
                  "windowed executor");
}

// --- JSON writer ---------------------------------------------------------

TEST(JsonWriter, EscapesAndNests) {
  support::JsonWriter w;
  w.begin_object()
      .field("name", "a\"b\\c\n\t")
      .key("rows")
      .begin_array()
      .value(std::int64_t{1})
      .value(2.5, 1)
      .value(false)
      .end_array()
      .key("nested")
      .begin_object()
      .field("x", std::int64_t{-3})
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"a\\\"b\\\\c\\n\\t\",\n"
            "  \"rows\": [\n"
            "    1,\n"
            "    2.5,\n"
            "    false\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"x\": -3\n"
            "  }\n"
            "}");
}

TEST(JsonWriter, ThrowsOnUnbalancedDocument) {
  support::JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.str(), std::logic_error);
}

TEST(JsonWriter, ControlCharactersEscaped) {
  EXPECT_EQ(support::JsonWriter::escape(std::string("a\x01z")), "a\\u0001z");
}

// --- exp::run smoke: one tiny cell per (executor x protocol) --------------

std::set<std::string> json_keys(const RunRecord& record) {
  support::JsonWriter w;
  record.write_json(w);
  std::set<std::string> keys;
  const std::string& text = w.str();
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    const std::string token = text.substr(pos + 1, end - pos - 1);
    if (text.compare(end + 1, 1, ":") == 0) keys.insert(token);
    pos = end + 1;
  }
  return keys;
}

TEST(SpecSmoke, SimExecutorAllProtocols) {
  for (const char* spec :
       {"bcast:binomial:checked:overlapped@P=24,kill=5,reps=2,exec=sim",
        "bcast:binomial:none:overlapped@P=24,proto=ack,reps=2,exec=sim",
        "bcast:binomial:checked:overlapped@P=24,proto=gossip,gossip-rounds=6,reps=2,"
        "exec=sim"}) {
    SCOPED_TRACE(spec);
    const RunRecord record = run(parse_run_spec(spec));
    EXPECT_EQ(record.executor, "sim");
    EXPECT_EQ(record.runs, 2);
    EXPECT_EQ(record.latency_unit, "ticks");
    EXPECT_GT(record.latency_p50, 0.0);
    EXPECT_GT(record.messages_per_process, 0.0);
  }
}

TEST(SpecSmoke, SimReduceAndAllreduce) {
  const RunRecord reduce =
      run(parse_run_spec("reduce:kary-inorder:3:checked:overlapped@P=24,reps=2"));
  EXPECT_EQ(reduce.incomplete, 0);
  EXPECT_GT(reduce.latency_p50, 0.0);

  const RunRecord allreduce = run(
      parse_run_spec("allreduce:kary-inorder:3:checked:overlapped@P=24,kill=7,reps=2"));
  EXPECT_EQ(allreduce.incomplete, 0);
  EXPECT_EQ(allreduce.crashed_ranks, std::vector<topo::Rank>{7});
  EXPECT_TRUE(allreduce.uncolored_survivors.empty());
}

TEST(SpecSmoke, RtShardedExecutorAllProtocols) {
  for (const char* spec :
       {"bcast:binomial:checked:overlapped@P=24,kill=5,reps=2,warmup=1,"
        "exec=rt-sharded:w=4",
        "bcast:binomial:none:overlapped@P=24,proto=ack,reps=2,warmup=1,"
        "exec=rt-sharded:w=4",
        "bcast:binomial:checked:overlapped@P=24,proto=gossip,gossip-rounds=6,reps=2,"
        "warmup=1,exec=rt-sharded:w=4"}) {
    SCOPED_TRACE(spec);
    const RunRecord record = run(parse_run_spec(spec));
    EXPECT_EQ(record.executor, "rt-sharded");
    EXPECT_EQ(record.runs, 2);
    EXPECT_EQ(record.latency_unit, "us");
    EXPECT_EQ(record.timeouts, 0);
    EXPECT_GT(record.latency_p50, 0.0);
  }
}

TEST(SpecSmoke, RtThreadPerRankExecutor) {
  // The executor was removed; a spec naming it fails at parse time, before
  // anything runs, and the same cell runs on rt-sharded.
  expect_rejected("bcast:binomial:checked:overlapped@P=16,reps=2,warmup=1,exec=rt-tpr",
                  "use sim|rt-sharded|rt-udp");
  const RunRecord record = run(parse_run_spec(
      "bcast:binomial:checked:overlapped@P=16,reps=2,warmup=1,exec=rt-sharded:w=1"));
  EXPECT_EQ(record.executor, "rt-sharded");
  EXPECT_EQ(record.runs, 2);
  EXPECT_EQ(record.incomplete, 0);
}

TEST(SpecSmoke, RtAllreduce) {
  // 1 tick = 50 µs keeps the reduce timetable comfortably ahead of real
  // thread wakeups (see DESIGN.md §4e).
  const RunRecord record = run(parse_run_spec(
      "allreduce:kary-inorder:3:checked:overlapped@P=16,L=100000,o=50000,g=50000,"
      "reps=2,warmup=1,exec=rt-sharded:w=4"));
  EXPECT_EQ(record.incomplete, 0);
  EXPECT_EQ(record.timeouts, 0);
}

TEST(SpecSmoke, RtRepairRecoveryCell) {
  // The PR9 recovery path end-to-end through the spec layer: persistent
  // crashes, boundary repair, immediate revive. kill= overrides fire at
  // ns 0 of every epoch (crash-frac would be timing-dependent: a fast
  // epoch can retire before its scheduled crash instant), so each epoch
  // deterministically kills the victims, repairs at the boundary, and
  // readmits them — the run ends converged.
  const RunRecord record = run(parse_run_spec(
      "bcast:binomial:checked:overlapped@P=96,kill=5+9,repair=1,"
      "revive-frac=1,reps=6,warmup=1,exec=rt-sharded:w=4"));
  EXPECT_EQ(record.runs, 6);
  EXPECT_EQ(record.timeouts, 0);
  EXPECT_GT(record.ranks_crashed, 0);
  EXPECT_GT(record.repairs, 0);
  EXPECT_GT(record.rejoins, 0);
  EXPECT_LE(record.epochs_to_converge, 3);
}

TEST(SpecSmoke, MetricKeysIdenticalAcrossExecutors) {
  const std::string cell = "bcast:binomial:checked:overlapped@P=24,kill=5,reps=2";
  const RunRecord sim_record = run(parse_run_spec(cell + ",exec=sim"));
  const RunRecord rt_record =
      run(parse_run_spec(cell + ",warmup=1,exec=rt-sharded:w=4"));
  EXPECT_EQ(json_keys(sim_record), json_keys(rt_record));
  // Chaos tallies exist under sim but read zero (except realised crashes).
  EXPECT_EQ(sim_record.messages_dropped, 0);
  EXPECT_EQ(sim_record.timeouts, 0);
  EXPECT_EQ(sim_record.ranks_crashed, 2);  // kill=5 realised in both reps
  // The identical victim set is realised on both substrates.
  EXPECT_EQ(sim_record.crashed_ranks, rt_record.crashed_ranks);
}

TEST(SpecSmoke, DeterministicUnderSim) {
  const char* cell =
      "bcast:binomial:opportunistic:2:overlapped@P=48,f=0.1,reps=4,seed=7";
  const RunRecord a = run(parse_run_spec(cell));
  const RunRecord b = run(parse_run_spec(cell));
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.messages_per_process, b.messages_per_process);
  EXPECT_EQ(a.uncolored_survivors, b.uncolored_survivors);
}

}  // namespace
}  // namespace ct::exp
