#include "experiment/run_spec.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "protocol/ack_tree.hpp"
#include "protocol/allreduce.hpp"
#include "protocol/gossip_broadcast.hpp"
#include "protocol/reduce.hpp"
#include "protocol/stream_mux.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/chaos.hpp"
#include "rt/engine.hpp"
#include "rt/harness.hpp"
#include "rt/udp_engine.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "topology/gaps.hpp"

namespace ct::exp {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("run spec: " + what);
}

/// Shortest decimal that round-trips to exactly `x` — keeps canonical spec
/// strings short ("0.02", and "1000" rather than "1e+03" for whole-number
/// rates) without losing parse(to_string()) == identity.
std::string format_double(double x) {
  if (x == std::floor(x) && std::abs(x) < 1e15) {
    return std::to_string(static_cast<long long>(x));
  }
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, x);
    if (std::strtod(buf, nullptr) == x) break;
  }
  return buf;
}

bool all_digits(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::int64_t parse_int(const std::string& key, const std::string& text) {
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    bad_spec("'" + key + "' wants an integer, got '" + text + "'");
  }
}

std::uint64_t parse_uint(const std::string& key, const std::string& text) {
  try {
    std::size_t pos = 0;
    const std::uint64_t value = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    bad_spec("'" + key + "' wants an unsigned integer, got '" + text + "'");
  }
}

/// Plain decimal, or "N%" percent shorthand (f=2% == f=0.02).
double parse_fraction(const std::string& key, std::string text) {
  double scale = 1.0;
  if (!text.empty() && text.back() == '%') {
    text.pop_back();
    scale = 0.01;
  }
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value * scale;
  } catch (const std::exception&) {
    bad_spec("'" + key + "' wants a number, got '" + text + "'");
  }
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(sep, begin);
    out.push_back(text.substr(begin, end - begin));
    if (end == std::string::npos) return out;
    begin = end + 1;
  }
}

std::string join_ranks(const std::vector<topo::Rank>& ranks) {
  std::string out;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i) out += '+';
    out += std::to_string(ranks[i]);
  }
  return out;
}

std::vector<topo::Rank> parse_rank_list(const std::string& key,
                                        const std::string& text) {
  std::vector<topo::Rank> out;
  for (const std::string& token : split(text, '+')) {
    out.push_back(static_cast<topo::Rank>(parse_int(key, token)));
  }
  return out;
}

bool opportunistic_kind(proto::CorrectionKind kind) {
  return kind == proto::CorrectionKind::kOpportunistic ||
         kind == proto::CorrectionKind::kOptimizedOpportunistic;
}

std::string executor_token(const RunSpec& spec) {
  std::string out = executor_name(spec.executor);
  if (spec.executor != Executor::kSim && spec.workers > 0) {
    out += ":w=" + std::to_string(spec.workers);
  }
  if (spec.rt_pin) out += ":pin";
  if (spec.rt_mesh_capacity > 0) {
    out += ":mesh-cap=" + std::to_string(spec.rt_mesh_capacity);
  }
  if (spec.rt_port_base > 0) {
    out += ":port-base=" + std::to_string(spec.rt_port_base);
  }
  if (spec.rt_procs > 0) out += ":procs=" + std::to_string(spec.rt_procs);
  return out;
}

}  // namespace

void parse_executor(const std::string& text, RunSpec& spec) {
  const std::vector<std::string> tokens = split(text, ':');
  const std::string& name = tokens[0];
  if (name == "sim") {
    spec.executor = Executor::kSim;
  } else if (name == "rt-sharded") {
    spec.executor = Executor::kRtSharded;
  } else if (name == "rt-udp") {
    spec.executor = Executor::kRtUdp;
  } else if (name == "rt-tpr" || name == "rt-thread-per-rank") {
    bad_spec("executor '" + name + "' was removed: the thread-per-rank runtime "
             "ran the same protocols as rt-sharded at a small fraction of its "
             "throughput (use sim|rt-sharded|rt-udp)");
  } else {
    bad_spec("unknown executor '" + name + "' (use sim|rt-sharded|rt-udp)");
  }
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    if (tokens[i].rfind("w=", 0) == 0) {
      spec.workers = static_cast<int>(parse_int("exec:w", tokens[i].substr(2)));
    } else if (tokens[i] == "inbox") {
      bad_spec("executor option ':inbox' was removed: cross-shard mail always "
               "takes the lock-free SPSC ring mesh");
    } else if (tokens[i] == "pin") {
      spec.rt_pin = true;
    } else if (tokens[i].rfind("mesh-cap=", 0) == 0) {
      spec.rt_mesh_capacity = parse_int("exec:mesh-cap", tokens[i].substr(9));
      if (spec.rt_mesh_capacity < 1) {
        bad_spec("exec:mesh-cap must be >= 1");
      }
    } else if (tokens[i].rfind("port-base=", 0) == 0) {
      spec.rt_port_base = parse_int("exec:port-base", tokens[i].substr(10));
    } else if (tokens[i].rfind("procs=", 0) == 0) {
      spec.rt_procs = parse_int("exec:procs", tokens[i].substr(6));
    } else {
      bad_spec("unknown executor option '" + tokens[i] + "'");
    }
  }
  if (spec.executor == Executor::kSim && spec.workers > 0) {
    bad_spec("exec=sim takes no ':w=' worker count (pass a ThreadPool to run())");
  }
  if (spec.executor != Executor::kRtSharded && (spec.rt_pin || spec.rt_mesh_capacity > 0)) {
    bad_spec("executor options ':pin', ':mesh-cap' apply to exec=rt-sharded only");
  }
  if (spec.executor != Executor::kRtUdp &&
      (spec.rt_port_base > 0 || spec.rt_procs > 0)) {
    bad_spec("executor options ':port-base', ':procs' apply to exec=rt-udp only");
  }
  if (spec.executor == Executor::kRtUdp && spec.workers > 0) {
    bad_spec("exec=rt-udp counts worker *processes* via ':procs=', not ':w='");
  }
}

std::string collective_name(Collective c) {
  switch (c) {
    case Collective::kBroadcast:
      return "bcast";
    case Collective::kReduce:
      return "reduce";
    case Collective::kAllreduce:
      return "allreduce";
  }
  throw std::logic_error("unreachable collective");
}

Collective parse_collective(const std::string& text) {
  if (text == "bcast" || text == "broadcast") return Collective::kBroadcast;
  if (text == "reduce") return Collective::kReduce;
  if (text == "allreduce") return Collective::kAllreduce;
  bad_spec("unknown collective '" + text + "' (use bcast|reduce|allreduce)");
}

std::string executor_name(Executor e) {
  switch (e) {
    case Executor::kSim:
      return "sim";
    case Executor::kRtSharded:
      return "rt-sharded";
    case Executor::kRtUdp:
      return "rt-udp";
  }
  throw std::logic_error("unreachable executor");
}

std::string RunSpec::to_string() const {
  std::string out = collective_name(collective);
  out += ':' + tree.to_string();
  out += ':' + proto::correction_kind_name(correction.kind);
  if (opportunistic_kind(correction.kind)) {
    out += ':' + std::to_string(correction.distance);
  }
  out += ':' + proto::correction_start_name(correction.start);
  if (correction.directions == proto::CorrectionDirections::kLeftOnly) {
    out += ":left";
  }

  out += "@P=" + std::to_string(params.P);
  const auto kv = [&out](const std::string& key, const std::string& value) {
    out += ',' + key + '=' + value;
  };
  if (protocol == ProtocolKind::kAckTree) kv("proto", "ack");
  if (protocol == ProtocolKind::kGossip) kv("proto", "gossip");
  const sim::LogP defaults{};
  if (params.L != defaults.L) kv("L", std::to_string(params.L));
  if (params.o != defaults.o) kv("o", std::to_string(params.o));
  if (params.g != defaults.g) kv("g", std::to_string(params.g));
  if (params.G != defaults.G) kv("G", std::to_string(params.G));
  if (params.O != defaults.O) kv("O", std::to_string(params.O));
  if (params.bytes != defaults.bytes) kv("bytes", std::to_string(params.bytes));
  if (correction.delay != 0) kv("delay", std::to_string(correction.delay));
  if (correction.sync_time != 0) kv("sync", std::to_string(correction.sync_time));
  if (correction.redundancy != 2) kv("redundancy", std::to_string(correction.redundancy));
  if (gossip_rounds > 0) kv("gossip-rounds", std::to_string(gossip_rounds));
  if (gossip_time != 40) kv("gossip-time", std::to_string(gossip_time));
  if (reduce_distance != 1) kv("rdist", std::to_string(reduce_distance));
  if (faults.count > 0) kv("faults", std::to_string(faults.count));
  if (faults.fraction > 0.0) kv("f", format_double(faults.fraction));
  if (faults.gap_limit > 0) kv("gap", std::to_string(faults.gap_limit));
  if (!faults.kill.empty()) kv("kill", join_ranks(faults.kill));
  if (faults.chaos_seed != 0) kv("chaos-seed", std::to_string(faults.chaos_seed));
  if (faults.crash_fraction > 0.0) kv("crash-frac", format_double(faults.crash_fraction));
  if (faults.crash_window_us != 2000) {
    kv("crash-window-us", std::to_string(faults.crash_window_us));
  }
  if (faults.drop_prob > 0.0) kv("drop-prob", format_double(faults.drop_prob));
  if (faults.delay_prob > 0.0) kv("delay-prob", format_double(faults.delay_prob));
  if (faults.delay_us != 200) kv("delay-us", std::to_string(faults.delay_us));
  if (faults.duplicate_prob > 0.0) kv("dup-prob", format_double(faults.duplicate_prob));
  if (faults.repair) kv("repair", "1");
  if (faults.revive_fraction > 0.0) {
    kv("revive-frac", format_double(faults.revive_fraction));
  }
  if (faults.revive_after_us > 0) {
    kv("revive-after-us", std::to_string(faults.revive_after_us));
  }
  if (reps != 20) kv("reps", std::to_string(reps));
  if (warmup != 2) kv("warmup", std::to_string(warmup));
  if (seed != 0x5eed5eed) kv("seed", std::to_string(seed));
  if (deadline_ms != 0) kv("deadline-ms", std::to_string(deadline_ms));
  if (window != 1) kv("window", std::to_string(window));
  if (rate > 0.0) kv("rate", format_double(rate));
  if (chunk > 0) kv("chunk", std::to_string(chunk));
  kv("exec", executor_token(*this));
  return out;
}

RunSpec parse_run_spec(const std::string& text) {
  RunSpec spec;
  const std::size_t at = text.find('@');
  const std::string head = text.substr(0, at);

  std::vector<std::string> tokens = split(head, ':');
  std::size_t i = 0;
  if (tokens.size() < 3 || head.empty()) {
    bad_spec("'" + text +
             "' is not a spec (want collective:tree:correction:start[@k=v,...])");
  }
  spec.collective = parse_collective(tokens[i++]);

  // Tree family; a following all-digit token is its arity ("kary" + "4").
  {
    std::string tree_text = tokens[i++];
    if (i < tokens.size() && all_digits(tokens[i])) tree_text += ':' + tokens[i++];
    spec.tree = topo::parse_tree_spec(tree_text);  // throws with its own message
  }

  if (i >= tokens.size()) bad_spec("missing correction kind in '" + head + "'");
  spec.correction.kind = proto::parse_correction_kind(tokens[i++]);
  if (i < tokens.size() && all_digits(tokens[i])) {
    spec.correction.distance = static_cast<int>(parse_int("distance", tokens[i++]));
  }

  if (i >= tokens.size()) bad_spec("missing correction start in '" + head + "'");
  spec.correction.start = proto::parse_correction_start(tokens[i++]);
  if (i < tokens.size() && (tokens[i] == "left" || tokens[i] == "left-only")) {
    spec.correction.directions = proto::CorrectionDirections::kLeftOnly;
    ++i;
  }
  if (i != tokens.size()) {
    bad_spec("unexpected trailing token '" + tokens[i] + "' in '" + head + "'");
  }

  if (at != std::string::npos) {
    for (const std::string& pair : split(text.substr(at + 1), ',')) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        bad_spec("malformed parameter '" + pair + "' (want key=value)");
      }
      const std::string key = pair.substr(0, eq);
      const std::string value = pair.substr(eq + 1);
      if (key == "P") {
        spec.params.P = static_cast<topo::Rank>(parse_int(key, value));
      } else if (key == "proto") {
        if (value == "tree") {
          spec.protocol = ProtocolKind::kCorrectedTree;
        } else if (value == "ack") {
          spec.protocol = ProtocolKind::kAckTree;
        } else if (value == "gossip") {
          spec.protocol = ProtocolKind::kGossip;
        } else {
          bad_spec("unknown protocol '" + value + "' (use tree|ack|gossip)");
        }
      } else if (key == "L") {
        spec.params.L = parse_int(key, value);
      } else if (key == "o") {
        spec.params.o = parse_int(key, value);
      } else if (key == "g") {
        spec.params.g = parse_int(key, value);
      } else if (key == "G") {
        spec.params.G = parse_int(key, value);
      } else if (key == "O") {
        spec.params.O = parse_int(key, value);
      } else if (key == "bytes") {
        spec.params.bytes = parse_int(key, value);
      } else if (key == "delay") {
        spec.correction.delay = parse_int(key, value);
      } else if (key == "sync") {
        spec.correction.sync_time = parse_int(key, value);
      } else if (key == "redundancy") {
        spec.correction.redundancy = static_cast<int>(parse_int(key, value));
      } else if (key == "gossip-rounds") {
        spec.gossip_rounds = parse_int(key, value);
      } else if (key == "gossip-time") {
        spec.gossip_time = parse_int(key, value);
      } else if (key == "rdist") {
        spec.reduce_distance = static_cast<int>(parse_int(key, value));
      } else if (key == "faults") {
        spec.faults.count = static_cast<topo::Rank>(parse_int(key, value));
      } else if (key == "f") {
        spec.faults.fraction = parse_fraction(key, value);
      } else if (key == "gap") {
        spec.faults.gap_limit = static_cast<int>(parse_int(key, value));
      } else if (key == "kill") {
        spec.faults.kill = parse_rank_list(key, value);
      } else if (key == "chaos-seed") {
        spec.faults.chaos_seed = parse_uint(key, value);
      } else if (key == "crash-frac") {
        spec.faults.crash_fraction = parse_fraction(key, value);
      } else if (key == "crash-window-us") {
        spec.faults.crash_window_us = parse_int(key, value);
      } else if (key == "drop-prob") {
        spec.faults.drop_prob = parse_fraction(key, value);
      } else if (key == "delay-prob") {
        spec.faults.delay_prob = parse_fraction(key, value);
      } else if (key == "delay-us") {
        spec.faults.delay_us = parse_int(key, value);
      } else if (key == "dup-prob") {
        spec.faults.duplicate_prob = parse_fraction(key, value);
      } else if (key == "repair") {
        spec.faults.repair = parse_int(key, value) != 0;
      } else if (key == "revive-frac") {
        spec.faults.revive_fraction = parse_fraction(key, value);
      } else if (key == "revive-after-us") {
        spec.faults.revive_after_us = parse_int(key, value);
      } else if (key == "reps") {
        spec.reps = parse_int(key, value);
      } else if (key == "warmup") {
        spec.warmup = parse_int(key, value);
      } else if (key == "seed") {
        spec.seed = parse_uint(key, value);
      } else if (key == "deadline-ms") {
        spec.deadline_ms = parse_int(key, value);
      } else if (key == "window") {
        spec.window = parse_int(key, value);
      } else if (key == "rate") {
        spec.rate = parse_fraction(key, value);
      } else if (key == "chunk") {
        spec.chunk = parse_int(key, value);
      } else if (key == "exec") {
        parse_executor(value, spec);
      } else {
        bad_spec("unknown parameter '" + key + "'");
      }
    }
  }

  spec.validate();
  return spec;
}

void RunSpec::validate() const {
  if (params.P < 1) bad_spec("P=<ranks> is required and must be >= 1");
  params.validate();
  if (reps < 1) bad_spec("reps must be >= 1");
  if (warmup < 0) bad_spec("warmup must be >= 0");
  if (faults.fraction < 0.0 || faults.fraction >= 1.0) {
    bad_spec("static fault fraction must be in [0, 1)");
  }
  for (const double p : {faults.crash_fraction, faults.drop_prob, faults.delay_prob,
                         faults.duplicate_prob}) {
    if (p < 0.0 || p > 1.0) bad_spec("chaos probabilities must be in [0, 1]");
  }
  if (faults.count < 0 || faults.count >= params.P) {
    bad_spec("static fault count must be in [0, P)");
  }
  for (const topo::Rank r : faults.kill) {
    if (r <= 0 || r >= params.P) {
      bad_spec("kill list rank " + std::to_string(r) +
               " out of range (root 0 must stay alive)");
    }
  }
  if (faults.revive_fraction < 0.0 || faults.revive_fraction > 1.0) {
    bad_spec("revive-frac must be in [0, 1]");
  }
  if (faults.revive_after_us < 0) bad_spec("revive-after-us must be >= 0");
  if (faults.repair && executor == Executor::kSim) {
    bad_spec("repair=1 persists crashes across wall-clock epochs; "
             "use exec=rt-sharded");
  }
  if (faults.repair && executor == Executor::kRtUdp) {
    bad_spec("repair=1 needs the in-process membership machinery; "
             "use exec=rt-sharded");
  }
  if (faults.revive_fraction > 0.0) {
    if (!faults.repair) bad_spec("revive-frac needs repair=1");
    if (faults.crash_fraction <= 0.0 && faults.kill.empty()) {
      bad_spec("revive-frac without a crash source (crash-frac or kill) never fires");
    }
  }
  if (faults.revive_after_us > 0 && faults.revive_fraction <= 0.0) {
    bad_spec("revive-after-us needs revive-frac > 0");
  }
  if (collective != Collective::kBroadcast && protocol != ProtocolKind::kCorrectedTree) {
    bad_spec("reduce/allreduce have no ack/gossip variant (drop proto=)");
  }
  if (collective == Collective::kReduce && executor != Executor::kSim) {
    bad_spec("reduce colors only the root, so runtime epochs never complete; "
             "use exec=sim or collective allreduce");
  }
  // Time-budget gossip overrides the start with its own synchronized phase
  // at gossip_time; every other protocol would take this start as is.
  if (executor != Executor::kSim &&
      correction.start == proto::CorrectionStart::kSynchronized &&
      !(protocol == ProtocolKind::kGossip && gossip_rounds == 0)) {
    bad_spec("start=sync fires the correction at an absolute model time "
             "(sync_time, which the simulator derives from the fault-free "
             "dissemination span); wall-clock runtime epochs have no such "
             "time, so use start=overlapped on exec=" + executor_name(executor));
  }
  if (protocol == ProtocolKind::kGossip && faults.gap_limit > 0) {
    bad_spec("gap= placement limits need a tree protocol");
  }
  if (executor != Executor::kRtSharded && (rt_pin || rt_mesh_capacity > 0)) {
    bad_spec("executor options ':pin', ':mesh-cap' apply to exec=rt-sharded only");
  }
  if (rt_mesh_capacity < 0) bad_spec("exec:mesh-cap must be >= 1");

  // --- rt-udp knobs ---
  if (executor != Executor::kRtUdp && (rt_port_base > 0 || rt_procs > 0)) {
    bad_spec("executor options ':port-base', ':procs' apply to exec=rt-udp only");
  }
  if (rt_port_base < 0 || rt_port_base > 65535) {
    bad_spec("exec:port-base must be in [0, 65535]");
  }
  if (rt_procs < 0 || rt_procs > 64) bad_spec("exec:procs must be in [1, 64]");
  if (rt_port_base > 0 && rt_procs > 0 && rt_port_base + rt_procs > 65536) {
    bad_spec("exec:port-base + exec:procs exceeds the port space");
  }

  // --- streaming axes ---
  if (window < 1 || window > 64) bad_spec("window must be in [1, 64]");
  if (rate < 0.0) bad_spec("rate must be >= 0");
  if (chunk < 0) bad_spec("chunk must be >= 0");
  if (chunk > 0) {
    if (collective != Collective::kBroadcast || protocol == ProtocolKind::kGossip) {
      bad_spec("chunk= needs a tree broadcast (bcast, proto tree|ack)");
    }
    if (chunk_count() > proto::CorrectedTreeBroadcast::kMaxChunks) {
      bad_spec("bytes/chunk yields " + std::to_string(chunk_count()) +
               " chunks; the protocols support at most " +
               std::to_string(proto::CorrectedTreeBroadcast::kMaxChunks));
    }
  }
  if (streaming()) {
    if (collective != Collective::kBroadcast || protocol == ProtocolKind::kGossip) {
      bad_spec("streaming (window/rate) supports bcast with proto tree|ack only");
    }
    if (executor == Executor::kRtUdp) {
      bad_spec("streaming needs the windowed executor: exec=rt-sharded or exec=sim");
    }
    if (executor == Executor::kSim &&
        (faults.crash_fraction > 0.0 || faults.drop_prob > 0.0 ||
         faults.delay_prob > 0.0 || faults.duplicate_prob > 0.0)) {
      bad_spec("sim streams support kill= deaths only (chaos knobs are rt-only; "
               "per-epoch crash resampling has no sim analog)");
    }
  }
}

Scenario RunSpec::to_scenario() const {
  Scenario scenario;
  scenario.label = to_string();
  scenario.params = params;
  scenario.tree = tree;
  scenario.correction = correction;
  scenario.fault_count = faults.count;
  scenario.fault_fraction = faults.fraction;
  switch (protocol) {
    case ProtocolKind::kCorrectedTree:
      scenario.protocol = ProtocolKind::kCorrectedTree;
      break;
    case ProtocolKind::kAckTree:
      scenario.protocol = ProtocolKind::kAckTree;
      break;
    case ProtocolKind::kGossip:
      scenario.protocol = ProtocolKind::kGossip;
      scenario.gossip.correction = correction;
      if (gossip_rounds > 0) {
        scenario.gossip.budget = proto::GossipConfig::Budget::kRounds;
        scenario.gossip.gossip_rounds = gossip_rounds;
      } else {
        scenario.gossip.budget = proto::GossipConfig::Budget::kTime;
        scenario.gossip.gossip_time = gossip_time;
        scenario.gossip.correction.start = proto::CorrectionStart::kSynchronized;
        scenario.gossip.correction.sync_time = gossip_time;
      }
      break;
  }
  return scenario;
}

namespace {

/// Victim set the chaos knobs realise: explicit kills plus the sampled
/// crash schedule. The sim substrate has no wall clock, so it realises the
/// plan's epoch-1 schedule in *every* replication, with all deaths at t = 1;
/// rt samples per epoch and crash times land inside the crash window. The
/// kill= list is identical on both substrates (the parity model).
std::vector<topo::Rank> sim_chaos_victims(const RunSpec& spec) {
  std::vector<topo::Rank> victims = spec.faults.kill;
  if (spec.faults.crash_fraction > 0.0) {
    rt::ChaosOptions options;
    options.seed = spec.faults.chaos_seed;
    options.crash_fraction = spec.faults.crash_fraction;
    const rt::ChaosPlan plan(options);
    for (topo::Rank r = 1; r < spec.params.P; ++r) {
      if (plan.crash_ns(/*epoch=*/1, r) >= 0) victims.push_back(r);
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  return victims;
}

void fill_latency(RunRecord& record, const support::Samples& samples) {
  if (samples.empty()) return;
  record.latency_p50 = samples.percentile(0.5);
  record.latency_p99 = samples.percentile(0.99);
  record.latency_p999 = samples.percentile(0.999);
  record.latency_mean = samples.mean();
}

/// A model-time delay of 0 for delayed correction means "pick the substrate
/// default": two message round-trips of silence under sim, 200 µs under rt
/// — so one spec string is runnable on both substrates without naming a
/// unit-specific delay.
void default_delay(proto::CorrectionConfig& correction, const sim::LogP& params,
                   bool wall_clock) {
  if (correction.kind != proto::CorrectionKind::kDelayed || correction.delay != 0) {
    return;
  }
  correction.delay = wall_clock ? 200'000 : 2 * params.message_cost();
}

RunRecord make_record(const RunSpec& spec) {
  RunRecord record;
  record.spec = spec.to_string();
  record.executor = executor_name(spec.executor);
  record.procs = spec.params.P;
  return record;
}

/// Survivors of `faults` never colored in `result`, ascending. Requires a
/// keep_per_rank_detail run.
std::vector<topo::Rank> uncolored_survivors_of(const sim::RunResult& result,
                                               const sim::FaultSet& faults) {
  std::vector<topo::Rank> out;
  for (topo::Rank r = 0; r < result.num_procs; ++r) {
    if (!faults.always_alive(r)) continue;
    if (result.colored_at[static_cast<std::size_t>(r)] == sim::kTimeNever) {
      out.push_back(r);
    }
  }
  return out;
}

RunRecord run_sim_broadcast(const RunSpec& spec, const support::ThreadPool* pool) {
  Scenario scenario = spec.to_scenario();
  scenario.mid_run_deaths = sim_chaos_victims(spec);
  default_delay(scenario.correction, spec.params, /*wall_clock=*/false);
  default_delay(scenario.gossip.correction, spec.params, /*wall_clock=*/false);

  RunRecord record = make_record(spec);
  record.latency_unit = "ticks";
  record.workers = pool ? static_cast<std::int64_t>(pool->size()) : 1;
  record.crashed_ranks = scenario.mid_run_deaths;

  // Untimed detail replication (rep 0) for the per-rank outcome.
  {
    sim::RunOptions options;
    options.keep_per_rank_detail = true;
    const std::uint64_t rep_seed = support::derive_seed(spec.seed, 0);
    const sim::RunResult detail = run_once(scenario, rep_seed, options);
    record.uncolored_survivors =
        uncolored_survivors_of(detail, scenario_faults(scenario, rep_seed));
  }

  const auto start = Clock::now();
  record.aggregate = run_replicated(scenario, static_cast<std::size_t>(spec.reps),
                                    spec.seed, pool);
  record.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();

  record.runs = record.aggregate.runs;
  fill_latency(record, record.aggregate.quiescence_latency);
  record.messages_per_process = record.aggregate.messages_per_process.mean();
  const double total_messages = record.messages_per_process *
                                static_cast<double>(spec.params.P) *
                                static_cast<double>(record.runs);
  record.messages_per_sec =
      record.wall_seconds > 0.0 ? total_messages / record.wall_seconds : 0.0;
  record.incomplete = record.aggregate.not_fully_colored;
  record.ranks_crashed =
      static_cast<std::int64_t>(scenario.mid_run_deaths.size()) * record.runs;
  return record;
}

/// Streamed sim broadcast (PR8): ONE simulator run carries all `reps`
/// epochs, multiplexed by proto::StreamMux so up to `window` are in flight.
/// Latencies are per-epoch sojourn times in model ticks; the open-loop
/// arrival process uses the 1 tick ≙ 1 µs convention (rate in epochs/s →
/// interval 1e6/rate ticks), and the achieved/delivery rates are model-time
/// rates under the same convention — directly comparable shape-wise, not
/// magnitude-wise, to the rt wall-clock rates.
RunRecord run_sim_stream(const RunSpec& spec) {
  Scenario scenario = spec.to_scenario();
  scenario.mid_run_deaths = sim_chaos_victims(spec);  // kill= only (validated)
  proto::CorrectionConfig correction = spec.correction;
  default_delay(correction, spec.params, /*wall_clock=*/false);

  const topo::Tree tree = topo::make_tree(spec.tree, spec.params.P);
  const sim::FaultSet faults =
      scenario_faults(scenario, support::derive_seed(spec.seed, 0));

  // Chunked payloads price every wire message at `chunk` bytes.
  sim::LogP params = spec.params;
  if (spec.chunk > 0) params.bytes = std::min(spec.chunk, spec.params.bytes);
  const auto chunks = static_cast<std::int32_t>(spec.chunk_count());

  proto::StreamMuxOptions mux_options;
  mux_options.epochs = spec.reps;
  mux_options.window = static_cast<std::int32_t>(spec.window);
  mux_options.interval =
      spec.rate > 0.0 ? std::max<sim::Time>(1, std::llround(1e6 / spec.rate)) : 0;
  mux_options.excluded.assign(static_cast<std::size_t>(spec.params.P), 0);
  topo::Rank excluded_count = 0;
  for (topo::Rank r = 0; r < spec.params.P; ++r) {
    if (!faults.always_alive(r)) {
      mux_options.excluded[static_cast<std::size_t>(r)] = 1;
      ++excluded_count;
    }
  }

  proto::StreamMux mux(
      [&]() -> std::unique_ptr<sim::Protocol> {
        if (spec.protocol == ProtocolKind::kAckTree) {
          return std::make_unique<proto::AckTreeBroadcast>(tree, nullptr, chunks);
        }
        return std::make_unique<proto::CorrectedTreeBroadcast>(tree, correction, 0,
                                                               nullptr, nullptr, chunks);
      },
      mux_options);

  RunRecord record = make_record(spec);
  record.latency_unit = "ticks";
  record.workers = 1;  // one event queue; streams have no replication pool
  record.crashed_ranks = scenario.mid_run_deaths;

  sim::Simulator simulator(params, &faults);
  const auto start = Clock::now();
  const sim::RunResult result = simulator.run(mux, sim::RunOptions{});
  record.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();

  support::Samples sojourn;
  std::int64_t deliveries = 0;
  sim::Time last_retire = 0;
  for (const proto::StreamMuxEpoch& epoch : mux.epochs()) {
    record.aggregate.messages_per_process.add(static_cast<double>(epoch.sends) /
                                              static_cast<double>(spec.params.P));
    if (!epoch.complete()) {
      ++record.incomplete;  // stream drained with counted ranks uncolored
      continue;
    }
    sojourn.add(static_cast<double>(epoch.sojourn()));
    deliveries += epoch.colored;
    last_retire = std::max(last_retire, epoch.retired);
  }
  record.runs = mux.retired_count();
  fill_latency(record, sojourn);
  record.messages_per_process =
      spec.reps > 0 ? static_cast<double>(result.total_messages) /
                          static_cast<double>(spec.params.P) /
                          static_cast<double>(spec.reps)
                    : 0.0;
  record.messages_per_sec =
      record.wall_seconds > 0.0
          ? static_cast<double>(result.total_messages) / record.wall_seconds
          : 0.0;
  record.ranks_crashed =
      static_cast<std::int64_t>(scenario.mid_run_deaths.size()) * record.runs;
  record.offered_rate = spec.rate;
  const double model_seconds = static_cast<double>(last_retire) * 1e-6;
  record.achieved_rate =
      model_seconds > 0.0 ? static_cast<double>(record.runs) / model_seconds : 0.0;
  record.deliveries_per_sec =
      model_seconds > 0.0 ? static_cast<double>(deliveries) / model_seconds : 0.0;
  // Per-rank detail of epoch 0, same contract as the one-shot detail rep.
  for (topo::Rank r = 0; r < spec.params.P; ++r) {
    if (faults.always_alive(r) && !mux.colored_in(0, r)) {
      record.uncolored_survivors.push_back(r);
    }
  }
  return record;
}

RunRecord run_sim_reduction(const RunSpec& spec) {
  Scenario scenario = spec.to_scenario();  // fault axes + label only
  scenario.mid_run_deaths = sim_chaos_victims(spec);
  const topo::Tree tree = topo::make_tree(spec.tree, spec.params.P);

  RunRecord record = make_record(spec);
  record.latency_unit = "ticks";
  record.workers = 1;  // reduction reps run serially (no ReplicaPlan path yet)
  record.crashed_ranks = scenario.mid_run_deaths;

  std::vector<std::int64_t> values(static_cast<std::size_t>(spec.params.P));
  for (topo::Rank r = 0; r < spec.params.P; ++r) {
    values[static_cast<std::size_t>(r)] = r % 97;
  }

  std::int64_t total_messages = 0;
  const auto start = Clock::now();
  for (std::int64_t rep = 0; rep < spec.reps; ++rep) {
    const std::uint64_t rep_seed = support::derive_seed(spec.seed, rep);
    sim::FaultSet faults = scenario_faults(scenario, rep_seed);
    sim::Simulator simulator(spec.params, &faults);
    sim::RunOptions options;
    options.keep_per_rank_detail = rep == 0;

    sim::RunResult result;
    bool root_done = false;
    if (spec.collective == Collective::kReduce) {
      proto::CorrectedReduce protocol(tree, spec.params, values,
                                      proto::ReduceConfig{spec.reduce_distance});
      result = simulator.run(protocol, options);
      root_done = protocol.root_done();
    } else {
      proto::AllReduceConfig config;
      config.reduce.distance = spec.reduce_distance;
      config.correction = spec.correction;
      default_delay(config.correction, spec.params, /*wall_clock=*/false);
      proto::CorrectedAllReduce protocol(tree, spec.params, values, config);
      result = simulator.run(protocol, options);
      root_done = protocol.reduction_done();
    }

    ++record.runs;
    record.aggregate.add(result);
    total_messages += result.total_messages;
    if (spec.collective == Collective::kReduce) {
      // Reduce reuses coloring for root completion only, so fully_colored()
      // is meaningless; "incomplete" = the root missed the gather deadline.
      if (!root_done) ++record.incomplete;
    } else if (!result.fully_colored()) {
      ++record.incomplete;
    }
    if (rep == 0 && spec.collective == Collective::kAllreduce) {
      record.uncolored_survivors = uncolored_survivors_of(result, faults);
    }
  }
  record.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();

  fill_latency(record, record.aggregate.quiescence_latency);
  record.messages_per_process = record.aggregate.messages_per_process.mean();
  record.messages_per_sec = record.wall_seconds > 0.0
                                ? static_cast<double>(total_messages) / record.wall_seconds
                                : 0.0;
  record.ranks_crashed =
      static_cast<std::int64_t>(scenario.mid_run_deaths.size()) * record.runs;
  return record;
}

/// Static pre-start failure placement for the runtime. Mirrors the sim-side
/// sample (same RNG stream as replication 0); with gap_limit set, resamples
/// until the statically-uncolored set's largest ring gap is coverable —
/// the fig12 / rt-bench "gap-safe" placement, so coverage-bounded
/// correction completes every epoch (the paper reported full completion).
std::vector<char> static_failures(const RunSpec& spec, const topo::Tree& tree) {
  const topo::Rank procs = spec.params.P;
  std::vector<char> failed(static_cast<std::size_t>(procs), 0);
  if (spec.faults.count == 0 && spec.faults.fraction <= 0.0) return failed;

  support::Xoshiro256ss rng(support::derive_seed(spec.seed, 0));
  for (int attempt = 0;; ++attempt) {
    const sim::FaultSet faults =
        spec.faults.count > 0
            ? sim::FaultSet::random_count(procs, spec.faults.count, rng)
            : sim::FaultSet::random_fraction(procs, spec.faults.fraction, rng);
    bool acceptable = true;
    if (spec.faults.gap_limit > 0 && attempt <= 1000) {
      std::vector<char> colored(static_cast<std::size_t>(procs), 1);
      for (topo::Rank r = 1; r < procs; ++r) {
        for (topo::Rank cur = r; cur != 0; cur = tree.parent(cur)) {
          if (faults.failed_from_start(cur)) {
            colored[static_cast<std::size_t>(r)] = 0;
            break;
          }
        }
      }
      acceptable = topo::analyze_gaps(colored).max_gap <= spec.faults.gap_limit;
    }
    if (acceptable) {
      for (topo::Rank r : faults.initially_failed()) {
        failed[static_cast<std::size_t>(r)] = 1;
      }
      return failed;
    }
  }
}

/// The ChaosPlan the spec's fault knobs describe, kill= list included.
/// Callers gate on faults.chaos_enabled(); a default-constructed plan is
/// inert.
rt::ChaosPlan make_chaos_plan(const RunSpec& spec) {
  rt::ChaosOptions chaos;
  chaos.seed = spec.faults.chaos_seed;
  chaos.crash_fraction = spec.faults.crash_fraction;
  chaos.crash_window_ns = spec.faults.crash_window_us * 1000;
  chaos.drop_prob = spec.faults.drop_prob;
  chaos.delay_prob = spec.faults.delay_prob;
  chaos.duplicate_prob = spec.faults.duplicate_prob;
  chaos.delay_ns = spec.faults.delay_us * 1000;
  chaos.revive_fraction = spec.faults.revive_fraction;
  chaos.revive_after_ns = spec.faults.revive_after_us * 1000;
  rt::ChaosPlan plan(chaos);
  for (const topo::Rank victim : spec.faults.kill) plan.kill_at_ns(victim, 0);
  return plan;
}

/// One-shot protocol factory shared by the in-process and UDP rt paths.
/// Everything is captured by reference — callers own the inputs for the
/// life of the measurement call. gossip_epoch advances once per factory
/// call; under rt-udp every process invokes the factory exactly once per
/// epoch in lockstep, so the per-epoch gossip seeds agree across processes.
rt::ProtocolFactory one_shot_factory(const RunSpec& spec, const topo::Tree& tree,
                                     const proto::CorrectionConfig& correction,
                                     const std::vector<std::int64_t>& values,
                                     proto::GossipConfig& gossip,
                                     std::uint64_t& gossip_epoch,
                                     std::int32_t chunks) {
  return [&spec, &tree, &correction, &values, &gossip, &gossip_epoch,
          chunks]() -> std::unique_ptr<sim::Protocol> {
    if (spec.collective == Collective::kAllreduce) {
      proto::AllReduceConfig config;
      config.reduce.distance = spec.reduce_distance;
      config.correction = correction;
      return std::make_unique<proto::CorrectedAllReduce>(tree, spec.params, values,
                                                         config);
    }
    switch (spec.protocol) {
      case ProtocolKind::kAckTree:
        return std::make_unique<proto::AckTreeBroadcast>(tree, nullptr, chunks);
      case ProtocolKind::kGossip: {
        gossip.seed = support::derive_seed(spec.seed, ++gossip_epoch);
        return std::make_unique<proto::CorrectedGossipBroadcast>(spec.params.P, gossip);
      }
      case ProtocolKind::kCorrectedTree:
        break;
    }
    return std::make_unique<proto::CorrectedTreeBroadcast>(tree, correction, 0, nullptr,
                                                           nullptr, chunks);
  };
}

/// exec=rt-udp: forked worker processes exchanging loopback datagrams under
/// perfect links (DESIGN.md §4j). Same one-shot factory and record layout
/// as run_rt, plus the transport's retransmit / dedup tallies. Must run
/// before this process spawns threads (fork discipline — see udp_engine.hpp),
/// which holds: the sim ThreadPool is never built for rt executors.
RunRecord run_rt_udp(const RunSpec& spec) {
  const topo::Tree tree = topo::make_tree(spec.tree, spec.params.P);

  rt::UdpEngineOptions options;
  options.num_procs = spec.params.P;
  options.failed = static_failures(spec, tree);
  if (spec.rt_procs > 0) options.procs = static_cast<int>(spec.rt_procs);
  options.port_base = static_cast<int>(spec.rt_port_base);
  options.warmup = spec.warmup;
  options.iterations = spec.reps;
  if (spec.deadline_ms > 0) {
    options.epoch_timeout = std::chrono::milliseconds(spec.deadline_ms);
  }
  if (spec.faults.chaos_enabled()) options.chaos = make_chaos_plan(spec);

  proto::CorrectionConfig correction = spec.correction;
  default_delay(correction, spec.params, /*wall_clock=*/true);
  std::vector<std::int64_t> values(static_cast<std::size_t>(spec.params.P));
  for (topo::Rank r = 0; r < spec.params.P; ++r) {
    values[static_cast<std::size_t>(r)] = r % 97;
  }
  proto::GossipConfig gossip;
  if (spec.protocol == ProtocolKind::kGossip) {
    gossip = spec.to_scenario().gossip;
    default_delay(gossip.correction, spec.params, /*wall_clock=*/true);
  }
  std::uint64_t gossip_epoch = 0;
  const auto chunks = static_cast<std::int32_t>(spec.chunk_count());
  const rt::ProtocolFactory factory =
      one_shot_factory(spec, tree, correction, values, gossip, gossip_epoch, chunks);

  const rt::UdpRunResult udp = rt::measure_broadcast_udp(options, factory);
  if (!udp.error.empty()) {
    throw std::runtime_error("exec=rt-udp: " + udp.error);
  }
  const rt::HarnessResult& result = udp.harness;

  RunRecord record = make_record(spec);
  record.latency_unit = "us";
  record.workers = udp.procs_used;  // worker *processes*, not threads
  record.runs = result.iterations;
  record.wall_seconds = result.wall_seconds;
  record.latency_p50 = result.p50_us();
  record.latency_p99 = result.p99_us();
  record.latency_p999 = result.p999_us();
  record.latency_mean = result.latency_us.empty() ? 0.0 : result.latency_us.mean();
  record.messages_per_process =
      result.messages_per_process.empty() ? 0.0 : result.messages_per_process.mean();
  record.messages_per_sec = result.messages_per_sec();
  record.incomplete = result.incomplete;
  record.timeouts = result.timeouts;
  record.epochs_degraded = result.epochs_degraded;
  record.ranks_crashed = result.ranks_crashed;
  record.messages_dropped = result.messages_dropped;
  record.messages_delayed = result.messages_delayed;
  record.messages_duplicated = result.messages_duplicated;
  record.crashed_ranks = result.first.crashed_ranks;
  record.uncolored_survivors = result.first.uncolored_survivors;
  record.retransmits = result.retransmits;
  record.dup_drops = result.dup_drops;
  return record;
}

RunRecord run_rt(const RunSpec& spec) {
  const topo::Tree tree = topo::make_tree(spec.tree, spec.params.P);

  rt::EngineOptions engine_options;
  engine_options.workers = spec.workers;
  engine_options.pin_threads = spec.rt_pin;
  if (spec.rt_mesh_capacity > 0) {
    engine_options.mesh_capacity = static_cast<std::size_t>(spec.rt_mesh_capacity);
  }
  if (spec.deadline_ms > 0) {
    engine_options.epoch_deadline = std::chrono::milliseconds(spec.deadline_ms);
  }
  engine_options.repair = spec.faults.repair;
  rt::Engine engine(spec.params.P, static_failures(spec, tree), engine_options);

  if (spec.faults.chaos_enabled()) engine.set_chaos(make_chaos_plan(spec));

  proto::CorrectionConfig correction = spec.correction;
  default_delay(correction, spec.params, /*wall_clock=*/true);

  std::vector<std::int64_t> values(static_cast<std::size_t>(spec.params.P));
  for (topo::Rank r = 0; r < spec.params.P; ++r) {
    values[static_cast<std::size_t>(r)] = r % 97;
  }
  proto::GossipConfig gossip;
  if (spec.protocol == ProtocolKind::kGossip) {
    gossip = spec.to_scenario().gossip;
    default_delay(gossip.correction, spec.params, /*wall_clock=*/true);
  }
  std::uint64_t gossip_epoch = 0;
  const auto chunks = static_cast<std::int32_t>(spec.chunk_count());

  const rt::ProtocolFactory factory =
      one_shot_factory(spec, tree, correction, values, gossip, gossip_epoch, chunks);

  if (spec.streaming()) {
    rt::StreamOptions stream;
    stream.epochs = spec.reps;
    stream.window = static_cast<std::int32_t>(spec.window);
    stream.rate = spec.rate;
    stream.keep_rank_state = true;  // first-epoch per-rank detail, like one-shot
    if (spec.deadline_ms > 0) {
      stream.epoch_timeout = std::chrono::milliseconds(spec.deadline_ms);
    }
    const rt::StreamHarnessResult result = rt::measure_stream(engine, factory, stream);

    RunRecord record = make_record(spec);
    record.latency_unit = "us";
    record.workers = static_cast<std::int64_t>(engine.worker_threads());
    record.runs = result.epochs;
    record.wall_seconds = result.wall_seconds;
    fill_latency(record, result.sojourn_us);  // sojourn: queueing + service
    record.messages_per_process =
        result.epochs > 0 ? static_cast<double>(result.total_messages) /
                                static_cast<double>(spec.params.P) /
                                static_cast<double>(result.epochs)
                          : 0.0;
    record.messages_per_sec =
        result.wall_seconds > 0.0
            ? static_cast<double>(result.total_messages) / result.wall_seconds
            : 0.0;
    record.incomplete = result.incomplete;
    record.timeouts = result.timeouts;
    record.ranks_crashed = result.ranks_crashed;
    record.offered_rate = spec.rate;
    record.achieved_rate = result.achieved_rate();
    record.deliveries_per_sec = result.deliveries_per_sec();
    record.repairs = result.repairs;
    record.rejoins = result.rejoins;
    record.state_transfers = result.state_transfers;
    record.epochs_to_converge = result.epochs_to_converge;
    for (const rt::StreamEpoch& epoch : result.raw.epochs) {
      if (epoch.degraded()) ++record.epochs_degraded;
    }
    if (!result.raw.epochs.empty()) {
      const std::vector<rt::RankEnd>& ends = result.raw.epochs.front().rank_state;
      for (topo::Rank r = 0; r < static_cast<topo::Rank>(ends.size()); ++r) {
        if (ends[static_cast<std::size_t>(r)] == rt::RankEnd::kCrashed) {
          record.crashed_ranks.push_back(r);
        } else if (ends[static_cast<std::size_t>(r)] == rt::RankEnd::kUncolored) {
          record.uncolored_survivors.push_back(r);
        }
      }
    }
    return record;
  }

  rt::HarnessOptions harness;
  harness.warmup = spec.warmup;
  harness.iterations = spec.reps;
  if (spec.deadline_ms > 0) {
    harness.epoch_timeout = std::chrono::milliseconds(spec.deadline_ms);
  }

  rt::HarnessResult result;
  if (spec.faults.repair) {
    // Self-healing one-shot path: each epoch's protocol is sized to the live
    // membership; after a repair the tree is rebuilt over the survivors and
    // the harness remaps dense <-> stable global ranks (DESIGN.md §4i). The
    // repaired tree is cached per membership generation — rebuilds happen at
    // repair boundaries only, not every epoch.
    std::int32_t cached_generation = 0;
    std::unique_ptr<topo::Tree> repaired;
    const rt::MembershipProtocolFactory membership_factory =
        [&](const rt::MembershipView& view) -> std::unique_ptr<sim::Protocol> {
      const topo::Tree* t = &tree;
      if (!view.is_identity()) {
        if (!repaired || cached_generation != view.generation()) {
          repaired = std::make_unique<topo::Tree>(
              topo::make_survivor_tree(spec.tree, view.num_live()));
          cached_generation = view.generation();
        }
        t = repaired.get();
      }
      if (spec.collective == Collective::kAllreduce) {
        // Survivor values keyed by *global* rank: the agreed reduction after
        // a repair is the reduction over the survivors' original inputs.
        std::vector<std::int64_t> dense(static_cast<std::size_t>(view.num_live()));
        for (topo::Rank d = 0; d < view.num_live(); ++d) {
          dense[static_cast<std::size_t>(d)] = view.global_of(d) % 97;
        }
        sim::LogP live_params = spec.params;
        live_params.P = view.num_live();
        proto::AllReduceConfig config;
        config.reduce.distance = spec.reduce_distance;
        config.correction = correction;
        return std::make_unique<proto::CorrectedAllReduce>(*t, live_params, dense,
                                                           config);
      }
      switch (spec.protocol) {
        case ProtocolKind::kAckTree:
          return std::make_unique<proto::AckTreeBroadcast>(*t, nullptr, chunks);
        case ProtocolKind::kGossip: {
          gossip.seed = support::derive_seed(spec.seed, ++gossip_epoch);
          return std::make_unique<proto::CorrectedGossipBroadcast>(view.num_live(),
                                                                   gossip);
        }
        case ProtocolKind::kCorrectedTree:
          break;
      }
      return std::make_unique<proto::CorrectedTreeBroadcast>(*t, correction, 0,
                                                             nullptr, nullptr, chunks);
    };
    result = rt::measure_recovery(engine, membership_factory, harness);
  } else {
    result = rt::measure_broadcast(engine, factory, harness);
  }

  RunRecord record = make_record(spec);
  record.latency_unit = "us";
  record.workers = static_cast<std::int64_t>(engine.worker_threads());
  record.runs = result.iterations;
  record.wall_seconds = result.wall_seconds;
  record.latency_p50 = result.p50_us();
  record.latency_p99 = result.p99_us();
  record.latency_p999 = result.p999_us();
  record.latency_mean =
      result.latency_us.empty() ? 0.0 : result.latency_us.mean();
  record.messages_per_process =
      result.messages_per_process.empty() ? 0.0 : result.messages_per_process.mean();
  record.messages_per_sec = result.messages_per_sec();
  record.incomplete = result.incomplete;
  record.timeouts = result.timeouts;
  record.epochs_degraded = result.epochs_degraded;
  record.ranks_crashed = result.ranks_crashed;
  record.messages_dropped = result.messages_dropped;
  record.messages_delayed = result.messages_delayed;
  record.messages_duplicated = result.messages_duplicated;
  record.crashed_ranks = result.first.crashed_ranks;
  record.uncolored_survivors = result.first.uncolored_survivors;
  record.repairs = result.repairs;
  record.rejoins = result.rejoins;
  record.replayed_epochs = result.replayed_epochs;
  record.state_transfers = result.state_transfers;
  record.epochs_to_converge = result.epochs_to_converge;
  return record;
}

}  // namespace

RunRecord run(const RunSpec& spec, const support::ThreadPool* pool) {
  spec.validate();
  if (spec.executor == Executor::kRtUdp) return run_rt_udp(spec);
  if (spec.executor != Executor::kSim) return run_rt(spec);
  if (spec.collective != Collective::kBroadcast) return run_sim_reduction(spec);
  // Chunk-only specs (window = 1, no rate) run as a trivial stream too: the
  // StreamMux path is the one that knows how to build chunked protocols.
  if (spec.streaming() || spec.chunk > 0) return run_sim_stream(spec);
  return run_sim_broadcast(spec, pool);
}

void RunRecord::write_json(support::JsonWriter& w) const {
  w.begin_object()
      .field("spec", spec)
      .field("executor", executor)
      .field("procs", static_cast<std::int64_t>(procs))
      .field("workers", workers)
      .field("runs", runs)
      .field("wall_seconds", wall_seconds, 3)
      .field("latency_unit", latency_unit)
      .field("latency_p50", latency_p50, 1)
      .field("latency_p99", latency_p99, 1)
      .field("latency_mean", latency_mean, 1)
      .field("messages_per_process", messages_per_process, 2)
      .field("messages_per_sec", messages_per_sec, 0)
      .field("incomplete", incomplete)
      .field("timeouts", timeouts)
      .field("epochs_degraded", epochs_degraded)
      .field("ranks_crashed", ranks_crashed)
      .field("messages_dropped", messages_dropped)
      .field("messages_delayed", messages_delayed)
      .field("messages_duplicated", messages_duplicated)
      // Streaming keys appended (never reordered): bench tooling reads
      // records positionally against the pre-PR8 key list.
      .field("latency_p999", latency_p999, 1)
      .field("offered_rate", offered_rate, 1)
      .field("achieved_rate", achieved_rate, 1)
      .field("deliveries_per_sec", deliveries_per_sec, 0)
      // Recovery keys appended after the streaming block, same append-only
      // contract: positional readers of older records stay correct.
      .field("repairs", repairs)
      .field("rejoins", rejoins)
      .field("replayed_epochs", replayed_epochs)
      .field("state_transfers", state_transfers)
      .field("epochs_to_converge", epochs_to_converge)
      // Transport keys appended after the recovery block (exec=rt-udp
      // perfect-links tallies; zeros on in-process executors).
      .field("retransmits", retransmits)
      .field("dup_drops", dup_drops)
      .end_object();
}

}  // namespace ct::exp
