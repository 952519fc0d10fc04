#pragma once
// exec=rt-udp (DESIGN.md §4j): the multi-process executor. The rank space
// is carved into the contiguous slices of rt-sharded:w=<procs> — one forked
// OS process per slice, each owning a bound loopback UDP socket — and
// cross-process envelopes travel as real datagrams under the perfect-links
// layer of udp_transport.hpp.
//
// A process is an engine with one local shard: each forked process drives
// the same rt::Engine shard loop as the in-process executor, with plain
// run_epoch calls, one worker thread stepping its slice, and UdpTransport
// in place of the SPSC mesh. Every process builds the full-P protocol each
// epoch through the inherited factory (fork carries the whole
// configuration; nothing is serialized) and runs the deterministic begin()
// everywhere, but steps only its own ranks: the begin()-time sends and
// timers of ranks another process owns are never run, so exactly one
// process — the owner — emits each rank's traffic. This is sound because
// the repo's protocols only read their own rank's coloring/data through
// the Context, and per-rank protocol-internal state is disjoint.
//
// DONE/END is the only cross-process retire rule. A process's epoch
// countdown covers its local live ranks; the last local credit (or the
// local deadline, as timed out) sends DONE to process 0. Process 0 seals
// the epoch everywhere with END once every DONE arrived or its deadline
// grace passed, and END also admits the next epoch (W = 1 lockstep, no
// separate BEGIN). Mail for an epoch a process has not launched yet is
// held back and replayed at launch. A process that sees no END within
// twice the epoch timeout retires the epoch as timed out, so a dead
// process 0 cannot hang the run. Control messages ride the same perfect
// links as protocol mail (negative protocol tags).
//
// This file keeps what is specific to processes: socket binding, fork, the
// pipe report (raw-bytes framing as in exp::run_replicated_mp), the
// post-run ack drain and the parent-side merge into the rt::HarnessResult
// shape measure_broadcast produces (plus the transport's retransmits /
// dup_drops tallies). Crash verdicts apply per rank in the engine; drop,
// delay and duplicate verdicts apply per datagram in UdpTransport.
//
// Fork discipline (same as exp/mp.hpp): call measure_broadcast_udp before
// the process spawns threads. The parent binds ALL worker sockets before
// forking — children inherit bound fds, so there is no port-collision or
// bind-race window, and port_base = 0 can leave port assignment entirely
// to the kernel. Each child starts its engine's worker thread after fork.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/chaos.hpp"
#include "rt/harness.hpp"

namespace ct::rt {

struct UdpEngineOptions {
  topo::Rank num_procs = 0;
  /// `failed[r] != 0` marks rank r failed from start (no process steps it;
  /// mail to it is dropped at the source). Rank 0 must be live.
  std::vector<char> failed;
  /// Worker process count; clamped to [1, min(num_procs, 64)]. 1 still
  /// exercises the full epoch protocol with the coordinator talking to
  /// itself (and no datagrams on the wire).
  int procs = 4;
  /// First UDP port: worker k binds 127.0.0.1:(port_base + k). 0 = let the
  /// kernel assign ephemeral ports (the default, and collision-free).
  int port_base = 0;
  /// Crash verdicts apply at the rank level exactly as in the sharded
  /// engine; drop/delay/duplicate verdicts apply per *datagram* at the
  /// socket boundary, below perfect links, so retransmission recovers them.
  ChaosPlan chaos;
  std::int64_t warmup = 3;
  std::int64_t iterations = 20;
  std::chrono::nanoseconds epoch_timeout = std::chrono::seconds(10);
};

struct UdpRunResult {
  HarnessResult harness;
  int procs_used = 1;
  /// Non-empty when the run failed (socket setup, fork, or a worker died);
  /// `harness` is partial or empty in that case.
  std::string error;
};

/// True when a loopback UDP socket can be created and bound; on failure
/// `error` says why. Tests use this to skip cleanly in socketless sandboxes.
bool udp_loopback_available(std::string& error);

/// Runs warmup + iterations broadcast epochs of `factory`-built protocols
/// across forked UDP worker processes and merges the per-process reports.
UdpRunResult measure_broadcast_udp(const UdpEngineOptions& options,
                                   const ProtocolFactory& factory);

}  // namespace ct::rt
