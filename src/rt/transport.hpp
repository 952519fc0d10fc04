#pragma once
// Pluggable cross-shard transport seam (DESIGN.md §4j). The sharded engine
// stages outgoing envelopes per destination shard during a scheduling pass
// and moves them — plus parking, wakeup and the has-mail poll — through this
// interface instead of code welded into engine_sharded.cpp. Two transports
// implement it:
//
//  * MeshTransport  (transport_mem.hpp) — the lock-free SPSC ring mesh with
//    per-shard mail masks and Doorbell parking.
//  * UdpTransport   (udp_transport.hpp) — real POSIX UDP datagrams between
//    OS processes with a perfect-links reliability layer; "shard" becomes
//    "peer process".
//
// The interface is batch-level on purpose: every virtual call moves (or
// polls for) a whole batch, so dispatch cost is O(shards²) per scheduling
// pass — never O(messages) — and the ≥0.95x in-process A/B gate against the
// pre-seam engine holds. Per-envelope delivery on the poll side goes
// through EnvelopeSink, a non-owning two-word callable (context + function
// pointer), because the engine routes each envelope by its epoch
// tag and a plain LocalFifo& target would force an intermediate copy.
//
// Contract:
//  * send_batch accepts a prefix (bounded rings/windows push back); the
//    caller keeps the rejected tail staged in order and retries next pass,
//    so per-sender FIFO and the chained-send/deadline behavior of the
//    engine are transport-independent.
//  * poll_into drains everything currently pending for `to` and returns
//    the count; has_mail is the cheap park predicate.
//  * park blocks the owner of `to` until mail, a kick, or the timeout;
//    kick wakes it unconditionally (slot transitions, shutdown).
//  * flush lets a transport with deferred work (datagram packing,
//    retransmit timers) make progress; the in-memory transport publishes
//    eagerly in send_batch and keep it a no-op.
//  * clear resets between epochs with both sides quiescent.

#include <chrono>
#include <cstddef>

#include "rt/envelope.hpp"

namespace ct::rt {

/// Non-owning callable handed to Transport::poll_into for per-envelope
/// delivery: one context pointer plus one function pointer, so the virtual
/// poll boundary adds a single predicted indirect call per envelope and no
/// allocation. The referenced callable must outlive the poll call.
class EnvelopeSink {
 public:
  template <class Fn>
  EnvelopeSink(Fn& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), fn_([](void* ctx, const Envelope& envelope) {
          (*static_cast<Fn*>(ctx))(envelope);
        }) {}

  void operator()(const Envelope& envelope) const { fn_(ctx_, envelope); }

 private:
  void* ctx_;
  void (*fn_)(void*, const Envelope&);
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Producer side: publish up to `n` envelopes from shard `from` to shard
  /// `to` in order; returns how many were accepted (a full ring/window
  /// accepts a prefix). Accepted envelopes are visible to the destination's
  /// next poll_into, and the destination is notified if parked.
  virtual std::size_t send_batch(std::size_t from, std::size_t to,
                                 const Envelope* data, std::size_t n) = 0;

  /// Consumer side: deliver every envelope currently pending for shard
  /// `to` through `sink` (FIFO per producer) and return the count.
  virtual std::size_t poll_into(std::size_t to, const EnvelopeSink& sink) = 0;

  /// Consumer-side park predicate: may shard `to` have pending mail?
  virtual bool has_mail(std::size_t to) const = 0;

  /// Blocks the owner of shard `to` until mail arrives, a kick fires, or
  /// `timeout` elapses. Must tolerate spurious wakeups.
  virtual void park(std::size_t to, std::chrono::nanoseconds timeout) = 0;

  /// Unconditional wakeup of shard `to`'s park (slot transitions, shutdown).
  virtual void kick(std::size_t to) = 0;

  /// Deferred-work hook for shard `from` (datagram packing, retransmits).
  /// The in-memory transport publishes eagerly and keeps this a no-op.
  virtual void flush(std::size_t from) { static_cast<void>(from); }

  /// Resets all queues between epochs. Caller guarantees both sides are
  /// quiescent (the engine's session barrier does).
  virtual void clear() = 0;
};

}  // namespace ct::rt
