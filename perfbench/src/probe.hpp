#pragma once
// The probe: a decorating sim::Protocol that every workload wraps around
// the protocol it benchmarks. It forwards each handler unchanged and keeps
// one 64-byte counter slot per rank, written only by the thread (or, under
// rt-udp, the process) that steps that rank, so workers never contend.
//
// Untimed, it records what the broadcast oracles need. Each handler runs
// against a decorating sim::Context that sees every set_rank_data call: a
// delivery. It counts deliveries per rank and broadcast and checks the data
// word of each. Timed (traced runs), the probe also samples the steady
// clock around every handler for protocol self time.
//
// The slots live in a MAP_SHARED anonymous mapping, so rt-udp worker
// processes forked after it was mapped write into memory the parent reads.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "rt/engine.hpp"
#include "sim/protocol.hpp"

namespace perfbench {

struct alignas(64) RankSlot {
  std::int64_t calls = 0;             ///< handler invocations of any kind
  std::int64_t self_ns = 0;           ///< time inside handlers (timed probes)
  std::int64_t receives = 0;
  std::int64_t useful_receives = 0;   ///< receives that colored the rank
  std::int64_t sends = 0;             ///< completed sends (on_sent)
  std::int64_t correction_sends = 0;  ///< ... of correction probes / replies
  std::int64_t deliveries = 0;        ///< set_rank_data calls in handlers
  std::int32_t last_bcast = -1;       ///< broadcast id of the last delivery
  std::int32_t violations = 0;        ///< repeated deliveries or wrong data
};
static_assert(sizeof(RankSlot) == 64, "one cache line per rank");

/// Sums of the per-rank slots.
struct SlotTotals {
  std::int64_t calls = 0;
  std::int64_t self_ns = 0;
  std::int64_t receives = 0;
  std::int64_t useful_receives = 0;
  std::int64_t sends = 0;
  std::int64_t correction_sends = 0;
  std::int64_t deliveries = 0;
  std::int64_t violations = 0;

  SlotTotals operator-(const SlotTotals& earlier) const;
  SlotTotals operator+(const SlotTotals& other) const;
};

class SlotTable {
 public:
  explicit SlotTable(std::size_t ranks);
  ~SlotTable();
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;

  RankSlot& operator[](std::size_t rank) noexcept { return slots_[rank]; }
  std::size_t size() const noexcept { return ranks_; }
  SlotTotals totals() const;

 private:
  std::size_t ranks_;
  std::size_t bytes_;
  RankSlot* slots_;
};

/// The broadcast data word of broadcast `bcast_id` under `seed`: nonzero
/// and distinct per broadcast, so a stale or invented value is caught.
std::int64_t payload_of(std::uint64_t seed, std::int64_t bcast_id);

class ProbeProtocol final : public ct::sim::Protocol {
 public:
  ProbeProtocol(std::unique_ptr<ct::sim::Protocol> inner, SlotTable& slots,
                std::int32_t bcast_id, std::int64_t payload, bool timed);

  void begin(ct::sim::Context& ctx) override;
  void on_receive(ct::sim::Context& ctx, ct::topo::Rank me,
                  const ct::sim::Message& msg) override;
  void on_sent(ct::sim::Context& ctx, ct::topo::Rank me,
               const ct::sim::Message& msg) override;
  void on_timer(ct::sim::Context& ctx, ct::topo::Rank me, std::int64_t id) override;

 private:
  template <class Call>
  void timed_call(ct::sim::Context& ctx, RankSlot& slot, Call&& call);

  std::unique_ptr<ct::sim::Protocol> inner_;
  SlotTable& slots_;
  std::int32_t bcast_id_;
  std::int64_t payload_;
  bool timed_;
};

/// A deliberately faulty protocol for the self-test: it forwards to
/// `inner` and, after every receive that leaves the rank colored, registers
/// the rank's data again (kind "dup", a second delivery) or registers a
/// word the root never sent (kind "data"). The probe's oracles must flag
/// either.
std::unique_ptr<ct::sim::Protocol> make_faulty(std::unique_ptr<ct::sim::Protocol> inner,
                                               const std::string& kind);

/// Builds the inner protocol of one broadcast carrying `payload`.
using InnerFactory = std::function<std::unique_ptr<ct::sim::Protocol>(std::int64_t payload)>;

/// An rt::ProtocolFactory handing out probes with consecutive broadcast ids
/// starting at `*next_id` (which it advances). Set `*timed` to switch
/// between untimed and timed probes between measurement calls.
ct::rt::ProtocolFactory probe_factory(InnerFactory inner, SlotTable& slots,
                                      std::uint64_t seed, std::int32_t* next_id,
                                      const bool* timed);

}  // namespace perfbench
