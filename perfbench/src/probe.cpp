#include "probe.hpp"

#include <sys/mman.h>

#include <chrono>
#include <new>
#include <stdexcept>
#include <utility>

#include "support/rng.hpp"

namespace perfbench {

SlotTotals SlotTotals::operator-(const SlotTotals& earlier) const {
  SlotTotals d;
  d.calls = calls - earlier.calls;
  d.self_ns = self_ns - earlier.self_ns;
  d.receives = receives - earlier.receives;
  d.useful_receives = useful_receives - earlier.useful_receives;
  d.sends = sends - earlier.sends;
  d.correction_sends = correction_sends - earlier.correction_sends;
  d.deliveries = deliveries - earlier.deliveries;
  d.violations = violations - earlier.violations;
  return d;
}

SlotTotals SlotTotals::operator+(const SlotTotals& other) const {
  SlotTotals t;
  t.calls = calls + other.calls;
  t.self_ns = self_ns + other.self_ns;
  t.receives = receives + other.receives;
  t.useful_receives = useful_receives + other.useful_receives;
  t.sends = sends + other.sends;
  t.correction_sends = correction_sends + other.correction_sends;
  t.deliveries = deliveries + other.deliveries;
  t.violations = violations + other.violations;
  return t;
}

SlotTable::SlotTable(std::size_t ranks) : ranks_(ranks), bytes_(ranks * sizeof(RankSlot)) {
  void* memory = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                      -1, 0);
  if (memory == MAP_FAILED) throw std::runtime_error("perfbench: mmap of probe slots failed");
  slots_ = static_cast<RankSlot*>(memory);
  for (std::size_t r = 0; r < ranks_; ++r) new (&slots_[r]) RankSlot{};
}

SlotTable::~SlotTable() { munmap(slots_, bytes_); }

SlotTotals SlotTable::totals() const {
  SlotTotals t;
  for (std::size_t r = 0; r < ranks_; ++r) {
    const RankSlot& s = slots_[r];
    t.calls += s.calls;
    t.self_ns += s.self_ns;
    t.receives += s.receives;
    t.useful_receives += s.useful_receives;
    t.sends += s.sends;
    t.correction_sends += s.correction_sends;
    t.deliveries += s.deliveries;
    t.violations += s.violations;
  }
  return t;
}

std::int64_t payload_of(std::uint64_t seed, std::int64_t bcast_id) {
  const std::uint64_t h =
      ct::support::derive_seed(seed ^ 0x9e3779b97f4a7c15ULL, static_cast<std::uint64_t>(bcast_id));
  return static_cast<std::int64_t>(h % 1'000'000'007ULL) + 1;
}

ProbeProtocol::ProbeProtocol(std::unique_ptr<ct::sim::Protocol> inner, SlotTable& slots,
                             std::int32_t bcast_id, std::int64_t payload, bool timed)
    : inner_(std::move(inner)),
      slots_(slots),
      bcast_id_(bcast_id),
      payload_(payload),
      timed_(timed) {}

namespace {

/// The Context a probed handler sees: forwards every call to the
/// executor's and records each set_rank_data call as a delivery in the
/// slot of its rank. No duplication: one delivery per rank and broadcast.
/// No creation and agreement: the delivered word is the root's.
class DeliveryContext final : public ct::sim::Context {
 public:
  DeliveryContext(ct::sim::Context& inner, SlotTable& slots, std::int32_t bcast,
                  std::int64_t payload)
      : inner_(inner), slots_(slots), bcast_(bcast), payload_(payload) {}

  ct::sim::Time now() const override { return inner_.now(); }
  ct::topo::Rank num_procs() const override { return inner_.num_procs(); }
  void send(ct::topo::Rank from, ct::topo::Rank to, ct::sim::Tag tag,
            std::int64_t payload) override {
    inner_.send(from, to, tag, payload);
  }
  void set_timer(ct::topo::Rank on, ct::sim::Time when, std::int64_t id) override {
    inner_.set_timer(on, when, id);
  }
  void mark_colored(ct::topo::Rank r) override { inner_.mark_colored(r); }
  bool is_colored(ct::topo::Rank r) const override { return inner_.is_colored(r); }
  void note_correction_start() override { inner_.note_correction_start(); }
  std::int64_t rank_data(ct::topo::Rank r) const override { return inner_.rank_data(r); }

  void set_rank_data(ct::topo::Rank r, std::int64_t data) override {
    inner_.set_rank_data(r, data);
    RankSlot& slot = slots_[static_cast<std::size_t>(r)];
    ++slot.deliveries;
    if (slot.last_bcast == bcast_) ++slot.violations;
    if (data != payload_) ++slot.violations;
    slot.last_bcast = bcast_;
  }

 private:
  ct::sim::Context& inner_;
  SlotTable& slots_;
  std::int32_t bcast_;
  std::int64_t payload_;
};

class FaultyProtocol final : public ct::sim::Protocol {
 public:
  FaultyProtocol(std::unique_ptr<ct::sim::Protocol> inner, bool wrong_data)
      : inner_(std::move(inner)), wrong_data_(wrong_data) {}

  void begin(ct::sim::Context& ctx) override { inner_->begin(ctx); }
  void on_receive(ct::sim::Context& ctx, ct::topo::Rank me,
                  const ct::sim::Message& msg) override {
    inner_->on_receive(ctx, me, msg);
    if (ctx.is_colored(me)) ctx.set_rank_data(me, ctx.rank_data(me) + (wrong_data_ ? 1 : 0));
  }
  void on_sent(ct::sim::Context& ctx, ct::topo::Rank me,
               const ct::sim::Message& msg) override {
    inner_->on_sent(ctx, me, msg);
  }
  void on_timer(ct::sim::Context& ctx, ct::topo::Rank me, std::int64_t id) override {
    inner_->on_timer(ctx, me, id);
  }

 private:
  std::unique_ptr<ct::sim::Protocol> inner_;
  bool wrong_data_;
};

}  // namespace

std::unique_ptr<ct::sim::Protocol> make_faulty(std::unique_ptr<ct::sim::Protocol> inner,
                                               const std::string& kind) {
  if (kind != "dup" && kind != "data") throw std::invalid_argument("unknown fault " + kind);
  return std::make_unique<FaultyProtocol>(std::move(inner), kind == "data");
}

template <class Call>
void ProbeProtocol::timed_call(ct::sim::Context& ctx, RankSlot& slot, Call&& call) {
  DeliveryContext delivery(ctx, slots_, bcast_id_, payload_);
  ++slot.calls;
  if (!timed_) {
    call(delivery);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  call(delivery);
  slot.self_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
}

// begin() is not decorated: rt-udp runs it in every worker process, and the
// root's own data word is not a delivery.
void ProbeProtocol::begin(ct::sim::Context& ctx) { inner_->begin(ctx); }

void ProbeProtocol::on_receive(ct::sim::Context& ctx, ct::topo::Rank me,
                               const ct::sim::Message& msg) {
  RankSlot& slot = slots_[static_cast<std::size_t>(me)];
  const bool was_colored = ctx.is_colored(me);
  timed_call(ctx, slot, [&](ct::sim::Context& c) { inner_->on_receive(c, me, msg); });
  ++slot.receives;
  if (!was_colored && ctx.is_colored(me)) ++slot.useful_receives;
}

void ProbeProtocol::on_sent(ct::sim::Context& ctx, ct::topo::Rank me,
                            const ct::sim::Message& msg) {
  RankSlot& slot = slots_[static_cast<std::size_t>(me)];
  timed_call(ctx, slot, [&](ct::sim::Context& c) { inner_->on_sent(c, me, msg); });
  ++slot.sends;
  if (msg.tag == ct::sim::tag::kCorrection || msg.tag == ct::sim::tag::kCorrReply) {
    ++slot.correction_sends;
  }
}

void ProbeProtocol::on_timer(ct::sim::Context& ctx, ct::topo::Rank me, std::int64_t id) {
  RankSlot& slot = slots_[static_cast<std::size_t>(me)];
  timed_call(ctx, slot, [&](ct::sim::Context& c) { inner_->on_timer(c, me, id); });
}

ct::rt::ProtocolFactory probe_factory(InnerFactory inner, SlotTable& slots,
                                      std::uint64_t seed, std::int32_t* next_id,
                                      const bool* timed) {
  return [inner = std::move(inner), &slots, seed, next_id,
          timed]() -> std::unique_ptr<ct::sim::Protocol> {
    const std::int32_t id = (*next_id)++;
    const std::int64_t payload = payload_of(seed, id);
    return std::make_unique<ProbeProtocol>(inner(payload), slots, id, payload, *timed);
  };
}

}  // namespace perfbench
