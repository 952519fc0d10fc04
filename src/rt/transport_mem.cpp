#include "rt/transport_mem.hpp"

#include <bit>

namespace ct::rt {

// --- MeshTransport ----------------------------------------------------------

MeshTransport::MeshTransport(std::size_t num_shards, std::size_t ring_capacity)
    : num_shards_(num_shards) {
  // Diagonal rings are never touched (same-shard mail takes the LocalFifo);
  // give them the minimum footprint.
  for (std::size_t from = 0; from < num_shards; ++from) {
    for (std::size_t to = 0; to < num_shards; ++to) {
      rings_.emplace_back(from == to ? 1 : ring_capacity);
    }
  }
  for (std::size_t s = 0; s < num_shards; ++s) endpoints_.emplace_back(num_shards);
}

std::size_t MeshTransport::send_batch(std::size_t from, std::size_t to,
                                      const Envelope* data, std::size_t n) {
  const std::size_t accepted = rings_[from * num_shards_ + to].push_batch(data, n);
  if (accepted > 0) {
    Endpoint& endpoint = endpoints_[to];
    endpoint.mail_mask[from >> 6].fetch_or(std::uint64_t{1} << (from & 63),
                                           std::memory_order_release);
    endpoint.bell.notify();
  }
  return accepted;
}

std::size_t MeshTransport::poll_into(std::size_t to, const EnvelopeSink& sink) {
  Endpoint& endpoint = endpoints_[to];
  std::size_t claimed = 0;
  for (std::size_t word = 0; word < endpoint.mail_mask.size(); ++word) {
    if (endpoint.mail_mask[word].load(std::memory_order_relaxed) == 0) continue;
    // Clear before popping: a bit set for mail we then miss re-arms the
    // next pass (harmless empty pop); clearing after could lose one.
    std::uint64_t bits = endpoint.mail_mask[word].exchange(0, std::memory_order_acquire);
    while (bits != 0) {
      const std::size_t from = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      claimed += rings_[from * num_shards_ + to].consume_all(sink);
    }
  }
  return claimed;
}

bool MeshTransport::has_mail(std::size_t to) const {
  // Relaxed loads suffice — the Doorbell's seq_cst fence pair orders them
  // against the park decision.
  for (const std::atomic<std::uint64_t>& word : endpoints_[to].mail_mask) {
    if (word.load(std::memory_order_relaxed) != 0) return true;
  }
  return false;
}

void MeshTransport::park(std::size_t to, std::chrono::nanoseconds timeout) {
  endpoints_[to].bell.wait(timeout, [this, to] { return has_mail(to); });
}

void MeshTransport::kick(std::size_t to) { endpoints_[to].bell.kick(); }

void MeshTransport::clear() {
  for (Endpoint& endpoint : endpoints_) {
    for (std::atomic<std::uint64_t>& word : endpoint.mail_mask) {
      word.store(0, std::memory_order_relaxed);
    }
  }
  for (SpscRing& ring : rings_) ring.clear();
}

}  // namespace ct::rt
