#pragma once
// In-process Transport (DESIGN.md §4c, §4f, §4j): the lock-free SPSC ring
// mesh the engine moves cross-shard mail through. It keeps the exact
// synchronization discipline the engine relied on before the seam existed
// — mail-mask words and Doorbell fence pairs — so the seam costs nothing
// measurable.

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "rt/shard_queue.hpp"
#include "rt/transport.hpp"

namespace ct::rt {

/// SPSC ring mesh: one bounded lock-free ring per ordered shard pair
/// (producer-major: ring (from → to) at index from·S + to), per-shard mail
/// masks so the owner polls O(S/64) words instead of O(S) ring indices,
/// and a Doorbell per shard for parking.
class MeshTransport final : public Transport {
 public:
  MeshTransport(std::size_t num_shards, std::size_t ring_capacity);

  std::size_t send_batch(std::size_t from, std::size_t to, const Envelope* data,
                         std::size_t n) override;
  std::size_t poll_into(std::size_t to, const EnvelopeSink& sink) override;
  bool has_mail(std::size_t to) const override;
  void park(std::size_t to, std::chrono::nanoseconds timeout) override;
  void kick(std::size_t to) override;
  void clear() override;

 private:
  /// Per-shard consumer endpoint. Holds atomics, so it lives in a deque and
  /// never moves. mail_mask bit (from mod 64) of word (from div 64) means
  /// ring (from → this shard) may hold mail; producers set it after the
  /// ring publish, the owner exchanges whole words to zero before popping.
  struct Endpoint {
    explicit Endpoint(std::size_t num_shards) : mail_mask((num_shards + 63) / 64) {}
    std::vector<std::atomic<std::uint64_t>> mail_mask;
    Doorbell bell;
  };

  std::size_t num_shards_;
  std::deque<SpscRing> rings_;    // deque: rings hold atomics, must not move
  std::deque<Endpoint> endpoints_;
};

}  // namespace ct::rt
