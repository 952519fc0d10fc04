// Engineering micro-benchmarks for the message-passing runtime
// (google-benchmark): the delivery primitives the executor is built from —
// the intra-shard LocalFifo ring and the cross-shard SPSC ring mesh — and
// whole-epoch setup/teardown cost as the rank count grows toward the
// paper's 36 864-rank prototype.

#include <benchmark/benchmark.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "rt/engine.hpp"
#include "rt/shard_queue.hpp"
#include "topology/factory.hpp"

namespace {

using namespace ct;

rt::Envelope make_envelope(std::int64_t i) {
  return rt::Envelope{
      sim::Message{.src = 0, .dst = 1, .tag = sim::tag::kTree, .payload = i, .data = i},
      /*tag=*/rt::Envelope::make_tag(/*epoch=*/1, /*generation=*/0)};
}

// --- delivery primitives ----------------------------------------------------

// Sharded intra-shard path: plain ring buffer, no locks.
void BM_LocalFifoPushPop(benchmark::State& state) {
  rt::LocalFifo fifo;
  rt::Envelope out;
  std::int64_t i = 0;
  for (auto _ : state) {
    fifo.push(make_envelope(++i));
    benchmark::DoNotOptimize(fifo.pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalFifoPushPop);

// --- cross-shard delivery under contention ----------------------------------
//
// S worker threads exchange envelope batches through the executor's
// cross-shard backend — the lock-free SPSC ring mesh (one ring per ordered
// pair) — driven directly, so the contention profile is isolated from
// protocol and scheduling cost.
// Two traffic shapes: all-pairs (every shard batches to every other shard
// each round — the densest mesh load) and random-peer (each shard picks one
// pseudo-random destination per round — the sparse, skewed shape of real
// tree traffic). items/sec counts envelopes end-to-end (pushed and drained).

constexpr std::size_t kStormBatch = 16;
constexpr std::size_t kStormRounds = 128;

/// One storm: S threads, kStormRounds rounds of batched pushes plus
/// cooperative draining, terminated by per-producer done markers (tagged
/// kCorrection) so consumers know when their column is dry. Returns total
/// envelopes exchanged. Pushes retry with a self-drain between attempts,
/// so bounded rings cannot deadlock a push cycle.
std::int64_t cross_shard_storm(std::size_t num_shards, bool all_pairs) {
  std::deque<rt::SpscRing> rings;
  for (std::size_t i = 0; i < num_shards * num_shards; ++i) rings.emplace_back(1024);
  std::barrier start(static_cast<std::ptrdiff_t>(num_shards));
  std::atomic<std::int64_t> total{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      threads.emplace_back([&, s] {
        std::vector<rt::Envelope> batch(kStormBatch, make_envelope(1));
        std::vector<rt::Envelope> marker(1, make_envelope(0));
        marker[0].msg.tag = sim::tag::kCorrection;
        std::vector<rt::Envelope> drain;
        std::uint64_t rng = 0x9e3779b97f4a7c15ull ^ (s * 0xbf58476d1ce4e5b9ull);
        std::int64_t sent = 0;
        std::size_t done_seen = 0;
        const auto drain_own = [&] {
          for (std::size_t from = 0; from < num_shards; ++from) {
            if (from != s) rings[from * num_shards + s].pop_all_into(drain);
          }
          for (const rt::Envelope& e : drain) {
            if (e.msg.tag == sim::tag::kCorrection) ++done_seen;
          }
          drain.clear();
        };
        const auto push_to = [&](std::size_t d, const std::vector<rt::Envelope>& data) {
          std::size_t off = 0;
          while (off < data.size()) {
            off += rings[s * num_shards + d].push_batch(data.data() + off,
                                                        data.size() - off);
            if (off < data.size()) {
              // Full ring: drain our own column so a push cycle cannot
              // deadlock, then yield — the consumer may need the core (the
              // engine parks on its Doorbell here instead).
              drain_own();
              std::this_thread::yield();
            }
          }
          sent += static_cast<std::int64_t>(data.size());
        };
        start.arrive_and_wait();
        for (std::size_t round = 0; round < kStormRounds; ++round) {
          if (all_pairs) {
            for (std::size_t d = 0; d < num_shards; ++d) {
              if (d != s) push_to(d, batch);
            }
          } else {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            push_to((s + 1 + rng % (num_shards - 1)) % num_shards, batch);
          }
          drain_own();
        }
        for (std::size_t d = 0; d < num_shards; ++d) {
          if (d != s) push_to(d, marker);
        }
        while (done_seen < num_shards - 1) {
          drain_own();
          std::this_thread::yield();
        }
        total.fetch_add(sent, std::memory_order_relaxed);
      });
    }
  }  // jthreads join before the queues go away
  return total.load(std::memory_order_relaxed);
}

void BM_CrossShardAllPairs(benchmark::State& state) {
  const auto num_shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cross_shard_storm(num_shards, true));
  }
  const auto per_storm = static_cast<std::int64_t>(
      num_shards * (num_shards - 1) * (kStormRounds * kStormBatch + 1));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * per_storm);
}
BENCHMARK(BM_CrossShardAllPairs)->ArgName("workers")->Arg(2)->Arg(8)->Arg(16)->UseRealTime();

void BM_CrossShardRandomPeer(benchmark::State& state) {
  const auto num_shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cross_shard_storm(num_shards, false));
  }
  const auto per_storm = static_cast<std::int64_t>(
      num_shards * (kStormRounds * kStormBatch + num_shards - 1));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * per_storm);
}
BENCHMARK(BM_CrossShardRandomPeer)->ArgName("workers")->Arg(2)->Arg(8)->Arg(16)->UseRealTime();

// --- whole-epoch costs ------------------------------------------------------

/// Colors every rank in begin() and sends nothing: an epoch of this
/// protocol measures pure setup/teardown (slot staging, launch and seal
/// handshakes, completion sweep) with zero protocol work.
class NoopBroadcast final : public sim::Protocol {
 public:
  void begin(sim::Context& ctx) override {
    for (topo::Rank r = 0; r < ctx.num_procs(); ++r) ctx.mark_colored(r);
  }
  void on_receive(sim::Context&, topo::Rank, const sim::Message&) override {}
  void on_sent(sim::Context&, topo::Rank, const sim::Message&) override {}
};

/// Minimal binomial broadcast (the fig11 "native" stand-in, locally
/// re-declared to keep this binary self-contained).
class BinomialBroadcast final : public sim::Protocol {
 public:
  explicit BinomialBroadcast(const topo::Tree& tree) : tree_(tree) {}
  void begin(sim::Context& ctx) override {
    ctx.mark_colored(0);
    for (topo::Rank child : tree_.children(0)) ctx.send(0, child, sim::tag::kTree, 0);
  }
  void on_receive(sim::Context& ctx, topo::Rank me, const sim::Message&) override {
    ctx.mark_colored(me);
    for (topo::Rank child : tree_.children(me)) ctx.send(me, child, sim::tag::kTree, 0);
  }
  void on_sent(sim::Context&, topo::Rank, const sim::Message&) override {}

 private:
  const topo::Tree& tree_;
};

// Epoch setup/teardown vs rank count: no messages at all, so the slope is
// the per-rank reset + completion-sweep cost of the sharded scheduler.
void BM_ShardedEpochSetupTeardown(benchmark::State& state) {
  const auto procs = static_cast<topo::Rank>(state.range(0));
  rt::Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0));
  for (auto _ : state) {
    NoopBroadcast protocol;
    const rt::EpochResult result =
        engine.run_epoch(protocol, std::chrono::seconds(10));
    benchmark::DoNotOptimize(result.completion_ns);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * procs);
}
BENCHMARK(BM_ShardedEpochSetupTeardown)->Arg(1024)->Arg(4096)->Arg(16384);

// Full broadcast epoch on the sharded engine vs rank count; items/sec is
// ranks colored per second.
void BM_ShardedBroadcastEpoch(benchmark::State& state) {
  const auto procs = static_cast<topo::Rank>(state.range(0));
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  rt::Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0));
  for (auto _ : state) {
    BinomialBroadcast protocol(tree);
    const rt::EpochResult result =
        engine.run_epoch(protocol, std::chrono::seconds(10));
    benchmark::DoNotOptimize(result.total_messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * procs);
}
BENCHMARK(BM_ShardedBroadcastEpoch)->Arg(1024)->Arg(4096)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
