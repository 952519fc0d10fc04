#include "rt/harness.hpp"

namespace ct::rt {

void HarnessResult::add_epoch(const EpochResult& epoch, std::int64_t latency_ns,
                              topo::Rank num_procs) {
  if (iterations == 0) first = epoch;
  ++iterations;
  total_messages += epoch.total_messages;
  ranks_crashed += epoch.crashed_mid_epoch;
  messages_dropped += epoch.messages_dropped;
  messages_delayed += epoch.messages_delayed;
  messages_duplicated += epoch.messages_duplicated;
  if (epoch.degraded()) {
    if (epochs_degraded == 0) first_degraded = epoch;
    last_degraded = epoch;
    ++epochs_degraded;
  }
  if (epoch.timed_out) {
    ++timeouts;
    return;
  }
  if (epoch.uncolored_live > 0) ++incomplete;
  latency_us.add(static_cast<double>(latency_ns) / 1000.0);
  messages_per_process.add(static_cast<double>(epoch.total_messages) /
                           static_cast<double>(num_procs));
}

HarnessResult measure_broadcast(Engine& engine, const ProtocolFactory& factory,
                                const HarnessOptions& options) {
  for (std::int64_t i = 0; i < options.warmup; ++i) {
    auto protocol = factory();
    engine.run_epoch(*protocol, options.epoch_timeout);
  }

  HarnessResult result;
  const auto start = Clock::now();
  for (std::int64_t i = 0; i < options.iterations; ++i) {
    auto protocol = factory();
    const EpochResult epoch = engine.run_epoch(*protocol, options.epoch_timeout);
    result.add_epoch(epoch, epoch.completion_ns, engine.num_procs());
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

HarnessResult measure_recovery(Engine& engine,
                               const MembershipProtocolFactory& factory,
                               const HarnessOptions& options) {
  HarnessResult result;
  std::int64_t last_fault_idx = -1;
  std::int64_t last_degraded_idx = -1;
  const std::int64_t total_epochs = options.warmup + options.iterations;
  Clock::time_point measure_start{};
  for (std::int64_t idx = 0; idx < total_epochs; ++idx) {
    if (idx == options.warmup) measure_start = Clock::now();

    const Mend mended = engine.mend();
    result.repairs += mended.generation_moved;
    result.rejoins += mended.rejoined;
    // A rejoin perturbs the epoch it is admitted into just like a crash
    // does, so it resets the convergence clock.
    if (mended.rejoined > 0) last_fault_idx = idx;

    // Size the protocol to the live membership; remap dense<->global when
    // the view is compacted.
    const MembershipView& view = engine.membership();
    std::unique_ptr<sim::Protocol> protocol = factory(view);
    if (!view.is_identity()) {
      protocol = std::make_unique<RemappedProtocol>(std::move(protocol), view);
    }
    const EpochResult epoch = engine.run_epoch(*protocol, options.epoch_timeout);
    if (idx >= options.warmup) {
      result.add_epoch(epoch, epoch.completion_ns, engine.num_procs());
    }

    // Convergence bookkeeping over global indices (warmup included: the
    // fault stream doesn't pause for the measurement window).
    if (!epoch.crashed_ranks.empty()) last_fault_idx = idx;
    if (epoch.degraded()) last_degraded_idx = idx;
  }

  result.wall_seconds =
      result.iterations > 0
          ? std::chrono::duration<double>(Clock::now() - measure_start).count()
          : 0.0;
  result.epochs_to_converge =
      last_degraded_idx > last_fault_idx ? last_degraded_idx - last_fault_idx : 0;
  return result;
}

StreamHarnessResult measure_stream(Engine& engine, const ProtocolFactory& factory,
                                   const StreamOptions& options) {
  StreamHarnessResult result;
  // Live ranks at admission of the first epoch: a repair-mode stream moves
  // engine.live_count() as it persists crashes.
  const auto live = static_cast<std::int64_t>(engine.live_count());
  result.raw = engine.run_stream(factory, options);
  result.wall_seconds = result.raw.wall_seconds;
  result.repairs = result.raw.repairs;
  std::int64_t idx = 0;
  std::int64_t last_fault_idx = -1;
  std::int64_t last_degraded_idx = -1;
  for (const StreamEpoch& epoch : result.raw.epochs) {
    ++result.epochs;
    result.total_messages += epoch.messages;
    result.ranks_crashed += epoch.crashed;
    result.rejoins += epoch.rejoined;
    // Ranks already dead at admission never receive the payload, so they
    // don't count toward deliveries (repair-mode streams; zero otherwise).
    result.deliveries += live - epoch.dead_at_start - epoch.crashed - epoch.uncolored;
    if (epoch.crashed > 0 || epoch.rejoined > 0) last_fault_idx = idx;
    if (epoch.timed_out || epoch.uncolored > 0) last_degraded_idx = idx;
    ++idx;
    if (epoch.timed_out) {
      ++result.timeouts;
      continue;
    }
    if (epoch.uncolored > 0) ++result.incomplete;
    result.sojourn_us.add(static_cast<double>(epoch.sojourn_ns()) / 1000.0);
    result.service_us.add(static_cast<double>(epoch.service_ns()) / 1000.0);
  }
  result.epochs_to_converge =
      last_degraded_idx > last_fault_idx ? last_degraded_idx - last_fault_idx : 0;
  return result;
}

}  // namespace ct::rt
