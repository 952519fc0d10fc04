#include "rt/udp_engine.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CT_RT_HAVE_UDP 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "rt/udp_transport.hpp"

namespace ct::rt {

namespace {

#if CT_RT_HAVE_UDP

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t wrote = ::write(fd, p, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;  // EOF mid-frame = dead worker
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_i64(int fd, std::int64_t v) { return write_all(fd, &v, sizeof(v)); }
bool read_i64(int fd, std::int64_t& v) { return read_all(fd, &v, sizeof(v)); }

/// One process's view of one epoch, streamed back over the pipe.
struct EpochRecord {
  std::int64_t timed_out = 0;        ///< the END verdict (globally consistent)
  std::int64_t messages = 0;         ///< local ranks' sends
  std::int64_t completion_max_ns = 0;
  std::int64_t latency_ns = 0;       ///< begin -> END; authoritative on process 0
  std::vector<std::uint8_t> rank_state;  ///< local slice, RankEnd values
};

/// One process's report frame: its slice [lo, hi), one record per epoch
/// (warm-up included), the transport tallies and process 0's measured-loop
/// wall time.
struct SliceReport {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::vector<EpochRecord> epochs;
  std::int64_t retransmits = 0;
  std::int64_t dup_drops = 0;
  std::int64_t datagrams_sent = 0;
  std::int64_t chaos_dropped = 0;
  std::int64_t chaos_delayed = 0;
  std::int64_t chaos_duplicated = 0;
  double wall_seconds = 0.0;
};

/// The forked process's run: plain run_epoch calls on an engine that steps
/// this process's slice, one freshly built full-P protocol per epoch (every
/// process calls the factory once per epoch in lockstep).
void run_slice(Engine& engine, const ProtocolFactory& factory,
               const UdpEngineOptions& options, SliceReport& report) {
  const std::int64_t total = options.warmup + options.iterations;
  Clock::time_point measure_start = Clock::now();
  for (std::int64_t i = 0; i < total; ++i) {
    if (i == options.warmup) measure_start = Clock::now();
    const std::unique_ptr<sim::Protocol> protocol = factory();
    const EpochResult epoch = engine.run_epoch(*protocol, options.epoch_timeout);
    EpochRecord& rec = report.epochs.emplace_back();
    rec.timed_out = epoch.timed_out ? 1 : 0;
    rec.messages = epoch.total_messages;
    rec.completion_max_ns = epoch.completion_ns;
    rec.latency_ns = epoch.retire_ns;
    for (std::int64_t r = report.lo; r < report.hi; ++r) {
      rec.rank_state.push_back(
          static_cast<std::uint8_t>(epoch.rank_state[static_cast<std::size_t>(r)]));
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - measure_start).count();
}

/// Post-run ack settlement: peers retransmit until their last frames
/// (final ENDs, late acks) are acknowledged, so keep servicing the socket
/// briefly after the last epoch instead of vanishing mid-handshake.
void drain(UdpTransport& transport, std::size_t self) {
  auto drop = [](const Envelope&) {};
  const EnvelopeSink sink(drop);
  const auto start = Clock::now();
  Clock::time_point idle_since{};
  for (;;) {
    transport.flush(self);
    transport.poll_into(self, sink);
    const auto t = Clock::now();
    if (transport.idle()) {
      if (idle_since == Clock::time_point{}) {
        idle_since = t;
      } else if (t - idle_since > std::chrono::milliseconds(50)) {
        break;  // lingered while idle: peers got their acks
      }
    } else {
      idle_since = Clock::time_point{};
    }
    if (t - start > std::chrono::milliseconds(1500)) break;
    transport.park(self, std::chrono::milliseconds(1));
  }
}

bool write_report(int fd, const SliceReport& report) {
  if (!write_i64(fd, report.lo) || !write_i64(fd, report.hi) ||
      !write_i64(fd, static_cast<std::int64_t>(report.epochs.size()))) {
    return false;
  }
  for (const EpochRecord& rec : report.epochs) {
    if (!write_i64(fd, rec.timed_out) || !write_i64(fd, rec.messages) ||
        !write_i64(fd, rec.completion_max_ns) || !write_i64(fd, rec.latency_ns) ||
        !write_all(fd, rec.rank_state.data(), rec.rank_state.size())) {
      return false;
    }
  }
  if (!write_i64(fd, report.retransmits) || !write_i64(fd, report.dup_drops) ||
      !write_i64(fd, report.datagrams_sent) || !write_i64(fd, report.chaos_dropped) ||
      !write_i64(fd, report.chaos_delayed) || !write_i64(fd, report.chaos_duplicated)) {
    return false;
  }
  return write_all(fd, &report.wall_seconds, sizeof(report.wall_seconds));
}

bool read_report(int fd, std::int64_t expected_epochs, SliceReport& report) {
  std::int64_t epochs = 0;
  if (!read_i64(fd, report.lo) || !read_i64(fd, report.hi) || !read_i64(fd, epochs)) {
    return false;
  }
  if (epochs != expected_epochs || report.hi < report.lo) return false;
  const auto slice = static_cast<std::size_t>(report.hi - report.lo);
  report.epochs.resize(static_cast<std::size_t>(epochs));
  for (EpochRecord& rec : report.epochs) {
    rec.rank_state.resize(slice);
    if (!read_i64(fd, rec.timed_out) || !read_i64(fd, rec.messages) ||
        !read_i64(fd, rec.completion_max_ns) || !read_i64(fd, rec.latency_ns) ||
        !read_all(fd, rec.rank_state.data(), slice)) {
      return false;
    }
  }
  if (!read_i64(fd, report.retransmits) || !read_i64(fd, report.dup_drops) ||
      !read_i64(fd, report.datagrams_sent) || !read_i64(fd, report.chaos_dropped) ||
      !read_i64(fd, report.chaos_delayed) ||
      !read_i64(fd, report.chaos_duplicated)) {
    return false;
  }
  return read_all(fd, &report.wall_seconds, sizeof(report.wall_seconds));
}

/// Reassembles one epoch's full-P EpochResult from the processes' slices
/// and finishes it like run_epoch does.
EpochResult merge_epoch(const std::vector<SliceReport>& reports, std::size_t e,
                        topo::Rank num_procs) {
  EpochResult epoch;
  epoch.rank_state.assign(static_cast<std::size_t>(num_procs),
                          RankEnd::kFailedAtStart);
  for (const SliceReport& report : reports) {
    const EpochRecord& rec = report.epochs[e];
    epoch.timed_out = epoch.timed_out || rec.timed_out != 0;
    epoch.total_messages += rec.messages;
    epoch.completion_ns = std::max(epoch.completion_ns, rec.completion_max_ns);
    for (std::size_t i = 0; i < rec.rank_state.size(); ++i) {
      epoch.rank_state[static_cast<std::size_t>(report.lo) + i] =
          static_cast<RankEnd>(rec.rank_state[i]);
    }
  }
  // Process 0's begin -> END span is the cross-process latency (one clock;
  // the other processes' spans differ only by loopback skew).
  epoch.retire_ns = reports[0].epochs[e].latency_ns;
  finish_from_rank_state(epoch);
  return epoch;
}

int open_loopback_socket(int port, std::uint16_t& bound_port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    error = "socket() failed: " + std::string(std::strerror(errno));
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    error = "fcntl(O_NONBLOCK) failed";
    ::close(fd);
    return -1;
  }
  // Deep socket buffers absorb epoch bursts without loss; best effort —
  // perfect links recover whatever the kernel sheds anyway.
  const int buf = 1 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = "bind(127.0.0.1:" + std::to_string(port) +
            ") failed: " + std::string(std::strerror(errno));
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    error = "getsockname() failed";
    ::close(fd);
    return -1;
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

#endif  // CT_RT_HAVE_UDP

}  // namespace

bool udp_loopback_available(std::string& error) {
#if CT_RT_HAVE_UDP
  std::uint16_t port = 0;
  const int fd = open_loopback_socket(0, port, error);
  if (fd < 0) return false;
  ::close(fd);
  return true;
#else
  error = "rt-udp requires POSIX sockets";
  return false;
#endif
}

UdpRunResult measure_broadcast_udp(const UdpEngineOptions& options,
                                   const ProtocolFactory& factory) {
  UdpRunResult result;
#if CT_RT_HAVE_UDP
  const auto p = static_cast<std::size_t>(options.num_procs);
  if (options.num_procs < 1 || options.failed.size() != p || options.failed[0]) {
    result.error = "invalid rt-udp configuration (need P >= 1, rank 0 live)";
    return result;
  }
  // Slice the rank space; every slice is non-empty by construction.
  const std::size_t want = std::clamp<std::size_t>(
      options.procs > 0 ? static_cast<std::size_t>(options.procs) : 1, 1,
      std::min<std::size_t>(p, 64));
  const std::size_t chunk = (p + want - 1) / want;
  const std::size_t workers = (p + chunk - 1) / chunk;

  // Bind every worker's socket BEFORE forking: children inherit bound fds,
  // so there is no bind race, early datagrams queue in the kernel while
  // slower siblings start up, and port_base = 0 works with ephemeral ports.
  std::vector<int> fds;
  std::vector<std::uint16_t> ports(workers, 0);
  for (std::size_t k = 0; k < workers; ++k) {
    const int port =
        options.port_base > 0 ? options.port_base + static_cast<int>(k) : 0;
    const int fd = open_loopback_socket(port, ports[k], result.error);
    if (fd < 0) {
      for (const int open_fd : fds) ::close(open_fd);
      return result;
    }
    fds.push_back(fd);
  }

  struct Spawned {
    pid_t pid = -1;
    int read_fd = -1;
  };
  std::vector<Spawned> spawned;
  for (std::size_t k = 0; k < workers; ++k) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      result.error = "pipe() failed";
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      result.error = "fork() failed";
      break;
    }
    if (pid == 0) {
      // Worker: keep only this slice's socket and pipe write end; _exit
      // skips atexit/static destructors shared with the parent.
      ::close(pipe_fds[0]);
      for (std::size_t j = 0; j < workers; ++j) {
        if (j != k) ::close(fds[j]);
      }
      UdpTransport::Options transport_options;
      transport_options.fd = fds[k];
      transport_options.self = k;
      transport_options.peer_ports.assign(ports.begin(), ports.end());
      bool ok = false;
      try {
        UdpTransport transport(transport_options);
        // Drop/delay/duplicate act per datagram below perfect links; the
        // engine applies only the plan's crash verdicts.
        if (options.chaos.links_enabled()) transport.set_link_chaos(&options.chaos);
        SliceReport report;
        report.lo = static_cast<std::int64_t>(k * chunk);
        report.hi = static_cast<std::int64_t>(std::min(p, (k + 1) * chunk));
        {
          const Engine::ProcessSlice slice{k, chunk, &transport};
          Engine engine(options.num_procs, options.failed, EngineOptions{}, &slice);
          if (options.chaos.enabled()) engine.set_chaos(options.chaos);
          run_slice(engine, factory, options, report);
        }  // joins the engine's worker: the transport is this thread's again
        drain(transport, k);
        report.retransmits = transport.retransmits();
        report.dup_drops = transport.dup_drops();
        report.datagrams_sent = transport.datagrams_sent();
        report.chaos_dropped = transport.chaos_dropped();
        report.chaos_delayed = transport.chaos_delayed();
        report.chaos_duplicated = transport.chaos_duplicated();
        ok = write_report(pipe_fds[1], report);
      } catch (...) {
        // Never unwind into the parent's stack frames: report failure by
        // exit status instead.
      }
      ::close(pipe_fds[1]);
      ::_exit(ok ? 0 : 1);
    }
    ::close(pipe_fds[1]);
    spawned.push_back(Spawned{pid, pipe_fds[0]});
  }
  for (const int fd : fds) ::close(fd);

  const std::int64_t total_epochs = options.warmup + options.iterations;
  std::vector<SliceReport> reports;
  for (std::size_t k = 0; k < spawned.size(); ++k) {
    SliceReport report;
    if (read_report(spawned[k].read_fd, total_epochs, report)) {
      reports.push_back(std::move(report));
    } else if (result.error.empty()) {
      result.error = "worker " + std::to_string(k) + " died before reporting";
    }
    ::close(spawned[k].read_fd);
  }
  for (const Spawned& worker : spawned) {
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    if (result.error.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      result.error = "worker exited abnormally";
    }
  }
  result.procs_used = static_cast<int>(workers);
  if (!result.error.empty() || reports.size() != workers) {
    if (result.error.empty()) result.error = "missing worker reports";
    return result;
  }

  // Merge into the measure_broadcast aggregate shape, one reassembled
  // EpochResult per measured epoch.
  HarnessResult& merged = result.harness;
  for (std::int64_t e = options.warmup; e < total_epochs; ++e) {
    const EpochResult epoch =
        merge_epoch(reports, static_cast<std::size_t>(e), options.num_procs);
    merged.add_epoch(epoch, epoch.retire_ns, options.num_procs);
  }
  merged.wall_seconds = reports[0].wall_seconds;
  for (const SliceReport& report : reports) {
    merged.retransmits += report.retransmits;
    merged.dup_drops += report.dup_drops;
    merged.messages_dropped += report.chaos_dropped;
    merged.messages_delayed += report.chaos_delayed;
    merged.messages_duplicated += report.chaos_duplicated;
  }
  return result;
#else
  static_cast<void>(options);
  static_cast<void>(factory);
  result.error = "rt-udp requires POSIX sockets";
  return result;
#endif
}

}  // namespace ct::rt
