#pragma once
// In-memory span log of a traced run, written out at the end as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto). Spans are
// recorded by the benchmark around its calls into each layer: name, start,
// end and the span that caused it. Every span of one broadcast carries that
// broadcast's id, and the sim and rt workloads use the same names ("setup",
// "window", "bcast", ...) so their timelines line up. With tracing off the
// log records nothing.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace perfbench {

class TraceLog {
 public:
  static constexpr std::int64_t kNoBcast = -1;

  explicit TraceLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span under `parent` (0 = root) and returns its id (0 when off).
  std::int64_t open(const std::string& name, std::int64_t parent = 0,
                    std::int64_t bcast = kNoBcast);
  void close(std::int64_t id);
  /// A span whose bounds were measured elsewhere (ns since the log origin).
  void add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t parent, std::int64_t bcast);
  /// A named counter sample (Chrome "C" event) at the current time.
  void counter(const std::string& name,
               const std::vector<std::pair<std::string, double>>& values);

  std::int64_t now_ns() const;
  /// Writes the trace file; returns false if it could not be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = 0;
    std::int64_t bcast = kNoBcast;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  struct Counter {
    std::string name;
    std::int64_t at_ns = 0;
    std::vector<std::pair<std::string, double>> values;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

/// RAII span.
class Scope {
 public:
  Scope(TraceLog& log, const std::string& name, std::int64_t parent = 0,
        std::int64_t bcast = TraceLog::kNoBcast)
      : log_(log), id_(log.open(name, parent, bcast)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const noexcept { return id_; }

 private:
  TraceLog& log_;
  std::int64_t id_;
};

}  // namespace perfbench
