#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::int64_t TraceLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::int64_t TraceLog::open(const std::string& name, std::int64_t parent,
                            std::int64_t bcast) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = static_cast<std::int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.bcast = bcast;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceLog::close(std::int64_t id) {
  if (!enabled_ || id <= 0) return;
  spans_[static_cast<std::size_t>(id - 1)].end_ns = now_ns();
}

void TraceLog::add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent, std::int64_t bcast) {
  if (!enabled_) return;
  const std::int64_t id = static_cast<std::int64_t>(spans_.size()) + 1;
  spans_.push_back({name, id, parent, bcast, start_ns, end_ns});
}

void TraceLog::counter(const std::string& name,
                       const std::vector<std::pair<std::string, double>>& values) {
  if (!enabled_) return;
  counters_.push_back({name, now_ns(), values});
}

bool TraceLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fprintf(out, ",\n");
    first = false;
  };
  for (const Span& span : spans_) {
    if (span.end_ns < 0) continue;
    sep();
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"span\":%lld,\"parent\":%lld,\"bcast\":%lld}}",
                 span.name.c_str(), static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<long long>(span.id), static_cast<long long>(span.parent),
                 static_cast<long long>(span.bcast));
  }
  for (const Counter& c : counters_) {
    sep();
    std::fprintf(out, "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":{",
                 c.name.c_str(), static_cast<double>(c.at_ns) / 1e3);
    for (std::size_t i = 0; i < c.values.size(); ++i) {
      std::fprintf(out, "%s\"%s\":%.17g", i ? "," : "", c.values[i].first.c_str(),
                   c.values[i].second);
    }
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
