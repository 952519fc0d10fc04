#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double grouped_median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double half = static_cast<double>(values.size()) / 2.0;
  const double mid = values[values.size() / 2];
  const auto below = std::lower_bound(values.begin(), values.end(), mid) - values.begin();
  const auto upto = std::upper_bound(values.begin(), values.end(), mid) - values.begin();
  const double tied = static_cast<double>(upto - below);
  return mid - 0.5 + (half - static_cast<double>(below)) / tied;
}

namespace {
double cpu_of(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}
}  // namespace

double cpu_seconds() { return cpu_of(RUSAGE_SELF) + cpu_of(RUSAGE_CHILDREN); }

HostCpu host_cpu() {
  HostCpu h;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (!(stat >> cpu) || cpu != "cpu") return h;
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user and nice.
  for (int field = 0; field < 8; ++field) {
    std::int64_t ticks = 0;
    if (!(stat >> ticks)) return HostCpu{};
    h.total += ticks;
    if (field == 7) h.steal = ticks;
  }
  return h;
}

double steal_share(const HostCpu& before, const HostCpu& after) {
  const std::int64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) / static_cast<double>(total)
                   : 0.0;
}

double windowed_quantile(const std::vector<double>& samples, std::size_t window, double q,
                         double across) {
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / window);
  std::vector<double> per_window;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(k * window);
    const auto end = k + 1 == windows ? samples.end() : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return quantile(std::move(per_window), across);
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  double self_kib = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kib = std::stod(line.substr(6));
  }
  if (self_kib == 0.0) {
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    self_kib = static_cast<double>(self.ru_maxrss);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kib, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

}  // namespace perfbench
