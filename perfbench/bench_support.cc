#include "perfbench/bench_support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

namespace nxbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double LatenessMs(std::chrono::steady_clock::time_point due,
                  std::chrono::steady_clock::time_point actual) {
  return std::max(
      std::chrono::duration<double, std::milli>(actual - due).count(), 0.0);
}

ProcSample SampleProc() {
  ProcSample s;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    s.cpu_seconds = secs(ru.ru_utime) + secs(ru.ru_stime);
    s.voluntary_switches = ru.ru_nvcsw;
    s.involuntary_switches = ru.ru_nivcsw;
  }
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream fields(line.substr(4));
    uint64_t v = 0;
    for (int col = 0; fields >> v; ++col) {
      s.host_total_ticks += v;
      if (col == 7) s.host_steal_ticks = v;
    }
  }
  return s;
}

double StealShare(const ProcSample& begin, const ProcSample& end) {
  const uint64_t total = end.host_total_ticks - begin.host_total_ticks;
  if (total == 0) return 0;
  return static_cast<double>(end.host_steal_ticks - begin.host_steal_ticks) /
         static_cast<double>(total);
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double MaxRankRelativeError(const std::vector<double>& ranks,
                            const std::vector<double>& reference) {
  if (ranks.size() != reference.size()) {
    return std::numeric_limits<double>::infinity();
  }
  const double floor = reference.empty()
                           ? 1.0
                           : 1.0 / static_cast<double>(reference.size());
  double worst = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    const double err = std::fabs(ranks[v] - reference[v]) /
                       std::max(std::fabs(reference[v]), floor);
    // A NaN rank must fail the gate, and `worst = max(worst, NaN)` would not.
    if (!(err <= worst)) worst = std::isnan(err) ? INFINITY : err;
  }
  return worst;
}

bool KHopMatches(const std::vector<nxgraph::VertexId>& vertices,
                 const std::vector<uint32_t>& hops,
                 const std::vector<uint32_t>& depths, uint32_t k) {
  if (vertices.size() != hops.size()) return false;
  size_t expected = 0;
  for (uint32_t d : depths) expected += d <= k;
  if (vertices.size() != expected) return false;
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (i > 0 && vertices[i] <= vertices[i - 1]) return false;
    if (vertices[i] >= depths.size()) return false;
    if (hops[i] != depths[vertices[i]]) return false;
  }
  return true;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace nxbench
