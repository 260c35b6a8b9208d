// Pure helpers of the benchmark program: percentiles, open-loop lateness,
// process and host counters, and the correctness gate. Kept apart from the
// program so the self-test can check them on fixed inputs.
#ifndef PERFBENCH_BENCH_SUPPORT_H_
#define PERFBENCH_BENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/types.h"

namespace nxbench {

/// Percentile `q` in [0, 1] by linear interpolation between the two
/// nearest ranks (numpy's default); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Milliseconds an event of an open-loop schedule ran behind its due time
/// (0 when it ran early or on time).
double LatenessMs(std::chrono::steady_clock::time_point due,
                  std::chrono::steady_clock::time_point actual);

/// Latency of one open-loop request, from the moment it was due to be sent
/// to its completion: the sender's lateness plus the server-side queue and
/// run times.
inline double OpenLoopLatencyMs(double late_ms, double queue_seconds,
                                double run_seconds) {
  return late_ms + (queue_seconds + run_seconds) * 1e3;
}

/// \brief Process and host counters sampled at the edges of a timed phase.
struct ProcSample {
  double cpu_seconds = 0;        ///< user + system, whole process
  int64_t voluntary_switches = 0;
  int64_t involuntary_switches = 0;
  uint64_t host_steal_ticks = 0;  ///< /proc/stat "cpu" steal column
  uint64_t host_total_ticks = 0;  ///< sum of every /proc/stat "cpu" column
};
ProcSample SampleProc();

/// Share of host CPU time stolen by the hypervisor between two samples.
double StealShare(const ProcSample& begin, const ProcSample& end);

/// Resets the process's RSS high-water mark to its current RSS (writes "5"
/// to /proc/self/clear_refs). Returns false when the kernel refuses.
bool ResetPeakRss();
/// RSS high-water mark (VmHWM) in MiB, or 0 when unavailable.
double PeakRssMib();

/// Largest relative error of `ranks` against `reference`, each error taken
/// against max(|reference[v]|, 1/n) so near-zero ranks are not amplified.
/// Infinity when the sizes differ.
double MaxRankRelativeError(const std::vector<double>& ranks,
                            const std::vector<double>& reference);

/// Tolerance the gate allows on PageRank ranks: engine and reference sum
/// the same terms in different orders, which moves ranks by ~1e-15.
inline constexpr double kRankTolerance = 1e-9;

/// Whether a k-hop answer (ascending `vertices` with parallel `hops`)
/// equals the vertices `depths` (a full BFS from the same root) puts within
/// `k` hops, each with its depth.
bool KHopMatches(const std::vector<nxgraph::VertexId>& vertices,
                 const std::vector<uint32_t>& hops,
                 const std::vector<uint32_t>& depths, uint32_t k);

/// Sum of the sizes of the regular files directly inside `dir` and its
/// subdirectories, in bytes.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace nxbench

#endif  // PERFBENCH_BENCH_SUPPORT_H_
