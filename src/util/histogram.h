// LogHistogram: a fixed-size log-bucket histogram for latency percentiles.
#ifndef NXGRAPH_UTIL_HISTOGRAM_H_
#define NXGRAPH_UTIL_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace nxgraph {

/// \brief Counts positive samples (latencies in milliseconds) in geometric
/// buckets and reports percentiles from them, in constant memory: the
/// state is one array of kBuckets counters, whatever the sample count.
///
/// Bucket k covers [kMin * kRatio^k, kMin * kRatio^(k+1)), and a
/// percentile reports the geometric midpoint of the bucket that holds its
/// rank. For samples in [kMin, kMax] every reported percentile is
/// therefore within sqrt(kRatio) - 1 = 0.995 % of the exact nearest-rank
/// percentile of the samples; kRelativeError rounds that up to 1 % so a
/// sample on a bucket edge, placed by floating-point logs, is covered too.
/// Samples outside the range are clamped into the first or last bucket.
///
/// Not synchronized: the owner records and reads under its own lock.
class LogHistogram {
 public:
  static constexpr double kMin = 1e-3;  ///< 1 µs, in milliseconds
  static constexpr double kMax = 1e7;   ///< about 2.8 hours
  static constexpr double kRatio = 1.02;
  static constexpr double kRelativeError = 0.01;
  /// ceil(log(kMax / kMin) / log(kRatio)).
  static constexpr size_t kBuckets = 1163;

  void Record(double value);

  /// The q-quantile (q in [0, 1]) as the sample of rank
  /// round(q * (count - 1)) in ascending order, within kRelativeError.
  /// 0 when nothing was recorded.
  double Percentile(double q) const;

  uint64_t count() const { return count_; }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

}  // namespace nxgraph

#endif  // NXGRAPH_UTIL_HISTOGRAM_H_
