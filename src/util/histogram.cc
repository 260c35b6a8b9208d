#include "src/util/histogram.h"

#include <cmath>

namespace nxgraph {

void LogHistogram::Record(double value) {
  size_t k = 0;
  if (value > kMin) {
    const double index = std::log(value / kMin) / std::log(kRatio);
    k = index < static_cast<double>(kBuckets - 1) ? static_cast<size_t>(index)
                                                  : kBuckets - 1;
  }
  ++buckets_[k];
  ++count_;
}

double LogHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  const uint64_t rank = static_cast<uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  uint64_t seen = 0;
  size_t k = 0;
  for (; k < kBuckets - 1; ++k) {
    seen += buckets_[k];
    if (seen > rank) break;
  }
  return kMin * std::pow(kRatio, static_cast<double>(k) + 0.5);
}

}  // namespace nxgraph
