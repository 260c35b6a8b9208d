#include "src/util/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/random.h"

namespace nxgraph {
namespace {

// The nearest-rank percentile GraphServer::stats() reported from a sorted
// sample vector before the histogram replaced it.
double ExactPercentile(const std::vector<double>& sorted, double q) {
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

TEST(LogHistogramTest, BucketsCoverTheStatedRange) {
  EXPECT_GE(LogHistogram::kMin *
                std::pow(LogHistogram::kRatio,
                         static_cast<double>(LogHistogram::kBuckets)),
            LogHistogram::kMax);
  EXPECT_LT(LogHistogram::kMin *
                std::pow(LogHistogram::kRatio,
                         static_cast<double>(LogHistogram::kBuckets - 1)),
            LogHistogram::kMax);
  EXPECT_LE(std::sqrt(LogHistogram::kRatio) - 1, LogHistogram::kRelativeError);
  EXPECT_LE(LogHistogram::kRelativeError, 0.01);
}

TEST(LogHistogramTest, EmptyReportsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

// On seeded samples spread log-uniformly over 0.01-10,000 ms, every
// percentile lies within the stated relative error of the exact one, and
// the state does not grow with the sample count.
TEST(LogHistogramTest, PercentilesWithinStatedError) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    LogHistogram h;
    const size_t state_bytes = sizeof(h);
    std::vector<double> samples;
    for (int k = 0; k < 200000; ++k) {
      const double ms = 0.01 * std::pow(1e6, rng.NextDouble());
      samples.push_back(ms);
      h.Record(ms);
    }
    // Both ends of the range, exactly.
    samples.push_back(0.01);
    h.Record(0.01);
    samples.push_back(10000.0);
    h.Record(10000.0);
    EXPECT_EQ(h.count(), samples.size());
    EXPECT_EQ(sizeof(h), state_bytes);
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95,
                           0.99, 0.999, 1.0}) {
      const double exact = ExactPercentile(samples, q);
      EXPECT_NEAR(h.Percentile(q), exact,
                  exact * LogHistogram::kRelativeError)
          << "q " << q;
    }
  }
}

// A handful of samples: each percentile lands on the bucket of the sample
// the nearest rank names.
TEST(LogHistogramTest, SmallSamplesFollowNearestRank) {
  LogHistogram h;
  const std::vector<double> samples = {4.0, 0.5, 120.0, 7.5, 33.0};
  for (double v : samples) h.Record(v);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.2, 0.5, 0.7, 0.95, 1.0}) {
    const double exact = ExactPercentile(sorted, q);
    EXPECT_NEAR(h.Percentile(q), exact, exact * LogHistogram::kRelativeError)
        << "q " << q;
  }
}

// Values outside [kMin, kMax] are clamped into the end buckets.
TEST(LogHistogramTest, OutOfRangeValuesClamp) {
  LogHistogram h;
  h.Record(0.0);
  h.Record(-3.0);
  h.Record(1e12);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LT(h.Percentile(0.0), LogHistogram::kMin * LogHistogram::kRatio);
  EXPECT_GT(h.Percentile(1.0), LogHistogram::kMax / LogHistogram::kRatio);
}

}  // namespace
}  // namespace nxgraph
