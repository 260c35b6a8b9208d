#include <gtest/gtest.h>

#include "src/engine/io_model.h"
#include "src/prep/manifest.h"

namespace nxgraph {
namespace {

// Yahoo-web parameters from paper §III-C.
IoModelParams YahooParams(double budget_gb) {
  IoModelParams p;
  p.n = 7.20e8;
  p.m = 6.63e9;
  p.Ba = 8;
  p.Bv = 4;
  p.Be = 4;
  p.d = 15;
  p.BM = budget_gb * 1024 * 1024 * 1024;
  return p;
}

TEST(IoModelTest, SpuZeroReadWhenEverythingFits) {
  IoModelParams p;
  p.n = 1000;
  p.m = 10000;
  p.BM = 1e12;
  const IoCost c = SpuIoCost(p);
  EXPECT_EQ(c.read_bytes, 0);
  EXPECT_EQ(c.write_bytes, 0);
}

TEST(IoModelTest, SpuReadsShortfallOnly) {
  IoModelParams p;
  p.n = 1000;
  p.m = 10000;
  p.Ba = 8;
  p.Be = 4;
  // m*Be + 2n*Ba = 40000 + 16000 = 56000; budget 50000 => read 6000.
  p.BM = 50000;
  EXPECT_DOUBLE_EQ(SpuIoCost(p).read_bytes, 6000);
  EXPECT_EQ(SpuIoCost(p).write_bytes, 0);
}

TEST(IoModelTest, DpuMatchesTableTwo) {
  IoModelParams p;
  p.n = 1000;
  p.m = 10000;
  p.Ba = 8;
  p.Bv = 4;
  p.Be = 4;
  p.d = 10;
  const IoCost c = DpuIoCost(p);
  const double hub = p.m * (p.Ba + p.Bv) / p.d;  // 12000
  EXPECT_DOUBLE_EQ(c.read_bytes, p.m * p.Be + hub + p.n * p.Ba);
  EXPECT_DOUBLE_EQ(c.write_bytes, hub + p.n * p.Ba);
}

TEST(IoModelTest, DpuIndependentOfBudget) {
  IoModelParams a = YahooParams(1);
  IoModelParams b = YahooParams(32);
  EXPECT_DOUBLE_EQ(DpuIoCost(a).total(), DpuIoCost(b).total());
}

TEST(IoModelTest, MpuDegeneratesToSpuAtFullBudget) {
  IoModelParams p = YahooParams(0);
  p.BM = 2 * p.n * p.Ba;  // exactly the SPU threshold
  const IoCost mpu = MpuIoCost(p);
  EXPECT_DOUBLE_EQ(mpu.read_bytes, p.m * p.Be);
  EXPECT_DOUBLE_EQ(mpu.write_bytes, 0);
  EXPECT_EQ(MpuResidentIntervals(p), static_cast<uint32_t>(p.P));
}

TEST(IoModelTest, MpuDegeneratesToDpuAtZeroBudget) {
  IoModelParams p = YahooParams(0);
  p.BM = 0;
  EXPECT_DOUBLE_EQ(MpuIoCost(p).total(), DpuIoCost(p).total());
  EXPECT_EQ(MpuResidentIntervals(p), 0u);
}

TEST(IoModelTest, MpuMonotoneInBudget) {
  double prev = 1e300;
  for (double gb = 0.5; gb <= 12; gb += 0.5) {
    const double total = MpuIoCost(YahooParams(gb)).total();
    EXPECT_LE(total, prev) << "MPU I/O must not grow with memory";
    prev = total;
  }
}

TEST(IoModelTest, TurboGraphMatchesSectionThreeC) {
  IoModelParams p = YahooParams(4);
  const IoCost c = TurboGraphLikeIoCost(p);
  EXPECT_DOUBLE_EQ(c.read_bytes,
                   p.m * p.Be + 2 * (p.n * p.Ba) * (p.n * p.Ba) / p.BM +
                       p.n * p.Ba);
  EXPECT_DOUBLE_EQ(c.write_bytes, p.n * p.Ba);
}

// Fig. 6's claim: "MPU always outperforms TurboGraph-like strategy".
TEST(IoModelTest, Fig6RatioAlwaysBelowOne) {
  for (double gb = 0.25; gb <= 11.5; gb += 0.25) {
    const double ratio = MpuToTurboGraphRatio(YahooParams(gb));
    EXPECT_GT(ratio, 0.0);
    EXPECT_LT(ratio, 1.0) << "at " << gb << " GB";
  }
}

TEST(IoModelTest, Fig6RatioShape) {
  // At small budgets TurboGraph-like pays 2(nBa)^2/BM, which explodes, so
  // the ratio approaches 0; it then climbs steeply and stays in a band
  // below 1 across the rest of the axis (the paper's headline: "MPU always
  // outperforms TurboGraph-like").
  EXPECT_LT(MpuToTurboGraphRatio(YahooParams(0.25)), 0.3);
  EXPECT_LT(MpuToTurboGraphRatio(YahooParams(0.25)),
            MpuToTurboGraphRatio(YahooParams(2.0)));
  for (double gb = 2.0; gb <= 11.0; gb += 0.5) {
    const double ratio = MpuToTurboGraphRatio(YahooParams(gb));
    EXPECT_GT(ratio, 0.5) << "at " << gb << " GB";
    EXPECT_LT(ratio, 1.0) << "at " << gb << " GB";
  }
}

TEST(IoModelTest, ResidentIntervalsScaleLinearly) {
  IoModelParams p = YahooParams(0);
  p.P = 16;
  p.BM = 0.5 * 2 * p.n * p.Ba;  // half the SPU requirement
  EXPECT_EQ(MpuResidentIntervals(p), 8u);
}

TEST(IoModelTest, ParamsFromManifestUseActualBlobSizes) {
  // Be must be the measured encoded bytes per edge from the manifest's
  // segment table — NOT an assumed constant — so a compressed store's
  // smaller blobs flow straight into every m*Be term.
  Manifest m;
  m.num_vertices = 1000;
  m.num_edges = 500;
  m.num_intervals = 2;
  m.interval_offsets = {0, 500, 1000};
  SubShardMeta a, b;
  a.size = 600;
  a.num_edges = 300;
  a.num_dsts = 100;
  b.size = 400;
  b.num_edges = 200;
  b.num_dsts = 150;
  m.subshards = {a, b, SubShardMeta{}, SubShardMeta{}};

  IoModelParams p = MakeIoModelParams(m, 8, 12345);
  EXPECT_DOUBLE_EQ(p.n, 1000.0);
  EXPECT_DOUBLE_EQ(p.m, 500.0);
  EXPECT_DOUBLE_EQ(p.Ba, 8.0);
  EXPECT_DOUBLE_EQ(p.BM, 12345.0);
  EXPECT_DOUBLE_EQ(p.P, 2.0);
  EXPECT_DOUBLE_EQ(p.Be, 1000.0 / 500.0);  // actual bytes per edge: 2
  EXPECT_DOUBLE_EQ(p.d, 500.0 / 250.0);    // measured avg dst in-degree
  // Bv is the hub destination-set bytes per entry: both blobs take the
  // 63-byte bitmap over their 500-vertex interval.
  EXPECT_DOUBLE_EQ(p.Bv, (63.0 + 63.0) / 250.0);

  // A compressed store (half the blob bytes) halves Be and with it the
  // m*Be term of every strategy's read cost.
  Manifest compressed = m;
  for (auto& meta : compressed.subshards) meta.size /= 2;
  IoModelParams pc = MakeIoModelParams(compressed, 8, 12345);
  EXPECT_DOUBLE_EQ(pc.Be, p.Be / 2);
  EXPECT_LT(DpuIoCost(pc).read_bytes, DpuIoCost(p).read_bytes);
  EXPECT_DOUBLE_EQ(DpuIoCost(p).read_bytes - DpuIoCost(pc).read_bytes,
                   500.0);  // exactly the saved blob bytes
}

}  // namespace
}  // namespace nxgraph
