// SubShard blob formats (NXS1 raw, NXS2 delta-varint): round-trips,
// invariants, cross-format equality and corruption handling, including
// randomized property sweeps and per-byte truncation robustness.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/core/nxgraph.h"
#include "src/prep/sharder.h"
#include "src/storage/subshard.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/util/serialize.h"
#include "src/util/varint.h"

namespace nxgraph {
namespace {

// Builds a structurally valid random sub-shard.
SubShard RandomSubShard(uint64_t seed, bool weighted,
                        uint32_t max_dsts = 100) {
  Xoshiro256 rng(seed);
  SubShard ss;
  ss.src_interval = 1;
  ss.dst_interval = 2;
  const uint32_t num_dsts = 1 + rng.NextBounded(max_dsts);
  VertexId dst = 1000;
  ss.offsets.push_back(0);
  for (uint32_t g = 0; g < num_dsts; ++g) {
    dst += 1 + static_cast<VertexId>(rng.NextBounded(5));
    ss.dsts.push_back(dst);
    const uint32_t degree = 1 + rng.NextBounded(8);
    VertexId src = 100;
    for (uint32_t k = 0; k < degree; ++k) {
      src += 1 + static_cast<VertexId>(rng.NextBounded(7));
      ss.srcs.push_back(src);
      if (weighted) {
        ss.weights.push_back(static_cast<float>(rng.NextDouble()) + 0.1f);
      }
    }
    ss.offsets.push_back(static_cast<uint32_t>(ss.srcs.size()));
  }
  return ss;
}

void ExpectEqual(const SubShard& a, const SubShard& b) {
  EXPECT_EQ(a.dsts, b.dsts);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.srcs, b.srcs);
  EXPECT_EQ(a.weights, b.weights);
}

// Decodes under the scalar path AND every SIMD path this CPU supports,
// asserting identical outcomes: same success/failure, same status code and
// message on rejection (a corrupt blob must surface as the same Corruption
// no matter which path decoded it), equal sub-shards on success. Returns
// the scalar outcome for the caller's own assertions.
Result<SubShard> DecodeAllPaths(const char* data, size_t size,
                                uint32_t src_interval, uint32_t dst_interval,
                                bool verify_checksum = true) {
  SubShardDecodeScratch scratch;
  auto scalar = SubShard::Decode(data, size, src_interval, dst_interval,
                                 verify_checksum, &scratch,
                                 DecodePath::kScalar);
  for (DecodePath path : {DecodePath::kSsse3, DecodePath::kAvx2}) {
    if (!DecodePathSupported(path)) continue;
    auto simd = SubShard::Decode(data, size, src_interval, dst_interval,
                                 verify_checksum, &scratch, path);
    EXPECT_EQ(simd.ok(), scalar.ok()) << DecodePathName(path);
    if (!scalar.ok() && !simd.ok()) {
      EXPECT_EQ(simd.status().code(), scalar.status().code())
          << DecodePathName(path);
      EXPECT_EQ(simd.status().message(), scalar.status().message())
          << DecodePathName(path);
    } else if (scalar.ok() && simd.ok()) {
      ExpectEqual(*scalar, *simd);
    }
  }
  return scalar;
}

// (seed, format) sweep: every roundtrip property must hold for both
// on-disk encodings.
using SeedFormat = std::tuple<int, SubShardFormat>;

class SubShardRoundTripTest : public ::testing::TestWithParam<SeedFormat> {
 protected:
  int seed() const { return std::get<0>(GetParam()); }
  SubShardFormat format() const { return std::get<1>(GetParam()); }
};

TEST_P(SubShardRoundTripTest, UnweightedRoundTrip) {
  SubShard ss = RandomSubShard(seed(), false);
  const std::string blob = ss.Encode(format());
  auto decoded = DecodeAllPaths(blob.data(), blob.size(), 1, 2);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectEqual(ss, *decoded);
  EXPECT_EQ(decoded->src_interval, 1u);
  EXPECT_EQ(decoded->dst_interval, 2u);
}

TEST_P(SubShardRoundTripTest, WeightedRoundTrip) {
  SubShard ss = RandomSubShard(seed() + 1000, true);
  const std::string blob = ss.Encode(format());
  auto decoded = DecodeAllPaths(blob.data(), blob.size(), 1, 2);
  ASSERT_TRUE(decoded.ok());
  ExpectEqual(ss, *decoded);
}

TEST_P(SubShardRoundTripTest, AnyBitFlipIsDetected) {
  SubShard ss = RandomSubShard(seed() + 2000, seed() % 2 == 0);
  std::string blob = ss.Encode(format());
  Xoshiro256 rng(seed());
  // Flip several random bits (one at a time) across the blob.
  for (int trial = 0; trial < 8; ++trial) {
    const size_t byte = rng.NextBounded(blob.size());
    const char mask = static_cast<char>(1 << rng.NextBounded(8));
    blob[byte] ^= mask;
    auto decoded = DecodeAllPaths(blob.data(), blob.size(), 1, 2);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << byte << " undetected";
    blob[byte] ^= mask;  // restore
  }
}

TEST_P(SubShardRoundTripTest, EveryTruncationIsRejected) {
  // Cut the blob at EVERY byte boundary; each prefix must fail cleanly —
  // with checksum verification AND without it (the structural checks alone
  // must catch every field-boundary truncation, never read out of bounds).
  SubShard ss = RandomSubShard(seed() + 3000, seed() % 2 == 1, 12);
  const std::string blob = ss.Encode(format());
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    auto strict = DecodeAllPaths(blob.data(), cut, 1, 2, true);
    EXPECT_FALSE(strict.ok()) << "cut at " << cut;
    auto lax = DecodeAllPaths(blob.data(), cut, 1, 2, false);
    EXPECT_FALSE(lax.ok()) << "cut at " << cut << " (no checksum)";
    if (cut >= 14) {
      EXPECT_TRUE(lax.status().IsCorruption()) << "cut at " << cut;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SubShardRoundTripTest,
    ::testing::Combine(::testing::Range(1, 9),
                       ::testing::Values(SubShardFormat::kNxs1,
                                         SubShardFormat::kNxs2)));

// ---- cross-format properties ----------------------------------------------

TEST(SubShardFormatTest, FormatsDecodeToIdenticalSubShards) {
  for (int seed = 1; seed <= 16; ++seed) {
    SubShard ss = RandomSubShard(seed, seed % 3 == 0);
    const std::string v1 = ss.Encode(SubShardFormat::kNxs1);
    const std::string v2 = ss.Encode(SubShardFormat::kNxs2);
    ASSERT_NE(v1, v2);
    auto d1 = SubShard::Decode(v1.data(), v1.size(), 3, 4);
    auto d2 = SubShard::Decode(v2.data(), v2.size(), 3, 4);
    ASSERT_TRUE(d1.ok());
    ASSERT_TRUE(d2.ok());
    ExpectEqual(*d1, *d2);
    EXPECT_EQ(d2->src_interval, 3u);
    EXPECT_EQ(d2->dst_interval, 4u);
  }
}

TEST(SubShardFormatTest, Nxs2IsSmallerOnClusteredIds) {
  // Dense ascending destinations with small source deltas — the shape real
  // sub-shards have after destination sorting. NXS1 pays 4 bytes per value.
  SubShard ss = RandomSubShard(42, false, 400);
  const std::string v1 = ss.Encode(SubShardFormat::kNxs1);
  const std::string v2 = ss.Encode(SubShardFormat::kNxs2);
  EXPECT_LT(v2.size() * 2, v1.size())
      << "NXS2 " << v2.size() << " vs NXS1 " << v1.size();
}

TEST(SubShardFormatTest, EmptyRoundTripBothFormats) {
  SubShard ss;
  ss.offsets.push_back(0);
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    const std::string blob = ss.Encode(f);
    auto decoded = SubShard::Decode(blob.data(), blob.size(), 0, 0);
    ASSERT_TRUE(decoded.ok()) << SubShardFormatName(f);
    EXPECT_EQ(decoded->num_dsts(), 0u);
    EXPECT_EQ(decoded->num_edges(), 0u);
    EXPECT_EQ(decoded->offsets, std::vector<uint32_t>{0});
  }
  // The NXS2 empty blob is the minimal valid blob (header + CRC).
  EXPECT_EQ(ss.Encode(SubShardFormat::kNxs2).size(), 14u);
}

TEST(SubShardFormatTest, SingleDstRoundTrip) {
  SubShard ss;
  ss.dsts = {7};
  ss.offsets = {0, 3};
  ss.srcs = {1, 1, 9};  // parallel edges: equal srcs (delta 0) are legal
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    const std::string blob = ss.Encode(f);
    auto decoded = SubShard::Decode(blob.data(), blob.size(), 0, 0);
    ASSERT_TRUE(decoded.ok()) << SubShardFormatName(f);
    ExpectEqual(ss, *decoded);
  }
}

TEST(SubShardFormatTest, MaxDeltaEdgesRoundTrip) {
  // Extreme id spans: first/last representable destination and a source
  // group spanning the whole 32-bit range (delta == UINT32_MAX - 1).
  SubShard ss;
  ss.dsts = {0, UINT32_MAX};
  ss.offsets = {0, 2, 4};
  ss.srcs = {0, UINT32_MAX - 1, 5, UINT32_MAX};
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    const std::string blob = ss.Encode(f);
    auto decoded = SubShard::Decode(blob.data(), blob.size(), 0, 0);
    ASSERT_TRUE(decoded.ok()) << SubShardFormatName(f);
    ExpectEqual(ss, *decoded);
  }
}

TEST(SubShardFormatTest, ScratchReuseDecodesRepeatedly) {
  SubShardDecodeScratch scratch;
  for (int seed = 1; seed <= 8; ++seed) {
    SubShard ss = RandomSubShard(seed, false);
    const std::string blob = ss.Encode(SubShardFormat::kNxs2);
    auto decoded =
        SubShard::Decode(blob.data(), blob.size(), 1, 2, true, &scratch);
    ASSERT_TRUE(decoded.ok());
    ExpectEqual(ss, *decoded);
  }
}

TEST(SubShardFormatTest, DefaultFormatIsNxs2) {
  EXPECT_EQ(SharderOptions{}.format, SubShardFormat::kNxs2);
  EXPECT_EQ(BuildOptions{}.subshard_format, SubShardFormat::kNxs2);
}

// ---- NXS2-targeted corruption (structural checks, CRC bypassed) -----------

// Rebuilds a valid CRC over a tampered body so the structural validators —
// not the checksum — are what must reject it.
std::string Recrc(std::string blob) {
  blob.resize(blob.size() - 4);
  const uint32_t crc = crc32c::Value(blob.data(), blob.size());
  EncodeFixed<uint32_t>(&blob, crc);
  return blob;
}

TEST(SubShardFormatTest, OverlongVarintRejectedAsCorruption) {
  SubShard ss;
  ss.dsts = {3};
  ss.offsets = {0, 1};
  ss.srcs = {5};
  std::string blob = ss.Encode(SubShardFormat::kNxs2);
  // Body: magic(4) flags(4) num_dsts(1)=1 num_edges(1)=1 dst0(1)=3
  // count0(1)=1 src0(1)=5 crc(4).
  ASSERT_EQ(blob.size(), 17u);
  // Replace the 1-byte num_dsts varint with an overlong 2-byte encoding of
  // the same value (0x81 0x00 would change it; 0x80|1, 0x00 encodes 1).
  std::string tampered = blob.substr(0, 8);
  tampered += '\x81';
  tampered += '\x00';
  tampered += blob.substr(9);
  tampered = Recrc(tampered);
  auto decoded = DecodeAllPaths(tampered.data(), tampered.size(), 0, 0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(SubShardFormatTest, Nxs1HeaderCountsBeyondBlobRejected) {
  // Same hazard on the NXS1 path: a corrupt header decoded with checksum
  // verification off (the streaming reload path) must fail as Corruption
  // before any allocation, not throw from a multi-gigabyte resize.
  SubShard ss = RandomSubShard(6, false);
  std::string blob = ss.Encode(SubShardFormat::kNxs1);
  // num_edges is the u64 at body offset 12; make it absurd.
  const uint64_t absurd = 1ull << 40;
  std::memcpy(blob.data() + 12, &absurd, 8);
  auto lax = DecodeAllPaths(blob.data(), blob.size(), 0, 0, false);
  ASSERT_FALSE(lax.ok());
  EXPECT_TRUE(lax.status().IsCorruption());
  // And a corrupt num_dsts (u32 at body offset 8) likewise.
  blob = ss.Encode(SubShardFormat::kNxs1);
  const uint32_t absurd32 = 1u << 30;
  std::memcpy(blob.data() + 8, &absurd32, 4);
  lax = DecodeAllPaths(blob.data(), blob.size(), 0, 0, false);
  ASSERT_FALSE(lax.ok());
  EXPECT_TRUE(lax.status().IsCorruption());
}

TEST(SubShardFormatTest, HeaderCountsBeyondBlobRejected) {
  // num_edges claiming more values than the body has bytes must fail fast
  // (before any allocation), even with the checksum valid.
  std::string blob;
  EncodeFixed<uint32_t>(&blob, 0x3253584Eu);  // "NXS2"
  EncodeFixed<uint32_t>(&blob, 0);            // flags
  PutVarint32(&blob, 1);                      // num_dsts
  PutVarint64(&blob, 1ull << 40);             // absurd num_edges
  EncodeFixed<uint32_t>(&blob, crc32c::Value(blob.data(), blob.size()));
  auto decoded = DecodeAllPaths(blob.data(), blob.size(), 0, 0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(SubShardFormatTest, CountEdgeMismatchRejected) {
  SubShard ss;
  ss.dsts = {3};
  ss.offsets = {0, 1};
  ss.srcs = {5};
  std::string blob = ss.Encode(SubShardFormat::kNxs2);
  // Bump the per-destination count varint (body offset 11) from 1 to 2:
  // the counts now sum to 2 while the header claims 1 edge.
  blob[11] = 2;
  blob = Recrc(blob);
  auto decoded = DecodeAllPaths(blob.data(), blob.size(), 0, 0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(SubShardFormatTest, DstOverflowRejected) {
  // Two destinations whose deltas sum past UINT32_MAX.
  std::string blob;
  EncodeFixed<uint32_t>(&blob, 0x3253584Eu);
  EncodeFixed<uint32_t>(&blob, 0);
  PutVarint32(&blob, 2);           // num_dsts
  PutVarint64(&blob, 0);           // num_edges
  PutVarint32(&blob, UINT32_MAX);  // dst[0]
  PutVarint32(&blob, 0);           // delta-1 == 0 => dst[1] wraps
  PutVarint32(&blob, 0);           // count[0]
  PutVarint32(&blob, 0);           // count[1]
  EncodeFixed<uint32_t>(&blob, crc32c::Value(blob.data(), blob.size()));
  auto decoded = DecodeAllPaths(blob.data(), blob.size(), 0, 0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(SubShardFormatTest, SrcOverflowRejected) {
  std::string blob;
  EncodeFixed<uint32_t>(&blob, 0x3253584Eu);
  EncodeFixed<uint32_t>(&blob, 0);
  PutVarint32(&blob, 1);           // num_dsts
  PutVarint64(&blob, 2);           // num_edges
  PutVarint32(&blob, 0);           // dst[0]
  PutVarint32(&blob, 2);           // count[0]
  PutVarint32(&blob, UINT32_MAX);  // src[0]
  PutVarint32(&blob, 1);           // delta => wraps past UINT32_MAX
  EncodeFixed<uint32_t>(&blob, crc32c::Value(blob.data(), blob.size()));
  auto decoded = DecodeAllPaths(blob.data(), blob.size(), 0, 0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(SubShardFormatTest, UnknownMagicRejected) {
  SubShard ss = RandomSubShard(3, false);
  std::string blob = ss.Encode(SubShardFormat::kNxs2);
  blob[3] = '3';  // "NXS3"
  blob = Recrc(blob);
  auto decoded = DecodeAllPaths(blob.data(), blob.size(), 1, 2);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

// ---- format-independent behavior -------------------------------------------

TEST(SubShardTest, SkipChecksumStillValidatesStructure) {
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    SubShard ss = RandomSubShard(7, false);
    std::string blob = ss.Encode(f);
    // Corrupt the CRC only: verify=false must still decode.
    blob[blob.size() - 1] ^= 0xFF;
    auto lax = DecodeAllPaths(blob.data(), blob.size(), 1, 2, false);
    ASSERT_TRUE(lax.ok()) << SubShardFormatName(f);
    auto strict = DecodeAllPaths(blob.data(), blob.size(), 1, 2, true);
    EXPECT_FALSE(strict.ok()) << SubShardFormatName(f);
    // Truncation is caught even without checksum verification.
    auto truncated =
        DecodeAllPaths(blob.data(), blob.size() / 2, 1, 2, false);
    EXPECT_FALSE(truncated.ok()) << SubShardFormatName(f);
  }
}

TEST(SubShardTest, TrailingGarbageDetected) {
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    SubShard ss = RandomSubShard(9, false);
    std::string blob = ss.Encode(f);
    blob.insert(blob.size() - 4, "JUNK");
    // CRC mismatch catches it verified; the trailing-bytes check catches
    // it unverified.
    EXPECT_FALSE(DecodeAllPaths(blob.data(), blob.size(), 1, 2).ok());
    blob = Recrc(blob);
    auto decoded = DecodeAllPaths(blob.data(), blob.size(), 1, 2);
    EXPECT_FALSE(decoded.ok()) << SubShardFormatName(f);
  }
}

TEST(SubShardTest, LowerBoundDst) {
  SubShard ss;
  ss.dsts = {10, 20, 30};
  ss.offsets = {0, 1, 2, 3};
  ss.srcs = {1, 2, 3};
  EXPECT_EQ(ss.LowerBoundDst(0), 0u);
  EXPECT_EQ(ss.LowerBoundDst(10), 0u);
  EXPECT_EQ(ss.LowerBoundDst(11), 1u);
  EXPECT_EQ(ss.LowerBoundDst(20), 1u);
  EXPECT_EQ(ss.LowerBoundDst(30), 2u);
  EXPECT_EQ(ss.LowerBoundDst(31), 3u);
}

TEST(SubShardTest, MemoryBytesTracksContent) {
  SubShard small = RandomSubShard(11, false, 10);
  SubShard large = RandomSubShard(11, false, 90);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
  EXPECT_GT(small.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace nxgraph
