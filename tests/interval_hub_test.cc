#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/engine/strategy.h"
#include "src/io/flaky_env.h"
#include "src/prep/sharder.h"
#include "src/storage/hub_file.h"
#include "src/storage/interval_store.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

Manifest SmallManifest(uint64_t n, uint32_t p) {
  Manifest m;
  m.num_vertices = n;
  m.num_edges = 0;
  m.num_intervals = p;
  m.interval_offsets = MakeEqualIntervals(n, p);
  m.subshards.assign(static_cast<size_t>(p) * p, SubShardMeta{});
  return m;
}

TEST(IntervalStoreTest, PingPongRoundTrip) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 4);
  auto store = IntervalStore::Create(env.get(), "v.nxi", m, sizeof(double));
  ASSERT_TRUE(store.ok());
  std::vector<double> ping(m.interval_size(1), 1.5);
  std::vector<double> pong(m.interval_size(1), -2.5);
  ASSERT_TRUE((*store)->Write(1, 0, ping.data()).ok());
  ASSERT_TRUE((*store)->Write(1, 1, pong.data()).ok());
  std::vector<double> got(m.interval_size(1));
  ASSERT_TRUE((*store)->Read(1, 0, got.data()).ok());
  EXPECT_EQ(got, ping);
  ASSERT_TRUE((*store)->Read(1, 1, got.data()).ok());
  EXPECT_EQ(got, pong);
}

TEST(IntervalStoreTest, IntervalsAreIndependent) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(64, 4);
  auto store = IntervalStore::Create(env.get(), "v.nxi", m, sizeof(uint32_t));
  ASSERT_TRUE(store.ok());
  for (uint32_t i = 0; i < 4; ++i) {
    std::vector<uint32_t> vals(m.interval_size(i), i * 100);
    ASSERT_TRUE((*store)->Write(i, 0, vals.data()).ok());
  }
  for (uint32_t i = 0; i < 4; ++i) {
    std::vector<uint32_t> got(m.interval_size(i));
    ASSERT_TRUE((*store)->Read(i, 0, got.data()).ok());
    for (uint32_t v : got) EXPECT_EQ(v, i * 100);
  }
}

TEST(IntervalStoreTest, UnevenIntervalSizes) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(10, 3);  // sizes 3,4,3 (equal partition of 10)
  auto store = IntervalStore::Create(env.get(), "v.nxi", m, sizeof(float));
  ASSERT_TRUE(store.ok());
  for (uint32_t i = 0; i < 3; ++i) {
    std::vector<float> vals(m.interval_size(i), static_cast<float>(i));
    ASSERT_TRUE((*store)->Write(i, 1, vals.data()).ok());
  }
  for (uint32_t i = 0; i < 3; ++i) {
    std::vector<float> got(m.interval_size(i));
    ASSERT_TRUE((*store)->Read(i, 1, got.data()).ok());
    for (float v : got) EXPECT_EQ(v, static_cast<float>(i));
  }
}

// Each segment's CRC32C rides in the same ReadAt and WriteAt as its
// values, and a flipped bit in a read is a retryable Corruption that heals
// on the next read.
TEST(IntervalStoreTest, FlippedReadIsRetryableCorruption) {
  auto mem = NewMemEnv();
  FlakyEnv flaky(mem.get());
  Manifest m = SmallManifest(100, 4);
  auto store = IntervalStore::Create(&flaky, "v.nxi", m, sizeof(double));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->total_bytes(),
            2 * (100 * sizeof(double) + 4 * IntervalStore::kChecksumBytes));
  std::vector<double> vals(m.interval_size(2));
  for (size_t k = 0; k < vals.size(); ++k) vals[k] = 0.25 * k;
  const uint64_t writes = flaky.op_count(FlakyEnv::OpKind::kWrite);
  ASSERT_TRUE((*store)->Write(2, 1, vals.data()).ok());
  EXPECT_EQ(flaky.op_count(FlakyEnv::OpKind::kWrite), writes + 1);

  const uint64_t reads = flaky.op_count(FlakyEnv::OpKind::kRead);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, reads + 1,
                      FlakyEnv::FaultKind::kBitFlip);
  std::vector<double> got(vals.size());
  Status s = (*store)->Read(2, 1, got.data());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(s.retryable()) << s.ToString();
  ASSERT_TRUE((*store)->Read(2, 1, got.data()).ok());
  EXPECT_EQ(got, vals);
  EXPECT_EQ(flaky.op_count(FlakyEnv::OpKind::kRead), reads + 2);
}

TEST(IntervalStoreTest, ZeroValueBytesRejected) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(10, 2);
  auto store = IntervalStore::Create(env.get(), "v.nxi", m, 0);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsInvalidArgument());
}

TEST(HubFileTest, WriteReadRoundTrip) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 4);
  // Give sub-shard (2,3) capacity for 5 destinations.
  m.subshards[2 * 4 + 3].num_dsts = 5;
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/2, sizeof(double));
  ASSERT_TRUE(hub.ok());

  std::string payload;
  const uint64_t count = 3;
  payload.append(reinterpret_cast<const char*>(&count), 8);
  for (uint32_t k = 0; k < count; ++k) {
    const VertexId dst = 80 + k;
    const double value = k * 1.5;
    payload.append(reinterpret_cast<const char*>(&dst), 4);
    payload.append(reinterpret_cast<const char*>(&value), 8);
  }
  ASSERT_TRUE((*hub)->WriteHub(2, 3, payload.data(), payload.size()).ok());

  std::string got;
  ASSERT_TRUE((*hub)->ReadHub(2, 3, &got).ok());
  EXPECT_EQ(got, payload);
}

TEST(HubFileTest, OverCapacityRejected) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 2);
  m.subshards[0].num_dsts = 1;  // capacity: 8 + 1 * 12 + 4 bytes
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/0, sizeof(double));
  ASSERT_TRUE(hub.ok());
  std::string too_big(8 + 2 * 12, 'x');
  Status s = (*hub)->WriteHub(0, 0, too_big.data(), too_big.size());
  EXPECT_TRUE(s.IsInvalidArgument());
}

// Count-prefixed hub payload of `count` entries (dst, uint32_t value) with
// destinations first_dst, first_dst + 1, ... and every value `tag`.
std::string HubPayload(uint32_t tag, uint64_t count, VertexId first_dst) {
  std::string payload;
  payload.append(reinterpret_cast<const char*>(&count), 8);
  for (uint32_t k = 0; k < count; ++k) {
    const VertexId dst = first_dst + k;
    const uint32_t value = tag;
    payload.append(reinterpret_cast<const char*>(&dst), 4);
    payload.append(reinterpret_cast<const char*>(&value), 4);
  }
  return payload;
}

TEST(HubFileTest, SegmentsAreDisjoint) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 3);
  // Distinct capacities so a row-major layout cannot pass by accident; the
  // payload of segment (i, j) fills it and is tagged i * 3 + j.
  auto payload_of = [&m](uint32_t i, uint32_t j) {
    return HubPayload(i * 3 + j, 1 + i + 2 * j, m.interval_begin(j));
  };
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      m.subshards[i * 3 + j].num_dsts = 1 + i + 2 * j;
    }
  }
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/0, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      const auto payload = payload_of(i, j);
      ASSERT_TRUE((*hub)->WriteHub(i, j, payload.data(), payload.size()).ok());
    }
  }
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      std::string got;
      ASSERT_TRUE((*hub)->ReadHub(i, j, &got).ok());
      EXPECT_EQ(got, payload_of(i, j));
    }
  }
  // Column-major adjacency: segment (i+1, j) starts where (i, j) ends, and
  // column j+1 starts where column j ends — the file is the segments in
  // (j, i) order with no gaps, each a payload and its CRC32C.
  std::string file;
  ASSERT_TRUE(ReadFileToString(env.get(), "h.nxh", &file).ok());
  ASSERT_EQ(file.size(), (*hub)->total_bytes());
  uint64_t offset = 0;
  for (uint32_t j = 0; j < 3; ++j) {
    for (uint32_t i = 0; i < 3; ++i) {
      const auto payload = payload_of(i, j);
      ASSERT_EQ((*hub)->SegmentCapacity(i, j),
                payload.size() + HubFile::kChecksumBytes);
      EXPECT_EQ(file.substr(offset, payload.size()), payload)
          << "segment (" << i << ", " << j << ")";
      uint32_t crc = 0;
      std::memcpy(&crc, file.data() + offset + payload.size(), sizeof(crc));
      EXPECT_EQ(crc, crc32c::Value(payload.data(), payload.size()));
      offset += (*hub)->SegmentCapacity(i, j);
    }
  }
  EXPECT_EQ(offset, file.size());
}

TEST(HubFileTest, ColumnRunRoundTrip) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 4);
  const uint32_t dsts[4] = {3, 1, 7, 2};  // per row, column 2
  for (uint32_t i = 0; i < 4; ++i) m.subshards[i * 4 + 2].num_dsts = dsts[i];
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/1, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 1; i < 4; ++i) {
    const auto payload = HubPayload(i, dsts[i], m.interval_begin(2));
    ASSERT_TRUE((*hub)->WriteHub(i, 2, payload.data(), payload.size()).ok());
  }
  HubFile::Run run;
  ASSERT_TRUE((*hub)->ReadHubRun(1, 4, 2, &run).ok());
  ASSERT_EQ(run.segments.size(), 3u);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(run.segment(i - 1), HubPayload(i, dsts[i], m.interval_begin(2)))
        << "row " << i;
  }
  // A run in the middle of the column reads the same bytes.
  ASSERT_TRUE((*hub)->ReadHubRun(2, 3, 2, &run).ok());
  ASSERT_EQ(run.segments.size(), 1u);
  EXPECT_EQ(run.segment(0), HubPayload(2, dsts[2], m.interval_begin(2)));
}

TEST(HubFileTest, PartlyFilledSegmentReturnsOnlyItsPayload) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 2);
  m.subshards[0 * 2 + 1].num_dsts = 5;
  m.subshards[1 * 2 + 1].num_dsts = 2;
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/0, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  const auto partial = HubPayload(7, 2, m.interval_begin(1));  // 2 of 5
  const auto full = HubPayload(8, 2, m.interval_begin(1));
  ASSERT_TRUE((*hub)->WriteHub(0, 1, partial.data(), partial.size()).ok());
  ASSERT_TRUE((*hub)->WriteHub(1, 1, full.data(), full.size()).ok());
  HubFile::Run run;
  ASSERT_TRUE((*hub)->ReadHubRun(0, 2, 1, &run).ok());
  ASSERT_EQ(run.segments.size(), 2u);
  EXPECT_EQ(run.segment(0), partial);
  EXPECT_EQ(run.segment(1), full);
  std::string got;
  ASSERT_TRUE((*hub)->ReadHub(0, 1, &got).ok());
  EXPECT_EQ(got, partial);
}

TEST(HubFileTest, CorruptCountDetected) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 1);
  m.subshards[0].num_dsts = 2;
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/0, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  // Claim far more entries than the segment can hold.
  std::string payload;
  const uint64_t count = 1000;
  payload.append(reinterpret_cast<const char*>(&count), 8);
  ASSERT_TRUE((*hub)->WriteHub(0, 0, payload.data(), payload.size()).ok());
  std::string got;
  Status s = (*hub)->ReadHub(0, 0, &got);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_TRUE(s.retryable());
}

TEST(HubFileTest, CorruptCountMidRunIsRetryableCorruption) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 3);
  for (auto& meta : m.subshards) meta.num_dsts = 2;
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/0, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 0; i < 3; ++i) {
    const auto payload = HubPayload(i, 2, m.interval_begin(0));
    ASSERT_TRUE((*hub)->WriteHub(i, 0, payload.data(), payload.size()).ok());
  }
  // Row 1's count prefix claims 3 entries in a 2-entry segment; so does a
  // count whose byte size overflows 64 bits.
  for (uint64_t bad : {uint64_t{3}, uint64_t{1} << 62}) {
    ASSERT_TRUE((*hub)->WriteHub(1, 0, &bad, sizeof(bad)).ok());
    HubFile::Run run;
    Status s = (*hub)->ReadHubRun(0, 3, 0, &run);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_TRUE(s.retryable()) << s.ToString();
  }
}

// The FromHub fold indexes its accumulator by destination, so an entry
// naming an id outside the segment's column is rejected like a bad count.
TEST(HubFileTest, DestinationOutsideColumnIsRetryableCorruption) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 4);  // intervals of 25 ids
  for (auto& meta : m.subshards) meta.num_dsts = 3;
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/1, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 1; i < 4; ++i) {
    const auto payload = HubPayload(i, 3, m.interval_begin(2));
    ASSERT_TRUE((*hub)->WriteHub(i, 2, payload.data(), payload.size()).ok());
  }
  HubFile::Run run;
  ASSERT_TRUE((*hub)->ReadHubRun(1, 4, 2, &run).ok());
  // Row 2's last entry names the first id past the column, the last id
  // before it, or an id past every column.
  for (VertexId bad : {m.interval_end(2), m.interval_begin(2) - 1,
                       VertexId{0x80000000u}}) {
    auto payload = HubPayload(2, 3, m.interval_begin(2));
    std::memcpy(&payload[8 + 2 * 8], &bad, sizeof(bad));
    ASSERT_TRUE((*hub)->WriteHub(2, 2, payload.data(), payload.size()).ok());
    Status s = (*hub)->ReadHubRun(1, 4, 2, &run);
    EXPECT_TRUE(s.IsCorruption()) << bad << ": " << s.ToString();
    EXPECT_TRUE(s.retryable()) << bad << ": " << s.ToString();
  }
}

TEST(HubFileTest, TruncatedRunReadIsRetryableCorruption) {
  auto mem = NewMemEnv();
  FlakyEnv flaky(mem.get());
  Manifest m = SmallManifest(100, 2);
  for (auto& meta : m.subshards) meta.num_dsts = 4;
  auto hub = HubFile::Create(&flaky, "h.nxh", m, /*q=*/0, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 0; i < 2; ++i) {
    const auto payload = HubPayload(i, 4, m.interval_begin(1));
    ASSERT_TRUE((*hub)->WriteHub(i, 1, payload.data(), payload.size()).ok());
  }
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 1,
                      FlakyEnv::FaultKind::kShortRead);
  HubFile::Run run;
  Status s = (*hub)->ReadHubRun(0, 2, 1, &run);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(s.retryable()) << s.ToString();
  // The fault heals: a fresh read of the same run succeeds.
  ASSERT_TRUE((*hub)->ReadHubRun(0, 2, 1, &run).ok());
  EXPECT_EQ(run.segment(1), HubPayload(1, 4, m.interval_begin(1)));
}

// A payload flipped in a run read fails its CRC32C as a retryable
// Corruption; the checksum costs no extra Env call, and the next read of
// the run heals.
TEST(HubFileTest, FlippedPayloadIsRetryableCorruption) {
  auto mem = NewMemEnv();
  FlakyEnv flaky(mem.get());
  Manifest m = SmallManifest(100, 4);
  for (auto& meta : m.subshards) meta.num_dsts = 6;
  auto hub = HubFile::Create(&flaky, "h.nxh", m, /*q=*/1, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  const uint64_t writes = flaky.op_count(FlakyEnv::OpKind::kWrite);
  for (uint32_t i = 1; i < 4; ++i) {
    const auto payload = HubPayload(i, 6, m.interval_begin(3));
    ASSERT_TRUE((*hub)->WriteHub(i, 3, payload.data(), payload.size()).ok());
  }
  EXPECT_EQ(flaky.op_count(FlakyEnv::OpKind::kWrite), writes + 3);

  const uint64_t reads = flaky.op_count(FlakyEnv::OpKind::kRead);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, reads + 1,
                      FlakyEnv::FaultKind::kBitFlip);
  HubFile::Run run;
  Status s = (*hub)->ReadHubRun(1, 4, 3, &run);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(s.retryable()) << s.ToString();
  ASSERT_TRUE((*hub)->ReadHubRun(1, 4, 3, &run).ok());
  EXPECT_EQ(flaky.op_count(FlakyEnv::OpKind::kRead), reads + 2);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(run.segment(i - 1), HubPayload(i, 6, m.interval_begin(3)));
  }
}

// Hub read runs are cut by the one byte-capped splitter over the
// segments' capacities.
TEST(HubFileTest, SplitByBytesCapsEachReadOnASkewedColumn) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(1000, 6);
  // Column 0 capacities with 4-byte values: 8 + 8 * num_dsts + 4.
  const uint32_t dsts[6] = {1, 20, 1, 1, 60, 1};  // 20 172 20 20 492 20
  for (uint32_t i = 0; i < 6; ++i) m.subshards[i * 6].num_dsts = dsts[i];
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/0, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  auto split = [&](uint32_t ib, uint32_t ie, uint64_t cap) {
    return SplitByBytes(ib, ie, RunBytes{cap, 0}, [&](uint32_t i) {
      return RunBytes{(*hub)->SegmentCapacity(i, 0), 0};
    });
  };
  using Runs = std::vector<std::pair<uint32_t, uint32_t>>;
  // A cap equal to the column's 744 bytes keeps one run.
  EXPECT_EQ(split(0, 6, 744), (Runs{{0, 6}}));
  EXPECT_EQ((*hub)->RunSpan(0, 6, 0), 744u);
  // Greedy in ascending i; the 492-byte segment outgrows the cap on its
  // own and forms a run by itself.
  EXPECT_EQ(split(0, 6, 212), (Runs{{0, 3}, {3, 4}, {4, 5}, {5, 6}}));
  EXPECT_EQ(split(1, 4, 192), (Runs{{1, 3}, {3, 4}}));
  // Every split run stays within the cap unless it is a single segment.
  for (uint64_t cap : {0, 16, 100, 200, 500}) {
    uint32_t next = 0;
    for (auto [ib, ie] : split(0, 6, cap)) {
      EXPECT_EQ(ib, next);
      next = ie;
      if (ie - ib > 1) {
        EXPECT_LE((*hub)->RunSpan(ib, ie, 0), cap);
      }
    }
    EXPECT_EQ(next, 6u);
  }
}

// A second cap (decoded bytes) closes runs on its own.
TEST(HubFileTest, SplitByBytesHonorsBothCaps) {
  using Runs = std::vector<std::pair<uint32_t, uint32_t>>;
  const RunBytes items[5] = {{10, 1}, {10, 50}, {10, 1}, {10, 1}, {10, 60}};
  auto bytes = [&](uint32_t k) { return items[k]; };
  EXPECT_EQ(SplitByBytes(0, 5, RunBytes{100, 113}, bytes), (Runs{{0, 5}}));
  EXPECT_EQ(SplitByBytes(0, 5, RunBytes{100, 51}, bytes),
            (Runs{{0, 2}, {2, 4}, {4, 5}}));
  EXPECT_EQ(SplitByBytes(0, 5, RunBytes{20, 100}, bytes),
            (Runs{{0, 2}, {2, 4}, {4, 5}}));
  EXPECT_EQ(SplitByBytes(0, 5, RunBytes{0, 0}, bytes),
            (Runs{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}));
  EXPECT_TRUE(SplitByBytes(3, 3, RunBytes{}, bytes).empty());
}

// A write run goes out with one WriteAt spanning its sealed segments, and
// reads back segment by segment; a run that does not span its segments
// exactly is rejected before any write.
TEST(HubFileTest, WriteHubRunWritesSealedSegmentsWithOneCall) {
  auto mem = NewMemEnv();
  FlakyEnv counting(mem.get());
  Manifest m = SmallManifest(100, 4);
  const uint32_t dsts[4] = {3, 1, 7, 2};  // per row, column 2
  for (uint32_t i = 0; i < 4; ++i) m.subshards[i * 4 + 2].num_dsts = dsts[i];
  auto hub =
      HubFile::Create(&counting, "h.nxh", m, /*q=*/1, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  std::string run((*hub)->RunSpan(1, 4, 2), '\0');
  for (uint32_t i = 1; i < 4; ++i) {
    const auto payload = HubPayload(i, dsts[i], m.interval_begin(2));
    char* segment = run.data() + (*hub)->RunOffset(1, i, 2);
    std::memcpy(segment, payload.data(), payload.size());
    ASSERT_TRUE((*hub)->SealHub(i, 2, segment, payload.size()).ok());
  }
  EXPECT_TRUE((*hub)->SealHub(1, 2, run.data(), 8 + 2 * 8).IsInvalidArgument())
      << "row 1's segment holds one entry";
  const uint64_t writes = counting.op_count(FlakyEnv::OpKind::kWrite);
  EXPECT_TRUE((*hub)
                  ->WriteHubRun(nullptr, 1, 4, 2, run.substr(1))
                  .IsInvalidArgument());
  ASSERT_TRUE((*hub)->WriteHubRun(nullptr, 1, 4, 2, run).ok());
  EXPECT_EQ(counting.op_count(FlakyEnv::OpKind::kWrite), writes + 1);
  HubFile::Run got;
  ASSERT_TRUE((*hub)->ReadHubRun(1, 4, 2, &got).ok());
  EXPECT_EQ(got.bytes, run);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(got.segment(i - 1), HubPayload(i, dsts[i], m.interval_begin(2)));
  }
}

TEST(HubFileTest, QLargerThanPRejected) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(10, 2);
  auto hub = HubFile::Create(env.get(), "h.nxh", m, /*q=*/5, 4);
  ASSERT_FALSE(hub.ok());
  EXPECT_TRUE(hub.status().IsInvalidArgument());
}

}  // namespace
}  // namespace nxgraph
