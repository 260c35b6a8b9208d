#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/io/flaky_env.h"
#include "src/prep/sharder.h"
#include "src/storage/hub_file.h"
#include "src/storage/interval_store.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
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

// The file is parity-major: every interval's parity-0 segment in interval
// order, then every parity-1 segment. Intervals of 3, 5 and 2 vertices
// with 4-byte values store 16, 24 and 12 bytes each, checksums included.
TEST(IntervalStoreTest, ParityMajorOffsets) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(10, 3);
  m.interval_offsets = {0, 3, 8, 10};
  EXPECT_EQ(IntervalStore::SegmentOffsets(m, 4),
            (std::vector<uint64_t>{0, 16, 40, 52}));
  auto store = IntervalStore::Create(env.get(), "v.nxi", m, sizeof(uint32_t));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->total_bytes(), 104u);
  for (uint32_t i = 0; i < 3; ++i) {
    for (int parity : {0, 1}) {
      std::vector<uint32_t> vals(m.interval_size(i), 10 * i + parity + 1);
      ASSERT_TRUE((*store)->Write(i, parity, vals.data()).ok());
    }
  }
  std::string file;
  ASSERT_TRUE(ReadFileToString(env.get(), "v.nxi", &file).ok());
  ASSERT_EQ(file.size(), 104u);
  const uint64_t starts[2][3] = {{0, 16, 40}, {52, 68, 92}};
  for (uint32_t i = 0; i < 3; ++i) {
    for (int parity : {0, 1}) {
      const uint64_t at = starts[parity][i];
      const uint64_t values = 4 * m.interval_size(i);
      for (uint64_t b = 0; b < values; b += 4) {
        uint32_t v = 0;
        std::memcpy(&v, file.data() + at + b, 4);
        EXPECT_EQ(v, 10 * i + parity + 1) << "interval " << i << " parity "
                                          << parity;
      }
      uint32_t crc = 0;
      std::memcpy(&crc, file.data() + at + values, 4);
      EXPECT_EQ(crc, crc32c::Value(file.data() + at, values));
    }
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

// A hub's entries: destinations, ascending inside one interval, and one
// value per destination.
template <typename V>
struct HubEntries {
  std::vector<VertexId> dsts;
  std::vector<V> values;
};

// `count` consecutive destinations from `first_dst`, every value `tag`.
HubEntries<uint32_t> Consecutive(uint32_t tag, uint64_t count,
                                 VertexId first_dst) {
  HubEntries<uint32_t> h;
  for (uint32_t k = 0; k < count; ++k) {
    h.dsts.push_back(first_dst + k);
    h.values.push_back(tag);
  }
  return h;
}

// `count` distinct destinations drawn from [begin, begin + size), with
// values drawn from `rng`.
template <typename V>
HubEntries<V> RandomEntries(Xoshiro256& rng, VertexId begin, uint32_t size,
                            uint64_t count) {
  std::vector<VertexId> all(size);
  for (uint32_t d = 0; d < size; ++d) all[d] = begin + d;
  for (uint64_t k = 0; k < count; ++k) {
    std::swap(all[k], all[k + rng.NextBounded(size - k)]);
  }
  HubEntries<V> h;
  h.dsts.assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(count));
  std::sort(h.dsts.begin(), h.dsts.end());
  for (uint64_t k = 0; k < count; ++k) {
    h.values.push_back(static_cast<V>(rng.NextDouble() * 1e6));
  }
  return h;
}

// The entries Fold yields for the run's k-th segment over destination
// offsets [lo, hi), as a hub.
template <typename V>
HubEntries<V> Folded(const HubFile::Run& run, size_t k, uint32_t lo = 0,
                     uint32_t hi = UINT32_MAX) {
  HubEntries<V> h;
  HubFile::Fold<V>(run, k, lo, hi, [&](uint32_t d, const V& v) {
    h.dsts.push_back(run.segments[k].column_begin + d);
    h.values.push_back(v);
  });
  return h;
}

template <typename V>
bool operator==(const HubEntries<V>& a, const HubEntries<V>& b) {
  return a.dsts == b.dsts && a.values == b.values;
}

// Seals hub (i, j) and writes it as a one-slot run.
template <typename V>
Status Write(HubFile* hub, uint32_t i, uint32_t j, const HubEntries<V>& h) {
  std::string segment(hub->SegmentCapacity(i, j), '\0');
  NX_RETURN_NOT_OK(hub->SealHub(i, j, segment.data(), h.dsts, h.values.data()));
  const size_t slot = hub->Slot(i, j);
  return hub->WriteHubRun(nullptr, slot, slot + 1, std::move(segment));
}

// The column-major layout of `m`'s hubs from q on: one row group [q, P)
// and one-column groups, so hub (i, j) lies at slot
// (j - q) * (P - q) + (i - q).
HubLayout ColumnMajor(const Manifest& m, uint32_t q) {
  HubLayout layout;
  layout.row_groups = {{q, m.num_intervals}};
  for (uint32_t j = q; j < m.num_intervals; ++j) {
    layout.column_groups.push_back({j, j + 1});
  }
  return layout;
}

// Hubs (i_begin..i_end-1, j) of a column-major file, read as one run.
Status ReadColumnRun(const HubFile& hub, uint32_t i_begin, uint32_t i_end,
                     uint32_t j, HubFile::Run* out) {
  return hub.ReadHubRun(hub.Slot(i_begin, j), hub.Slot(i_end - 1, j) + 1, out);
}

TEST(HubFileTest, WriteReadRoundTrip) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 4);
  // Give sub-shard (2,3) 5 destinations.
  m.subshards[2 * 4 + 3].num_dsts = 5;
  auto hub = HubFile::Create(env.get(), "h.nxh", m, ColumnMajor(m, 2),
                             sizeof(double));
  ASSERT_TRUE(hub.ok());

  HubEntries<double> h;
  for (uint32_t k = 0; k < 5; ++k) {
    h.dsts.push_back(80 + 3 * k);
    h.values.push_back(k * 1.5);
  }
  ASSERT_TRUE(Write(hub->get(), 2, 3, h).ok());

  HubFile::Run run;
  ASSERT_TRUE(ReadColumnRun(**hub, 2, 3, 3, &run).ok());
  ASSERT_EQ(run.segments.size(), 1u);
  EXPECT_EQ(run.segments[0].i, 2u);
  EXPECT_EQ(run.segments[0].j, 3u);
  EXPECT_EQ(run.segments[0].column_begin, 75u);
  EXPECT_EQ(run.segments[0].column_size, 25u);
  EXPECT_EQ(run.segments[0].count, 5u);
  EXPECT_TRUE(run.segments[0].bitmap) << "4-byte bitmap < 20 bytes of ids";
  EXPECT_TRUE(Folded<double>(run, 0) == h);
}

// SealHub takes exactly its sub-shard's destinations, ascending inside the
// column, and writes nothing otherwise.
TEST(HubFileTest, SealRejectsEntriesThatAreNotItsBlobsDestinations) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(400, 2);  // intervals of 200: 25-byte bitmaps
  m.subshards[0 * 2 + 1].num_dsts = 3;   // 12 bytes of ids: list form
  m.subshards[1 * 2 + 1].num_dsts = 20;  // bitmap form
  auto hub = HubFile::Create(env.get(), "h.nxh", m, ColumnMajor(m, 0),
                             sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i : {0u, 1u}) {
    const uint64_t count = m.subshard(i, 1, false).num_dsts;
    std::vector<HubEntries<uint32_t>> bad = {
        Consecutive(1, count - 1, 200),  // one entry short
        Consecutive(1, count + 1, 200),  // one entry over
        Consecutive(1, count, 199),      // starts before the column
        Consecutive(1, count, 400 - count + 1),  // ends past it
    };
    HubEntries<uint32_t> unsorted = Consecutive(1, count, 200);
    std::swap(unsorted.dsts[0], unsorted.dsts[1]);
    bad.push_back(unsorted);
    HubEntries<uint32_t> repeated = Consecutive(1, count, 200);
    repeated.dsts[1] = repeated.dsts[0];
    bad.push_back(repeated);
    for (const auto& h : bad) {
      std::string segment((*hub)->SegmentCapacity(i, 1), 'x');
      const std::string before = segment;
      Status s = (*hub)->SealHub(i, 1, segment.data(), h.dsts, h.values.data());
      EXPECT_TRUE(s.IsInvalidArgument()) << "row " << i << ": " << s.ToString();
      EXPECT_EQ(segment, before);
    }
  }
}

TEST(HubFileTest, SegmentsAreDisjoint) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 3);
  // Distinct capacities so a row-major layout cannot pass by accident; the
  // hub (i, j) fills its blob's destinations and is tagged i * 3 + j.
  auto entries_of = [&m](uint32_t i, uint32_t j) {
    return Consecutive(i * 3 + j, 1 + i + 2 * j, m.interval_begin(j));
  };
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      m.subshards[i * 3 + j].num_dsts = 1 + i + 2 * j;
    }
  }
  auto hub = HubFile::Create(env.get(), "h.nxh", m, ColumnMajor(m, 0),
                             sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      ASSERT_TRUE(Write(hub->get(), i, j, entries_of(i, j)).ok());
    }
  }
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      HubFile::Run run;
      ASSERT_TRUE(ReadColumnRun(**hub, i, i + 1, j, &run).ok());
      EXPECT_TRUE(Folded<uint32_t>(run, 0) == entries_of(i, j));
    }
  }
  // Column-major adjacency: segment (i+1, j) starts where (i, j) ends, and
  // column j+1 starts where column j ends — the file is the segments in
  // (j, i) order with no gaps, each a count, a destination set, the values
  // and a CRC32C of the rest.
  std::string file;
  ASSERT_TRUE(ReadFileToString(env.get(), "h.nxh", &file).ok());
  ASSERT_EQ(file.size(), (*hub)->total_bytes());
  uint64_t offset = 0;
  for (uint32_t j = 0; j < 3; ++j) {
    for (uint32_t i = 0; i < 3; ++i) {
      const uint64_t count = 1 + i + 2 * j;
      const uint64_t capacity = (*hub)->SegmentCapacity(i, j);
      ASSERT_EQ(capacity, HubFile::SegmentBytes(count, m.interval_size(j), 4));
      uint64_t stored = 0;
      std::memcpy(&stored, file.data() + offset, 8);
      EXPECT_EQ(stored, count) << "segment (" << i << ", " << j << ")";
      uint32_t crc = 0;
      std::memcpy(&crc, file.data() + offset + capacity - 4, sizeof(crc));
      EXPECT_EQ(crc, crc32c::Value(file.data() + offset, capacity - 4));
      offset += capacity;
    }
  }
  EXPECT_EQ(offset, file.size());
}

// Segments lie by column group, then row group, then column, then row:
// with row groups {1, 2} and {3, 4} and column groups {1} and {2, 3, 4},
// each tile is contiguous and a column group's tiles follow each other in
// row order. A run that crosses from one tile into the next reads back hub
// by hub, each segment reporting its own (i, j) and column.
TEST(HubFileTest, TilesLieInFileOrder) {
  using Hubs = std::vector<std::pair<uint32_t, uint32_t>>;
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 5);  // intervals of 20
  // Distinct capacities, so a misplaced segment cannot pass by accident;
  // hub (i, j) fills its blob's destinations and is tagged 5i + j.
  auto entries_of = [&m](uint32_t i, uint32_t j) {
    return Consecutive(5 * i + j, i + j, m.interval_begin(j));
  };
  for (uint32_t i = 1; i < 5; ++i) {
    for (uint32_t j = 1; j < 5; ++j) m.subshards[i * 5 + j].num_dsts = i + j;
  }
  const HubLayout layout{{{1, 3}, {3, 5}}, {{1, 2}, {2, 5}}};
  const Hubs order = layout.Order();
  EXPECT_EQ(order, (Hubs{{1, 1}, {2, 1}, {3, 1}, {4, 1},   // column group 1
                         {1, 2}, {2, 2}, {1, 3}, {2, 3},   // its first tile
                         {1, 4}, {2, 4}, {3, 2}, {4, 2},   // ... and second
                         {3, 3}, {4, 3}, {3, 4}, {4, 4}}));
  for (size_t slot = 0; slot < order.size(); ++slot) {
    EXPECT_EQ(layout.Slot(order[slot].first, order[slot].second), slot);
  }
  const std::vector<uint64_t> offsets =
      HubFile::SegmentOffsets(m, layout, sizeof(uint32_t), false);
  ASSERT_EQ(offsets.size(), order.size() + 1);
  for (size_t slot = 0; slot < order.size(); ++slot) {
    const auto [i, j] = order[slot];
    EXPECT_EQ(offsets[slot + 1] - offsets[slot],
              HubFile::SegmentBytes(i + j, 20, sizeof(uint32_t)));
  }

  auto hub = HubFile::Create(env.get(), "h.nxh", m, layout, sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  EXPECT_EQ((*hub)->total_bytes(), offsets.back());
  for (auto [i, j] : order) {
    ASSERT_TRUE(Write(hub->get(), i, j, entries_of(i, j)).ok());
  }
  // Slots 9..11: the last hub of tile ({1, 2}, {2, 3, 4}) and the first
  // two of tile ({3, 4}, {2, 3, 4}).
  HubFile::Run run;
  ASSERT_TRUE((*hub)->ReadHubRun(9, 12, &run).ok());
  EXPECT_EQ(run.bytes.size(), offsets[12] - offsets[9]);
  ASSERT_EQ(run.segments.size(), 3u);
  const Hubs want = {{2, 4}, {3, 2}, {4, 2}};
  for (size_t k = 0; k < want.size(); ++k) {
    const auto [i, j] = want[k];
    EXPECT_EQ(run.segments[k].i, i);
    EXPECT_EQ(run.segments[k].j, j);
    EXPECT_EQ(run.segments[k].column_begin, m.interval_begin(j));
    EXPECT_EQ(run.segments[k].start, offsets[9 + k] - offsets[9]);
    EXPECT_TRUE(Folded<uint32_t>(run, k) == entries_of(i, j)) << i << j;
  }
}

TEST(HubFileTest, ColumnRunRoundTrip) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(100, 4);
  const uint32_t dsts[4] = {3, 1, 7, 2};  // per row, column 2
  for (uint32_t i = 0; i < 4; ++i) m.subshards[i * 4 + 2].num_dsts = dsts[i];
  auto hub = HubFile::Create(env.get(), "h.nxh", m, ColumnMajor(m, 1),
                             sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(Write(hub->get(), i, 2,
                      Consecutive(i, dsts[i], m.interval_begin(2)))
                    .ok());
  }
  HubFile::Run run;
  ASSERT_TRUE(ReadColumnRun(**hub, 1, 4, 2, &run).ok());
  ASSERT_EQ(run.segments.size(), 3u);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(Folded<uint32_t>(run, i - 1) ==
                Consecutive(i, dsts[i], m.interval_begin(2)))
        << "row " << i;
  }
  // A run in the middle of the column reads the same bytes.
  ASSERT_TRUE(ReadColumnRun(**hub, 2, 3, 2, &run).ok());
  ASSERT_EQ(run.segments.size(), 1u);
  EXPECT_TRUE(Folded<uint32_t>(run, 0) ==
              Consecutive(2, dsts[2], m.interval_begin(2)));
}

// Round trips of one hub over intervals whose sizes are not multiples of 8
// or 64, at densities 0 and 1 and on either side of the switch from the id
// list to the bitmap, with 4- and 8-byte values. Folding any split of the
// column into ranges yields the hub's entries in order.
TEST(HubFileTest, CodecRoundTripsAcrossDensitiesAndForms) {
  Xoshiro256 rng(7);
  for (uint32_t size : {1u, 7u, 37u, 203u, 1001u}) {
    const uint64_t bitmap = (size + 7) / 8;
    // The fewest entries whose bitmap is smaller than their ids.
    const uint64_t first_bitmap = bitmap / 4 + 1;
    std::vector<uint64_t> counts = {0, 1, size};
    for (uint64_t c : {first_bitmap - 1, first_bitmap, first_bitmap + 1}) {
      if (c <= size) counts.push_back(c);
    }
    for (uint64_t count : counts) {
      for (uint32_t value_bytes : {4u, 8u}) {
        SCOPED_TRACE("size " + std::to_string(size) + ", count " +
                     std::to_string(count) + ", value bytes " +
                     std::to_string(value_bytes));
        auto env = NewMemEnv();
        Manifest m = SmallManifest(size + 5, 2);
        m.interval_offsets = {0, 5, size + 5};
        m.subshards[0 * 2 + 1].num_dsts = count;
        m.subshards[1 * 2 + 1].num_dsts = count;
        auto hub = HubFile::Create(env.get(), "h.nxh", m, ColumnMajor(m, 0),
                                   value_bytes);
        ASSERT_TRUE(hub.ok());
        const bool uses_bitmap = bitmap < 4 * count;
        EXPECT_EQ(HubFile::UsesBitmap(count, size), uses_bitmap);
        EXPECT_EQ((*hub)->SegmentCapacity(0, 1),
                  8 + std::min(bitmap, 4 * count) + count * value_bytes + 4);
        HubFile::Run run;
        uint32_t lo = static_cast<uint32_t>(rng.NextBounded(size + 1));
        uint32_t hi = static_cast<uint32_t>(rng.NextBounded(size + 1));
        if (lo > hi) std::swap(lo, hi);
        if (value_bytes == 4) {
          const auto h = RandomEntries<uint32_t>(rng, 5, size, count);
          const auto h2 = RandomEntries<uint32_t>(rng, 5, size, count);
          ASSERT_TRUE(Write(hub->get(), 0, 1, h).ok());
          ASSERT_TRUE(Write(hub->get(), 1, 1, h2).ok());
          ASSERT_TRUE(ReadColumnRun(**hub, 0, 2, 1, &run).ok());
          ASSERT_EQ(run.segments.size(), 2u);
          EXPECT_EQ(run.segments[0].bitmap, uses_bitmap);
          EXPECT_TRUE(Folded<uint32_t>(run, 0) == h);
          EXPECT_TRUE(Folded<uint32_t>(run, 1) == h2);
          // Three ranges, concatenated, are the whole hub.
          HubEntries<uint32_t> parts = Folded<uint32_t>(run, 0, 0, lo);
          for (auto [b, e] : {std::pair{lo, hi}, std::pair{hi, size}}) {
            const auto part = Folded<uint32_t>(run, 0, b, e);
            parts.dsts.insert(parts.dsts.end(), part.dsts.begin(),
                              part.dsts.end());
            parts.values.insert(parts.values.end(), part.values.begin(),
                                part.values.end());
          }
          EXPECT_TRUE(parts == h);
        } else {
          const auto h = RandomEntries<double>(rng, 5, size, count);
          ASSERT_TRUE(Write(hub->get(), 1, 1, h).ok());
          ASSERT_TRUE(ReadColumnRun(**hub, 1, 2, 1, &run).ok());
          EXPECT_TRUE(Folded<double>(run, 0) == h);
          HubEntries<double> range;
          for (size_t k = 0; k < h.dsts.size(); ++k) {
            const uint32_t d = h.dsts[k] - 5;
            if (d >= lo && d < hi) {
              range.dsts.push_back(h.dsts[k]);
              range.values.push_back(h.values[k]);
            }
          }
          EXPECT_TRUE(Folded<double>(run, 0, lo, hi) == range);
        }
      }
    }
  }
}

// The smaller destination set never makes a hub larger than the paper's
// (id, value) entries: 8 + (4 + value_bytes) * num_dsts + 4 bytes.
TEST(HubFileTest, CapacityNeverExceedsTheIdListForm) {
  Xoshiro256 rng(11);
  for (int c = 0; c < 10000; ++c) {
    const uint64_t size = 1 + rng.NextBounded(c % 2 == 0 ? 300 : 5000000);
    const uint64_t count = rng.NextBounded(size + 1);
    const uint32_t value_bytes = 1 + static_cast<uint32_t>(rng.NextBounded(16));
    const uint64_t id_list = 12 + (4 + value_bytes) * count;
    const uint64_t capacity = HubFile::SegmentBytes(count, size, value_bytes);
    ASSERT_LE(capacity, id_list) << size << " " << count << " " << value_bytes;
    if (HubFile::UsesBitmap(count, size)) {
      ASSERT_LT(capacity, id_list);
      ASSERT_EQ(HubFile::DstSetBytes(count, size), (size + 7) / 8);
    } else {
      ASSERT_EQ(capacity, id_list);
    }
  }
}

TEST(HubFileTest, TruncatedRunReadIsRetryableCorruption) {
  auto mem = NewMemEnv();
  FlakyEnv flaky(mem.get());
  Manifest m = SmallManifest(100, 2);
  for (auto& meta : m.subshards) meta.num_dsts = 4;
  auto hub = HubFile::Create(&flaky, "h.nxh", m, ColumnMajor(m, 0),
                             sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  for (uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        Write(hub->get(), i, 1, Consecutive(i, 4, m.interval_begin(1))).ok());
  }
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 1,
                      FlakyEnv::FaultKind::kShortRead);
  HubFile::Run run;
  Status s = ReadColumnRun(**hub, 0, 2, 1, &run);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(s.retryable()) << s.ToString();
  EXPECT_TRUE(run.segments.empty());
  // The fault heals: a fresh read of the same run succeeds.
  ASSERT_TRUE(ReadColumnRun(**hub, 0, 2, 1, &run).ok());
  EXPECT_TRUE(Folded<uint32_t>(run, 1) ==
              Consecutive(1, 4, m.interval_begin(1)));
}

// A payload flipped in a run read fails its CRC32C as a retryable
// Corruption; the checksum costs no extra Env call, and the next read of
// the run heals.
TEST(HubFileTest, FlippedPayloadIsRetryableCorruption) {
  auto mem = NewMemEnv();
  FlakyEnv flaky(mem.get());
  Manifest m = SmallManifest(100, 4);
  for (auto& meta : m.subshards) meta.num_dsts = 6;
  auto hub = HubFile::Create(&flaky, "h.nxh", m, ColumnMajor(m, 1),
                             sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  const uint64_t writes = flaky.op_count(FlakyEnv::OpKind::kWrite);
  for (uint32_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(
        Write(hub->get(), i, 3, Consecutive(i, 6, m.interval_begin(3))).ok());
  }
  EXPECT_EQ(flaky.op_count(FlakyEnv::OpKind::kWrite), writes + 3);

  const uint64_t reads = flaky.op_count(FlakyEnv::OpKind::kRead);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, reads + 1,
                      FlakyEnv::FaultKind::kBitFlip);
  HubFile::Run run;
  Status s = ReadColumnRun(**hub, 1, 4, 3, &run);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(s.retryable()) << s.ToString();
  ASSERT_TRUE(ReadColumnRun(**hub, 1, 4, 3, &run).ok());
  EXPECT_EQ(flaky.op_count(FlakyEnv::OpKind::kRead), reads + 2);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(Folded<uint32_t>(run, i - 1) ==
                Consecutive(i, 6, m.interval_begin(3)));
  }
}

// Column 2 of a 400-vertex, 4-interval manifest (100 destinations, a
// 13-byte bitmap with 4 padding bits) with hubs in both forms: row 1's 3
// ids (12 bytes) stay a list, rows 2 and 3 (10 and 4 entries) take the
// bitmap.
struct MixedColumn {
  std::unique_ptr<Env> env = NewMemEnv();
  Manifest m = SmallManifest(400, 4);
  std::unique_ptr<HubFile> hub;
  std::string sealed;  // hubs (1..3, 2), sealed, as on disk

  MixedColumn() {
    m.subshards[1 * 4 + 2].num_dsts = 3;
    m.subshards[2 * 4 + 2].num_dsts = 10;
    m.subshards[3 * 4 + 2].num_dsts = 4;
    hub = std::move(HubFile::Create(env.get(), "h.nxh", m, ColumnMajor(m, 1),
                                    sizeof(uint32_t))
                        .value());
    sealed.assign(hub->RunSpan(Begin(), End()), '\0');
    for (uint32_t i = 1; i < 4; ++i) {
      const auto h = Entries(i);
      NX_CHECK(hub->SealHub(i, 2, Segment(&sealed, i), h.dsts,
                            h.values.data())
                   .ok());
    }
  }
  static HubEntries<uint32_t> Entries(uint32_t i) {
    HubEntries<uint32_t> h;
    const uint32_t count = i == 1 ? 3 : i == 2 ? 10 : 4;
    for (uint32_t k = 0; k < count; ++k) {
      h.dsts.push_back(200 + 7 * k + i);
      h.values.push_back(100 * i + k);
    }
    return h;
  }
  // Hubs (1..3, 2) are slots [Begin(), End()) of the column-major file.
  size_t Begin() const { return hub->Slot(1, 2); }
  size_t End() const { return hub->Slot(3, 2) + 1; }
  char* Segment(std::string* run, uint32_t i) const {
    return run->data() + hub->RunOffset(Begin(), hub->Slot(i, 2));
  }
  // Recomputes segment i's CRC32C, so `run` passes the checksum.
  void Reseal(std::string* run, uint32_t i) const {
    char* segment = Segment(run, i);
    const uint64_t payload = hub->SegmentCapacity(i, 2) - 4;
    const uint32_t crc = crc32c::Value(segment, payload);
    std::memcpy(segment + payload, &crc, sizeof(crc));
  }
  // Writes `run` whole and reads it back.
  Status WriteAndRead(const std::string& run, HubFile::Run* out) {
    NX_CHECK(hub->WriteHubRun(nullptr, Begin(), End(), run).ok());
    return hub->ReadHubRun(Begin(), End(), out);
  }
};

TEST(HubFileTest, MixedColumnRoundTrip) {
  MixedColumn c;
  HubFile::Run run;
  ASSERT_TRUE(c.WriteAndRead(c.sealed, &run).ok());
  ASSERT_EQ(run.segments.size(), 3u);
  EXPECT_FALSE(run.segments[0].bitmap);
  EXPECT_TRUE(run.segments[1].bitmap);
  EXPECT_TRUE(run.segments[2].bitmap);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(Folded<uint32_t>(run, i - 1) == MixedColumn::Entries(i));
  }
  EXPECT_EQ(c.hub->SegmentCapacity(1, 2), 8u + 12 + 12 + 4);
  EXPECT_EQ(c.hub->SegmentCapacity(2, 2), 8u + 13 + 40 + 4);
  EXPECT_EQ(c.hub->SegmentCapacity(3, 2), 8u + 13 + 16 + 4);
}

// A bit flipped anywhere in a sealed run — count, either destination set,
// values or checksum — is a retryable Corruption that folds nothing.
TEST(HubFileTest, BitFlippedAnywhereIsRetryableCorruption) {
  MixedColumn c;
  for (size_t bit = 0; bit < 8 * c.sealed.size(); ++bit) {
    std::string run = c.sealed;
    run[bit / 8] = static_cast<char>(run[bit / 8] ^ (1 << (bit % 8)));
    HubFile::Run out;
    Status s = c.WriteAndRead(run, &out);
    ASSERT_TRUE(s.IsCorruption()) << "bit " << bit << ": " << s.ToString();
    ASSERT_TRUE(s.retryable()) << "bit " << bit;
    ASSERT_TRUE(out.segments.empty()) << "bit " << bit;
  }
  HubFile::Run out;
  EXPECT_TRUE(c.WriteAndRead(c.sealed, &out).ok());
}

// Payloads that pass their checksum but do not describe their blob's
// destinations are rejected before FromHub could index with them: the
// read is a retryable Corruption and leaves no segment to fold.
TEST(HubFileTest, SealedButMalformedPayloadsAreRetryableCorruption) {
  MixedColumn c;
  const auto set_count = [](char* segment, uint64_t count) {
    std::memcpy(segment, &count, 8);
  };
  const auto set_id = [](char* segment, uint32_t e, VertexId id) {
    std::memcpy(segment + 8 + 4 * e, &id, 4);
  };
  const auto flip_bit = [](char* segment, uint32_t d) {
    segment[8 + d / 8] = static_cast<char>(segment[8 + d / 8] ^ (1 << (d % 8)));
  };
  // Row 2's bitmap holds destination offsets 2, 9, ..., 65; row 1's list
  // holds ids 201, 208, 215.
  struct Case {
    const char* name;
    uint32_t row;
    std::function<void(char*)> tamper;
  };
  const std::vector<Case> cases = {
      {"list count below num_dsts", 1, [&](char* s) { set_count(s, 2); }},
      {"bitmap count above num_dsts", 2, [&](char* s) { set_count(s, 11); }},
      {"count past every segment", 3,
       [&](char* s) { set_count(s, uint64_t{1} << 62); }},
      {"bitmap popcount below count", 2, [&](char* s) { flip_bit(s, 2); }},
      {"bitmap popcount above count", 3, [&](char* s) { flip_bit(s, 0); }},
      {"bitmap padding bit", 2,
       [&](char* s) {
         flip_bit(s, 2);    // keeps the popcount at the count ...
         flip_bit(s, 100);  // ... with the first bit past the column
       }},
      {"bitmap last padding bit", 3,
       [&](char* s) {
         flip_bit(s, 3);
         flip_bit(s, 103);
       }},
      {"list ids descending", 1,
       [&](char* s) {
         set_id(s, 0, 208);
         set_id(s, 1, 201);
       }},
      {"list id repeated", 1, [&](char* s) { set_id(s, 1, 201); }},
      {"list id past the column", 1, [&](char* s) { set_id(s, 2, 300); }},
      {"list id before the column", 1, [&](char* s) { set_id(s, 0, 199); }},
      {"list id past every column", 1,
       [&](char* s) { set_id(s, 2, VertexId{0x80000000u}); }},
  };
  for (const Case& k : cases) {
    std::string run = c.sealed;
    k.tamper(c.Segment(&run, k.row));
    c.Reseal(&run, k.row);
    HubFile::Run out;
    Status s = c.WriteAndRead(run, &out);
    EXPECT_TRUE(s.IsCorruption()) << k.name << ": " << s.ToString();
    EXPECT_TRUE(s.retryable()) << k.name << ": " << s.ToString();
    EXPECT_TRUE(out.segments.empty()) << k.name;
  }
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
  auto hub = HubFile::Create(&counting, "h.nxh", m, ColumnMajor(m, 1),
                             sizeof(uint32_t));
  ASSERT_TRUE(hub.ok());
  // Hubs (1..3, 2): slots [3, 6) of the column-major file.
  const size_t begin = (*hub)->Slot(1, 2), end = (*hub)->Slot(3, 2) + 1;
  ASSERT_EQ(begin, 3u);
  ASSERT_EQ(end, 6u);
  std::string run((*hub)->RunSpan(begin, end), '\0');
  for (uint32_t i = 1; i < 4; ++i) {
    const auto h = Consecutive(i, dsts[i], m.interval_begin(2));
    char* segment = run.data() + (*hub)->RunOffset(begin, (*hub)->Slot(i, 2));
    ASSERT_TRUE((*hub)->SealHub(i, 2, segment, h.dsts, h.values.data()).ok());
  }
  const auto two = Consecutive(1, 2, m.interval_begin(2));
  EXPECT_TRUE((*hub)
                  ->SealHub(1, 2, run.data(), two.dsts, two.values.data())
                  .IsInvalidArgument())
      << "row 1's blob has one destination";
  const uint64_t writes = counting.op_count(FlakyEnv::OpKind::kWrite);
  EXPECT_TRUE((*hub)
                  ->WriteHubRun(nullptr, begin, end, run.substr(1))
                  .IsInvalidArgument());
  ASSERT_TRUE((*hub)->WriteHubRun(nullptr, begin, end, run).ok());
  EXPECT_EQ(counting.op_count(FlakyEnv::OpKind::kWrite), writes + 1);
  HubFile::Run got;
  ASSERT_TRUE(ReadColumnRun(**hub, 1, 4, 2, &got).ok());
  EXPECT_EQ(got.bytes, run);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(Folded<uint32_t>(got, i - 1) ==
                Consecutive(i, dsts[i], m.interval_begin(2)));
  }
}

// A layout's row and column groups must both tile one disk block [q, P).
TEST(HubFileTest, QLargerThanPRejected) {
  auto env = NewMemEnv();
  Manifest m = SmallManifest(10, 2);
  auto hub = HubFile::Create(env.get(), "h.nxh", m, ColumnMajor(m, 5), 4);
  ASSERT_FALSE(hub.ok());
  EXPECT_TRUE(hub.status().IsInvalidArgument());
  const Manifest m4 = SmallManifest(40, 4);
  const HubLayout bad[] = {
      {{{1, 4}}, {{1, 2}, {3, 4}}},  // a gap between column groups
      {{{1, 4}}, {{2, 4}}},          // column groups from another q
      {{{1, 3}}, {{1, 4}}},          // row groups short of P
      {{{1, 1}, {1, 4}}, {{1, 4}}},  // an empty row group
  };
  for (const HubLayout& layout : bad) {
    EXPECT_TRUE(HubFile::Create(env.get(), "h.nxh", m4, layout, 4)
                    .status()
                    .IsInvalidArgument());
  }
}

}  // namespace
}  // namespace nxgraph
