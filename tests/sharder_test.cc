#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "src/io/env.h"
#include "src/prep/degreer.h"
#include "src/prep/manifest.h"
#include "src/prep/sharder.h"
#include "src/storage/graph_store.h"
#include "src/util/crc32c.h"
#include "src/util/serialize.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

struct BuiltGraph {
  std::unique_ptr<Env> env;
  DegreeResult degrees;
  Manifest manifest;
};

BuiltGraph Build(const EdgeList& edges, uint32_t p, bool transpose = true) {
  BuiltGraph b;
  b.env = NewMemEnv();
  auto degrees = RunDegreer(b.env.get(), edges, "g");
  NX_CHECK(degrees.ok()) << degrees.status().ToString();
  b.degrees = *degrees;
  SharderOptions opt;
  opt.num_intervals = p;
  opt.build_transpose = transpose;
  auto manifest = RunSharder(b.env.get(), "g", b.degrees, opt);
  NX_CHECK(manifest.ok()) << manifest.status().ToString();
  b.manifest = *manifest;
  return b;
}

TEST(MakeEqualIntervalsTest, CoversAllVertices) {
  auto offsets = MakeEqualIntervals(100, 7);
  ASSERT_EQ(offsets.size(), 8u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), 100u);
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_GE(offsets[i], offsets[i - 1]);
  }
}

TEST(MakeEqualIntervalsTest, BalancedSizes) {
  auto offsets = MakeEqualIntervals(1000, 16);
  for (size_t i = 1; i < offsets.size(); ++i) {
    const uint32_t size = offsets[i] - offsets[i - 1];
    EXPECT_GE(size, 1000u / 16);
    EXPECT_LE(size, 1000u / 16 + 1);
  }
}

TEST(SharderTest, ManifestShape) {
  EdgeList edges = testing::RandomGraph(200, 2000, 1);
  BuiltGraph b = Build(edges, 4);
  EXPECT_EQ(b.manifest.num_intervals, 4u);
  EXPECT_EQ(b.manifest.subshards.size(), 16u);
  EXPECT_EQ(b.manifest.subshards_transpose.size(), 16u);
  EXPECT_EQ(b.manifest.num_edges, edges.num_edges());
}

TEST(SharderTest, EveryEdgeInExactlyOneSubShard) {
  EdgeList edges = testing::RandomGraph(300, 3000, 2);
  BuiltGraph b = Build(edges, 5);
  uint64_t total = 0;
  for (const auto& meta : b.manifest.subshards) total += meta.num_edges;
  EXPECT_EQ(total, edges.num_edges());
  uint64_t total_t = 0;
  for (const auto& meta : b.manifest.subshards_transpose) {
    total_t += meta.num_edges;
  }
  EXPECT_EQ(total_t, edges.num_edges());
}

TEST(SharderTest, SubShardInvariants) {
  EdgeList edges = testing::RandomGraph(256, 4096, 3);
  BuiltGraph b = Build(edges, 4);
  auto store = GraphStore::Open(b.env.get(), "g");
  ASSERT_TRUE(store.ok());
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      auto ss = (*store)->LoadSubShard(i, j);
      ASSERT_TRUE(ss.ok()) << ss.status().ToString();
      // Destinations strictly ascending and within interval j.
      for (uint32_t g = 0; g < ss->num_dsts(); ++g) {
        if (g > 0) {
          EXPECT_LT(ss->dsts[g - 1], ss->dsts[g]);
        }
        EXPECT_GE(ss->dsts[g], b.manifest.interval_begin(j));
        EXPECT_LT(ss->dsts[g], b.manifest.interval_end(j));
        // Sources ascending within a destination group and within
        // interval i.
        for (uint32_t k = ss->offsets[g]; k < ss->offsets[g + 1]; ++k) {
          if (k > ss->offsets[g]) {
            EXPECT_LE(ss->srcs[k - 1], ss->srcs[k]);
          }
          EXPECT_GE(ss->srcs[k], b.manifest.interval_begin(i));
          EXPECT_LT(ss->srcs[k], b.manifest.interval_end(i));
        }
      }
      EXPECT_EQ(ss->offsets.size(), ss->dsts.size() + 1);
      if (!ss->dsts.empty()) {
        EXPECT_EQ(ss->offsets.back(), ss->srcs.size());
      }
    }
  }
}

TEST(SharderTest, TransposeIsExactReverse) {
  EdgeList edges = testing::RandomGraph(100, 800, 4);
  BuiltGraph b = Build(edges, 3);
  auto store = GraphStore::Open(b.env.get(), "g");
  ASSERT_TRUE(store.ok());
  std::multiset<std::pair<VertexId, VertexId>> forward, transposed;
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      auto f = (*store)->LoadSubShard(i, j, false);
      auto t = (*store)->LoadSubShard(i, j, true);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE(t.ok());
      for (uint32_t g = 0; g < f->num_dsts(); ++g) {
        for (uint32_t k = f->offsets[g]; k < f->offsets[g + 1]; ++k) {
          forward.insert({f->srcs[k], f->dsts[g]});
        }
      }
      for (uint32_t g = 0; g < t->num_dsts(); ++g) {
        for (uint32_t k = t->offsets[g]; k < t->offsets[g + 1]; ++k) {
          transposed.insert({t->dsts[g], t->srcs[k]});
        }
      }
    }
  }
  EXPECT_EQ(forward, transposed);
}

TEST(SharderTest, DedupRemovesDuplicates) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(0, 1);
  edges.Add(1, 0);
  auto env = NewMemEnv();
  auto degrees = RunDegreer(env.get(), edges, "g");
  ASSERT_TRUE(degrees.ok());
  SharderOptions opt;
  opt.num_intervals = 1;
  opt.dedup = true;
  opt.build_transpose = false;
  auto manifest = RunSharder(env.get(), "g", *degrees, opt);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->subshards[0].num_edges, 2u);
}

TEST(SharderTest, ClampsIntervalsToVertexCount) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  auto env = NewMemEnv();
  auto degrees = RunDegreer(env.get(), edges, "g");
  ASSERT_TRUE(degrees.ok());
  SharderOptions opt;
  opt.num_intervals = 100;  // only 3 vertices exist
  auto manifest = RunSharder(env.get(), "g", *degrees, opt);
  ASSERT_TRUE(manifest.ok());
  EXPECT_LE(manifest->num_intervals, 3u);
}

TEST(SharderTest, SmallBatchSizeStillCorrect) {
  EdgeList edges = testing::RandomGraph(64, 512, 8);
  auto env = NewMemEnv();
  auto degrees = RunDegreer(env.get(), edges, "g");
  ASSERT_TRUE(degrees.ok());
  SharderOptions opt;
  opt.num_intervals = 4;
  opt.batch_edges = 7;  // force many tiny streaming batches
  auto manifest = RunSharder(env.get(), "g", *degrees, opt);
  ASSERT_TRUE(manifest.ok());
  uint64_t total = 0;
  for (const auto& meta : manifest->subshards) total += meta.num_edges;
  EXPECT_EQ(total, edges.num_edges());
}

TEST(ManifestTest, EncodeDecodeRoundTrip) {
  EdgeList edges = testing::RandomGraph(128, 1024, 9);
  BuiltGraph b = Build(edges, 4);
  auto decoded = Manifest::Decode(b.manifest.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_vertices, b.manifest.num_vertices);
  EXPECT_EQ(decoded->num_edges, b.manifest.num_edges);
  EXPECT_EQ(decoded->interval_offsets, b.manifest.interval_offsets);
  EXPECT_EQ(decoded->subshards.size(), b.manifest.subshards.size());
  for (size_t k = 0; k < decoded->subshards.size(); ++k) {
    EXPECT_EQ(decoded->subshards[k].offset, b.manifest.subshards[k].offset);
    EXPECT_EQ(decoded->subshards[k].num_edges,
              b.manifest.subshards[k].num_edges);
  }
}

TEST(ManifestTest, DetectsCorruption) {
  EdgeList edges = testing::RandomGraph(64, 256, 10);
  BuiltGraph b = Build(edges, 2);
  std::string blob = b.manifest.Encode();
  blob[blob.size() / 2] ^= 0x01;
  auto decoded = Manifest::Decode(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(ManifestTest, VersionOneManifestStillDecodes) {
  // Hand-encode a version-1 manifest (no per-blob format byte): stores
  // written before NXS2 must keep opening, with every blob implied NXS1.
  Manifest m;
  m.num_vertices = 10;
  m.num_edges = 3;
  m.num_intervals = 1;
  m.weighted = false;
  m.has_transpose = false;
  m.interval_offsets = {0, 10};
  SubShardMeta meta;
  meta.offset = 0;
  meta.size = 100;
  meta.num_edges = 3;
  meta.num_dsts = 2;
  m.subshards = {meta};

  std::string out;
  EncodeFixed<uint32_t>(&out, kManifestMagic);
  EncodeFixed<uint32_t>(&out, 1);  // version 1
  EncodeFixed<uint64_t>(&out, m.num_vertices);
  EncodeFixed<uint64_t>(&out, m.num_edges);
  EncodeFixed<uint32_t>(&out, m.num_intervals);
  EncodeFixed<uint8_t>(&out, 0);  // weighted
  EncodeFixed<uint8_t>(&out, 0);  // has_transpose
  EncodeFixed<uint64_t>(&out, m.interval_offsets.size());
  for (VertexId v : m.interval_offsets) EncodeFixed<uint32_t>(&out, v);
  // Version-1 sub-shard table: no trailing format byte per entry.
  auto encode_table = [&out](const std::vector<SubShardMeta>& table) {
    EncodeFixed<uint64_t>(&out, table.size());
    for (const auto& t : table) {
      EncodeFixed<uint64_t>(&out, t.offset);
      EncodeFixed<uint64_t>(&out, t.size);
      EncodeFixed<uint64_t>(&out, t.num_edges);
      EncodeFixed<uint32_t>(&out, t.num_dsts);
    }
  };
  encode_table(m.subshards);
  encode_table({});
  EncodeFixed<uint32_t>(&out, crc32c::Value(out.data(), out.size()));

  auto decoded = Manifest::Decode(out);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_edges, 3u);
  ASSERT_EQ(decoded->subshards.size(), 1u);
  EXPECT_EQ(decoded->subshards[0].size, 100u);
  EXPECT_EQ(decoded->subshards[0].format, SubShardFormat::kNxs1);
}

TEST(ManifestTest, RecordsPerBlobFormatAndDecodedBytes) {
  EdgeList edges = testing::RandomGraph(128, 1024, 20);
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    auto env = NewMemEnv();
    auto degrees = RunDegreer(env.get(), edges, "g");
    ASSERT_TRUE(degrees.ok());
    SharderOptions opt;
    opt.num_intervals = 4;
    opt.format = f;
    auto manifest = RunSharder(env.get(), "g", *degrees, opt);
    ASSERT_TRUE(manifest.ok());
    auto reread = ReadManifest(env.get(), "g");
    ASSERT_TRUE(reread.ok());
    uint64_t decoded_total = 0;
    for (const auto& meta : reread->subshards) {
      EXPECT_EQ(meta.format, f);
      // DecodedBytes is the exact in-memory footprint of the decoded blob.
      decoded_total += meta.DecodedBytes(reread->weighted);
    }
    auto store = GraphStore::Open(env.get(), "g");
    ASSERT_TRUE(store.ok());
    uint64_t memory_total = 0;
    for (uint32_t i = 0; i < 4; ++i) {
      for (uint32_t j = 0; j < 4; ++j) {
        auto ss = (*store)->LoadSubShard(i, j);
        ASSERT_TRUE(ss.ok());
        // Empty blobs included: DecodedBytes == MemoryBytes for every blob,
        // so the cache's accounting and the strategy's pin target agree
        // exactly.
        memory_total += ss->MemoryBytes();
      }
    }
    EXPECT_EQ(decoded_total, reread->TotalDecodedSubShardBytes(false));
    EXPECT_EQ(memory_total, decoded_total);
  }
}

// One store of `edges` in sub-shard format `f`, in a fresh MemEnv.
std::pair<std::unique_ptr<Env>, std::shared_ptr<GraphStore>> BuildInFormat(
    const EdgeList& edges, uint32_t p, bool transpose, SubShardFormat f) {
  auto env = NewMemEnv();
  auto degrees = RunDegreer(env.get(), edges, "g");
  NX_CHECK(degrees.ok());
  SharderOptions opt;
  opt.num_intervals = p;
  opt.build_transpose = transpose;
  opt.format = f;
  NX_CHECK(RunSharder(env.get(), "g", *degrees, opt).ok());
  auto store = GraphStore::Open(env.get(), "g");
  NX_CHECK(store.ok());
  return {std::move(env), *store};
}

// Every sub-shard of the two stores decodes to exactly the same in-memory
// representation.
void ExpectSameSubShards(const GraphStore& a, const GraphStore& b) {
  const uint32_t p = a.num_intervals();
  for (uint32_t i = 0; i < p; ++i) {
    for (uint32_t j = 0; j < p; ++j) {
      for (bool transpose : {false, true}) {
        if (transpose && !a.has_transpose()) continue;
        auto x = a.LoadSubShard(i, j, transpose);
        auto y = b.LoadSubShard(i, j, transpose);
        ASSERT_TRUE(x.ok());
        ASSERT_TRUE(y.ok());
        EXPECT_EQ(x->dsts, y->dsts);
        EXPECT_EQ(x->offsets, y->offsets);
        EXPECT_EQ(x->srcs, y->srcs);
        EXPECT_EQ(x->weights, y->weights);
      }
    }
  }
}

TEST(SharderTest, Nxs2StoreIsSmallerAndLoadsIdentically) {
  // A clustered random graph (the id space is dense, like relabeled real
  // graphs): the NXS2 store must be materially smaller, and every sub-shard
  // must decode to exactly the same in-memory representation.
  EdgeList edges = testing::RandomGraph(400, 8000, 21);
  auto [env1, s1] = BuildInFormat(edges, 4, true, SubShardFormat::kNxs1);
  auto [env2, s2] = BuildInFormat(edges, 4, true, SubShardFormat::kNxs2);

  auto size1 = env1->GetFileSize("g/subshards.nxs");
  auto size2 = env2->GetFileSize("g/subshards.nxs");
  ASSERT_TRUE(size1.ok());
  ASSERT_TRUE(size2.ok());
  EXPECT_LT(*size2 * 3, *size1 * 2) << "NXS2 " << *size2 << " vs NXS1 "
                                    << *size1;
  ExpectSameSubShards(*s1, *s2);
  // The decoded footprint is format-independent; the encoded sizes differ.
  EXPECT_EQ(s1->manifest().TotalDecodedSubShardBytes(false),
            s2->manifest().TotalDecodedSubShardBytes(false));

  // The R-MAT live-journal-sim graph at divisor 1024, P = 16, forward
  // only: the NXS2 store must be at least 1.8x smaller.
  auto lj = MakeDataset("live-journal-sim", 1024);
  ASSERT_TRUE(lj.ok()) << lj.status().ToString();
  auto [lj_env1, lj1] = BuildInFormat(*lj, 16, false, SubShardFormat::kNxs1);
  auto [lj_env2, lj2] = BuildInFormat(*lj, 16, false, SubShardFormat::kNxs2);
  const uint64_t bytes1 = lj1->TotalSubShardBytes(false);
  const uint64_t bytes2 = lj2->TotalSubShardBytes(false);
  EXPECT_GE(static_cast<double>(bytes1), 1.8 * static_cast<double>(bytes2))
      << "NXS2 " << bytes2 << " vs NXS1 " << bytes1;
  ExpectSameSubShards(*lj1, *lj2);
}

TEST(ManifestTest, IntervalOfFindsOwner) {
  EdgeList edges = testing::RandomGraph(100, 500, 11);
  BuiltGraph b = Build(edges, 4);
  for (uint32_t i = 0; i < b.manifest.num_intervals; ++i) {
    EXPECT_EQ(b.manifest.IntervalOf(b.manifest.interval_begin(i)), i);
    EXPECT_EQ(b.manifest.IntervalOf(b.manifest.interval_end(i) - 1), i);
  }
}

}  // namespace
}  // namespace nxgraph
