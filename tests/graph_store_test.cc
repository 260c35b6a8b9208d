#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/algos/reference.h"
#include "src/io/flaky_env.h"
#include "src/prep/manifest.h"
#include "src/storage/graph_store.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

TEST(GraphStoreTest, OpensBuiltStore) {
  EdgeList edges = testing::RandomGraph(100, 1000, 1);
  auto ms = testing::BuildMemStore(edges, 4);
  EXPECT_EQ(ms.store->num_edges(), 1000u);
  EXPECT_EQ(ms.store->num_intervals(), 4u);
  EXPECT_TRUE(ms.store->has_transpose());
}

TEST(GraphStoreTest, MissingDirectoryIsNotFound) {
  auto env = NewMemEnv();
  auto store = GraphStore::Open(env.get(), "nothing-here");
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsNotFound());
}

TEST(GraphStoreTest, OutOfRangeSubShardRejected) {
  EdgeList edges = testing::RandomGraph(50, 200, 2);
  auto ms = testing::BuildMemStore(edges, 2);
  auto ss = ms.store->LoadSubShard(5, 0);
  ASSERT_FALSE(ss.ok());
  EXPECT_TRUE(ss.status().IsInvalidArgument());
}

TEST(GraphStoreTest, TransposeUnavailableWhenNotBuilt) {
  EdgeList edges = testing::RandomGraph(50, 200, 3);
  auto ms = testing::BuildMemStore(edges, 2, /*transpose=*/false);
  EXPECT_FALSE(ms.store->has_transpose());
  auto ss = ms.store->LoadSubShard(0, 0, /*transpose=*/true);
  ASSERT_FALSE(ss.ok());
  EXPECT_TRUE(ss.status().IsInvalidArgument());
}

TEST(GraphStoreTest, ReassembledEdgesMatchInput) {
  EdgeList edges = testing::RandomGraph(128, 2000, 4, false, 3);
  auto ms = testing::BuildMemStore(edges, 4);
  auto ref = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->edges.size(), edges.num_edges());
  EXPECT_EQ(ref->num_vertices, ms.store->num_vertices());
}

TEST(GraphStoreTest, DegreesMatchEdgeSet) {
  EdgeList edges = testing::RandomGraph(64, 640, 5);
  auto ms = testing::BuildMemStore(edges, 4);
  auto out_d = ms.store->LoadOutDegrees();
  auto in_d = ms.store->LoadInDegrees();
  ASSERT_TRUE(out_d.ok());
  ASSERT_TRUE(in_d.ok());
  auto ref = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref.ok());
  std::vector<uint32_t> expect_out(ms.store->num_vertices(), 0);
  std::vector<uint32_t> expect_in(ms.store->num_vertices(), 0);
  for (const Edge& e : ref->edges) {
    ++expect_out[e.src];
    ++expect_in[e.dst];
  }
  EXPECT_EQ(*out_d, expect_out);
  EXPECT_EQ(*in_d, expect_in);
}

TEST(GraphStoreTest, CorruptShardBlobDetected) {
  EdgeList edges = testing::RandomGraph(50, 400, 6);
  auto ms = testing::BuildMemStore(edges, 2);
  // Flip a byte in the middle of the sub-shards file.
  std::string data;
  ASSERT_TRUE(ReadFileToString(ms.env.get(), "g/subshards.nxs", &data).ok());
  data[data.size() / 2] ^= 0xFF;
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), "g/subshards.nxs", data).ok());
  auto store = GraphStore::Open(ms.env.get(), "g");
  ASSERT_TRUE(store.ok());
  bool saw_corruption = false;
  for (uint32_t i = 0; i < 2 && !saw_corruption; ++i) {
    for (uint32_t j = 0; j < 2 && !saw_corruption; ++j) {
      auto ss = (*store)->LoadSubShard(i, j);
      if (!ss.ok() && ss.status().IsCorruption()) saw_corruption = true;
    }
  }
  EXPECT_TRUE(saw_corruption);
}

// Positional reads the store's Env has served so far.
uint64_t ReadOps(const testing::MemStore& ms) {
  return ms.env->stats()->snapshot().read_ops;
}

// Pins SS_{i.j} and releases the pin at once, handing back the blob: one
// lookup, counted as one hit or one miss.
Result<std::shared_ptr<const std::string>> Get(SubShardCache& cache,
                                               uint32_t i, uint32_t j) {
  NX_ASSIGN_OR_RETURN(SubShardCache::Pin pin, cache.GetPinned(i, j));
  return pin.blob();
}

// What the cache charges for SS_{i.j}: its encoded size.
uint64_t BlobBytes(const testing::MemStore& ms, uint32_t i, uint32_t j) {
  return ms.store->manifest().subshard(i, j).size;
}

TEST(SubShardCacheTest, CachesWithinBudget) {
  EdgeList edges = testing::RandomGraph(100, 2000, 7);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, /*budget=*/UINT64_MAX);
  const uint64_t before = ReadOps(ms);
  auto a = Get(cache, 0, 0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  auto b = Get(cache, 0, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ReadOps(ms) - before, 1u);  // cache hit
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(cache.counters().inserted_bytes, BlobBytes(ms, 0, 0));
}

TEST(SubShardCacheTest, ZeroBudgetAlwaysReloads) {
  EdgeList edges = testing::RandomGraph(100, 2000, 8);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, /*budget=*/0);
  const uint64_t before = ReadOps(ms);
  auto a = Get(cache, 0, 0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  auto b = Get(cache, 0, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ReadOps(ms) - before, 2u);  // transient reload
  EXPECT_EQ(cache.bytes_cached(), 0u);
  EXPECT_EQ(cache.counters().inserted_bytes, 0u);
}

TEST(SubShardCacheTest, ClearEvictsEverything) {
  EdgeList edges = testing::RandomGraph(100, 2000, 9);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, UINT64_MAX);
  ASSERT_TRUE(Get(cache, 1, 1).ok());
  ASSERT_GT(cache.bytes_cached(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.bytes_cached(), 0u);
}

TEST(SubShardCacheTest, ConcurrentMissesShareOneLoad) {
  EdgeList edges = testing::RandomGraph(100, 2000, 11);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, UINT64_MAX);
  const uint64_t before = ReadOps(ms);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const std::string>> seen(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &seen, t] {
      auto r = Get(cache, 0, 0);
      ASSERT_TRUE(r.ok());
      seen[t] = *r;
    });
  }
  for (auto& th : threads) th.join();
  // All callers share the single load's object; the blob was read from
  // disk exactly once.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  EXPECT_EQ(cache.counters().inserted_bytes, BlobBytes(ms, 0, 0));
}

TEST(SubShardCacheTest, EvictableCacheEvictsLeastRecentlyUsed) {
  EdgeList edges = testing::RandomGraph(100, 2000, 14);
  auto ms = testing::BuildMemStore(edges, 2);
  uint64_t total = 0;
  for (uint32_t i = 0; i < 2; ++i)
    for (uint32_t j = 0; j < 2; ++j) total += BlobBytes(ms, i, j);
  // One byte short of everything: caching the fourth sub-shard must evict
  // exactly the least-recently-used one.
  SubShardCache cache(ms.store, total - 1);
  ASSERT_TRUE(Get(cache, 0, 0).ok());
  ASSERT_TRUE(Get(cache, 0, 1).ok());
  ASSERT_TRUE(Get(cache, 1, 0).ok());
  ASSERT_TRUE(Get(cache, 1, 1).ok());
  EXPECT_FALSE(cache.Contains(0, 0));  // LRU victim
  EXPECT_TRUE(cache.Contains(0, 1));
  EXPECT_TRUE(cache.Contains(1, 0));
  EXPECT_TRUE(cache.Contains(1, 1));
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.evicted_bytes, BlobBytes(ms, 0, 0));
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);

  // A hit refreshes recency: touch (0, 1), then force another eviction —
  // the victim must now be (1, 0), not the freshly-touched entry.
  ASSERT_TRUE(Get(cache, 0, 1).ok());
  ASSERT_TRUE(Get(cache, 0, 0).ok());
  EXPECT_TRUE(cache.Contains(0, 1));
  EXPECT_FALSE(cache.Contains(1, 0));
}

TEST(SubShardCacheTest, PinnedEntriesCannotBeEvicted) {
  EdgeList edges = testing::RandomGraph(100, 2000, 15);
  auto ms = testing::BuildMemStore(edges, 2);
  uint64_t total = 0;
  for (uint32_t i = 0; i < 2; ++i)
    for (uint32_t j = 0; j < 2; ++j) total += BlobBytes(ms, i, j);
  SubShardCache cache(ms.store, total - 1);
  auto pin = cache.GetPinned(0, 0);
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(pin->pinned());
  ASSERT_TRUE(Get(cache, 0, 1).ok());
  ASSERT_TRUE(Get(cache, 1, 0).ok());
  // (0, 0) is the LRU entry but holds a pin: eviction must pass over it
  // and take (0, 1) instead.
  ASSERT_TRUE(Get(cache, 1, 1).ok());
  EXPECT_TRUE(cache.Contains(0, 0));
  EXPECT_FALSE(cache.Contains(0, 1));
  // Clear also skips pinned entries...
  cache.Clear();
  EXPECT_TRUE(cache.Contains(0, 0));
  EXPECT_EQ(cache.bytes_cached(), BlobBytes(ms, 0, 0));
  // ...until the pin is released.
  pin.value().Release();
  cache.Clear();
  EXPECT_FALSE(cache.Contains(0, 0));
  EXPECT_EQ(cache.bytes_cached(), 0u);
}

TEST(SubShardCacheTest, CountersTrackHitsMissesAndBytes) {
  EdgeList edges = testing::RandomGraph(100, 2000, 16);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, UINT64_MAX);
  ASSERT_TRUE(Get(cache, 0, 0).ok());       // miss
  ASSERT_TRUE(Get(cache, 0, 0).ok());       // hit
  ASSERT_TRUE(cache.GetPinned(0, 1).ok());  // miss
  ASSERT_TRUE(cache.GetPinned(0, 1).ok());  // hit
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.inserted_bytes, cache.bytes_cached());
  EXPECT_EQ(cache.bytes_cached(),
            BlobBytes(ms, 0, 0) + BlobBytes(ms, 0, 1));
}

// The serving regime: many threads pulling pinned sub-shards through one
// under-budgeted evictable cache. Every returned pin must carry valid data
// regardless of concurrent eviction, and the counters must balance. Run
// under TSan in CI's serving job.
TEST(SubShardCacheTest, ConcurrentPinnedAccessUnderEviction) {
  EdgeList edges = testing::RandomGraph(200, 4000, 17);
  auto ms = testing::BuildMemStore(edges, 4);
  uint64_t total = 0;
  for (uint32_t i = 0; i < 4; ++i)
    for (uint32_t j = 0; j < 4; ++j) total += BlobBytes(ms, i, j);
  // Roughly a quarter of the working set fits: constant eviction pressure.
  SubShardCache cache(ms.store, total / 4);
  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      uint32_t state = 0x9e3779b9u * static_cast<uint32_t>(t + 1);
      for (int n = 0; n < kIters; ++n) {
        state = state * 1664525u + 1013904223u;
        const uint32_t i = (state >> 8) % 4;
        const uint32_t j = (state >> 16) % 4;
        auto pin = cache.GetPinned(i, j);
        if (!pin.ok() || pin->blob() == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        // Touch the pinned bytes; eviction must never invalidate them.
        const std::string& blob = **pin;
        if (!SubShard::ChecksumMatches(blob.data(), blob.size())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
  EXPECT_LE(cache.bytes_cached(), total / 4);
}

// Expects `pin` to carry exactly the bytes stored for blob (i, j).
void ExpectBlob(const testing::MemStore& ms, const SubShardCache::Pin& pin,
                uint32_t i, uint32_t j) {
  auto raw = ms.store->ReadSubShardRowBytes(i, j, j + 1, false);
  ASSERT_TRUE(raw.ok());
  ASSERT_NE(pin.blob(), nullptr);
  EXPECT_EQ(*pin, *raw);
}

// 40 vertices in 4 intervals of 10; row 0 has no edge into interval 1, so
// SS(0, 1) is empty and SS(0, 0), SS(0, 2), SS(0, 3) and SS(2, 1) are
// not.
testing::MemStore StoreWithEmptyBlob() {
  EdgeList edges;
  for (VertexIndex src = 0; src < 40; ++src) {
    for (VertexIndex k = 1; k <= 12; ++k) {
      const VertexIndex dst = (src * 7 + k * 3) % 40;
      if (src < 10 && dst >= 10 && dst < 20) continue;
      edges.Add(src, dst);
    }
  }
  auto ms = testing::BuildMemStore(edges, 4);
  const Manifest& m = ms.store->manifest();
  NX_CHECK(m.num_vertices == 40 && m.subshard(0, 1).num_edges == 0 &&
           m.subshard(0, 0).num_edges > 0 && m.subshard(0, 2).num_edges > 0 &&
           m.subshard(0, 3).num_edges > 0 && m.subshard(2, 1).num_edges > 0);
  return ms;
}

// A cold row load reads each run of missing blobs with one ReadAt; a run
// bridges an empty blob between two requested ones, but not a nonempty
// blob that was not requested.
TEST(SubShardCacheTest, ColdRowLoadIsOneRead) {
  auto ms = StoreWithEmptyBlob();
  SubShardCache cache(ms.store, UINT64_MAX);

  uint64_t before = ReadOps(ms);
  auto bridged = cache.GetPinnedRow(0, {0, 2, 3});
  ASSERT_TRUE(bridged.ok()) << bridged.status().ToString();
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  ASSERT_EQ(bridged->size(), 3u);
  const uint32_t cols[] = {0, 2, 3};
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE((*bridged)[k].pinned());
    ExpectBlob(ms, (*bridged)[k], 0, cols[k]);
  }
  // The bridged empty blob was read, not requested: it is not cached.
  EXPECT_FALSE(cache.Contains(0, 1));
  EXPECT_EQ(cache.pinned_entries(), 3u);

  before = ReadOps(ms);
  auto full = cache.GetPinnedRow(1, {0, 1, 2, 3});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  for (uint32_t j = 0; j < 4; ++j) ExpectBlob(ms, (*full)[j], 1, j);

  // A nonempty blob that is not requested is never read across.
  before = ReadOps(ms);
  auto gapped = cache.GetPinnedRow(2, {0, 2});
  ASSERT_TRUE(gapped.ok()) << gapped.status().ToString();
  EXPECT_EQ(ReadOps(ms) - before, 2u);
  EXPECT_FALSE(cache.Contains(2, 1));

  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 9u);
  bridged->clear();
  full->clear();
  gapped->clear();
  EXPECT_EQ(cache.pinned_entries(), 0u);

  // Columns must ascend within the row; a rejected call counts nothing.
  EXPECT_TRUE(cache.GetPinnedRow(1, {2, 1}).status().IsInvalidArgument());
  EXPECT_TRUE(cache.GetPinnedRow(1, {1, 1}).status().IsInvalidArgument());
  EXPECT_TRUE(cache.GetPinnedRow(1, {4}).status().IsInvalidArgument());
  EXPECT_EQ(cache.counters().misses, 9u);
}

// A resident blob in the middle of a row splits the run in two reads and
// counts as one hit; every requested blob is one hit or one miss.
TEST(SubShardCacheTest, CachedBlobSplitsRowRun) {
  EdgeList edges = testing::RandomGraph(80, 1600, 18);
  auto ms = testing::BuildMemStore(edges, 4);
  SubShardCache cache(ms.store, UINT64_MAX);
  ASSERT_TRUE(Get(cache, 1, 1).ok());

  const uint64_t before = ReadOps(ms);
  auto row = cache.GetPinnedRow(1, {0, 1, 2, 3});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(ReadOps(ms) - before, 2u);  // {0} and {2, 3}
  for (uint32_t j = 0; j < 4; ++j) ExpectBlob(ms, (*row)[j], 1, j);

  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 4u);
  EXPECT_EQ(c.hits + c.misses, 5u);  // one Get plus four row columns
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
}

// Two row loads whose column lists cross both finish: A leads {0, 1} and
// is held mid-read; B follows 1 and leads 2. B publishes 2 before it waits
// on 1, so neither waits on the other, and each blob is read once.
TEST(SubShardCacheTest, CrossingRowLoadsBothFinish) {
  EdgeList edges = testing::RandomGraph(90, 1800, 19);
  auto ms = testing::BuildMemStore(edges, 3);
  testing::ReadGate gate;
  testing::GatedEnv gated(ms.env.get(), &gate);
  auto store = GraphStore::Open(&gated, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SubShardCache cache(*store, UINT64_MAX);

  const uint64_t before = ReadOps(ms);
  gate.Arm();
  Result<std::vector<SubShardCache::Pin>> a = Status::Aborted("not run");
  Result<std::vector<SubShardCache::Pin>> b = Status::Aborted("not run");
  std::thread ta([&] { a = cache.GetPinnedRow(0, {0, 1}); });
  const bool a_reading =
      gate.WaitForReader(std::chrono::milliseconds(5000), 1);
  std::thread tb([&] { b = cache.GetPinnedRow(0, {1, 2}); });
  // B is held in its read of blob 2, so it has already joined A's load of
  // 1; a B that waited on 1 before reading 2 would never get here.
  const bool b_reading =
      a_reading && gate.WaitForReader(std::chrono::milliseconds(5000), 2);
  gate.Open();
  ta.join();
  tb.join();
  ASSERT_TRUE(a_reading);
  ASSERT_TRUE(b_reading) << "B waited on A's blob before reading its own";

  EXPECT_EQ(ReadOps(ms) - before, 2u);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectBlob(ms, (*a)[0], 0, 0);
  ExpectBlob(ms, (*a)[1], 0, 1);
  ExpectBlob(ms, (*b)[0], 0, 1);
  ExpectBlob(ms, (*b)[1], 0, 2);
  EXPECT_EQ(cache.counters().inserted_bytes,
            BlobBytes(ms, 0, 0) + BlobBytes(ms, 0, 1) + BlobBytes(ms, 0, 2));
  EXPECT_EQ(cache.counters().misses, 4u);
  a->clear();
  b->clear();
  EXPECT_EQ(cache.pinned_entries(), 0u);
}

// A run whose read fails hands the error to its leader and to a follower
// waiting on one of its blobs, leaves nothing in flight, and caches
// nothing: the next call reads the blob again and succeeds.
TEST(SubShardCacheTest, FailedRunReachesFollowersAndRetries) {
  EdgeList edges = testing::RandomGraph(90, 1800, 20);
  auto ms = testing::BuildMemStore(edges, 3);
  FlakyEnv flaky(ms.env.get());
  testing::ReadGate gate;
  testing::GatedEnv gated(&flaky, &gate);
  auto store = GraphStore::Open(&gated, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SubShardCache cache(*store, UINT64_MAX);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead,
                      flaky.op_count(FlakyEnv::OpKind::kRead) + 1,
                      FlakyEnv::FaultKind::kTransientError);

  gate.Arm();
  Status leader_status;
  Status follower_status;
  std::thread leader([&] {
    leader_status = cache.GetPinnedRow(0, {0, 1}).status();
  });
  const bool leader_reading =
      gate.WaitForReader(std::chrono::milliseconds(5000), 1);
  std::thread follower([&] { follower_status = cache.GetPinned(0, 1).status(); });
  // The follower's miss is counted when it joins the leader's load.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cache.counters().misses < 3 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  const uint64_t misses = cache.counters().misses;
  gate.Open();
  leader.join();
  follower.join();
  ASSERT_TRUE(leader_reading);
  ASSERT_EQ(misses, 3u);
  EXPECT_TRUE(leader_status.IsIOError()) << leader_status.ToString();
  EXPECT_TRUE(follower_status.IsIOError()) << follower_status.ToString();
  EXPECT_FALSE(cache.Contains(0, 0));
  EXPECT_FALSE(cache.Contains(0, 1));
  EXPECT_EQ(cache.pinned_entries(), 0u);

  // A leaked in-flight entry would make this call follow a load nobody
  // publishes; the deadline turns that hang into a failure.
  const CancelToken deadline = CancelToken::WithDeadline(
      std::chrono::steady_clock::now() + std::chrono::seconds(5));
  const uint64_t before = ReadOps(ms);
  auto retry = cache.GetPinned(0, 1, false, &deadline);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  ExpectBlob(ms, *retry, 0, 1);
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, 4u);
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
}

// An entry is the blob's encoded bytes, charged at exactly its
// SubShardMeta::size through inserts and evictions alike, and a pinned
// blob decodes on the caller's thread to what a direct load returns.
TEST(SubShardCacheTest, ChargesEachResidentBlobItsEncodedSize) {
  EdgeList edges = testing::RandomGraph(200, 4000, 21, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4);
  const Manifest& m = ms.store->manifest();
  uint64_t encoded = 0;
  uint64_t decoded = 0;
  for (const SubShardMeta& meta : m.subshards) {
    encoded += meta.size;
    decoded += meta.DecodedBytes(m.weighted);
  }
  ASSERT_LT(encoded, decoded);
  // Half the encoded graph fits: the random lookups keep evicting.
  SubShardCache cache(ms.store, encoded / 2);
  uint32_t state = 7;
  for (int n = 0; n < 200; ++n) {
    state = state * 1664525u + 1013904223u;
    const uint32_t i = (state >> 8) % 4;
    const uint32_t j = (state >> 16) % 4;
    {
      auto pin = cache.GetPinned(i, j);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      ASSERT_EQ((**pin).size(), BlobBytes(ms, i, j));
    }
    uint64_t resident = 0;
    for (uint32_t a = 0; a < 4; ++a) {
      for (uint32_t b = 0; b < 4; ++b) {
        if (cache.Contains(a, b)) resident += BlobBytes(ms, a, b);
      }
    }
    ASSERT_EQ(cache.bytes_cached(), resident);
    const SubShardCache::Counters c = cache.counters();
    ASSERT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
    ASSERT_LE(cache.bytes_cached(), encoded / 2);
  }
  EXPECT_GT(cache.counters().evictions, 0u);

  auto pin = cache.GetPinned(1, 2);
  ASSERT_TRUE(pin.ok());
  DecodeTallies tallies;
  auto ss = ms.store->DecodeVerifiedBlob(1, 2, **pin, &tallies);
  ASSERT_TRUE(ss.ok()) << ss.status().ToString();
  auto direct = ms.store->LoadSubShard(1, 2);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(ss->dsts, direct->dsts);
  EXPECT_EQ(ss->offsets, direct->offsets);
  EXPECT_EQ(ss->srcs, direct->srcs);
  EXPECT_EQ(ss->weights, direct->weights);
  EXPECT_EQ(tallies.bulk_decode_calls, 3u);  // one NXS2 blob
}

// A bit flipped in a led run's read fails a blob's checksum and is healed
// by one re-read before anything is cached. A flip on the re-read too
// fails the run: nothing is cached, and no flight or pin is left behind.
TEST(SubShardCacheTest, FlippedRunIsRereadBeforeCaching) {
  EdgeList edges = testing::RandomGraph(90, 1800, 22);
  auto ms = testing::BuildMemStore(edges, 3);
  FlakyEnv flaky(ms.env.get());
  auto store = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SubShardCache cache(*store, UINT64_MAX);
  auto next_read = [&] { return flaky.op_count(FlakyEnv::OpKind::kRead) + 1; };

  // Columns 0 and 1 are adjacent, so every byte of the run is checked.
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, next_read(),
                      FlakyEnv::FaultKind::kBitFlip);
  auto healed = cache.GetPinnedRow(0, {0, 1});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(flaky.injected_bit_flips(), 1u);
  EXPECT_EQ((*store)->checksum_rereads(), 1u);
  ExpectBlob(ms, (*healed)[0], 0, 0);
  ExpectBlob(ms, (*healed)[1], 0, 1);
  healed->clear();
  EXPECT_EQ(cache.counters().inserted_bytes,
            BlobBytes(ms, 0, 0) + BlobBytes(ms, 0, 1));

  const uint64_t first = next_read();
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, first,
                      FlakyEnv::FaultKind::kBitFlip);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, first + 1,
                      FlakyEnv::FaultKind::kBitFlip);
  auto failed = cache.GetPinnedRow(1, {0, 1});
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  EXPECT_EQ(flaky.injected_bit_flips(), 3u);
  EXPECT_EQ((*store)->checksum_rereads(), 2u);
  EXPECT_FALSE(cache.Contains(1, 0));
  EXPECT_FALSE(cache.Contains(1, 1));
  EXPECT_EQ(cache.pinned_entries(), 0u);

  // A leaked in-flight entry would make this call follow a load nobody
  // publishes; the deadline turns that hang into a failure.
  const CancelToken deadline = CancelToken::WithDeadline(
      std::chrono::steady_clock::now() + std::chrono::seconds(5));
  const uint64_t before = ReadOps(ms);
  auto retry = cache.GetPinnedRow(1, {0, 1}, false, &deadline);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  ExpectBlob(ms, (*retry)[0], 1, 0);
  ExpectBlob(ms, (*retry)[1], 1, 1);
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
}

TEST(GraphStoreTest, CorruptBlobMidRowFailsTheRowLoad) {
  EdgeList edges = testing::RandomGraph(80, 1200, 12);
  auto ms = testing::BuildMemStore(edges, 2);
  // Corrupt the second blob of row 0 (flip a byte inside its range).
  std::string data;
  ASSERT_TRUE(ReadFileToString(ms.env.get(), "g/subshards.nxs", &data).ok());
  const auto& meta = ms.store->manifest().subshard(0, 1, false);
  ASSERT_GT(meta.size, 12u);
  data[meta.offset + meta.size / 2] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), "g/subshards.nxs", data).ok());
  auto store = GraphStore::Open(ms.env.get(), "g");
  ASSERT_TRUE(store.ok());

  // Every blob of a row run is verified, not just the one at its start:
  // the clean first blob must not let the corrupt second one through, and
  // the one re-read sees the same bytes on the medium.
  auto row = (*store)->LoadSubShardRow(0, 0, 2, false);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsCorruption());
  EXPECT_EQ((*store)->checksum_rereads(), 1u);
  EXPECT_TRUE((*store)->LoadSubShard(0, 0).ok());
}

TEST(GraphStoreTest, RawReadPlusDecodeMatchesDirectLoad) {
  EdgeList edges = testing::RandomGraph(90, 1500, 13);
  auto ms = testing::BuildMemStore(edges, 3);
  auto raw = ms.store->ReadSubShardRowBytes(1, 0, 3, false);
  ASSERT_TRUE(raw.ok());
  auto split = ms.store->DecodeSubShardRow(1, 0, 3, false, *raw);
  ASSERT_TRUE(split.ok());
  auto direct = ms.store->LoadSubShardRow(1, 0, 3, false);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(split->size(), direct->size());
  for (size_t j = 0; j < split->size(); ++j) {
    EXPECT_EQ((*split)[j].dsts, (*direct)[j].dsts);
    EXPECT_EQ((*split)[j].srcs, (*direct)[j].srcs);
    EXPECT_EQ((*split)[j].offsets, (*direct)[j].offsets);
  }
}

// ReadVerifiedBlobs returns exactly the stored bytes of the requested
// blobs, dropping the ones between them, and rejects column lists that are
// empty, out of order or out of range before reading anything.
TEST(GraphStoreTest, ReadVerifiedBlobsReturnsRequestedBlobs) {
  EdgeList edges = testing::RandomGraph(90, 1500, 13);
  auto ms = testing::BuildMemStore(edges, 3);
  auto blobs = ms.store->ReadVerifiedBlobs(1, {0, 2}, false);
  ASSERT_TRUE(blobs.ok()) << blobs.status().ToString();
  ASSERT_EQ(blobs->size(), 2u);
  for (const uint32_t k : {0u, 1u}) {
    auto raw = ms.store->ReadSubShardRowBytes(1, 2 * k, 2 * k + 1, false);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ((*blobs)[k], *raw);
  }
  const uint64_t before = ReadOps(ms);
  EXPECT_TRUE(ms.store->ReadVerifiedBlobs(1, {}, false)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ms.store->ReadVerifiedBlobs(1, {2, 1}, false)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ms.store->ReadVerifiedBlobs(1, {1, 3}, false)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ms.store->ReadVerifiedBlobs(3, {0}, false)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(ReadOps(ms), before);
}

TEST(GraphStoreTest, MixedFormatStoreLoadsPerBlobMagic) {
  // A store whose shard file mixes NXS1 and NXS2 blobs must load: decode
  // dispatches on each blob's own magic, the manifest records per-blob
  // format and sizes. This is exactly the compatibility contract that lets
  // old NXS1 stores keep working next to new NXS2 ones.
  EdgeList edges = testing::RandomGraph(120, 1600, 17);
  auto ms = [&edges] {
    testing::MemStore m;
    m.env = NewMemEnv();
    BuildOptions options;
    options.num_intervals = 3;
    options.build_transpose = false;
    options.subshard_format = SubShardFormat::kNxs1;
    options.env = m.env.get();
    auto store = BuildGraphStore(edges, "g", options);
    NX_CHECK(store.ok());
    m.store = *store;
    return m;
  }();

  // Reference decode of every blob from the pure-NXS1 store.
  auto reference = ms.store->LoadSubShardRow(1, 0, 3, false);
  ASSERT_TRUE(reference.ok());

  // Rewrite the shard file re-encoding every second blob as NXS2, patching
  // offsets/sizes/formats in the manifest.
  std::string old_bytes;
  ASSERT_TRUE(
      ReadFileToString(ms.env.get(), "g/subshards.nxs", &old_bytes).ok());
  Manifest m = ms.store->manifest();
  std::string new_bytes;
  int blob_index = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      SubShardMeta& meta = m.subshards[i * 3 + j];
      std::string blob = old_bytes.substr(meta.offset, meta.size);
      if (blob_index++ % 2 == 1) {
        auto decoded = SubShard::Decode(blob.data(), blob.size(), i, j);
        ASSERT_TRUE(decoded.ok());
        blob = decoded->Encode(SubShardFormat::kNxs2);
        meta.format = SubShardFormat::kNxs2;
      }
      meta.offset = new_bytes.size();
      meta.size = blob.size();
      new_bytes += blob;
    }
  }
  ASSERT_TRUE(
      WriteStringToFile(ms.env.get(), "g/subshards.nxs", new_bytes).ok());
  ASSERT_TRUE(WriteManifest(ms.env.get(), "g", m).ok());

  auto mixed = GraphStore::Open(ms.env.get(), "g");
  ASSERT_TRUE(mixed.ok());
  auto row = (*mixed)->LoadSubShardRow(1, 0, 3, false);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_EQ(row->size(), reference->size());
  for (size_t j = 0; j < row->size(); ++j) {
    EXPECT_EQ((*row)[j].dsts, (*reference)[j].dsts);
    EXPECT_EQ((*row)[j].offsets, (*reference)[j].offsets);
    EXPECT_EQ((*row)[j].srcs, (*reference)[j].srcs);
  }
  // Single loads and the raw-read/decode split agree as well.
  for (uint32_t i = 0; i < 3; ++i) {
    auto raw = (*mixed)->ReadSubShardRowBytes(i, 0, 3, false);
    ASSERT_TRUE(raw.ok());
    auto split = (*mixed)->DecodeSubShardRow(i, 0, 3, false, *raw);
    ASSERT_TRUE(split.ok());
    for (uint32_t j = 0; j < 3; ++j) {
      auto one = (*mixed)->LoadSubShard(i, j);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(one->srcs, (*split)[j].srcs);
      EXPECT_EQ(one->dsts, (*split)[j].dsts);
    }
  }
}

TEST(GraphStoreTest, TotalSubShardBytesMatchesMetas) {
  EdgeList edges = testing::RandomGraph(90, 900, 10);
  auto ms = testing::BuildMemStore(edges, 3);
  uint64_t sum = 0;
  const auto& m = ms.store->manifest();
  for (const auto& meta : m.subshards) sum += meta.size;
  EXPECT_EQ(ms.store->TotalSubShardBytes(false), sum);
  auto size = ms.env->GetFileSize("g/subshards.nxs");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, sum);
}

}  // namespace
}  // namespace nxgraph
