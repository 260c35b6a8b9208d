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
  NX_ASSIGN_OR_RETURN(std::vector<SubShardCache::Pin> pins,
                      cache.GetPinnedRow(i, {j}));
  return pins[0].blob();
}

// The bytes stored for blob (i, j) of the forward shard file, read from
// the file itself.
std::string StoredBlob(const testing::MemStore& ms, uint32_t i, uint32_t j) {
  std::string file;
  NX_CHECK(ReadFileToString(ms.env.get(), "g/subshards.nxs", &file).ok());
  const SubShardMeta& meta = ms.store->manifest().subshard(i, j);
  return file.substr(meta.offset, meta.size);
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
  auto pin = cache.GetPinnedRow(0, {0});
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE((*pin)[0].pinned());
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
  (*pin)[0].Release();
  cache.Clear();
  EXPECT_FALSE(cache.Contains(0, 0));
  EXPECT_EQ(cache.bytes_cached(), 0u);
}

TEST(SubShardCacheTest, CountersTrackHitsMissesAndBytes) {
  EdgeList edges = testing::RandomGraph(100, 2000, 16);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, UINT64_MAX);
  ASSERT_TRUE(Get(cache, 0, 0).ok());            // miss
  ASSERT_TRUE(Get(cache, 0, 0).ok());            // hit
  ASSERT_TRUE(cache.GetPinnedRow(0, {1}).ok());  // miss
  ASSERT_TRUE(cache.GetPinnedRow(0, {1}).ok());  // hit
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.inserted_bytes, cache.bytes_cached());
  EXPECT_EQ(cache.bytes_cached(),
            BlobBytes(ms, 0, 0) + BlobBytes(ms, 0, 1));
}

// The serving regime: many threads pulling pinned row loads through one
// under-budgeted evictable cache. Each load pins a random set of one row's
// columns, so led runs, hits and followed loads mix. Every returned pin
// must carry the stored bytes regardless of concurrent eviction, and the
// counters must balance. Run under TSan in CI's serving job.
TEST(SubShardCacheTest, ConcurrentPinnedAccessUnderEviction) {
  EdgeList edges = testing::RandomGraph(200, 4000, 17);
  auto ms = testing::BuildMemStore(edges, 4);
  uint64_t total = 0;
  std::vector<std::string> stored;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      total += BlobBytes(ms, i, j);
      stored.push_back(StoredBlob(ms, i, j));
    }
  }
  // Roughly a quarter of the working set fits: constant eviction pressure.
  SubShardCache cache(ms.store, total / 4);
  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> requested{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, &requested, &stored, t] {
      uint32_t state = 0x9e3779b9u * static_cast<uint32_t>(t + 1);
      for (int n = 0; n < kIters; ++n) {
        state = state * 1664525u + 1013904223u;
        const uint32_t i = (state >> 8) % 4;
        const uint32_t mask = 1 + (state >> 16) % 15;  // a nonempty subset
        std::vector<uint32_t> js;
        for (uint32_t j = 0; j < 4; ++j) {
          if (mask & (1u << j)) js.push_back(j);
        }
        requested.fetch_add(js.size());
        auto pins = cache.GetPinnedRow(i, js);
        if (!pins.ok() || pins->size() != js.size()) {
          failures.fetch_add(1);
          continue;
        }
        // Touch the pinned bytes; eviction must never invalidate them.
        for (size_t k = 0; k < js.size(); ++k) {
          const SubShardCache::Pin& pin = (*pins)[k];
          if (pin.blob() == nullptr || *pin != stored[i * 4 + js[k]]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, requested.load());
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
  EXPECT_LE(cache.bytes_cached(), total / 4);
  EXPECT_EQ(cache.pinned_entries(), 0u);
}

// Expects `pin` to carry exactly the bytes stored for blob (i, j).
void ExpectBlob(const testing::MemStore& ms, const SubShardCache::Pin& pin,
                uint32_t i, uint32_t j) {
  ASSERT_NE(pin.blob(), nullptr);
  EXPECT_EQ(*pin, StoredBlob(ms, i, j));
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

// A run bridges an empty blob the call requested but another load already
// holds: one read covers the run, and that blob keeps the pin its own
// lookup gave it.
TEST(SubShardCacheTest, BridgedBlobTheCallDoesNotLeadKeepsItsPin) {
  auto ms = StoreWithEmptyBlob();
  SubShardCache cache(ms.store, UINT64_MAX);
  ASSERT_TRUE(Get(cache, 0, 1).ok());  // caches the empty blob (0, 1)

  const uint64_t before = ReadOps(ms);
  auto row = cache.GetPinnedRow(0, {0, 1, 2});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  for (uint32_t j = 0; j < 3; ++j) {
    EXPECT_TRUE((*row)[j].pinned());
    ExpectBlob(ms, (*row)[j], 0, j);
  }
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(cache.pinned_entries(), 3u);
  row->clear();
  EXPECT_EQ(cache.pinned_entries(), 0u);
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
  std::thread follower(
      [&] { follower_status = cache.GetPinnedRow(0, {1}).status(); });
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
  auto retry = cache.GetPinnedRow(0, {1}, false, &deadline);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(ReadOps(ms) - before, 1u);
  ExpectBlob(ms, (*retry)[0], 0, 1);
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
      auto pins = cache.GetPinnedRow(i, {j});
      ASSERT_TRUE(pins.ok()) << pins.status().ToString();
      ASSERT_EQ((*pins)[0].blob()->size(), BlobBytes(ms, i, j));
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

  auto pins = cache.GetPinnedRow(1, {2});
  ASSERT_TRUE(pins.ok());
  const std::string& blob = *(*pins)[0];
  DecodeTallies tallies;
  auto ss = ms.store->DecodeVerifiedBlob(
      1, 2, blob.data(), blob.size(), ResolveDecodePath(SimdDecode::kAuto),
      &tallies);
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
  auto row = (*store)->ReadVerifiedRow(0, 0, 2, false, /*max_rereads=*/1);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsCorruption());
  EXPECT_EQ((*store)->checksum_rereads(), 1u);
  EXPECT_TRUE((*store)->LoadSubShard(0, 0).ok());
}

// Decodes every blob of row i's span [j_begin, j_end) from `raw`, the
// bytes ReadVerifiedRow returned for it, with `path`.
std::vector<SubShard> DecodeRow(const GraphStore& store, uint32_t i,
                                uint32_t j_begin, uint32_t j_end,
                                const std::string& raw, DecodePath path) {
  const Manifest& m = store.manifest();
  const uint64_t base = m.subshard(i, j_begin).offset;
  std::vector<SubShard> row;
  for (uint32_t j = j_begin; j < j_end; ++j) {
    const SubShardMeta& meta = m.subshard(i, j);
    auto ss = store.DecodeVerifiedBlob(i, j, raw.data() + (meta.offset - base),
                                       meta.size, path, nullptr);
    NX_CHECK(ss.ok()) << ss.status().ToString();
    row.push_back(std::move(*ss));
  }
  return row;
}

// A verified row read plus a decode of each blob, on either decode path,
// is what LoadSubShard returns blob by blob, and both feed the store's
// decode counters.
TEST(GraphStoreTest, RawReadPlusDecodeMatchesDirectLoad) {
  EdgeList edges = testing::RandomGraph(90, 1500, 13);
  auto ms = testing::BuildMemStore(edges, 3);
  auto raw = ms.store->ReadVerifiedRow(1, 0, 3, false, /*max_rereads=*/1);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  for (DecodePath path :
       {DecodePath::kScalar, ResolveDecodePath(SimdDecode::kAuto)}) {
    const uint64_t calls = ms.store->bulk_decode_calls();
    const std::vector<SubShard> split =
        DecodeRow(*ms.store, 1, 0, 3, *raw, path);
    EXPECT_EQ(ms.store->bulk_decode_calls() - calls, 9u);  // 3 NXS2 blobs
    ASSERT_EQ(split.size(), 3u);
    for (uint32_t j = 0; j < 3; ++j) {
      auto direct = ms.store->LoadSubShard(1, j);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(split[j].dsts, direct->dsts);
      EXPECT_EQ(split[j].srcs, direct->srcs);
      EXPECT_EQ(split[j].offsets, direct->offsets);
    }
  }
}

// ReadVerifiedRow returns exactly the stored bytes of its span, and
// rejects rows and columns out of range, an empty span and a transpose the
// store lacks before reading anything.
TEST(GraphStoreTest, ReadVerifiedRowReturnsTheStoredBytes) {
  EdgeList edges = testing::RandomGraph(90, 1500, 13);
  auto ms = testing::BuildMemStore(edges, 3);
  auto row = ms.store->ReadVerifiedRow(1, 0, 3, false, /*max_rereads=*/1);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(*row, StoredBlob(ms, 1, 0) + StoredBlob(ms, 1, 1) +
                      StoredBlob(ms, 1, 2));
  auto one = ms.store->ReadVerifiedRow(2, 1, 2, false, /*max_rereads=*/1);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(*one, StoredBlob(ms, 2, 1));

  const uint64_t before = ReadOps(ms);
  auto rejected = [&](uint32_t i, uint32_t jb, uint32_t je, bool t) {
    return ms.store->ReadVerifiedRow(i, jb, je, t, 1)
        .status()
        .IsInvalidArgument();
  };
  EXPECT_TRUE(rejected(3, 0, 1, false));  // row out of range
  EXPECT_TRUE(rejected(1, 2, 4, false));  // columns out of range
  EXPECT_TRUE(rejected(1, 2, 1, false));  // columns reversed
  EXPECT_TRUE(rejected(1, 1, 1, false));  // an empty span
  auto forward_only =
      testing::BuildMemStore(edges, 3, /*transpose=*/false);
  EXPECT_TRUE(forward_only.store->ReadVerifiedRow(0, 0, 1, true, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(ReadOps(ms), before);
}

// k bit flips on consecutive reads of one span heal with k re-reads when
// the call allows at least k, and k + 1 flips fail with Corruption after
// exactly k re-reads; the healed bytes are the stored ones.
TEST(GraphStoreTest, ReadVerifiedRowRereadsUpToItsLimit) {
  EdgeList edges = testing::RandomGraph(90, 1800, 22);
  auto ms = testing::BuildMemStore(edges, 3);
  FlakyEnv flaky(ms.env.get());
  auto store = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const std::string stored =
      StoredBlob(ms, 1, 0) + StoredBlob(ms, 1, 1) + StoredBlob(ms, 1, 2);
  uint64_t scheduled = 0;
  auto flip_next = [&](int reads) {
    const uint64_t next = flaky.op_count(FlakyEnv::OpKind::kRead) + 1;
    for (int k = 0; k < reads; ++k) {
      flaky.ScheduleFault(FlakyEnv::OpKind::kRead, next + k,
                          FlakyEnv::FaultKind::kBitFlip);
    }
    scheduled += reads;
  };
  for (int k = 1; k <= 3; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    for (int limit : {k, k + 1}) {
      flip_next(k);
      const uint64_t rereads = (*store)->checksum_rereads();
      auto healed = (*store)->ReadVerifiedRow(1, 0, 3, false, limit);
      ASSERT_TRUE(healed.ok()) << healed.status().ToString();
      EXPECT_EQ(*healed, stored);
      EXPECT_EQ((*store)->checksum_rereads() - rereads,
                static_cast<uint64_t>(k));
    }
    flip_next(k + 1);
    const uint64_t rereads = (*store)->checksum_rereads();
    auto failed = (*store)->ReadVerifiedRow(1, 0, 3, false, k);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
    EXPECT_EQ((*store)->checksum_rereads() - rereads,
              static_cast<uint64_t>(k));
  }
  // With no re-reads allowed, one flip is a Corruption.
  flip_next(1);
  EXPECT_TRUE((*store)->ReadVerifiedRow(1, 0, 3, false, 0)
                  .status()
                  .IsCorruption());
  // Every flip landed on a read the calls made.
  EXPECT_EQ(flaky.injected_bit_flips(), scheduled);
}

// Env decorator that flips one bit at file offset `offset` of the shard
// file in the caller's buffer, on the next read that covers it.
class OffsetFlipEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;
  void FlipOnNextRead(uint64_t offset) { offset_ = offset; }

  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    NX_RETURN_NOT_OK(base_->NewRandomAccessFile(path, out));
    *out = std::make_unique<Reader>(this, std::move(*out));
    return Status::OK();
  }

 private:
  struct Reader : RandomAccessFile {
    Reader(OffsetFlipEnv* env, std::unique_ptr<RandomAccessFile> file)
        : env(env), file(std::move(file)) {}
    Status ReadAt(uint64_t offset, size_t n, void* buf,
                  size_t* bytes_read) const override {
      NX_RETURN_NOT_OK(file->ReadAt(offset, n, buf, bytes_read));
      const uint64_t at = env->offset_;
      if (at != kNone && at >= offset && at < offset + *bytes_read) {
        static_cast<char*>(buf)[at - offset] ^= 0x10;
        env->offset_ = kNone;
      }
      return Status::OK();
    }
    OffsetFlipEnv* env;
    std::unique_ptr<RandomAccessFile> file;
  };
  static constexpr uint64_t kNone = ~0ull;
  std::atomic<uint64_t> offset_{kNone};
};

// A run bridges an empty blob, and the empty blob's bytes are checked like
// every other blob's: a flip inside it is caught and re-read.
TEST(GraphStoreTest, FlipInABridgedEmptyBlobIsReread) {
  auto ms = StoreWithEmptyBlob();
  OffsetFlipEnv flipping(ms.env.get());
  auto store = GraphStore::Open(&flipping, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const SubShardMeta& empty = ms.store->manifest().subshard(0, 1);
  ASSERT_EQ(empty.num_edges, 0u);
  flipping.FlipOnNextRead(empty.offset + empty.size / 2);
  auto row = (*store)->ReadVerifiedRow(0, 0, 3, false, /*max_rereads=*/1);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ((*store)->checksum_rereads(), 1u);
  EXPECT_EQ(*row, StoredBlob(ms, 0, 0) + StoredBlob(ms, 0, 1) +
                      StoredBlob(ms, 0, 2));
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

  // Reference decode of row 1's blobs from the pure-NXS1 store.
  std::vector<SubShard> reference;
  for (uint32_t j = 0; j < 3; ++j) {
    auto ss = ms.store->LoadSubShard(1, j);
    ASSERT_TRUE(ss.ok());
    reference.push_back(std::move(*ss));
  }

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
  auto raw = (*mixed)->ReadVerifiedRow(1, 0, 3, false, /*max_rereads=*/1);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const std::vector<SubShard> row = DecodeRow(
      **mixed, 1, 0, 3, *raw, ResolveDecodePath(SimdDecode::kAuto));
  ASSERT_EQ(row.size(), reference.size());
  for (size_t j = 0; j < row.size(); ++j) {
    EXPECT_EQ(row[j].dsts, reference[j].dsts);
    EXPECT_EQ(row[j].offsets, reference[j].offsets);
    EXPECT_EQ(row[j].srcs, reference[j].srcs);
  }
  // Single loads and the verified-read/decode split agree as well.
  for (uint32_t i = 0; i < 3; ++i) {
    auto span = (*mixed)->ReadVerifiedRow(i, 0, 3, false, 1);
    ASSERT_TRUE(span.ok());
    const std::vector<SubShard> split =
        DecodeRow(**mixed, i, 0, 3, *span, DecodePath::kScalar);
    for (uint32_t j = 0; j < 3; ++j) {
      auto one = (*mixed)->LoadSubShard(i, j);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(one->srcs, split[j].srcs);
      EXPECT_EQ(one->dsts, split[j].dsts);
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
