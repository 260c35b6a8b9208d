#include "src/server/graph_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/algos/programs.h"
#include "src/algos/reference.h"
#include "src/server/query.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

GraphServer::Options ServerOpts(int workers, uint64_t cache_budget) {
  GraphServer::Options o;
  o.cache_budget_bytes = cache_budget;
  o.num_workers = workers;
  o.io_threads = 2;
  o.prefetch_depth = 2;
  return o;
}

// The full mixed workload of one serving session: point BFS/SSSP/k-hop
// from several roots plus PageRank and WCC batch jobs.
struct MixedOutcomes {
  std::vector<Outcome<PointResult>> points;
  Outcome<BatchResult<double>> pagerank;
  Outcome<BatchResult<uint32_t>> wcc;
};

MixedOutcomes RunMixedWorkload(GraphServer& server) {
  const std::vector<VertexId> roots = {0, 42, 99, 150, 199};
  std::vector<QueryFuture<PointResult>> point_futures;
  for (VertexId root : roots) {
    PointQuery bfs;
    bfs.kind = QueryKind::kBfs;
    bfs.root = root;
    point_futures.push_back(server.Submit(bfs));
    PointQuery sssp;
    sssp.kind = QueryKind::kSssp;
    sssp.root = root;
    point_futures.push_back(server.Submit(sssp));
    PointQuery khop;
    khop.kind = QueryKind::kKHop;
    khop.root = root;
    khop.limits.max_hops = 2;
    point_futures.push_back(server.Submit(khop));
  }
  PageRankProgram pr;
  pr.num_vertices = server.store().num_vertices();
  BatchQuery pr_spec;
  pr_spec.max_iterations = 20;
  auto pr_future = server.SubmitBatch(pr, pr_spec);
  BatchQuery wcc_spec;
  wcc_spec.direction = EdgeDirection::kBoth;
  auto wcc_future = server.SubmitBatch(WccProgram{}, wcc_spec);

  MixedOutcomes out;
  for (auto& f : point_futures) out.points.push_back(f.Wait());
  out.pagerank = pr_future.Wait();
  out.wcc = wcc_future.Wait();
  return out;
}

// Every query of both mixes succeeded with bit-identical results.
void ExpectSameOutcomes(const MixedOutcomes& a, const MixedOutcomes& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t q = 0; q < a.points.size(); ++q) {
    SCOPED_TRACE("point query " + std::to_string(q));
    ASSERT_TRUE(a.points[q].status.ok()) << a.points[q].status.ToString();
    ASSERT_TRUE(b.points[q].status.ok()) << b.points[q].status.ToString();
    EXPECT_EQ(a.points[q].result.vertices, b.points[q].result.vertices);
    EXPECT_EQ(a.points[q].result.hops, b.points[q].result.hops);
    EXPECT_EQ(a.points[q].result.costs, b.points[q].result.costs);
  }
  ASSERT_TRUE(a.pagerank.status.ok());
  ASSERT_TRUE(b.pagerank.status.ok());
  EXPECT_EQ(a.pagerank.result.values, b.pagerank.result.values);
  ASSERT_TRUE(a.wcc.status.ok());
  ASSERT_TRUE(b.wcc.status.ok());
  EXPECT_EQ(a.wcc.result.values, b.wcc.result.values);
}

// The tentpole guarantee: N concurrent mixed queries against one shared
// cache produce results BIT-IDENTICAL to the same queries run strictly
// serially — across cache-budget regimes mirroring SPU (everything
// resident), MPU (partial residency, eviction pressure), and DPU (nothing
// resident, pure streaming).
TEST(ServerTest, MixedWorkloadSerialVsConcurrentBitIdentical) {
  EdgeList edges = testing::RandomGraph(200, 3000, 71, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4);
  const auto& m = ms.store->manifest();
  const uint64_t total_decoded =
      m.TotalDecodedSubShardBytes(false) + m.TotalDecodedSubShardBytes(true);
  const uint64_t budgets[] = {UINT64_MAX, total_decoded / 4, 0};

  for (const uint64_t budget : budgets) {
    SCOPED_TRACE("cache budget " + std::to_string(budget));
    MixedOutcomes concurrent, serial;
    {
      auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(6, budget));
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      concurrent = RunMixedWorkload(**server);
    }
    {
      auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(1, budget));
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      serial = RunMixedWorkload(**server);
    }
    ExpectSameOutcomes(concurrent, serial);
  }
}

// Concurrent results are not just self-consistent but correct: validate
// the whole mix against the single-threaded reference algorithms.
TEST(ServerTest, ConcurrentResultsMatchReferences) {
  EdgeList edges = testing::RandomGraph(200, 3000, 72, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const auto& m = ms.store->manifest();
  const uint64_t budget = (m.TotalDecodedSubShardBytes(false) +
                           m.TotalDecodedSubShardBytes(true)) /
                          4;
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(6, budget));
  ASSERT_TRUE(server.ok());
  MixedOutcomes out = RunMixedWorkload(**server);

  const std::vector<VertexId> roots = {0, 42, 99, 150, 199};
  for (size_t r = 0; r < roots.size(); ++r) {
    const auto bfs_ref = ReferenceBfs(*ref_graph, roots[r]);
    const auto sssp_ref = ReferenceSssp(*ref_graph, roots[r]);
    const auto& bfs = out.points[3 * r].result;
    const auto& sssp = out.points[3 * r + 1].result;
    const auto& khop = out.points[3 * r + 2].result;

    size_t reachable = 0;
    for (uint32_t d : bfs_ref) reachable += d != UINT32_MAX;
    ASSERT_EQ(bfs.vertices.size(), reachable);
    for (size_t k = 0; k < bfs.vertices.size(); ++k) {
      EXPECT_EQ(bfs.hops[k], bfs_ref[bfs.vertices[k]]);
    }
    ASSERT_EQ(sssp.vertices.size(), sssp.costs.size());
    for (size_t k = 0; k < sssp.vertices.size(); ++k) {
      EXPECT_NEAR(sssp.costs[k], sssp_ref[sssp.vertices[k]], 1e-4);
    }
    // The k-hop neighborhood is exactly the vertices within 2 hops.
    size_t within = 0;
    for (uint32_t d : bfs_ref) within += d != UINT32_MAX && d <= 2;
    ASSERT_EQ(khop.vertices.size(), within);
    for (size_t k = 0; k < khop.vertices.size(); ++k) {
      EXPECT_LE(khop.hops[k], 2u);
      EXPECT_EQ(khop.hops[k], bfs_ref[khop.vertices[k]]);
    }
  }

  const auto pr_ref = ReferencePageRank(*ref_graph, 0.85, 20);
  ASSERT_EQ(out.pagerank.result.values.size(), pr_ref.size());
  for (size_t v = 0; v < pr_ref.size(); ++v) {
    EXPECT_NEAR(out.pagerank.result.values[v], pr_ref[v], 1e-9);
  }
  const auto wcc_ref = ReferenceWcc(*ref_graph);
  EXPECT_EQ(out.wcc.result.values, wcc_ref);
}

TEST(ServerTest, AdmissionRejectsWhenQueueFull) {
  EdgeList edges = testing::RandomGraph(100, 1000, 73);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = ServerOpts(1, UINT64_MAX);
  opts.max_queue = 2;
  opts.start_paused = true;  // nothing dequeues until we say so
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  auto f1 = (*server)->Submit(q);
  auto f2 = (*server)->Submit(q);
  auto f3 = (*server)->Submit(q);  // queue holds 2: rejected immediately
  ASSERT_TRUE(f3.Done());
  EXPECT_TRUE(f3.Wait().status.IsResourceExhausted());

  (*server)->SetPaused(false);
  EXPECT_TRUE(f1.Wait().status.ok());
  EXPECT_TRUE(f2.Wait().status.ok());
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServerTest, QueueDeadlineShedsStaleQueries) {
  EdgeList edges = testing::RandomGraph(100, 1000, 74);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = ServerOpts(1, UINT64_MAX);
  opts.start_paused = true;
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  q.limits.deadline = std::chrono::milliseconds(5);
  auto f = (*server)->Submit(q);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  (*server)->SetPaused(false);
  EXPECT_TRUE(f.Wait().status.IsDeadlineExceeded());
  EXPECT_EQ((*server)->stats().shed, 1u);
}

TEST(ServerTest, BudgetCappedQueryReturnsPartialResult) {
  EdgeList edges = testing::RandomGraph(200, 3000, 75);
  auto ms = testing::BuildMemStore(edges, 4);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(2, UINT64_MAX));
  ASSERT_TRUE(server.ok());

  // A budget that cannot fund a single sub-shard still terminates cleanly:
  // the root (hop 0) is the whole partial result.
  PointQuery starved;
  starved.kind = QueryKind::kBfs;
  starved.root = 0;
  starved.limits.io_byte_budget = 1;
  const auto& starved_out = (*server)->Submit(starved).Wait();
  EXPECT_TRUE(starved_out.status.IsResourceExhausted())
      << starved_out.status.ToString();
  EXPECT_TRUE(starved_out.result.stats.truncated);
  ASSERT_EQ(starved_out.result.vertices, std::vector<VertexId>{0});
  EXPECT_EQ(starved_out.result.hops, std::vector<uint32_t>{0});

  // A budget funding only part of the scan yields a truncated prefix whose
  // hop values are still genuine path lengths (>= the true distance).
  const auto& m = ms.store->manifest();
  PointQuery partial;
  partial.kind = QueryKind::kBfs;
  partial.root = 0;
  partial.limits.io_byte_budget =
      m.subshard(0, 0).size + m.subshard(0, 1).size;
  const auto& partial_out = (*server)->Submit(partial).Wait();
  EXPECT_TRUE(partial_out.status.IsResourceExhausted());
  EXPECT_TRUE(partial_out.result.stats.truncated);
  ASSERT_FALSE(partial_out.result.vertices.empty());
  const auto bfs_ref = ReferenceBfs(*ref_graph, 0);
  for (size_t k = 0; k < partial_out.result.vertices.size(); ++k) {
    EXPECT_GE(partial_out.result.hops[k],
              bfs_ref[partial_out.result.vertices[k]]);
  }
  EXPECT_EQ((*server)->stats().truncated, 2u);
}

TEST(ServerTest, ShutdownAbortsQueuedQueries) {
  EdgeList edges = testing::RandomGraph(100, 1000, 76);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = ServerOpts(1, UINT64_MAX);
  opts.start_paused = true;
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());
  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  auto f = (*server)->Submit(q);
  server->reset();  // destroy with the query still queued
  EXPECT_TRUE(f.Wait().status.IsAborted());
}

TEST(ServerTest, InvalidRootFailsCleanly) {
  EdgeList edges = testing::RandomGraph(50, 400, 77);
  auto ms = testing::BuildMemStore(edges, 2);
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(2, UINT64_MAX));
  ASSERT_TRUE(server.ok());
  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 1000;  // out of range
  EXPECT_TRUE((*server)->Submit(q).Wait().status.IsInvalidArgument());
  EXPECT_EQ((*server)->stats().failed, 1u);
}

TEST(ServerTest, StatsTrackServingBehavior) {
  EdgeList edges = testing::RandomGraph(150, 2000, 78);
  auto ms = testing::BuildMemStore(edges, 2);
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(4, UINT64_MAX));
  ASSERT_TRUE(server.ok());
  std::vector<QueryFuture<PointResult>> futures;
  for (int n = 0; n < 12; ++n) {
    PointQuery q;
    q.kind = QueryKind::kBfs;
    q.root = static_cast<VertexId>(n * 7 % 150);
    futures.push_back((*server)->Submit(q));
  }
  uint64_t visited = 0;
  for (auto& f : futures) {
    const auto& out = f.Wait();
    EXPECT_TRUE(out.status.ok());
    visited += out.result.stats.subshards_visited;
  }
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.cache.hits + stats.cache.misses, 0u);
  EXPECT_GT(stats.cache_hit_rate, 0.0);  // 12 similar queries must share
  EXPECT_LE(stats.p50_ms, stats.p95_ms);
  EXPECT_LE(stats.p95_ms, stats.p99_ms);
  // hits + misses covers every cache lookup the queries made: one per
  // sub-shard visit.
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, visited);
}

// Force-scalar servers and servers on the best hardware decode path produce
// bit-identical results for the whole mixed workload, on NXS1 and NXS2
// stores alike, and both server- and query-level stats report the decode
// path and its counters.
TEST(ServerTest, DecodePathsBitIdenticalAndCountersReported) {
  EdgeList edges = testing::RandomGraph(200, 3000, 81, /*weighted=*/true);
  MixedOutcomes nxs1;
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    SCOPED_TRACE(SubShardFormatName(f));
    auto ms = testing::BuildMemStore(edges, 4, /*transpose=*/true, f);

    auto run_with = [&](SimdDecode mode) {
      GraphServer::Options o = ServerOpts(4, UINT64_MAX);
      o.simd_decode = mode;
      auto server = GraphServer::Open(ms.env.get(), "g", o);
      NX_CHECK(server.ok()) << server.status().ToString();
      MixedOutcomes out = RunMixedWorkload(**server);
      return std::make_pair(std::move(out), (*server)->stats());
    };
    auto [scalar, scalar_stats] = run_with(SimdDecode::kForceScalar);
    auto [simd, simd_stats] = run_with(SimdDecode::kAuto);
    ExpectSameOutcomes(scalar, simd);
    if (f == SubShardFormat::kNxs2) ExpectSameOutcomes(nxs1, scalar);

    EXPECT_EQ(scalar_stats.decode_path, "scalar");
    EXPECT_EQ(simd_stats.decode_path, DecodePathName(BestHardwareDecodePath()));
    // Bulk decodes only happen on NXS2 stores; NXS1 blobs are raw arrays.
    if (f == SubShardFormat::kNxs2) {
      EXPECT_GT(scalar_stats.bulk_decode_calls, 0u);
      EXPECT_GT(simd_stats.bulk_decode_calls, 0u);
      EXPECT_GT(simd_stats.decode_seconds, 0.0);
    } else {
      EXPECT_EQ(scalar_stats.bulk_decode_calls, 0u);
      EXPECT_EQ(simd_stats.bulk_decode_calls, 0u);
    }

    // Per-query attribution: every query reports its decode path; the sum
    // of per-query bulk decodes equals the server total (each decode runs
    // on the worker of the query that pinned the blob, hit or miss).
    uint64_t per_query_total = 0;
    for (const auto& p : scalar.points) {
      EXPECT_EQ(p.result.stats.decode_path, "scalar");
      per_query_total += p.result.stats.bulk_decode_calls;
    }
    per_query_total += scalar.pagerank.result.stats.bulk_decode_calls;
    per_query_total += scalar.wcc.result.stats.bulk_decode_calls;
    EXPECT_EQ(per_query_total, scalar_stats.bulk_decode_calls);
    if (f == SubShardFormat::kNxs1) nxs1 = std::move(scalar);
  }
}

// The cache holds encoded blobs, so every visit decodes on the query's own
// worker, hit or miss: a query whose every blob is a cache hit reports
// three bulk decode scans per NXS2 visit, and the server's totals grow by
// exactly what the query reports.
TEST(ServerTest, FullyCachedQueryReportsItsOwnDecodes) {
  EdgeList edges = testing::RandomGraph(200, 3000, 84);
  auto ms = testing::BuildMemStore(edges, 4);
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(1, UINT64_MAX));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  PageRankProgram pr;
  pr.num_vertices = ms.store->num_vertices();
  BatchQuery batch;
  batch.max_iterations = 2;
  PointQuery khop;
  khop.kind = QueryKind::kKHop;
  khop.root = 17;
  khop.limits.max_hops = 2;
  auto run = [&](bool point) {
    return point ? (*server)->Submit(khop).Wait().result.stats
                 : (*server)->SubmitBatch(pr, batch).Wait().result.stats;
  };
  for (const bool point : {false, true}) {
    SCOPED_TRACE(point ? "k-hop" : "pagerank");
    run(point);  // the first run fills the cache
    const GraphServer::Stats before = (*server)->stats();
    const QueryStats q = run(point);
    const GraphServer::Stats after = (*server)->stats();
    ASSERT_GT(q.subshards_visited, 0u);
    EXPECT_EQ(after.cache.hits - before.cache.hits, q.subshards_visited);
    EXPECT_EQ(after.cache.misses, before.cache.misses);
    EXPECT_EQ(q.bulk_decode_calls, 3 * q.subshards_visited);
    EXPECT_GT(q.decode_seconds, 0.0);
    EXPECT_EQ(after.bulk_decode_calls - before.bulk_decode_calls,
              q.bulk_decode_calls);
  }
}

// The round loop's load split on a hand-built manifest with known encoded
// blob sizes, which is what a load's pins hold.
TEST(ServerTest, SplitLoadsStaysWithinRowsAndBound) {
  Manifest m;
  m.num_intervals = 3;
  m.subshards.resize(9);
  m.subshards_transpose.resize(9);
  for (uint32_t k = 0; k < 9; ++k) {
    m.subshards[k].size = 4 + 40 * (k + 1);            // 44, 84, ..., 364
    m.subshards_transpose[k].size = 4 + 20 * (k + 1);  // 24, 44, ..., 184
  }
  const std::vector<Visit> visits = {
      {false, 0, 0}, {false, 0, 1}, {false, 0, 2}, {false, 1, 0},
      {false, 1, 2}, {false, 2, 1}, {true, 0, 1},  {true, 0, 2},
      {true, 2, 0},  {true, 2, 1},  {true, 2, 2}};
  auto encoded = [&](const Visit& v) {
    return m.subshard(v.i, v.j, v.transpose).size;
  };
  for (const uint64_t bound :
       {uint64_t{0}, uint64_t{1}, uint64_t{84}, uint64_t{128}, uint64_t{200},
        uint64_t{500}, UINT64_MAX}) {
    SCOPED_TRACE("max_load_bytes " + std::to_string(bound));
    const auto loads = server_internal::SplitLoads(m, visits, bound);
    size_t next = 0;
    for (const auto& load : loads) {
      ASSERT_EQ(load.begin, next);  // loads concatenate back to the visits
      ASSERT_LT(load.begin, load.end);
      next = load.end;
      uint64_t bytes = 0;
      for (size_t k = load.begin; k < load.end; ++k) {
        EXPECT_EQ(visits[k].transpose, visits[load.begin].transpose);
        EXPECT_EQ(visits[k].i, visits[load.begin].i);
        bytes += encoded(visits[k]);
      }
      if (load.end - load.begin > 1) {
        EXPECT_LE(bytes, bound);
      }
    }
    EXPECT_EQ(next, visits.size());
    if (bound == 0) {
      EXPECT_EQ(loads.size(), visits.size());
    }
    if (bound == UINT64_MAX) {
      EXPECT_EQ(loads.size(), 5u);  // one per planned (direction, row)
    }
  }
  // Greedy within a row: forward row 0 is 44 + 84 + 124 bytes.
  const auto loads = server_internal::SplitLoads(m, visits, 128);
  ASSERT_GE(loads.size(), 2u);
  EXPECT_EQ(loads[0].end, 2u);  // 44 + 84 fits, + 124 does not
  EXPECT_EQ(loads[1].begin, 2u);
  EXPECT_EQ(loads[1].end, 3u);
  EXPECT_TRUE(server_internal::SplitLoads(m, {}, 128).empty());
}

// A negative prefetch_depth means synchronous loads, as it does for the
// engine: no load runs ahead of the query, so no pin is outstanding at any
// cancellation checkpoint (a window of -1 used to become SIZE_MAX and pin
// the whole round at once).
TEST(ServerTest, NegativePrefetchDepthLoadsSynchronously) {
  EdgeList edges = testing::RandomGraph(2000, 16000, 83);
  auto ms = testing::BuildMemStore(edges, 16);
  std::atomic<SubShardCache*> cache{nullptr};
  std::atomic<uint64_t> checkpoints{0};
  std::atomic<uint64_t> max_pins{0};
  GraphServer::Options o = ServerOpts(1, UINT64_MAX);
  o.prefetch_depth = -1;
  o.boundary_hook = [&] {
    SubShardCache* c = cache.load();
    if (c == nullptr) return;
    checkpoints.fetch_add(1);
    const uint64_t pins = c->pinned_entries();
    uint64_t seen = max_pins.load();
    while (pins > seen && !max_pins.compare_exchange_weak(seen, pins)) {
    }
  };
  auto server = GraphServer::Open(ms.env.get(), "g", o);
  ASSERT_TRUE(server.ok());
  cache = (*server)->cache();

  PageRankProgram pr;
  pr.num_vertices = ms.store->num_vertices();
  BatchQuery spec;
  spec.max_iterations = 2;
  const auto out = (*server)->SubmitBatch(pr, spec).Wait();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.result.stats.iterations, 2);
  EXPECT_GT(checkpoints.load(), 2u);
  EXPECT_EQ(max_pins.load(), 0u);
}

}  // namespace
}  // namespace nxgraph
