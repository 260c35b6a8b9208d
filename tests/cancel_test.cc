// Cooperative cancellation tests: the CancelToken primitive (fan-out,
// lazy deadlines, callbacks, interruptible waits), its integration with
// RunWithRetry backoffs, single-flight cache waits, and the query runners
// (cancel at EVERY checkpoint must yield the deterministic partial result
// of the completed rounds), plus the GraphServer lifecycle — Cancel(id),
// deadline cancellation of running queries, Drain, the stall watchdog —
// and resource hygiene: no leaked pins or cache bytes after thousands of
// cancel/complete cycles, including cancels that land mid-retry on a
// flaky device.
#include "src/util/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/algos/programs.h"
#include "src/engine/engine.h"
#include "src/io/flaky_env.h"
#include "src/server/graph_server.h"
#include "src/server/query_runner.h"
#include "src/util/retry.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

using Clock = CancelToken::Clock;

// ---------------------------------------------------------------------------
// CancelToken unit tests
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, LifecycleAndReasonMapping) {
  CancelToken live;
  EXPECT_FALSE(live.cancelled());
  EXPECT_EQ(live.reason(), CancelReason::kNone);
  EXPECT_TRUE(live.ToStatus().ok());
  EXPECT_FALSE(live.has_deadline());

  CancelToken client;
  client.Cancel(CancelReason::kClient);
  EXPECT_TRUE(client.cancelled());
  EXPECT_EQ(client.reason(), CancelReason::kClient);
  EXPECT_TRUE(client.ToStatus().IsCancelled());
  // First reason wins; later cancels are no-ops.
  client.Cancel(CancelReason::kShutdown);
  EXPECT_EQ(client.reason(), CancelReason::kClient);

  CancelToken shutdown;
  shutdown.Cancel(CancelReason::kShutdown);
  EXPECT_TRUE(shutdown.ToStatus().IsCancelled());

  EXPECT_STREQ(CancelReasonName(CancelReason::kNone), "none");
  EXPECT_STREQ(CancelReasonName(CancelReason::kClient), "client");
  EXPECT_STREQ(CancelReasonName(CancelReason::kDeadline), "deadline");
  EXPECT_STREQ(CancelReasonName(CancelReason::kShutdown), "shutdown");
}

TEST(CancelTokenTest, DeadlineFiresLazilyOnObservation) {
  CancelToken expired =
      CancelToken::WithDeadline(Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(expired.has_deadline());
  EXPECT_LE(expired.RemainingSeconds(), 0.0);
  EXPECT_TRUE(expired.cancelled());
  EXPECT_EQ(expired.reason(), CancelReason::kDeadline);
  EXPECT_TRUE(expired.ToStatus().IsDeadlineExceeded());

  CancelToken future =
      CancelToken::WithDeadline(Clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(future.cancelled());
  EXPECT_GT(future.RemainingSeconds(), 3000.0);
  // An explicit cancel beats a pending deadline.
  future.Cancel(CancelReason::kClient);
  EXPECT_EQ(future.reason(), CancelReason::kClient);

  // No deadline => infinite remaining.
  CancelToken none;
  EXPECT_GT(none.RemainingSeconds(), 1e18);
}

TEST(CancelTokenTest, ChildFanOutAndDeadlineTightening) {
  CancelToken parent;
  CancelToken child = parent.Child();
  CancelToken grandchild = child.Child();
  EXPECT_FALSE(grandchild.cancelled());

  // Cancelling a child never touches the parent.
  CancelToken sibling = parent.Child();
  sibling.Cancel(CancelReason::kClient);
  EXPECT_TRUE(sibling.cancelled());
  EXPECT_FALSE(parent.cancelled());
  EXPECT_FALSE(child.cancelled());

  // Parent cancel fans out transitively with the same reason.
  parent.Cancel(CancelReason::kShutdown);
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(grandchild.cancelled());
  EXPECT_EQ(child.reason(), CancelReason::kShutdown);
  EXPECT_EQ(grandchild.reason(), CancelReason::kShutdown);

  // A child of an already-cancelled parent is born cancelled.
  CancelToken posthumous = parent.Child();
  EXPECT_TRUE(posthumous.cancelled());
  EXPECT_EQ(posthumous.reason(), CancelReason::kShutdown);

  // Children inherit the parent deadline and may only tighten it.
  const auto near = Clock::now() + std::chrono::seconds(10);
  const auto far = Clock::now() + std::chrono::hours(1);
  CancelToken deadlined = CancelToken::WithDeadline(near);
  EXPECT_EQ(deadlined.Child().deadline(), near);
  EXPECT_EQ(deadlined.Child(far).deadline(), near);  // cannot loosen
  const auto nearer = Clock::now() + std::chrono::seconds(1);
  EXPECT_EQ(deadlined.Child(nearer).deadline(), nearer);
}

TEST(CancelTokenTest, CallbacksFireOnceOutsideLocks) {
  CancelToken token;
  std::atomic<int> fired{0};
  // Callbacks may re-enter the token API: they run outside its lock.
  const uint64_t id = token.AddCallback([&] {
    EXPECT_TRUE(token.cancelled());
    fired.fetch_add(1);
  });
  EXPECT_NE(id, 0u);
  std::atomic<int> removed_fired{0};
  const uint64_t removed = token.AddCallback([&] { removed_fired.fetch_add(1); });
  token.RemoveCallback(removed);
  token.Cancel();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(removed_fired.load(), 0);
  token.Cancel();  // idempotent: no second firing
  EXPECT_EQ(fired.load(), 1);

  // Registering on an already-cancelled token runs inline and returns 0.
  std::atomic<int> inline_fired{0};
  EXPECT_EQ(token.AddCallback([&] { inline_fired.fetch_add(1); }), 0u);
  EXPECT_EQ(inline_fired.load(), 1);
}

TEST(CancelTokenTest, WaitForWakesEarlyOnCancel) {
  // A live token rides out the full (short) wait.
  CancelToken live;
  const auto t0 = Clock::now();
  EXPECT_FALSE(live.WaitFor(std::chrono::microseconds(2000)));
  EXPECT_GE(Clock::now() - t0, std::chrono::microseconds(1500));

  // Cancel from another thread interrupts a long wait.
  CancelToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.Cancel(CancelReason::kClient);
  });
  const auto w0 = Clock::now();
  EXPECT_TRUE(token.WaitFor(std::chrono::microseconds(10'000'000)));
  EXPECT_LT(Clock::now() - w0, std::chrono::seconds(5));
  canceller.join();

  // A deadline interrupts the wait too.
  CancelToken deadlined =
      CancelToken::WithDeadline(Clock::now() + std::chrono::milliseconds(5));
  EXPECT_TRUE(deadlined.WaitFor(std::chrono::microseconds(10'000'000)));
  EXPECT_EQ(deadlined.reason(), CancelReason::kDeadline);
}

// Many threads racing Cancel (distinct reasons) against readers: exactly
// one reason wins, every observer agrees, every callback runs once.
TEST(CancelTokenTest, ConcurrentCancelHammer) {
  for (int iter = 0; iter < 200; ++iter) {
    CancelToken token;
    std::atomic<int> callbacks{0};
    token.AddCallback([&] { callbacks.fetch_add(1); });
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    const CancelReason reasons[] = {CancelReason::kClient,
                                    CancelReason::kDeadline,
                                    CancelReason::kShutdown};
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) {
        }
        token.Cancel(reasons[t]);
      });
    }
    std::vector<CancelReason> seen(2, CancelReason::kNone);
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) {
        }
        while (!token.cancelled()) {
        }
        seen[t] = token.reason();
      });
    }
    go.store(true);
    for (auto& th : threads) th.join();
    EXPECT_EQ(callbacks.load(), 1);
    EXPECT_NE(token.reason(), CancelReason::kNone);
    EXPECT_EQ(seen[0], token.reason());
    EXPECT_EQ(seen[1], token.reason());
  }
}

// ---------------------------------------------------------------------------
// RunWithRetry integration
// ---------------------------------------------------------------------------

TEST(RetryCancelTest, CancelInterruptsBackoffSleep) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_initial_micros = 500'000;  // half-second backoffs
  policy.backoff_max_micros = 500'000;
  policy.op_deadline_seconds = 30;
  CancelToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.Cancel(CancelReason::kClient);
  });
  std::atomic<int> attempts{0};
  const auto t0 = Clock::now();
  Status s = RunWithRetry(
      policy, nullptr,
      [&] {
        attempts.fetch_add(1);
        return Status::TransientIOError("hiccup");
      },
      &token);
  canceller.join();
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  // Woke from the first backoff on cancel, far before the 500ms sleep
  // (generous bound for loaded CI machines).
  EXPECT_LT(Clock::now() - t0, std::chrono::milliseconds(400));
  EXPECT_GE(attempts.load(), 1);
}

TEST(RetryCancelTest, TokenDeadlineCapsRetryBudget) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_initial_micros = 100'000;
  policy.backoff_max_micros = 100'000;
  policy.op_deadline_seconds = 30;  // the token's 50ms must win
  CancelToken token =
      CancelToken::WithDeadline(Clock::now() + std::chrono::milliseconds(50));
  const auto t0 = Clock::now();
  Status s = RunWithRetry(policy, nullptr,
                          [&] { return Status::TransientIOError("hiccup"); },
                          &token);
  // Either the capped backoff budget ran out (the retryable error
  // surfaces) or a backoff wait observed the deadline (DeadlineExceeded);
  // both are correct — what is forbidden is funding the full 30s budget.
  EXPECT_FALSE(s.ok());
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));

  // A pre-cancelled token short-circuits before the op ever runs.
  CancelToken fired;
  fired.Cancel(CancelReason::kShutdown);
  std::atomic<int> ops{0};
  Status pre = RunWithRetry(policy, nullptr,
                            [&] {
                              ops.fetch_add(1);
                              return Status::OK();
                            },
                            &fired);
  EXPECT_TRUE(pre.IsCancelled());
  EXPECT_EQ(ops.load(), 0);
}

// ---------------------------------------------------------------------------
// Single-flight cache: follower detach, leader completion
// ---------------------------------------------------------------------------

using testing::GatedEnv;
using testing::ReadGate;

// A cancelled follower detaches from the in-flight load immediately; the
// leader (a different tenant) completes, publishes, and later callers are
// served from cache — one query's cancellation never poisons another's.
TEST(CacheCancelTest, FollowerDetachesWithoutPoisoningLeader) {
  EdgeList edges = testing::RandomGraph(80, 800, 91);
  auto ms = testing::BuildMemStore(edges, 2);
  ReadGate gate;
  GatedEnv gated(ms.env.get(), &gate);
  auto store = GraphStore::Open(&gated, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SubShardCache cache(*store, /*budget_bytes=*/UINT64_MAX);

  gate.Arm();
  Status leader_status;
  std::thread leader([&] {
    auto r = cache.GetPinnedRow(0, {0});  // no token: the leader finishes
    leader_status = r.status();
  });
  ASSERT_TRUE(gate.WaitForReader(std::chrono::milliseconds(5000)))
      << "leader never reached the gated read";

  CancelToken token;
  Status follower_status;
  std::thread follower([&] {
    auto r = cache.GetPinnedRow(0, {0}, false, &token);
    follower_status = r.status();
  });
  // Give the follower a moment to join the in-flight wait, then cancel:
  // it must return promptly while the leader is still stuck in the read.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.Cancel(CancelReason::kClient);
  follower.join();
  EXPECT_TRUE(follower_status.IsCancelled()) << follower_status.ToString();

  gate.Open();
  leader.join();
  EXPECT_TRUE(leader_status.ok()) << leader_status.ToString();
  EXPECT_TRUE(cache.Contains(0, 0));
  // The published entry serves a third tenant as a plain hit.
  const auto before = cache.counters();
  EXPECT_TRUE(cache.GetPinnedRow(0, {0}).ok());
  EXPECT_EQ(cache.counters().hits, before.hits + 1);
  EXPECT_EQ(cache.pinned_entries(), 0u);

  // A token that already fired short-circuits before touching the cache:
  // counted as neither hit nor miss.
  const auto pre = cache.counters();
  CancelToken fired;
  fired.Cancel();
  EXPECT_TRUE(
      cache.GetPinnedRow(0, {1}, false, &fired).status().IsCancelled());
  const auto post = cache.counters();
  EXPECT_EQ(pre.hits, post.hits);
  EXPECT_EQ(pre.misses, post.misses);
}

// ---------------------------------------------------------------------------
// Query-runner race matrix: cancel at EVERY checkpoint
// ---------------------------------------------------------------------------

struct RunnerFixture {
  explicit RunnerFixture(uint32_t intervals, uint64_t seed)
      : ms(testing::BuildMemStore(
            testing::RandomGraph(100, 1200, seed, /*weighted=*/true),
            intervals)),
        cache(ms.store, UINT64_MAX),
        io_pool(2) {
    auto d = ms.store->LoadOutDegrees();
    NX_CHECK(d.ok());
    out_degrees = *d;
    auto t = ms.store->LoadInDegrees();
    NX_CHECK(t.ok());
    in_degrees = *t;
  }

  QueryContext Context() {
    QueryContext ctx;
    ctx.store = ms.store.get();
    ctx.cache = &cache;
    ctx.io_pool = &io_pool;
    ctx.prefetch_depth = 2;
    ctx.out_degrees = &out_degrees;
    ctx.in_degrees = &in_degrees;
    return ctx;
  }

  testing::MemStore ms;
  SubShardCache cache;
  ThreadPool io_pool;
  std::vector<uint32_t> out_degrees;
  std::vector<uint32_t> in_degrees;
};

// Runs `run(ctx)` cancelling at checkpoint k for every k, and checks each
// partial result against `rerun(ctx, iterations)` — the same query run
// fault-free with its round cap at the iterations the cancelled run
// reports. `seed_only` validates the iterations == 0 partial.
template <typename RunFn, typename RerunFn, typename SeedCheck>
void CancelAtEveryCheckpoint(RunnerFixture& fx, RunFn run, RerunFn rerun,
                             SeedCheck seed_only) {
  // Count the checkpoints of an unperturbed run.
  uint64_t total_checkpoints = 0;
  {
    QueryContext ctx = fx.Context();
    ctx.boundary_hook = [&] { ++total_checkpoints; };
    auto out = run(ctx);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  }
  ASSERT_GT(total_checkpoints, 4u);

  for (uint64_t k = 0; k < total_checkpoints; ++k) {
    SCOPED_TRACE("cancel at checkpoint " + std::to_string(k));
    CancelToken token;
    uint64_t seen = 0;
    QueryContext ctx = fx.Context();
    ctx.cancel = &token;
    ctx.boundary_hook = [&] {
      if (seen++ == k) token.Cancel(CancelReason::kClient);
    };
    auto out = run(ctx);
    ASSERT_TRUE(out.status.IsCancelled()) << out.status.ToString();
    ASSERT_EQ(out.result.stats.cancel_reason, CancelReason::kClient);
    const int iters = out.result.stats.iterations;
    ASSERT_GE(iters, 0);
    if (iters == 0) {
      seed_only(out.result);
    } else {
      QueryContext clean = fx.Context();
      auto expected = rerun(clean, iters);
      ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();
      EXPECT_EQ(out.result.vertices_or_values(),
                expected.result.vertices_or_values());
    }
    EXPECT_EQ(fx.cache.pinned_entries(), 0u)
        << "cancelled run leaked a cache pin";
    const auto c = fx.cache.counters();
    EXPECT_EQ(fx.cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
  }
}

// Adapters so point and batch results compare through one helper.
template <typename V>
struct PointCmp {
  std::vector<VertexId> vertices;
  std::vector<V> values;
  QueryStats stats;
  std::pair<std::vector<VertexId>, std::vector<V>> vertices_or_values() const {
    return {vertices, values};
  }
};
template <typename V>
struct BatchCmp {
  std::vector<V> values;
  QueryStats stats;
  const std::vector<V>& vertices_or_values() const { return values; }
};

template <typename V>
Outcome<PointCmp<V>> WrapPoint(Outcome<SparseTraversalResult<V>> o) {
  Outcome<PointCmp<V>> w;
  w.status = std::move(o.status);
  w.result.vertices = std::move(o.result.vertices);
  w.result.values = std::move(o.result.values);
  w.result.stats = o.result.stats;
  return w;
}
template <typename V>
Outcome<BatchCmp<V>> WrapBatch(Outcome<BatchResult<V>> o) {
  Outcome<BatchCmp<V>> w;
  w.status = std::move(o.status);
  w.result.values = std::move(o.result.values);
  w.result.stats = o.result.stats;
  return w;
}

TEST(RunnerCancelTest, BfsCancelAtEveryCheckpointIsDeterministic) {
  RunnerFixture fx(2, 92);
  BfsProgram bfs;
  bfs.root = 3;
  CancelAtEveryCheckpoint(
      fx,
      [&](QueryContext& ctx) {
        return WrapPoint(RunPointTraversal(bfs, ctx, 0, 0));
      },
      [&](QueryContext& ctx, int rounds) {
        return WrapPoint(RunPointTraversal(bfs, ctx, rounds, 0));
      },
      [&](const PointCmp<uint32_t>& r) {
        EXPECT_EQ(r.vertices, std::vector<VertexId>{3});
        EXPECT_EQ(r.values, std::vector<uint32_t>{0});
      });
}

TEST(RunnerCancelTest, SsspCancelAtEveryCheckpointIsDeterministic) {
  RunnerFixture fx(2, 93);
  CostCappedSsspProgram sssp;
  sssp.root = 7;
  CancelAtEveryCheckpoint(
      fx,
      [&](QueryContext& ctx) {
        return WrapPoint(RunPointTraversal(sssp, ctx, 0, 0));
      },
      [&](QueryContext& ctx, int rounds) {
        return WrapPoint(RunPointTraversal(sssp, ctx, rounds, 0));
      },
      [&](const PointCmp<float>& r) {
        EXPECT_EQ(r.vertices, std::vector<VertexId>{7});
        EXPECT_EQ(r.values, std::vector<float>{0.0f});
      });
}

TEST(RunnerCancelTest, PageRankCancelAtEveryCheckpointIsDeterministic) {
  RunnerFixture fx(2, 94);
  PageRankProgram pr;
  pr.num_vertices = fx.ms.store->num_vertices();
  const std::vector<double> init(
      pr.num_vertices, 1.0 / static_cast<double>(pr.num_vertices));
  CancelAtEveryCheckpoint(
      fx,
      [&](QueryContext& ctx) {
        return WrapBatch(
            RunBatchQuery(pr, ctx, EdgeDirection::kForward, 5, 0));
      },
      [&](QueryContext& ctx, int iters) {
        return WrapBatch(
            RunBatchQuery(pr, ctx, EdgeDirection::kForward, iters, 0));
      },
      [&](const BatchCmp<double>& r) {
        // 0 completed iterations: the partial result is the Init values.
        EXPECT_EQ(r.values, init);
      });
}

// A load that FAILS (an I/O error, not a cancellation) returns its status
// with the rounds that fully applied: the failing round is never counted.
// Sweeps one injected read failure over the first 16 reads of a point and a
// batch run; QueryProgress names the round the failing load belonged to.
TEST(RunnerCancelTest, FailedLoadCountsOnlyAppliedRounds) {
  EdgeList edges = testing::RandomGraph(100, 1200, 98, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 2);
  int failures = 0;
  int failures_after_round_1 = 0;
  for (const bool batch : {false, true}) {
    for (uint64_t k = 1; k <= 16; ++k) {
      SCOPED_TRACE(std::string(batch ? "pagerank" : "bfs") + ", fail read " +
                   std::to_string(k));
      FlakyEnv flaky(ms.env.get());
      auto store = GraphStore::Open(&flaky, "g");
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto degrees = (*store)->LoadOutDegrees();
      ASSERT_TRUE(degrees.ok());
      // A zero budget caches nothing, so every round reads its blobs again.
      SubShardCache cache(*store, 0);
      ThreadPool io_pool(2);
      QueryProgress progress;
      QueryContext ctx;
      ctx.store = store->get();
      ctx.cache = &cache;
      ctx.io_pool = &io_pool;
      ctx.prefetch_depth = 2;
      ctx.retry.max_attempts = 1;
      ctx.out_degrees = &*degrees;
      ctx.progress = &progress;
      flaky.ScheduleFault(
          FlakyEnv::OpKind::kRead,
          flaky.op_count(FlakyEnv::OpKind::kRead) + k,
          FlakyEnv::FaultKind::kTransientError);

      Status status;
      int iterations = 0;
      if (batch) {
        PageRankProgram pr;
        pr.num_vertices = (*store)->num_vertices();
        auto out = RunBatchQuery(pr, ctx, EdgeDirection::kForward, 6, 0);
        status = out.status;
        iterations = out.result.stats.iterations;
      } else {
        BfsProgram bfs;
        bfs.root = 3;
        auto out = RunPointTraversal(bfs, ctx, 0, 0);
        status = out.status;
        iterations = out.result.stats.iterations;
      }
      if (status.ok()) continue;  // the run made fewer than k reads
      ASSERT_TRUE(status.IsIOError()) << status.ToString();
      ASSERT_EQ(static_cast<QueryPhase>(progress.phase.load()),
                QueryPhase::kLoad);
      const int round = static_cast<int>(progress.round.load());
      EXPECT_EQ(iterations, round - 1);
      ++failures;
      if (round > 1) ++failures_after_round_1;
      EXPECT_EQ(cache.pinned_entries(), 0u) << "failed run leaked a pin";
    }
  }
  // The sweep is not vacuous: failures land in round 1 and after it.
  EXPECT_GT(failures, failures_after_round_1);
  EXPECT_GT(failures_after_round_1, 0);
}

// ---------------------------------------------------------------------------
// Engine::Run iteration-boundary cancellation
// ---------------------------------------------------------------------------

TEST(EngineCancelTest, RunObservesTokenAtIterationBoundary) {
  EdgeList edges = testing::RandomGraph(150, 2000, 95);
  auto ms = testing::BuildMemStore(edges, 2);
  PageRankProgram pr;
  pr.num_vertices = ms.store->num_vertices();

  RunOptions opt;
  opt.max_iterations = 10;
  // A pre-fired token stops the run at the first boundary.
  CancelToken fired;
  fired.Cancel(CancelReason::kClient);
  opt.cancel = &fired;
  {
    Engine<PageRankProgram> engine(ms.store, pr, opt);
    auto r = engine.Run();
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  }
  // An expired deadline surfaces as DeadlineExceeded.
  CancelToken expired =
      CancelToken::WithDeadline(Clock::now() - std::chrono::milliseconds(1));
  opt.cancel = &expired;
  {
    Engine<PageRankProgram> engine(ms.store, pr, opt);
    EXPECT_TRUE(engine.Run().status().IsDeadlineExceeded());
  }
  // A cancelled run leaves nothing behind that breaks a clean rerun.
  opt.cancel = nullptr;
  Engine<PageRankProgram> engine(ms.store, pr, opt);
  auto r = engine.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->iterations, 10u);
}

// ---------------------------------------------------------------------------
// GraphServer lifecycle
// ---------------------------------------------------------------------------

GraphServer::Options LifecycleOpts(int workers) {
  GraphServer::Options o;
  o.cache_budget_bytes = UINT64_MAX;
  o.num_workers = workers;
  o.io_threads = 2;
  o.prefetch_depth = 2;
  return o;
}

TEST(ServerCancelTest, CancelQueuedQueryCompletesImmediately) {
  EdgeList edges = testing::RandomGraph(80, 800, 96);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = LifecycleOpts(1);
  opts.start_paused = true;
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  auto f = (*server)->Submit(q);
  ASSERT_NE(f.id(), 0u);
  EXPECT_TRUE((*server)->Cancel(f.id()));
  EXPECT_TRUE(f.Done());  // completed without ever running
  EXPECT_TRUE(f.Wait().status.IsCancelled());
  EXPECT_FALSE((*server)->Cancel(f.id()));   // no longer live
  EXPECT_FALSE((*server)->Cancel(999999u));  // never existed
  (*server)->SetPaused(false);
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServerCancelTest, CancelRunningQueryReturnsDeterministicPartial) {
  EdgeList edges = testing::RandomGraph(150, 2000, 97);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = LifecycleOpts(1);
  // Slow every checkpoint so the cancel reliably lands mid-run.
  opts.boundary_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PageRankProgram pr;
  pr.num_vertices = (*server)->store().num_vertices();
  BatchQuery spec;
  spec.max_iterations = 2000;
  auto f = (*server)->SubmitBatch(pr, spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE((*server)->Cancel(f.id()));
  const auto out = f.Wait();
  ASSERT_TRUE(out.status.IsCancelled()) << out.status.ToString();
  EXPECT_EQ(out.result.stats.cancel_reason, CancelReason::kClient);

  // The partial equals the same query capped at the reported iterations.
  const int iters = out.result.stats.iterations;
  if (iters > 0) {
    BatchQuery capped;
    capped.max_iterations = iters;
    const auto expected = (*server)->SubmitBatch(pr, capped).Wait();
    ASSERT_TRUE(expected.status.ok());
    EXPECT_EQ(out.result.values, expected.result.values);
  }
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.deadline_cancelled, 0u);
  EXPECT_EQ((*server)->cache()->pinned_entries(), 0u);
}

// A cancelled query stops loading: after Cancel it may finish only the
// reads its prefetch window had already issued, so it releases within one
// load. With no cache every load is one Env read; the gate holds the first
// loads so the cancel lands mid-round. Reads are counted, not timed.
TEST(ServerCancelTest, CancelledQueryReadsAtMostItsPrefetchWindow) {
  EdgeList edges = testing::RandomGraph(150, 2000, 103);
  auto ms = testing::BuildMemStore(edges, 4);
  ReadGate gate;
  GatedEnv gated(ms.env.get(), &gate);
  GraphServer::Options opts = LifecycleOpts(1);
  opts.cache_budget_bytes = 0;  // every load reads
  // The third checkpoint is the first after a load was consumed. Stall
  // there, so that a load issued after Cancel reaches the Env before the
  // query unwinds, and is counted.
  std::atomic<int> checkpoints{0};
  opts.boundary_hook = [&checkpoints] {
    if (checkpoints.fetch_add(1) >= 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  auto server = GraphServer::Open(&gated, "g", opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  gate.Arm();
  PageRankProgram pr;
  pr.num_vertices = (*server)->store().num_vertices();
  BatchQuery spec;
  spec.max_iterations = 20;  // finite even if the cancel were lost
  auto f = (*server)->SubmitBatch(pr, spec);
  const bool held = gate.WaitForReader(std::chrono::milliseconds(5000));
  // Let the worker pass its first load's checkpoint and block on that load.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t reads_before = ms.env->stats()->snapshot().read_ops;
  const bool cancelled = (*server)->Cancel(f.id());
  gate.Open();  // before any ASSERT, so a failure cannot hang the server
  ASSERT_TRUE(held) << "the query never reached a gated load";
  ASSERT_TRUE(cancelled);
  const auto& out = f.Wait();
  EXPECT_TRUE(out.status.IsCancelled()) << out.status.ToString();
  EXPECT_LE(ms.env->stats()->snapshot().read_ops - reads_before,
            static_cast<uint64_t>(opts.prefetch_depth));
  EXPECT_EQ((*server)->cache()->pinned_entries(), 0u);
}

TEST(ServerCancelTest, RunningDeadlineCancelCountedSeparatelyFromShed) {
  EdgeList edges = testing::RandomGraph(150, 2000, 98);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = LifecycleOpts(1);
  opts.boundary_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PageRankProgram pr;
  pr.num_vertices = (*server)->store().num_vertices();
  BatchQuery spec;
  spec.max_iterations = 2000;
  spec.limits.deadline = std::chrono::milliseconds(40);
  const auto out = (*server)->SubmitBatch(pr, spec).Wait();
  ASSERT_TRUE(out.status.IsDeadlineExceeded()) << out.status.ToString();
  EXPECT_EQ(out.result.stats.cancel_reason, CancelReason::kDeadline);
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.deadline_cancelled, 1u);  // ran, then hit its deadline
  EXPECT_EQ(stats.shed, 0u);                // never waited it out queued
}

TEST(ServerCancelTest, DrainClosesAdmissionAndCancelsStragglers) {
  EdgeList edges = testing::RandomGraph(150, 2000, 99);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = LifecycleOpts(2);
  opts.boundary_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PageRankProgram pr;
  pr.num_vertices = (*server)->store().num_vertices();
  BatchQuery spec;
  spec.max_iterations = 2000;
  std::vector<QueryFuture<BatchResult<double>>> futures;
  for (int n = 0; n < 6; ++n) futures.push_back((*server)->SubmitBatch(pr, spec));

  const auto t0 = Clock::now();
  EXPECT_TRUE((*server)->Drain(std::chrono::milliseconds(50)).ok());
  // Generous bound: 50ms grace + one checkpoint's unwind, not the 2000
  // iterations the queries asked for.
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(20));

  uint64_t drained = 0;
  for (auto& f : futures) {
    ASSERT_TRUE(f.Done());  // idle server: every future settled
    const auto& out = f.Wait();
    ASSERT_TRUE(out.status.ok() || out.status.IsCancelled())
        << out.status.ToString();
    if (out.status.IsCancelled()) {
      // A straggler cancelled MID-RUN carries the shutdown reason in its
      // (partial-result) stats; one swept while still queued aborts with
      // empty stats and never ran at all.
      EXPECT_TRUE(out.result.stats.cancel_reason == CancelReason::kShutdown ||
                  out.result.stats.cancel_reason == CancelReason::kNone);
      ++drained;
    }
  }
  const auto stats = (*server)->stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.drain_cancelled, drained);
  EXPECT_EQ(stats.completed + stats.drain_cancelled, 6u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.queued, 0u);

  // Admission is closed for good; Drain is idempotent and fast once idle.
  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  EXPECT_TRUE((*server)->Submit(q).Wait().status.IsAborted());
  EXPECT_TRUE((*server)->Drain(std::chrono::milliseconds(10)).ok());
  EXPECT_EQ((*server)->cache()->pinned_entries(), 0u);
}

TEST(ServerCancelTest, WatchdogFlagsQueryStuckPastItsDeadline) {
  EdgeList edges = testing::RandomGraph(100, 1200, 100);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = LifecycleOpts(1);
  opts.watchdog_interval_seconds = 0.002;
  opts.stall_multiplier = 2.0;
  // The hook wedges the (only) query for ~150ms without reaching another
  // checkpoint — exactly the failure mode the watchdog exists to flag.
  opts.boundary_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  };
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  q.limits.deadline = std::chrono::milliseconds(10);
  auto f = (*server)->Submit(q);

  bool flagged = false;
  for (int poll = 0; poll < 100 && !flagged; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto stats = (*server)->stats();
    if (stats.stalled > 0) {
      flagged = true;
      ASSERT_FALSE(stats.stalled_queries.empty());
      EXPECT_EQ(stats.stalled_queries[0].id, f.id());
      EXPECT_GT(stats.stalled_queries[0].running_seconds, 0.02);
    }
  }
  EXPECT_TRUE(flagged) << "watchdog never flagged the wedged query";
  // Once the hook returns, the deadline cancel lands at that checkpoint.
  EXPECT_TRUE(f.Wait().status.IsDeadlineExceeded());
  EXPECT_EQ((*server)->stats().stalled, 1u);  // flagged once, not per scan
}

// ---------------------------------------------------------------------------
// Hygiene soaks: cancel/complete races, cancel-during-retry
// ---------------------------------------------------------------------------

// 10k queries, half racing a client Cancel against their own completion:
// every future settles with OK or Cancelled, the per-reason counters add
// up, and the shared cache ends with zero pins and a consistent byte
// ledger.
TEST(ServerCancelTest, CancelVersusCompleteHammer) {
  EdgeList edges = testing::RandomGraph(60, 500, 101);
  auto ms = testing::BuildMemStore(edges, 2);
  constexpr int kTotal = 10'000;
  constexpr int kWave = 200;
  GraphServer::Options opts = LifecycleOpts(4);
  opts.max_queue = kWave;  // a whole wave may be queued at once
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  uint64_t completed = 0, cancelled = 0;
  for (int wave = 0; wave < kTotal / kWave; ++wave) {
    std::vector<QueryFuture<PointResult>> futures;
    futures.reserve(kWave);
    for (int n = 0; n < kWave; ++n) {
      PointQuery q;
      q.kind = QueryKind::kBfs;
      q.root = static_cast<VertexId>((wave + n) % 60);
      futures.push_back((*server)->Submit(q));
    }
    // Race cancels against completion from a second thread: every other
    // query gets a Cancel that may land queued, mid-run, or too late.
    std::thread canceller([&] {
      for (int n = 0; n < kWave; n += 2) (*server)->Cancel(futures[n].id());
    });
    std::vector<Status> statuses;
    statuses.reserve(kWave);
    for (auto& f : futures) statuses.push_back(f.Wait().status);
    canceller.join();
    for (const Status& s : statuses) {
      ASSERT_TRUE(s.ok() || s.IsCancelled()) << s.ToString();
      if (s.ok()) {
        ++completed;
      } else {
        ++cancelled;
      }
    }
  }
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ((*server)->cache()->pinned_entries(), 0u)
      << "leaked pins after " << kTotal << " cancel/complete cycles";
  const auto c = stats.cache;
  EXPECT_EQ(stats.cache_bytes_cached, c.inserted_bytes - c.evicted_bytes);
  // With zero pins outstanding, Clear can reclaim every byte.
  (*server)->cache()->Clear();
  EXPECT_EQ((*server)->cache()->bytes_cached(), 0u);
}

// Cancels landing mid-retry on a flaky device: the retry loop's backoff
// sleeps are interruptible and the unwind paths release every pin even
// when loads are failing and re-issuing around them.
TEST(ServerCancelTest, CancelDuringFlakyRetrySoak) {
  EdgeList edges = testing::RandomGraph(100, 1200, 102);
  auto ms = testing::BuildMemStore(edges, 2);
  FlakyFaultRates rates;
  rates.read_error = 0.05;
  rates.seed = 102;
  FlakyEnv flaky(ms.env.get(), rates);

  constexpr int kQueries = 400;
  GraphServer::Options opts = LifecycleOpts(3);
  opts.max_queue = kQueries;  // all submissions may be queued at once
  opts.retry.max_attempts = 6;
  opts.retry.backoff_initial_micros = 200;
  auto server = GraphServer::Open(&flaky, "g", opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::vector<QueryFuture<PointResult>> futures;
  futures.reserve(kQueries);
  for (int n = 0; n < kQueries; ++n) {
    PointQuery q;
    q.kind = n % 2 == 0 ? QueryKind::kBfs : QueryKind::kSssp;
    q.root = static_cast<VertexId>(n % 100);
    if (n % 3 == 0) q.limits.deadline = std::chrono::milliseconds(1 + n % 7);
    futures.push_back((*server)->Submit(q));
  }
  std::thread canceller([&] {
    for (int n = 0; n < kQueries; n += 4) {
      (*server)->Cancel(futures[n].id());
      if (n % 32 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<Status> statuses;
  statuses.reserve(kQueries);
  for (auto& f : futures) statuses.push_back(f.Wait().status);
  canceller.join();
  uint64_t oks = 0;
  for (const Status& s : statuses) {
    // Every future settles; with retries absorbing the 5% fault rate the
    // only expected terminal states are success and the cancel family.
    ASSERT_TRUE(s.ok() || s.IsCancelled() || s.IsDeadlineExceeded())
        << s.ToString();
    if (s.ok()) ++oks;
  }
  EXPECT_GT(oks, 0u);  // the soak is not vacuous: plenty complete
  EXPECT_EQ((*server)->cache()->pinned_entries(), 0u);
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.cache_bytes_cached,
            stats.cache.inserted_bytes - stats.cache.evicted_bytes);
  EXPECT_EQ(stats.failed, 0u) << "a fault leaked through as an error";
  (*server)->cache()->Clear();
  EXPECT_EQ((*server)->cache()->bytes_cached(), 0u);
}

}  // namespace
}  // namespace nxgraph
