// Tests of the benchmark's own code: the tracing Env's seek rule against
// ThrottledEnv, the percentile and lateness helpers, and the correctness
// gate. Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "perfbench/bench_support.h"
#include "perfbench/trace_env.h"
#include "src/algos/reference.h"
#include "src/core/nxgraph.h"

namespace nxbench {
namespace {

using nxgraph::Env;

// ---- tracing Env vs ThrottledEnv -------------------------------------------

// Bandwidth is effectively free and a seek costs 40 ms, so the time each
// scripted step takes through ThrottledEnv says how many seeks it charged.
constexpr double kSeekSeconds = 0.040;

class SeekRuleTest : public ::testing::Test {
 protected:
  SeekRuleTest()
      : mem_(nxgraph::NewMemEnv()),
        throttled_(nxgraph::NewThrottledEnv(
            mem_.get(), nxgraph::DeviceProfile{1e15, kSeekSeconds})),
        recorder_(1024),
        env_(throttled_.get(), &recorder_, &counters_) {}

  /// Runs one step and checks the seeks the tracing Env counted equal the
  /// seeks ThrottledEnv charged for it.
  void Step(const char* what, uint64_t expected_seeks,
            const std::function<void()>& step) {
    const uint64_t before = counters_.snapshot().seeks;
    const auto start = std::chrono::steady_clock::now();
    step();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const uint64_t counted = counters_.snapshot().seeks - before;
    const auto charged =
        static_cast<uint64_t>(std::llround(elapsed / kSeekSeconds));
    EXPECT_EQ(counted, charged) << what << " took " << elapsed << " s";
    EXPECT_EQ(counted, expected_seeks) << what;
  }

  std::unique_ptr<Env> mem_;
  std::unique_ptr<Env> throttled_;
  SpanRecorder recorder_;
  IoCounters counters_;
  TracingEnv env_;
};

TEST_F(SeekRuleTest, CountsSeeksExactlyAsThrottledEnvCharges) {
  const std::string data(200, 'x');
  char buf[256];
  size_t n = 0;

  std::unique_ptr<nxgraph::WritableFile> w;
  Step("open writable", 1, [&] { ASSERT_TRUE(env_.NewWritableFile("a", &w).ok()); });
  Step("append", 0, [&] { ASSERT_TRUE(w->Append(data.data(), 100).ok()); });
  Step("append", 0, [&] { ASSERT_TRUE(w->Append(data.data(), 100).ok()); });
  Step("sync", 1, [&] { ASSERT_TRUE(w->Sync().ok()); });
  ASSERT_TRUE(w->Close().ok());

  std::unique_ptr<nxgraph::RandomAccessFile> r;
  Step("open random", 0, [&] { ASSERT_TRUE(env_.NewRandomAccessFile("a", &r).ok()); });
  Step("read at 0", 0, [&] { ASSERT_TRUE(r->ReadAt(0, 50, buf, &n).ok()); });
  Step("contiguous read", 0, [&] { ASSERT_TRUE(r->ReadAt(50, 50, buf, &n).ok()); });
  Step("backward read", 1, [&] { ASSERT_TRUE(r->ReadAt(10, 10, buf, &n).ok()); });
  Step("contiguous read", 0, [&] { ASSERT_TRUE(r->ReadAt(20, 10, buf, &n).ok()); });
  Step("forward jump", 1, [&] { ASSERT_TRUE(r->ReadAt(150, 10, buf, &n).ok()); });

  std::unique_ptr<nxgraph::SequentialFile> s;
  Step("open sequential", 1, [&] { ASSERT_TRUE(env_.NewSequentialFile("a", &s).ok()); });
  Step("read", 0, [&] { ASSERT_TRUE(s->Read(64, buf, &n).ok()); });
  Step("skip", 1, [&] { ASSERT_TRUE(s->Skip(10).ok()); });
  Step("read", 0, [&] { ASSERT_TRUE(s->Read(64, buf, &n).ok()); });

  std::unique_ptr<nxgraph::RandomWriteFile> rw;
  Step("open random-write", 0, [&] { ASSERT_TRUE(env_.NewRandomWriteFile("b", &rw).ok()); });
  Step("write at 0", 0, [&] { ASSERT_TRUE(rw->WriteAt(0, data.data(), 10).ok()); });
  Step("contiguous write", 0, [&] { ASSERT_TRUE(rw->WriteAt(10, data.data(), 10).ok()); });
  Step("jump write", 1, [&] { ASSERT_TRUE(rw->WriteAt(100, data.data(), 10).ok()); });
  Step("flush", 1, [&] { ASSERT_TRUE(rw->Flush().ok()); });
  Step("write after flush", 1, [&] { ASSERT_TRUE(rw->WriteAt(110, data.data(), 10).ok()); });
  ASSERT_TRUE(rw->Close().ok());

  const IoCounters::Snapshot c = counters_.snapshot();
  EXPECT_EQ(c.seeks, 9u);
  EXPECT_EQ(c.syncs, 2u);  // WritableFile::Sync and RandomWriteFile::Flush
  EXPECT_EQ(c.read_calls, 7u);
  EXPECT_EQ(c.read_bytes, 50u + 50 + 10 + 10 + 10 + 64 + 64);
  EXPECT_EQ(c.write_calls, 6u);
  EXPECT_EQ(c.write_bytes, 100u + 100 + 10 + 10 + 10 + 10);
  // IoStats of the tracing Env match the transfers it forwarded.
  EXPECT_EQ(env_.stats()->snapshot().bytes_read, c.read_bytes);
  EXPECT_EQ(env_.stats()->snapshot().bytes_written, c.write_bytes);
}

TEST_F(SeekRuleTest, RecordingOffKeepsIoStatsButNoSpans) {
  env_.set_recording(false);
  std::unique_ptr<nxgraph::WritableFile> w;
  ASSERT_TRUE(env_.NewWritableFile("a", &w).ok());
  ASSERT_TRUE(w->Append("abc", 3).ok());
  ASSERT_TRUE(w->Close().ok());
  EXPECT_EQ(env_.stats()->snapshot().bytes_written, 3u);
  EXPECT_EQ(counters_.snapshot().write_bytes, 0u);
  EXPECT_EQ(counters_.snapshot().seeks, 0u);
  EXPECT_TRUE(recorder_.spans().empty());
}

TEST(TraceTest, ClassifiesStoreFiles) {
  EXPECT_EQ(ClassifyPath("/s/subshards.nxs"), FileClass::kForwardShards);
  EXPECT_EQ(ClassifyPath("/s/subshards_t.nxs"), FileClass::kTransposeShards);
  EXPECT_EQ(ClassifyPath("/s/run/hubs_f.nxh"), FileClass::kHubs);
  EXPECT_EQ(ClassifyPath("/s/run/values.nxi"), FileClass::kIntervals);
  EXPECT_EQ(ClassifyPath("/s/manifest.nxm"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("subshards.nxs"), FileClass::kForwardShards);
}

TEST(TraceTest, SpanBufferIsCappedAndWritesChromeTrace) {
  SpanRecorder rec(2);
  { SpanRecorder::Scope a(&rec, "RunPageRank"); }
  { SpanRecorder::Scope b(&rec, "Submit"); }
  { SpanRecorder::Scope c(&rec, "stats"); }
  EXPECT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(rec.WriteChromeTrace(path).ok());
  std::ifstream f(path);
  std::stringstream text;
  text << f.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.str().find("\"name\":\"RunPageRank\""), std::string::npos);
  EXPECT_EQ(text.str().find("\"name\":\"stats\""), std::string::npos);
}

// ---- percentile and lateness helpers ---------------------------------------

TEST(HelpersTest, PercentileInterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  std::vector<double> hundred_one;
  for (int i = 0; i <= 100; ++i) hundred_one.push_back(100 - i);
  EXPECT_DOUBLE_EQ(Percentile(hundred_one, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(Median({10, 30, 20}), 20.0);
}

TEST(HelpersTest, LatenessCountsOnlyDelay) {
  const auto t = std::chrono::steady_clock::now();
  const auto ms = [](double v) {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(v));
  };
  EXPECT_NEAR(LatenessMs(t, t + ms(3)), 3.0, 1e-6);
  EXPECT_NEAR(LatenessMs(t + ms(10), t + ms(10)), 0.0, 1e-6);
  EXPECT_NEAR(LatenessMs(t + ms(20), t + ms(15)), 0.0, 1e-6);  // early
  // Due-to-completion latency: lateness + queue + run.
  EXPECT_DOUBLE_EQ(OpenLoopLatencyMs(2.0, 0.010, 0.005), 17.0);
}

TEST(HelpersTest, StealShareIsAShareOfHostTicks) {
  ProcSample a, b;
  a.host_steal_ticks = 10;
  a.host_total_ticks = 1000;
  b.host_steal_ticks = 40;
  b.host_total_ticks = 2000;
  EXPECT_DOUBLE_EQ(StealShare(a, b), 0.03);
  EXPECT_DOUBLE_EQ(StealShare(a, a), 0.0);
}

// ---- correctness gate -------------------------------------------------------

struct SmallGraph {
  std::unique_ptr<Env> env = nxgraph::NewMemEnv();
  std::shared_ptr<nxgraph::GraphStore> store;
  nxgraph::ReferenceGraph graph;
};

SmallGraph BuildSmallGraph() {
  SmallGraph g;
  nxgraph::RmatOptions rmat;
  rmat.scale = 10;
  rmat.edge_factor = 8;
  rmat.seed = 3;
  nxgraph::BuildOptions options;
  options.num_intervals = 4;
  options.env = g.env.get();
  auto store = nxgraph::BuildGraphStore(nxgraph::GenerateRmat(rmat), "g",
                                        options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  g.store = *store;
  auto graph = nxgraph::LoadReferenceGraph(*g.store);
  EXPECT_TRUE(graph.ok());
  g.graph = std::move(*graph);
  return g;
}

TEST(GateTest, AcceptsEngineRanksAndRejectsAPerturbedVector) {
  SmallGraph g = BuildSmallGraph();
  nxgraph::PageRankOptions pr;
  pr.iterations = 7;
  nxgraph::RunOptions run;
  run.num_threads = 2;
  auto result = nxgraph::RunPageRank(g.store, pr, run);
  ASSERT_TRUE(result.ok());
  const auto ref = nxgraph::ReferencePageRank(g.graph, 0.85, 7);
  EXPECT_LE(MaxRankRelativeError(result->ranks, ref), kRankTolerance);

  std::vector<double> perturbed = result->ranks;
  perturbed[perturbed.size() / 2] *= 1 + 1e-6;
  EXPECT_GT(MaxRankRelativeError(perturbed, ref), kRankTolerance);

  std::vector<double> nan_rank = result->ranks;
  nan_rank[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_GT(MaxRankRelativeError(nan_rank, ref), kRankTolerance);

  std::vector<double> short_vector(ref.begin(), ref.end() - 1);
  EXPECT_GT(MaxRankRelativeError(short_vector, ref), kRankTolerance);
}

TEST(GateTest, KHopMatchesOnlyTheExactNeighbourhood) {
  SmallGraph g = BuildSmallGraph();
  const nxgraph::VertexId root = 1;
  const auto depths = nxgraph::ReferenceBfs(g.graph, root);
  std::vector<nxgraph::VertexId> vertices;
  std::vector<uint32_t> hops;
  for (nxgraph::VertexId v = 0; v < depths.size(); ++v) {
    if (depths[v] <= 2) {
      vertices.push_back(v);
      hops.push_back(depths[v]);
    }
  }
  ASSERT_GT(vertices.size(), 2u);
  EXPECT_TRUE(KHopMatches(vertices, hops, depths, 2));
  EXPECT_FALSE(KHopMatches(vertices, hops, depths, 1));

  auto missing_v = vertices;
  auto missing_h = hops;
  missing_v.pop_back();
  missing_h.pop_back();
  EXPECT_FALSE(KHopMatches(missing_v, missing_h, depths, 2));

  auto wrong_hop = hops;
  wrong_hop.back() += 1;
  EXPECT_FALSE(KHopMatches(vertices, wrong_hop, depths, 2));

  auto unsorted = vertices;
  std::swap(unsorted[0], unsorted[1]);
  EXPECT_FALSE(KHopMatches(unsorted, hops, depths, 2));
}

}  // namespace
}  // namespace nxbench
