// Engine correctness: every strategy (SPU/DPU/MPU) under both sync modes
// and several thread counts must match the single-threaded references.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/algos/programs.h"
#include "src/algos/reference.h"
#include "src/engine/engine.h"
#include "src/io/fault_env.h"
#include "src/io/flaky_env.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

struct EngineConfig {
  UpdateStrategy strategy;
  SyncMode sync;
  int threads;
  uint32_t p;
};

std::string ConfigName(const ::testing::TestParamInfo<EngineConfig>& info) {
  const auto& c = info.param;
  std::string name;
  switch (c.strategy) {
    case UpdateStrategy::kSinglePhase:
      name += "SPU";
      break;
    case UpdateStrategy::kDoublePhase:
      name += "DPU";
      break;
    case UpdateStrategy::kMixedPhase:
      name += "MPU";
      break;
    case UpdateStrategy::kAuto:
      name += "Auto";
      break;
  }
  name += c.sync == SyncMode::kCallback ? "Callback" : "Lock";
  name += "T" + std::to_string(c.threads);
  name += "P" + std::to_string(c.p);
  return name;
}

class EngineStrategyTest : public ::testing::TestWithParam<EngineConfig> {
 protected:
  RunOptions Options() const {
    const EngineConfig& c = GetParam();
    RunOptions opt;
    opt.strategy = c.strategy;
    opt.sync_mode = c.sync;
    opt.num_threads = c.threads;
    if (c.strategy == UpdateStrategy::kMixedPhase) {
      // Budget sized so roughly half the intervals stay resident.
      opt.memory_budget_bytes = 1 << 16;
    }
    return opt;
  }
};

TEST_P(EngineStrategyTest, PageRankMatchesPowerIteration) {
  EdgeList edges = testing::RandomGraph(400, 4000, 21);
  auto ms = testing::BuildMemStore(edges, GetParam().p);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const auto expected = ReferencePageRank(*ref_graph, 0.85, 5);

  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt = Options();
  opt.max_iterations = 5;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->iterations, 5);
  ASSERT_EQ(engine.values().size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(engine.values()[v], expected[v], 1e-9) << "vertex " << v;
  }
}

TEST_P(EngineStrategyTest, BfsMatchesReference) {
  EdgeList edges = testing::RandomGraph(300, 1800, 22);
  auto ms = testing::BuildMemStore(edges, GetParam().p);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const auto expected = ReferenceBfs(*ref_graph, 0);

  BfsProgram program;
  program.root = 0;
  Engine<BfsProgram> engine(ms.store, program, Options());
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(engine.values(), expected);
}

TEST_P(EngineStrategyTest, WccMatchesUnionFind) {
  EdgeList edges = testing::RandomGraph(250, 600, 23);  // sparse: many CCs
  auto ms = testing::BuildMemStore(edges, GetParam().p);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const auto expected = ReferenceWcc(*ref_graph);

  WccProgram program;
  RunOptions opt = Options();
  opt.direction = EdgeDirection::kBoth;
  Engine<WccProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(engine.values(), expected);
}

TEST_P(EngineStrategyTest, SsspMatchesDijkstra) {
  EdgeList edges = testing::RandomGraph(200, 1500, 24, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, GetParam().p);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const auto expected = ReferenceSssp(*ref_graph, 0);

  SsspProgram program;
  program.root = 0;
  Engine<SsspProgram> engine(ms.store, program, Options());
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(engine.values().size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(engine.values()[v])) << "vertex " << v;
    } else {
      EXPECT_NEAR(engine.values()[v], expected[v], 1e-4) << "vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, EngineStrategyTest,
    ::testing::Values(
        EngineConfig{UpdateStrategy::kSinglePhase, SyncMode::kCallback, 0, 4},
        EngineConfig{UpdateStrategy::kSinglePhase, SyncMode::kCallback, 3, 4},
        EngineConfig{UpdateStrategy::kSinglePhase, SyncMode::kLock, 3, 4},
        EngineConfig{UpdateStrategy::kSinglePhase, SyncMode::kLock, 1, 7},
        EngineConfig{UpdateStrategy::kDoublePhase, SyncMode::kCallback, 0, 4},
        EngineConfig{UpdateStrategy::kDoublePhase, SyncMode::kCallback, 3, 5},
        EngineConfig{UpdateStrategy::kDoublePhase, SyncMode::kLock, 2, 4},
        EngineConfig{UpdateStrategy::kMixedPhase, SyncMode::kCallback, 0, 4},
        EngineConfig{UpdateStrategy::kMixedPhase, SyncMode::kCallback, 3, 6},
        EngineConfig{UpdateStrategy::kMixedPhase, SyncMode::kLock, 2, 5},
        EngineConfig{UpdateStrategy::kAuto, SyncMode::kCallback, 2, 4}),
    ConfigName);

// Eight intervals of 100 vertices. A chain inside each interval makes its
// diagonal blobs dense, and each interval also sends 30 random edges to
// the next one, so those hubs take the bitmap form; two random edges per
// other ordered pair of intervals make blobs of at most two destinations,
// whose hubs keep the id list (8 bytes against a 13-byte bitmap).
EdgeList MixedHubFormGraph() {
  constexpr uint64_t kIntervals = 8, kSize = 100;
  EdgeList edges;
  for (uint64_t v = 0; v + 1 < kIntervals * kSize; ++v) {
    if ((v + 1) % kSize != 0) edges.Add(v, v + 1);
  }
  Xoshiro256 rng(17);
  for (uint64_t i = 0; i < kIntervals; ++i) {
    for (uint64_t j = 0; j < kIntervals; ++j) {
      if (i == j) continue;
      const int count = j == (i + 1) % kIntervals ? 30 : 2;
      for (int e = 0; e < count; ++e) {
        edges.Add(i * kSize + rng.NextBounded(kSize),
                  j * kSize + rng.NextBounded(kSize));
      }
    }
  }
  return edges;
}

// Nonempty hubs of the disk block (i, j >= q) in one direction, counted by
// destination-set form: {bitmap, id list}.
std::pair<int, int> DiskHubForms(const Manifest& m, uint32_t q,
                                 bool transpose) {
  std::pair<int, int> forms{0, 0};
  for (uint32_t i = q; i < m.num_intervals; ++i) {
    for (uint32_t j = q; j < m.num_intervals; ++j) {
      const uint64_t num_dsts = m.subshard(i, j, transpose).num_dsts;
      if (num_dsts == 0) continue;
      ++(HubFile::UsesBitmap(num_dsts, m.interval_size(j)) ? forms.first
                                                           : forms.second);
    }
  }
  return forms;
}

// DPU and MPU at two budgets fold hubs of both destination-set forms in
// one run, and must equal SPU bit for bit, and SPU the references:
// PageRank, WCC over both directions and BFS.
TEST(EngineHubFormTest, BitmapAndListHubsMatchSpuBitForBit) {
  auto ms = testing::BuildMemStore(MixedHubFormGraph(), 8);
  const Manifest& m = ms.store->manifest();
  ASSERT_EQ(m.num_vertices, 800u);
  const uint64_t n = m.num_vertices;
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());

  // Runs `program` under SPU, DPU and MPU at budgets of its degree tables
  // plus 3/8 and 5/8 of its ping-pong state, checks each against SPU and
  // returns SPU's values in `spu_values`. Each out-of-core run's disk block
  // must hold hubs of both forms in every direction it reads.
  auto check = [&](const auto& program, RunOptions opt, const char* name,
                   auto* spu_values) {
    using Program = std::decay_t<decltype(program)>;
    opt.num_threads = 2;
    opt.strategy = UpdateStrategy::kSinglePhase;
    Engine<Program> spu(ms.store, program, opt);
    auto spu_stats = spu.Run();
    ASSERT_TRUE(spu_stats.ok())
        << name << ": " << spu_stats.status().ToString();
    *spu_values = spu.values();
    std::vector<uint32_t> qs;
    for (uint64_t eighths : {0, 3, 5}) {
      RunOptions o = opt;
      o.strategy = eighths == 0 ? UpdateStrategy::kDoublePhase
                                : UpdateStrategy::kMixedPhase;
      const uint64_t degrees =
          (opt.direction == EdgeDirection::kBoth ? 2 : 1) * n * 4;
      o.memory_budget_bytes =
          degrees + eighths * 2 * n * sizeof(typename Program::Value) / 8;
      Engine<Program> engine(ms.store, program, o);
      auto stats = engine.Run();
      ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
      const uint32_t q = stats->resident_intervals;
      SCOPED_TRACE(std::string(name) + " " + stats->strategy);
      EXPECT_EQ(q == 0, eighths == 0);
      EXPECT_LT(q, m.num_intervals);
      qs.push_back(q);
      for (bool transpose : {false, true}) {
        if (transpose && opt.direction == EdgeDirection::kForward) continue;
        const auto [bitmaps, lists] = DiskHubForms(m, q, transpose);
        EXPECT_GT(bitmaps, 0) << "transpose " << transpose;
        EXPECT_GT(lists, 0) << "transpose " << transpose;
      }
      EXPECT_EQ(engine.values(), spu.values());
    }
    EXPECT_LT(qs[1], qs[2]) << name << ": the two budgets differ in Q";
  };

  PageRankProgram pr;
  pr.num_vertices = n;
  RunOptions pr_opt;
  pr_opt.max_iterations = 5;
  std::vector<double> ranks;
  check(pr, pr_opt, "PageRank", &ranks);
  const auto expected = ReferencePageRank(*ref_graph, 0.85, 5);
  ASSERT_EQ(ranks.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(ranks[v], expected[v], 1e-9) << "vertex " << v;
  }

  RunOptions wcc_opt;
  wcc_opt.direction = EdgeDirection::kBoth;
  std::vector<uint32_t> components;
  check(WccProgram{}, wcc_opt, "WCC", &components);
  EXPECT_EQ(components, ReferenceWcc(*ref_graph));

  BfsProgram bfs;
  bfs.root = 0;
  std::vector<uint32_t> depths;
  check(bfs, RunOptions{}, "BFS", &depths);
  EXPECT_EQ(depths, ReferenceBfs(*ref_graph, 0));
}

TEST(EngineTest, BfsTerminatesByActivity) {
  // A simple path: BFS needs exactly path-length iterations, then all
  // intervals go inactive.
  EdgeList edges;
  for (uint32_t v = 0; v < 32; ++v) edges.Add(v, v + 1);
  auto ms = testing::BuildMemStore(edges, 4);
  BfsProgram program;
  program.root = 0;
  RunOptions opt;
  opt.num_threads = 2;
  Engine<BfsProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->iterations, 32);
  EXPECT_LE(stats->iterations, 34);
  EXPECT_EQ(engine.values()[32], 32u);
}

TEST(EngineTest, MonotoneSkippingTraversesFewerEdges) {
  // With interval-activity skipping, a BFS from an isolated corner of a
  // disconnected graph should not touch most sub-shards every iteration.
  EdgeList edges;
  for (uint32_t v = 0; v < 64; ++v) edges.Add(v, (v + 1) % 64);  // a cycle
  edges.Add(100, 101);  // tiny far-away component
  auto ms = testing::BuildMemStore(edges, 8);
  BfsProgram program;
  program.root = ms.store->num_vertices() - 2;  // the tiny component
  RunOptions opt;
  Engine<BfsProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  // Full scans would traverse 65 edges * iterations; skipping should keep
  // the traversal close to the component size.
  EXPECT_LT(stats->edges_traversed, 65u * stats->iterations);
}

TEST(EngineTest, MaxIterationsCapsRun) {
  EdgeList edges = testing::RandomGraph(100, 800, 25);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.max_iterations = 3;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->iterations, 3);
  EXPECT_EQ(stats->iteration_seconds.size(), 3u);
}

TEST(EngineTest, PageRankToleranceStopsEarly) {
  EdgeList edges = testing::RandomGraph(100, 800, 26);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  program.tolerance = 1.0;  // everything counts as converged
  RunOptions opt;
  opt.max_iterations = 50;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->iterations, 1);  // one sweep, then all inactive
}

TEST(EngineTest, StatsAccountIo) {
  EdgeList edges = testing::RandomGraph(200, 3000, 27);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->strategy, "DPU");
  // DPU must write hubs + intervals and read them back.
  EXPECT_GT(stats->bytes_written, 0u);
  EXPECT_GT(stats->bytes_read, 0u);
  EXPECT_EQ(stats->edges_traversed, 2u * 3000u);
}

TEST(EngineTest, SpuTraversesEveryEdgeEachIteration) {
  EdgeList edges = testing::RandomGraph(100, 1000, 28);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.max_iterations = 4;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->strategy, "SPU");
  EXPECT_EQ(stats->edges_traversed, 4u * 1000u);
}

TEST(EngineTest, TransposeDirectionRequiresTransposeStore) {
  EdgeList edges = testing::RandomGraph(50, 300, 29);
  auto ms = testing::BuildMemStore(edges, 2, /*transpose=*/false);
  WccProgram program;
  RunOptions opt;
  opt.direction = EdgeDirection::kBoth;
  Engine<WccProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

TEST(EngineTest, SpuStreamingRowsMatchesReference) {
  // Force SPU with a budget that fits the vertex state but none of the
  // sub-shards: the engine must take the streamlined row-streaming path
  // and still compute the exact fixpoint.
  EdgeList edges = testing::RandomGraph(300, 4500, 31);
  auto ms = testing::BuildMemStore(edges, 5);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const auto expected = ReferencePageRank(*ref_graph, 0.85, 6);

  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kSinglePhase;
  opt.num_threads = 2;
  opt.max_iterations = 6;
  opt.memory_budget_bytes =
      2 * ms.store->num_vertices() * sizeof(double) +
      ms.store->num_vertices() * 4 + 1024;  // state + degrees + scraps
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Streaming re-reads sub-shards every iteration.
  EXPECT_GT(stats->bytes_read,
            5u * ms.store->TotalSubShardBytes(false));
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(engine.values()[v], expected[v], 1e-9) << "vertex " << v;
  }
}

TEST(EngineTest, StreamingAndCachedRunsAgreeExactly) {
  EdgeList edges = testing::RandomGraph(250, 3000, 32);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();

  RunOptions cached;
  cached.max_iterations = 5;
  cached.num_threads = 2;
  Engine<PageRankProgram> cached_engine(ms.store, program, cached);
  ASSERT_TRUE(cached_engine.Run().ok());

  RunOptions streaming = cached;
  streaming.strategy = UpdateStrategy::kSinglePhase;
  streaming.memory_budget_bytes =
      2 * ms.store->num_vertices() * sizeof(double) +
      ms.store->num_vertices() * 4 + 1;
  Engine<PageRankProgram> streaming_engine(ms.store, program, streaming);
  ASSERT_TRUE(streaming_engine.Run().ok());

  // Row-major accumulation order is identical in both schedules, so even
  // the floating-point results match bit for bit.
  EXPECT_EQ(cached_engine.values(), streaming_engine.values());
}

// ---- prefetch pipeline ----------------------------------------------------

TEST(EnginePrefetchTest, StreamingParityAcrossPrefetchDepths) {
  // Streaming-vs-cached parity: under a budget that fits vertex state but
  // no sub-shards, every prefetch depth must reproduce the cached run's
  // values bit for bit (FIFO consumption keeps the accumulation order).
  EdgeList edges = testing::RandomGraph(250, 3000, 41);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();

  RunOptions cached;
  cached.max_iterations = 5;
  cached.num_threads = 2;
  Engine<PageRankProgram> cached_engine(ms.store, program, cached);
  ASSERT_TRUE(cached_engine.Run().ok());

  for (int depth : {0, 1, 4}) {
    RunOptions streaming = cached;
    streaming.strategy = UpdateStrategy::kSinglePhase;
    streaming.prefetch_depth = depth;
    streaming.memory_budget_bytes =
        2 * ms.store->num_vertices() * sizeof(double) +
        ms.store->num_vertices() * 4 + 1;
    Engine<PageRankProgram> streaming_engine(ms.store, program, streaming);
    auto stats = streaming_engine.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->prefetch_depth, depth == 0 ? 0u : 1u)
        << "tiny budget clamps the window to double buffering";
    EXPECT_EQ(cached_engine.values(), streaming_engine.values())
        << "depth " << depth;
  }
}

TEST(EnginePrefetchTest, WccStreamingParityAcrossPrefetchDepths) {
  EdgeList edges = testing::RandomGraph(200, 900, 42);
  auto ms = testing::BuildMemStore(edges, 4);
  WccProgram program;

  RunOptions cached;
  cached.direction = EdgeDirection::kBoth;
  cached.num_threads = 2;
  Engine<WccProgram> cached_engine(ms.store, program, cached);
  ASSERT_TRUE(cached_engine.Run().ok());

  for (int depth : {0, 1, 4}) {
    RunOptions streaming = cached;
    streaming.strategy = UpdateStrategy::kSinglePhase;
    streaming.prefetch_depth = depth;
    streaming.memory_budget_bytes =
        2 * ms.store->num_vertices() * sizeof(uint32_t) +
        2 * ms.store->num_vertices() * 4 + 1;
    Engine<WccProgram> streaming_engine(ms.store, program, streaming);
    auto stats = streaming_engine.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(cached_engine.values(), streaming_engine.values())
        << "depth " << depth;
  }
}

TEST(EnginePrefetchTest, DpuParityAcrossPrefetchDepths) {
  // Forced DPU exercises the Phase B (interval values + rows) and Phase C
  // (hub reads + write-back values) pipelines.
  EdgeList edges = testing::RandomGraph(300, 4000, 43);
  auto ms = testing::BuildMemStore(edges, 5);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();

  std::vector<double> baseline;
  for (int depth : {0, 2, 4}) {
    RunOptions opt;
    opt.strategy = UpdateStrategy::kDoublePhase;
    opt.max_iterations = 4;
    opt.num_threads = 3;
    opt.prefetch_depth = depth;
    opt.io_threads = 2;
    Engine<PageRankProgram> engine(ms.store, program, opt);
    auto stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->strategy, "DPU");
    if (baseline.empty()) {
      baseline = engine.values();
    } else {
      EXPECT_EQ(engine.values(), baseline) << "depth " << depth;
    }
  }
}

TEST(EnginePrefetchTest, StatsReportPhaseAndIoWaitSeconds) {
  EdgeList edges = testing::RandomGraph(200, 2500, 44);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.num_threads = 2;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  // DPU spends all edge work in phases B and C (A and D are no-op calls
  // whose timing is scheduler noise, so no ratio assertion).
  EXPECT_GT(stats->phase_b_seconds, 0.0);
  EXPECT_GT(stats->phase_c_seconds, 0.0);
  EXPECT_GE(stats->io_wait_seconds, 0.0);
  // Prefetch is on by default for out-of-core runs.
  EXPECT_GE(stats->prefetch_depth, 1u);
  EXPECT_GE(stats->io_threads, 1);
}

TEST(EnginePrefetchTest, CorruptBlobFailsCleanlyMidPipeline) {
  // A checksum failure deep in a prefetched run must surface as a
  // Corruption error and shut the pipeline down without hanging.
  EdgeList edges = testing::RandomGraph(200, 3000, 45);
  auto ms = testing::BuildMemStore(edges, 4);
  std::string data;
  ASSERT_TRUE(ReadFileToString(ms.env.get(), "g/subshards.nxs", &data).ok());
  data[data.size() * 3 / 4] ^= 0xFF;
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), "g/subshards.nxs", data).ok());
  auto store = OpenGraphStore("g", ms.env.get());
  ASSERT_TRUE(store.ok());

  PageRankProgram program;
  program.num_vertices = (*store)->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.num_threads = 2;
  opt.prefetch_depth = 4;
  Engine<PageRankProgram> engine(*store, program, opt);
  auto stats = engine.Run();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
}

// Env decorator that records the thread of every read of the store's
// shard files.
class ShardReadThreadsEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  uint64_t reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }

  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    NX_RETURN_NOT_OK(base_->NewRandomAccessFile(path, out));
    if (path.size() > 4 && path.compare(path.size() - 4, 4, ".nxs") == 0) {
      *out = std::make_unique<Reader>(this, std::move(*out));
    }
    return Status::OK();
  }

 private:
  struct Reader : RandomAccessFile {
    Reader(ShardReadThreadsEnv* env, std::unique_ptr<RandomAccessFile> file)
        : env(env), file(std::move(file)) {}
    Status ReadAt(uint64_t offset, size_t n, void* buf,
                  size_t* bytes_read) const override {
      {
        std::lock_guard<std::mutex> lock(env->mu_);
        env->threads_.insert(std::this_thread::get_id());
        ++env->reads_;
      }
      return file->ReadAt(offset, n, buf, bytes_read);
    }
    ShardReadThreadsEnv* env;
    std::unique_ptr<RandomAccessFile> file;
  };

  mutable std::mutex mu_;
  std::set<std::thread::id> threads_;
  uint64_t reads_ = 0;
};

// A row run's checksum check and its re-reads belong to the prefetch I/O
// stage: with one I/O thread, every shard read of a run that heals a flip,
// the re-read included, is made by that one thread, never by a compute
// worker or the caller.
TEST(EnginePrefetchTest, ShardRereadsRunOnTheIoThread) {
  EdgeList edges = testing::RandomGraph(400, 6000, 21);
  auto ms = testing::BuildMemStore(edges, 5, /*transpose=*/false);
  FlakyEnv flaky(ms.env.get());
  ShardReadThreadsEnv recording(&flaky);
  auto store = GraphStore::Open(&recording, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  PageRankProgram program;
  program.num_vertices = (*store)->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kSinglePhase;  // every read is a row run
  opt.prefetch_depth = 2;
  opt.io_threads = 1;
  opt.num_threads = 2;
  opt.max_iterations = 2;
  // The second row run's read is flipped.
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead,
                      flaky.op_count(FlakyEnv::OpKind::kRead) + 2,
                      FlakyEnv::FaultKind::kBitFlip);
  Engine<PageRankProgram> engine(*store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(flaky.injected_bit_flips(), 1u);
  EXPECT_EQ(stats->checksum_rereads, 1u);
  EXPECT_EQ(recording.reads(), 5u + 1u);  // one run per row, one re-read
  const std::set<std::thread::id> threads = recording.threads();
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

// RunStats' Env counters come from the store's Env, and a decorator's
// files are its base's: on a FlakyEnv or a FaultInjectionEnv that injects
// nothing, as on the bare MemEnv, they equal the engine's own accounting.
// FaultInjectionEnv keeps the content a crash would keep from the writes it
// forwards, so its barriers read nothing back.
TEST(EngineTest, EnvCountersSeeThroughEnvDecorators) {
  EdgeList edges = testing::RandomGraph(300, 3000, 35);
  auto ms = testing::BuildMemStore(edges, 4, /*transpose=*/false);
  FlakyEnv flaky(ms.env.get());
  FaultInjectionEnv faulty(ms.env.get());
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  const std::pair<const char*, Env*> envs[] = {
      {"MemEnv", ms.env.get()},
      {"FlakyEnv", &flaky},
      {"FaultInjectionEnv", &faulty}};
  std::vector<uint64_t> read_calls;
  for (const auto& [name, env] : envs) {
    SCOPED_TRACE(name);
    auto store = GraphStore::Open(env, "g");
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    RunOptions opt;
    opt.strategy = UpdateStrategy::kDoublePhase;
    opt.max_iterations = 2;
    opt.num_threads = 2;
    Engine<PageRankProgram> engine(*store, program, opt);
    auto stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->bytes_read, 0u);
    EXPECT_EQ(stats->env_bytes_read, stats->bytes_read);
    EXPECT_EQ(stats->env_bytes_written, stats->bytes_written);
    EXPECT_GT(stats->env_read_calls, 0u);
    read_calls.push_back(stats->env_read_calls);
  }
  EXPECT_EQ(read_calls, std::vector<uint64_t>(3, read_calls[0]));
  EXPECT_EQ(flaky.injected_faults(), 0u);
}

// One byte of blob (3, 3)'s last weight is flipped, which only the checksum
// can catch: cached and streamed SSSP must both end in Corruption, never in
// values computed from the flipped weight.
TEST(EngineTest, FlippedWeightFailsWithCorruption) {
  EdgeList edges = testing::RandomGraph(400, 4000, 57, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4, /*transpose=*/false);
  const uint64_t n = ms.store->num_vertices();
  // Blobs end with the raw weights and then the 4-byte checksum.
  const SubShardMeta& meta = ms.store->manifest().subshard(3, 3);
  ASSERT_GT(meta.num_edges, 0u);
  std::string data;
  ASSERT_TRUE(ReadFileToString(ms.env.get(), "g/subshards.nxs", &data).ok());
  data[meta.offset + meta.size - 8] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), "g/subshards.nxs", data).ok());
  auto store = OpenGraphStore("g", ms.env.get());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  SsspProgram program;
  program.root = 0;
  for (bool cached : {true, false}) {
    RunOptions opt;
    opt.strategy = UpdateStrategy::kSinglePhase;
    opt.memory_budget_bytes =
        cached ? 0 : 2 * n * sizeof(SsspProgram::Value) + n * 4 + 1;
    opt.num_threads = 2;
    Engine<SsspProgram> engine(*store, program, opt);
    auto stats = engine.Run();
    EXPECT_TRUE(!stats.ok() && stats.status().IsCorruption())
        << (cached ? "cached" : "stream") << " run: "
        << (stats.ok() ? "accepted the flipped weight"
                       : stats.status().ToString());
  }
}

// ---- sub-shard format parity ----------------------------------------------

// The acceptance matrix for the NXS2 format: every algorithm x strategy
// must produce BIT-IDENTICAL results from an NXS1 store and an NXS2 store
// of the same graph — the format changes bytes on disk, nothing else.
TEST(EngineFormatTest, ResultsBitIdenticalAcrossFormats) {
  EdgeList plain = testing::RandomGraph(300, 3000, 31);
  EdgeList weighted = testing::RandomGraph(300, 3000, 32, /*weighted=*/true);
  struct StrategyCase {
    UpdateStrategy strategy;
    uint64_t budget;
  };
  const StrategyCase strategies[] = {
      {UpdateStrategy::kSinglePhase, 0},
      {UpdateStrategy::kDoublePhase, 0},
      {UpdateStrategy::kMixedPhase, 1 << 16},
  };
  auto ms1 = testing::BuildMemStore(plain, 4, true, SubShardFormat::kNxs1);
  auto ms2 = testing::BuildMemStore(plain, 4, true, SubShardFormat::kNxs2);
  auto msw1 =
      testing::BuildMemStore(weighted, 4, true, SubShardFormat::kNxs1);
  auto msw2 =
      testing::BuildMemStore(weighted, 4, true, SubShardFormat::kNxs2);

  for (const auto& c : strategies) {
    RunOptions opt;
    opt.strategy = c.strategy;
    opt.memory_budget_bytes = c.budget;
    opt.num_threads = 2;

    {
      PageRankProgram program;
      program.num_vertices = ms1.store->num_vertices();
      RunOptions pr = opt;
      pr.max_iterations = 4;
      Engine<PageRankProgram> e1(ms1.store, program, pr);
      Engine<PageRankProgram> e2(ms2.store, program, pr);
      ASSERT_TRUE(e1.Run().ok());
      ASSERT_TRUE(e2.Run().ok());
      EXPECT_EQ(e1.values(), e2.values()) << "PageRank";
    }
    {
      WccProgram program;
      RunOptions wc = opt;
      wc.direction = EdgeDirection::kBoth;
      Engine<WccProgram> e1(ms1.store, program, wc);
      Engine<WccProgram> e2(ms2.store, program, wc);
      ASSERT_TRUE(e1.Run().ok());
      ASSERT_TRUE(e2.Run().ok());
      EXPECT_EQ(e1.values(), e2.values()) << "WCC";
    }
    {
      BfsProgram program;
      program.root = 0;
      Engine<BfsProgram> e1(ms1.store, program, opt);
      Engine<BfsProgram> e2(ms2.store, program, opt);
      ASSERT_TRUE(e1.Run().ok());
      ASSERT_TRUE(e2.Run().ok());
      EXPECT_EQ(e1.values(), e2.values()) << "BFS";
    }
    {
      SsspProgram program;
      program.root = 0;
      Engine<SsspProgram> e1(msw1.store, program, opt);
      Engine<SsspProgram> e2(msw2.store, program, opt);
      ASSERT_TRUE(e1.Run().ok());
      ASSERT_TRUE(e2.Run().ok());
      EXPECT_EQ(e1.values(), e2.values()) << "SSSP";
    }
  }
}

// env_bytes_read measures the compression win at the Env layer: the same
// streamed PageRank moves materially fewer bytes from an NXS2 store.
TEST(EngineFormatTest, EnvCountersMeasureByteReduction) {
  EdgeList edges = testing::RandomGraph(400, 6000, 33);
  auto run = [&edges](SubShardFormat f) {
    auto ms = testing::BuildMemStore(edges, 4, /*transpose=*/false, f);
    PageRankProgram program;
    program.num_vertices = ms.store->num_vertices();
    RunOptions opt;
    opt.strategy = UpdateStrategy::kSinglePhase;
    opt.max_iterations = 3;
    opt.num_threads = 2;
    // Stream mode: state + degrees + one window slot, but far below the
    // decoded graph, so every iteration re-reads the shard file.
    opt.memory_budget_bytes =
        2 * ms.store->num_vertices() * sizeof(double) +
        ms.store->num_vertices() * 4 + 4096;
    Engine<PageRankProgram> engine(ms.store, program, opt);
    auto stats = engine.Run();
    NX_CHECK(stats.ok()) << stats.status().ToString();
    return std::make_pair(*stats, ms.store->TotalSubShardBytes(false));
  };
  auto [s1, bytes1] = run(SubShardFormat::kNxs1);
  auto [s2, bytes2] = run(SubShardFormat::kNxs2);
  ASSERT_GT(s1.env_bytes_read, 0u);
  ASSERT_GT(s2.env_bytes_read, 0u);
  // The streamed shard reads dominate; the interval/degree traffic is
  // identical across formats, so the measured ratio tracks the store-size
  // ratio. Require a material reduction.
  EXPECT_LT(bytes2, bytes1);
  EXPECT_LT(s2.env_bytes_read + bytes1 - bytes2, s1.env_bytes_read + 1);
  // Engine-accounted reads track the manifest sizes, so they shrink too.
  EXPECT_LT(s2.bytes_read, s1.bytes_read);
}

TEST(EngineTest, EnvCountersCoverReadsAndWrites) {
  // A DPU run must show Env-measured reads AND writes (interval segments +
  // hub payloads land through the Env), and the measured reads can never
  // be smaller than the shard bytes a streamed iteration provably moved.
  EdgeList edges = testing::RandomGraph(200, 2000, 34);
  auto ms = testing::BuildMemStore(edges, 4, false);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.num_threads = 2;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->env_bytes_read,
            ms.store->TotalSubShardBytes(false));  // >= 2 iterations of rows
  EXPECT_GT(stats->env_bytes_written, 0u);
}

// ---- read accounting ------------------------------------------------------

// RunStats::bytes_read counts the raw blob, interval and hub bytes the
// engine reads, so on a healthy device with no retries and no checkpoints
// it equals what the Env served — in stream and cached runs alike.
TEST(EngineReadAccountingTest, BytesReadEqualsEnvBytesRead) {
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    auto dense = testing::BuildMemStore(testing::RandomGraph(400, 4000, 51),
                                        4, /*transpose=*/false, f);
    auto small = testing::BuildMemStore(testing::SmallDecodedGraph(), 2,
                                        /*transpose=*/false, f);
    const uint64_t n = dense.store->num_vertices();
    const uint64_t small_n = small.store->num_vertices();
    struct Case {
      const char* strategy;  // the strategy the run must report
      UpdateStrategy forced;
      const testing::MemStore* ms;
      uint64_t budget;  // 0 = unlimited: the run holds every blob
    };
    const Case cases[] = {
        {"SPU", UpdateStrategy::kSinglePhase, &dense, 0},
        {"SPU", UpdateStrategy::kSinglePhase, &dense,
         2 * n * sizeof(double) + n * 4 + 1},  // streams
        {"DPU", UpdateStrategy::kDoublePhase, &dense, 0},
        {"MPU(Q=2/4)", UpdateStrategy::kMixedPhase, &dense,
         n * sizeof(double) + n * 4},  // streams
        {"MPU(Q=1/2)", UpdateStrategy::kMixedPhase, &small,
         small_n * 4 + small_n * sizeof(double) +
             small.store->manifest().TotalDecodedSubShardBytes(false) + 64},
    };
    for (const Case& c : cases) {
      for (int depth : {0, 2}) {
        SCOPED_TRACE(std::string(SubShardFormatName(f)) + " " + c.strategy +
                     " budget " + std::to_string(c.budget) + " depth " +
                     std::to_string(depth));
        RunOptions opt;
        opt.strategy = c.forced;
        opt.memory_budget_bytes = c.budget;
        opt.prefetch_depth = depth;
        opt.num_threads = 2;
        {
          PageRankProgram program;
          program.num_vertices = c.ms->store->num_vertices();
          RunOptions pr = opt;
          pr.max_iterations = 3;
          Engine<PageRankProgram> engine(c.ms->store, program, pr);
          auto stats = engine.Run();
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          EXPECT_EQ(stats->strategy, c.strategy);
          EXPECT_GT(stats->env_bytes_read, 0u);
          EXPECT_EQ(stats->bytes_read, stats->env_bytes_read) << "PageRank";
        }
        {
          BfsProgram program;
          program.root = 0;
          Engine<BfsProgram> engine(c.ms->store, program, opt);
          auto stats = engine.Run();
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          EXPECT_EQ(stats->bytes_read, stats->env_bytes_read) << "BFS";
        }
      }
    }
  }
}

// Calls per iteration of a stream-mode MPU PageRank, counted at the Env
// and read from the iteration's plan: PageRank plans every nonempty blob
// every iteration, so Phase B writes every tile of the hub layout whole.
// Engine-accounted bytes equal the Env's.
TEST(EngineReadAccountingTest, StreamMpuCallsPerIterationMatchThePlanners) {
  auto ms = testing::BuildMemStore(testing::RandomGraph(4000, 60000, 9), 16);
  const Manifest& m = ms.store->manifest();
  const uint32_t p = m.num_intervals;
  const uint64_t n = ms.store->num_vertices();
  PageRankProgram program;
  program.num_vertices = n;
  RunOptions opt;
  opt.memory_budget_bytes = n * sizeof(double);
  opt.num_threads = 2;
  opt.max_iterations = 3;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->strategy, "MPU(Q=4/16)");
  ASSERT_EQ(stats->iterations, 3);
  const uint32_t q = stats->resident_intervals;
  EXPECT_EQ(stats->bytes_read, stats->env_bytes_read);
  EXPECT_EQ(stats->bytes_written, stats->env_bytes_written);

  std::vector<uint8_t> planned(2 * static_cast<size_t>(p) * p, 0);
  uint64_t resident_row_blobs = 0;  // nonempty blobs (i < Q, j >= Q)
  for (uint32_t i = 0; i < p; ++i) {
    for (uint32_t j = 0; j < p; ++j) {
      const bool nonempty = m.subshard(i, j).num_edges > 0;
      planned[PlanGridIndex(p, i, j, false)] = nonempty;
      resident_row_blobs += nonempty && i < q && j >= q;
    }
  }
  const IterationPlan plan = BuildIterationPlan(
      m, PlanConfig{q, sizeof(double), EdgeDirection::kForward,
                    /*stream_mode=*/true, /*selective=*/false},
      planned, {}, std::vector<int>(p, 0));
  uint64_t reads = 0;
  uint64_t writes = 0;
  for (const PlannedAccess& a : plan.Accesses()) (a.write ? writes : reads)++;
  uint64_t resident_row_reads = 0;
  uint64_t hub_reads = 0;
  for (const auto& group : plan.phase_c) {
    resident_row_reads += group.directions[0].row_runs.size();
    hub_reads += group.directions[0].hub_reads.size();
  }
  uint64_t hub_writes = 0;
  for (const auto& group : plan.phase_b) hub_writes += group.writes.size();
  const HubLayout layout =
      PlanHubLayout(m, PlanConfig{q, sizeof(double), EdgeDirection::kForward,
                                  /*stream_mode=*/true, /*selective=*/false});

  // Every row's hubs outgrow the raw row cap here, so each of the 12 disk
  // rows is a row group of its own, and the accumulators and resident
  // blobs split the 12 disk columns into 2 column groups. Phase B writes
  // each of the 24 tiles with one call: 24 hub writes and 12 interval
  // writes. Reads: 4 + 24 + 8 + 17 + 12, the 48 resident-row blobs taking
  // 8 reads (4 rows in each of 2 column groups) and each group's hubs 17
  // runs cut at the raw row cap.
  EXPECT_EQ(layout.row_groups.size(), 12u);
  EXPECT_EQ(layout.column_groups.size(), 2u);
  EXPECT_EQ(hub_writes, layout.row_groups.size() * layout.column_groups.size());
  EXPECT_EQ(reads, 65u);
  EXPECT_EQ(writes, 36u);
  EXPECT_EQ(resident_row_reads, 8u);
  EXPECT_EQ(hub_reads, 17u);
  EXPECT_EQ(resident_row_blobs, 48u);
  // Setup writes each disk interval's initial values once.
  EXPECT_EQ(stats->env_read_calls, 3 * reads);
  EXPECT_EQ(stats->env_write_calls, (p - q) + 3 * writes);
}

TEST(EngineTest, ResultsIdenticalAcrossThreadCounts) {
  EdgeList edges = testing::RandomGraph(500, 6000, 30);
  auto ms = testing::BuildMemStore(edges, 6);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  std::vector<double> baseline;
  for (int threads : {0, 1, 2, 4}) {
    RunOptions opt;
    opt.num_threads = threads;
    opt.max_iterations = 4;
    Engine<PageRankProgram> engine(ms.store, program, opt);
    auto stats = engine.Run();
    ASSERT_TRUE(stats.ok());
    if (baseline.empty()) {
      baseline = engine.values();
    } else {
      // Destination-owned accumulation makes the FP reduction order
      // deterministic regardless of the thread count.
      EXPECT_EQ(engine.values(), baseline) << threads << " threads";
    }
  }
}

// The SIMD decode path is a pure accelerator: force-scalar runs and runs on
// the best hardware path are bit-identical on both on-disk formats, and
// RunStats reports which path ran plus the bulk-decode counters.
TEST(EngineDecodeTest, ResultsBitIdenticalAcrossDecodePaths) {
  EdgeList plain = testing::RandomGraph(300, 3000, 41);
  EdgeList weighted = testing::RandomGraph(300, 3000, 42, /*weighted=*/true);
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    SCOPED_TRACE(SubShardFormatName(f));
    auto ms = testing::BuildMemStore(plain, 4, true, f);
    auto msw = testing::BuildMemStore(weighted, 4, true, f);

    RunOptions scalar;
    scalar.num_threads = 2;
    scalar.simd_decode = SimdDecode::kForceScalar;
    // Stream mode for half the programs so the decode path runs every
    // iteration, not just at first touch.
    RunOptions simd = scalar;
    simd.simd_decode = SimdDecode::kAuto;

    {
      PageRankProgram program;
      program.num_vertices = ms.store->num_vertices();
      RunOptions a = scalar, b = simd;
      a.max_iterations = b.max_iterations = 4;
      Engine<PageRankProgram> e1(ms.store, program, a);
      auto s1 = e1.Run();
      ASSERT_TRUE(s1.ok());
      Engine<PageRankProgram> e2(ms.store, program, b);
      auto s2 = e2.Run();
      ASSERT_TRUE(s2.ok());
      EXPECT_EQ(e1.values(), e2.values()) << "PageRank";
      EXPECT_EQ(s1->decode_path, "scalar");
      EXPECT_EQ(s2->decode_path, DecodePathName(BestHardwareDecodePath()));
      if (f == SubShardFormat::kNxs2) {
        // NXS2 decoding goes through the bulk API on every path; NXS1 is a
        // raw memcpy format and never does.
        EXPECT_GT(s1->bulk_decode_calls, 0u);
        EXPECT_GT(s2->bulk_decode_calls, 0u);
        EXPECT_EQ(s1->bulk_decode_calls, s2->bulk_decode_calls);
      } else {
        EXPECT_EQ(s1->bulk_decode_calls, 0u);
      }
    }
    {
      SsspProgram program;
      program.root = 0;
      Engine<SsspProgram> e1(msw.store, program, scalar);
      Engine<SsspProgram> e2(msw.store, program, simd);
      ASSERT_TRUE(e1.Run().ok());
      ASSERT_TRUE(e2.Run().ok());
      EXPECT_EQ(e1.values(), e2.values()) << "SSSP";
    }
    {
      // Streaming: a tight budget forces re-reads (and re-decodes) every
      // iteration through the prefetch pipeline.
      WccProgram program;
      RunOptions a = scalar, b = simd;
      a.direction = b.direction = EdgeDirection::kBoth;
      a.memory_budget_bytes = b.memory_budget_bytes =
          2 * ms.store->num_vertices() * sizeof(uint32_t) +
          ms.store->num_vertices() * 4 + 4096;
      a.prefetch_depth = b.prefetch_depth = 2;
      a.io_threads = b.io_threads = 1;
      Engine<WccProgram> e1(ms.store, program, a);
      auto s1 = e1.Run();
      ASSERT_TRUE(s1.ok()) << s1.status().ToString();
      Engine<WccProgram> e2(ms.store, program, b);
      auto s2 = e2.Run();
      ASSERT_TRUE(s2.ok()) << s2.status().ToString();
      EXPECT_EQ(e1.values(), e2.values()) << "WCC streamed";
      if (f == SubShardFormat::kNxs2) {
        EXPECT_EQ(s1->bulk_decode_calls, s2->bulk_decode_calls);
        EXPECT_GT(s2->bulk_decode_calls, 0u);
        EXPECT_GT(s2->decode_seconds, 0.0);
      }
    }
  }
}

TEST(EngineDecodeTest, RunStatsReportResolvedDecodePath) {
  EdgeList edges = testing::RandomGraph(100, 800, 43);
  auto ms = testing::BuildMemStore(edges, 2, false, SubShardFormat::kNxs2);
  BfsProgram program;
  program.root = 0;
  for (SimdDecode mode : {SimdDecode::kAuto, SimdDecode::kForceScalar}) {
    RunOptions opt;
    opt.simd_decode = mode;
    Engine<BfsProgram> engine(ms.store, program, opt);
    auto stats = engine.Run();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->decode_path, DecodePathName(ResolveDecodePath(mode)));
    EXPECT_GT(stats->bulk_decode_calls, 0u);
  }
}

}  // namespace
}  // namespace nxgraph
