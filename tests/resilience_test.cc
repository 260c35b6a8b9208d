// Transient-fault resilience tests: the engine soak matrix runs
// PageRank/WCC/BFS across SPU/DPU/MPU on a FlakyEnv injecting ~1% transient
// read/write/flush errors and short reads — results must be bit-identical to
// the fault-free run, with the retries visible in RunStats. A zero-rate
// FlakyEnv run must report zero retries (the retry layer is pure bookkeeping
// on a healthy device). The downgrade test kills the io_uring ring mid-run
// and requires the run to complete through the buffered reopen path with
// backend_downgrades == 1 and unchanged results.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/algos/programs.h"
#include "src/engine/engine.h"
#include "src/io/flaky_env.h"
#include "src/io/posix_base.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

// No bit_flip in the soak rates: engine phases verify each sub-shard's
// checksum only on first touch, so a flip injected into an unverified
// re-read would silently corrupt results instead of being healed. Bit
// flips are exercised at the store layer (flaky_env_test.cc), where every
// read verifies.
FlakyFaultRates SoakRates(uint64_t seed) {
  FlakyFaultRates rates;
  rates.read_error = 0.01;
  rates.write_error = 0.01;
  rates.flush_error = 0.01;
  rates.short_read = 0.01;
  rates.seed = seed;
  return rates;
}

struct StrategyCase {
  UpdateStrategy strategy;
  const char* name;
};

constexpr StrategyCase kStrategies[] = {
    {UpdateStrategy::kSinglePhase, "spu"},
    {UpdateStrategy::kDoublePhase, "dpu"},
    {UpdateStrategy::kMixedPhase, "mpu"},
};

RunOptions SoakOptions(UpdateStrategy strategy, uint64_t num_vertices,
                       const std::string& scratch) {
  RunOptions opt;
  opt.strategy = strategy;
  if (strategy == UpdateStrategy::kMixedPhase) {
    // Roughly half the intervals resident: hubs AND interval segments on
    // disk, so every pipeline sees faults.
    opt.memory_budget_bytes =
        num_vertices * sizeof(double) + num_vertices * 4;
  }
  opt.num_threads = 3;
  opt.io_threads = 2;
  opt.max_iterations = 4;
  opt.scratch_dir = scratch;
  return opt;
}

// Runs `program` once fault-free and once per strategy on a 1%-flaky env;
// values must match bit-identically and the injected faults must surface
// as retries, never as errors or wrong results.
template <typename Program>
void RunSoakMatrix(const EdgeList& edges, Program program,
                   EdgeDirection direction, uint64_t soak_seed) {
  auto ms = testing::BuildMemStore(edges, 5);
  uint64_t total_faults = 0;
  for (const StrategyCase& sc : kStrategies) {
    RunOptions clean_opt = SoakOptions(sc.strategy, ms.store->num_vertices(),
                                       std::string("clean_") + sc.name);
    clean_opt.direction = direction;
    Engine<Program> clean(ms.store, program, clean_opt);
    auto clean_stats = clean.Run();
    ASSERT_TRUE(clean_stats.ok()) << sc.name << ": "
                                  << clean_stats.status().ToString();
    EXPECT_EQ(clean_stats->io_retries, 0u) << sc.name;

    FlakyEnv flaky(ms.env.get(),
                   SoakRates(soak_seed + static_cast<uint64_t>(sc.strategy)));
    auto reopened = GraphStore::Open(&flaky, "g");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    RunOptions soak_opt = SoakOptions(sc.strategy, ms.store->num_vertices(),
                                      std::string("soak_") + sc.name);
    soak_opt.direction = direction;
    Engine<Program> soaked(*reopened, program, soak_opt);
    auto stats = soaked.Run();
    ASSERT_TRUE(stats.ok()) << sc.name << " under faults: "
                            << stats.status().ToString();
    EXPECT_EQ(soaked.values(), clean.values())
        << sc.name << " diverged under transient faults";
    if (flaky.injected_faults() > 0) {
      EXPECT_GT(stats->io_retries, 0u) << sc.name;
      EXPECT_GT(stats->retry_wait_seconds, 0.0) << sc.name;
    }
    total_faults += flaky.injected_faults();
  }
  // The matrix as a whole must actually have exercised the fault paths.
  EXPECT_GT(total_faults, 0u);
}

TEST(ResilienceSoakTest, PageRankSurvivesTransientFaults) {
  EdgeList edges = testing::RandomGraph(400, 6000, 21);
  PageRankProgram program;
  program.num_vertices = 400;
  RunSoakMatrix(edges, program, EdgeDirection::kForward, 100);
}

TEST(ResilienceSoakTest, WccSurvivesTransientFaults) {
  EdgeList edges = testing::RandomGraph(400, 6000, 22);
  RunSoakMatrix(edges, WccProgram{}, EdgeDirection::kBoth, 200);
}

TEST(ResilienceSoakTest, BfsSurvivesTransientFaults) {
  EdgeList edges = testing::RandomGraph(400, 6000, 23);
  BfsProgram program;
  program.root = 1;
  RunSoakMatrix(edges, program, EdgeDirection::kForward, 300);
}

// Checkpoint commits ride the same retry layer: a checkpointed run on a
// flaky env still resumes nothing, retries its segment copies/record
// commits, and converges to the clean values.
TEST(ResilienceSoakTest, CheckpointedRunSurvivesTransientFaults) {
  EdgeList edges = testing::RandomGraph(300, 4000, 31);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = 300;

  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 4;
  opt.num_threads = 2;
  opt.checkpoint_interval = 1;
  opt.scratch_dir = "ckpt_clean";
  Engine<PageRankProgram> clean(ms.store, program, opt);
  ASSERT_TRUE(clean.Run().ok());

  FlakyEnv flaky(ms.env.get(), SoakRates(77));
  auto reopened = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(reopened.ok());
  opt.scratch_dir = "ckpt_soak";
  Engine<PageRankProgram> soaked(*reopened, program, opt);
  auto stats = soaked.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->checkpoints_written, 4);
  EXPECT_EQ(soaked.values(), clean.values());
  if (flaky.injected_faults() > 0) {
    EXPECT_GT(stats->io_retries, 0u);
  }
}

// Healthy device: a zero-rate FlakyEnv injects nothing and every
// resilience counter stays at zero — the retry layer must be invisible.
TEST(ResilienceSoakTest, ZeroFaultRateMeansZeroRetries) {
  EdgeList edges = testing::RandomGraph(300, 4000, 41);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = 300;

  FlakyEnv flaky(ms.env.get());
  auto reopened = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(reopened.ok());
  RunOptions opt;
  opt.strategy = UpdateStrategy::kMixedPhase;
  opt.memory_budget_bytes = 300 * sizeof(double) + 300 * 4;
  opt.max_iterations = 3;
  Engine<PageRankProgram> engine(*reopened, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(flaky.injected_faults(), 0u);
  EXPECT_EQ(stats->io_retries, 0u);
  EXPECT_EQ(stats->retry_wait_seconds, 0.0);
  EXPECT_EQ(stats->checksum_rereads, 0u);
  EXPECT_EQ(stats->backend_downgrades, 0u);
  EXPECT_EQ(stats->dropped_write_errors, 0u);
}

// ---- mid-run backend downgrade --------------------------------------------

class DowngradeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/nxgraph_resilience_XXXXXX";
    root_ = mkdtemp(tmpl);
    ASSERT_FALSE(root_.empty());
  }
  void TearDown() override {
    internal::SetUringFailAfterForTest(0);  // re-arm "never fail"
    ASSERT_TRUE(Env::Default()->RemoveDirRecursively(root_).ok());
  }

  std::string Path(const std::string& name) const { return root_ + "/" + name; }

  std::string root_;
};

// The ring dies mid-run: every subsequent submission returns the dead-ring
// -EIO, a permanent error. The engine must reopen its files on the
// buffered Env, restart the interrupted step, and finish with results
// identical to a clean run — one downgrade, reported in RunStats.
TEST_F(DowngradeTest, UringRingDeathDowngradesToBufferedMidRun) {
  if (!UringSupported()) GTEST_SKIP() << "io_uring unavailable";
  EdgeList edges = testing::RandomGraph(500, 7000, 55);
  BuildOptions build;
  build.num_intervals = 5;
  build.build_transpose = true;
  auto store = BuildGraphStore(edges, Path("store"), build);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  PageRankProgram program;
  program.num_vertices = (*store)->num_vertices();

  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 4;
  opt.num_threads = 2;
  opt.io_threads = 2;

  RunOptions clean_opt = opt;
  clean_opt.scratch_dir = Path("clean");
  Engine<PageRankProgram> clean(*store, program, clean_opt);
  ASSERT_TRUE(clean.Run().ok());

  opt.io_backend = IoBackend::kUring;
  opt.scratch_dir = Path("uring");
  Engine<PageRankProgram> engine(*store, program, opt);
  // Let setup and some of the run proceed on the ring, then kill it.
  internal::SetUringFailAfterForTest(40);
  auto stats = engine.Run();
  internal::SetUringFailAfterForTest(0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->backend_downgrades, 1u);
  EXPECT_EQ(stats->io_backend, "buffered");
  EXPECT_EQ(stats->iterations, 4);
  EXPECT_EQ(engine.values(), clean.values());
}

// A blob is marked checksum-verified only once it decodes, so a blob whose
// first read died with the ring is verified when the downgraded re-run
// reads it again. One byte of blob (3, 3)'s last weight is flipped, which
// only the checksum can catch: wherever the ring dies, cached and streamed
// SSSP must both end in Corruption, never in values computed from the
// flipped weight.
TEST_F(DowngradeTest, ReRunAfterDowngradeStillVerifiesChecksums) {
  if (!UringSupported()) GTEST_SKIP() << "io_uring unavailable";
  EdgeList edges = testing::RandomGraph(400, 4000, 57, /*weighted=*/true);
  BuildOptions build;
  build.num_intervals = 4;
  build.build_transpose = false;
  auto built = BuildGraphStore(edges, Path("store"), build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const uint64_t n = (*built)->num_vertices();
  // Blobs end with the raw weights and then the 4-byte checksum.
  const SubShardMeta& meta = (*built)->manifest().subshard(3, 3);
  ASSERT_GT(meta.num_edges, 0u);
  const std::string shards = Path("store") + "/subshards.nxs";
  std::string data;
  ASSERT_TRUE(ReadFileToString(Env::Default(), shards, &data).ok());
  data[meta.offset + meta.size - 8] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(Env::Default(), shards, data).ok());
  auto store = GraphStore::Open(Env::Default(), Path("store"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  SsspProgram program;
  program.root = 0;
  for (bool cached : {true, false}) {
    for (uint64_t fail_after = 0; fail_after <= 30; ++fail_after) {
      RunOptions opt;
      opt.strategy = UpdateStrategy::kSinglePhase;
      opt.memory_budget_bytes =
          cached ? 0 : 2 * n * sizeof(SsspProgram::Value) + n * 4 + 1;
      opt.num_threads = 2;
      opt.io_backend = IoBackend::kUring;
      Engine<SsspProgram> engine(*store, program, opt);
      internal::SetUringFailAfterForTest(fail_after);
      auto stats = engine.Run();
      internal::SetUringFailAfterForTest(0);
      EXPECT_TRUE(!stats.ok() && stats.status().IsCorruption())
          << (cached ? "cached" : "stream") << " run, ring dies after "
          << fail_after << " submissions: "
          << (stats.ok() ? "accepted the flipped weight"
                         : stats.status().ToString());
    }
  }
}

// Without the kill switch the same run stays on the ring end to end.
TEST_F(DowngradeTest, HealthyUringRunDoesNotDowngrade) {
  if (!UringSupported()) GTEST_SKIP() << "io_uring unavailable";
  EdgeList edges = testing::RandomGraph(300, 4000, 56);
  BuildOptions build;
  build.num_intervals = 4;
  auto store = BuildGraphStore(edges, Path("store"), build);
  ASSERT_TRUE(store.ok());
  PageRankProgram program;
  program.num_vertices = (*store)->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.io_backend = IoBackend::kUring;
  opt.scratch_dir = Path("healthy");
  Engine<PageRankProgram> engine(*store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->backend_downgrades, 0u);
  EXPECT_EQ(stats->io_backend, "uring");
}

}  // namespace
}  // namespace nxgraph
