// Transient-fault resilience tests: the engine soak matrix runs
// PageRank/WCC/BFS across SPU/DPU/MPU on a FlakyEnv injecting ~1% transient
// read/write/flush errors and short reads — results must be bit-identical to
// the fault-free run, with the retries visible in RunStats. A zero-rate
// FlakyEnv run must report zero retries (the retry layer is pure bookkeeping
// on a healthy device), RunStats::checksum_rereads counts the re-reads of
// its own run only, a streaming run heals a bit flip in any iteration's
// sub-shard read, a row read's re-reads follow the retry policy, and bit
// flips in the hub and interval reads of DPU and MPU runs never change
// their values.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/algos/programs.h"
#include "src/engine/engine.h"
#include "src/io/flaky_env.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

// No bit_flip in the soak rates: the soak requires every run to succeed,
// and a sub-shard flip that repeats on all its re-reads fails a run with
// Corruption. Every read is checksummed, so flips can only fail a run,
// never change its values; BitFlipsNeverChangeDiskStrategyValues and
// StreamingSpuHealsFlipsInLaterIterations inject them.
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
  EXPECT_EQ(stats->dropped_write_errors, 0u);
}

// checksum_rereads is per run, not the shared store's lifetime count: a
// clean run after a load that healed a bit flip on the same store reports
// 0, and a run that heals one flip itself reports exactly 1.
TEST(ResilienceSoakTest, ChecksumRereadsCountOnlyTheRunsOwn) {
  EdgeList edges = testing::RandomGraph(300, 4000, 41);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = 300;

  FlakyEnv flaky(ms.env.get());
  auto reopened = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(reopened.ok());
  std::shared_ptr<GraphStore> store = *reopened;
  auto next_read = [&] { return flaky.op_count(FlakyEnv::OpKind::kRead) + 1; };

  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, next_read(),
                      FlakyEnv::FaultKind::kBitFlip);
  ASSERT_TRUE(store->LoadSubShard(0, 0, /*transpose=*/false).ok());
  ASSERT_EQ(store->checksum_rereads(), 1u);

  RunOptions opt;
  opt.strategy = UpdateStrategy::kSinglePhase;
  opt.max_iterations = 2;
  Engine<PageRankProgram> clean(store, program, opt);
  auto clean_stats = clean.Run();
  ASSERT_TRUE(clean_stats.ok()) << clean_stats.status().ToString();
  EXPECT_EQ(clean_stats->checksum_rereads, 0u);

  // Unlimited-budget SPU reads every blob once, in its first iteration, as
  // row runs: the run's first read is a row run, and its flip heals.
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, next_read(),
                      FlakyEnv::FaultKind::kBitFlip);
  Engine<PageRankProgram> healed(store, program, opt);
  auto healed_stats = healed.Run();
  ASSERT_TRUE(healed_stats.ok()) << healed_stats.status().ToString();
  EXPECT_EQ(flaky.injected_bit_flips(), 2u);
  EXPECT_EQ(healed_stats->checksum_rereads, 1u);
  EXPECT_EQ(healed.values(), clean.values());
}

// Streaming SPU re-reads every blob each iteration, and every read is
// verified, not only a blob's first: a bit flipped in a later iteration's
// read costs one checksum re-read and leaves the values equal to the clean
// run's.
TEST(ResilienceSoakTest, StreamingSpuHealsFlipsInLaterIterations) {
  EdgeList edges = testing::RandomGraph(400, 6000, 21);
  auto ms = testing::BuildMemStore(edges, 5);
  const uint64_t n = ms.store->num_vertices();
  PageRankProgram program;
  program.num_vertices = n;

  FlakyEnv flaky(ms.env.get());
  auto reopened = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(reopened.ok());
  RunOptions opt;
  opt.strategy = UpdateStrategy::kSinglePhase;
  // Vertex state and degrees fit, decoded blobs do not: stream mode.
  opt.memory_budget_bytes = 2 * n * sizeof(double) + n * 4 + 1;
  opt.prefetch_depth = 0;  // synchronous reads in a fixed order
  opt.num_threads = 2;
  opt.max_iterations = 4;

  Engine<PageRankProgram> clean(*reopened, program, opt);
  auto clean_stats = clean.Run();
  ASSERT_TRUE(clean_stats.ok()) << clean_stats.status().ToString();
  ASSERT_EQ(clean_stats->checksum_rereads, 0u);
  // Every read of the run is a row run, the same ones each iteration.
  const uint64_t reads = flaky.op_count(FlakyEnv::OpKind::kRead);
  ASSERT_EQ(reads % opt.max_iterations, 0u);
  const uint64_t per_iteration = reads / opt.max_iterations;
  ASSERT_GE(per_iteration, 3u);

  // Flip the k-th row read of iteration k, for k = 1..3. Each flip adds
  // one re-read, so later reads move one op further along per flip.
  uint64_t flips = 0;
  for (uint64_t k = 1; k < 4; ++k) {
    flaky.ScheduleFault(FlakyEnv::OpKind::kRead,
                        reads + k * per_iteration + k + flips,
                        FlakyEnv::FaultKind::kBitFlip);
    ++flips;
  }
  Engine<PageRankProgram> healed(*reopened, program, opt);
  auto stats = healed.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(flaky.injected_bit_flips(), flips);
  EXPECT_EQ(stats->checksum_rereads, flips);
  EXPECT_EQ(healed.values(), clean.values());
}

// A sub-shard row read gets the retry policy's attempts, as hub and
// interval reads do: a row read flipped on 3 consecutive reads (the read
// and its first two re-reads) heals on the third re-read with clean
// values, and one flipped on every attempt fails the run with Corruption
// after max_attempts - 1 re-reads. With retries off a row read still gets
// one re-read.
TEST(ResilienceSoakTest, RowRereadsGetTheRetryPolicysAttempts) {
  EdgeList edges = testing::RandomGraph(400, 6000, 21);
  auto ms = testing::BuildMemStore(edges, 5);
  const uint64_t n = ms.store->num_vertices();
  PageRankProgram program;
  program.num_vertices = n;

  FlakyEnv flaky(ms.env.get());
  auto reopened = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(reopened.ok());
  const std::shared_ptr<GraphStore> store = *reopened;
  RunOptions opt;
  opt.strategy = UpdateStrategy::kSinglePhase;
  // Vertex state and degrees fit, decoded blobs do not: stream mode.
  opt.memory_budget_bytes = 2 * n * sizeof(double) + n * 4 + 1;
  opt.prefetch_depth = 0;  // synchronous reads in a fixed order
  opt.num_threads = 2;
  opt.max_iterations = 3;
  ASSERT_EQ(opt.retry.max_attempts, 4);

  Engine<PageRankProgram> clean(store, program, opt);
  auto clean_stats = clean.Run();
  ASSERT_TRUE(clean_stats.ok()) << clean_stats.status().ToString();
  ASSERT_EQ(clean_stats->checksum_rereads, 0u);
  const uint64_t reads = flaky.op_count(FlakyEnv::OpKind::kRead);
  ASSERT_EQ(reads % opt.max_iterations, 0u);
  const uint64_t per_iteration = reads / opt.max_iterations;
  ASSERT_GE(per_iteration, 2u);

  // The second row read of the run's second iteration, flipped on the
  // read itself and on the re-reads after it.
  uint64_t first = reads + per_iteration + 2;
  for (uint64_t k = 0; k < 3; ++k) {
    flaky.ScheduleFault(FlakyEnv::OpKind::kRead, first + k,
                        FlakyEnv::FaultKind::kBitFlip);
  }
  Engine<PageRankProgram> healed(store, program, opt);
  auto stats = healed.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(flaky.injected_bit_flips(), 3u);
  EXPECT_EQ(stats->checksum_rereads, 3u);
  EXPECT_EQ(healed.values(), clean.values());

  const uint64_t rereads_before = store->checksum_rereads();
  first = flaky.op_count(FlakyEnv::OpKind::kRead) + per_iteration + 2;
  for (uint64_t k = 0; k < 4; ++k) {
    flaky.ScheduleFault(FlakyEnv::OpKind::kRead, first + k,
                        FlakyEnv::FaultKind::kBitFlip);
  }
  Engine<PageRankProgram> failed(store, program, opt);
  auto failed_stats = failed.Run();
  ASSERT_FALSE(failed_stats.ok());
  EXPECT_TRUE(failed_stats.status().IsCorruption())
      << failed_stats.status().ToString();
  EXPECT_EQ(flaky.injected_bit_flips(), 7u);
  EXPECT_EQ(store->checksum_rereads() - rereads_before, 3u);

  // With retries off (max_attempts = 1) a row still gets one re-read.
  opt.retry.max_attempts = 1;
  first = flaky.op_count(FlakyEnv::OpKind::kRead) + per_iteration + 2;
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, first,
                      FlakyEnv::FaultKind::kBitFlip);
  Engine<PageRankProgram> floor(store, program, opt);
  auto floor_stats = floor.Run();
  ASSERT_TRUE(floor_stats.ok()) << floor_stats.status().ToString();
  EXPECT_EQ(flaky.injected_bit_flips(), 8u);
  EXPECT_EQ(floor_stats->checksum_rereads, 1u);
  EXPECT_EQ(floor.values(), clean.values());
}

// DPU and MPU runs read hub runs and interval segments as well as
// sub-shard rows, and every one of those reads is checksummed: under 5 %
// bit flips per read, each run heals its flips (a sub-shard re-read, or a
// retried hub or interval read) and returns the clean values, or fails
// with Corruption when a flip repeats past them. No run returns wrong
// values.
TEST(ResilienceSoakTest, BitFlipsNeverChangeDiskStrategyValues) {
  EdgeList edges = testing::RandomGraph(400, 6000, 21);
  auto ms = testing::BuildMemStore(edges, 5);
  const uint64_t n = ms.store->num_vertices();
  PageRankProgram program;
  program.num_vertices = n;
  for (const UpdateStrategy strategy :
       {UpdateStrategy::kDoublePhase, UpdateStrategy::kMixedPhase}) {
    RunOptions opt = SoakOptions(strategy, n, "flip_clean");
    opt.max_iterations = 5;
    Engine<PageRankProgram> clean(ms.store, program, opt);
    auto clean_stats = clean.Run();
    ASSERT_TRUE(clean_stats.ok()) << clean_stats.status().ToString();
    opt.scratch_dir = "flip";
    int healed = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(clean_stats->strategy + " seed " + std::to_string(seed));
      FlakyFaultRates rates;
      rates.bit_flip = 0.05;
      rates.seed = seed;
      FlakyEnv flaky(ms.env.get(), rates);
      auto reopened = GraphStore::Open(&flaky, "g");
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      Engine<PageRankProgram> flipped(*reopened, program, opt);
      auto stats = flipped.Run();
      ASSERT_GT(flaky.injected_bit_flips(), 0u);
      if (stats.ok()) {
        EXPECT_EQ(flipped.values(), clean.values());
        ++healed;
      } else {
        EXPECT_TRUE(stats.status().IsCorruption())
            << stats.status().ToString();
      }
    }
    EXPECT_GT(healed, 0);  // not vacuous: most of the 20 runs heal
  }
}

}  // namespace
}  // namespace nxgraph
