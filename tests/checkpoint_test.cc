// Checkpoint/restart: record round-trips, and the restart parity matrix —
// every algorithm resumed at every iteration boundary, across strategies
// and writeback budgets, must reproduce the uninterrupted run bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/algos/programs.h"
#include "src/engine/checkpoint.h"
#include "src/engine/engine.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

// ---- record unit tests ----------------------------------------------------

CheckpointState SampleState() {
  CheckpointState s;
  s.graph_fingerprint = 0x1234567890ABCDEFull;
  s.program_id = 0xFEDCBA0987654321ull;
  s.program_state = 0x0F1E2D3C4B5A6978ull;
  s.direction = 2;
  s.value_bytes = 8;
  s.num_intervals = 5;
  s.resident_intervals = 2;
  s.iteration = 7;
  s.has_snapshot = 1;
  s.snapshot_parity = 1;
  s.value_parity = {0, 1, 1, 0, 1};
  s.active = {1, 0, 1, 1, 0};
  return s;
}

TEST(CheckpointRecordTest, EncodeDecodeRoundTrip) {
  const CheckpointState s = SampleState();
  auto decoded = CheckpointState::Decode(s.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->graph_fingerprint, s.graph_fingerprint);
  EXPECT_EQ(decoded->program_id, s.program_id);
  EXPECT_EQ(decoded->program_state, s.program_state);
  EXPECT_EQ(decoded->direction, s.direction);
  EXPECT_EQ(decoded->value_bytes, s.value_bytes);
  EXPECT_EQ(decoded->num_intervals, s.num_intervals);
  EXPECT_EQ(decoded->resident_intervals, s.resident_intervals);
  EXPECT_EQ(decoded->iteration, s.iteration);
  EXPECT_EQ(decoded->has_snapshot, s.has_snapshot);
  EXPECT_EQ(decoded->snapshot_parity, s.snapshot_parity);
  EXPECT_EQ(decoded->value_parity, s.value_parity);
  EXPECT_EQ(decoded->active, s.active);
}

TEST(CheckpointRecordTest, CrcCatchesEveryOneByteCorruption) {
  const std::string encoded = SampleState().Encode();
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string bad = encoded;
    bad[i] ^= 0x40;
    auto decoded = CheckpointState::Decode(bad);
    EXPECT_FALSE(decoded.ok()) << "byte " << i;
  }
}

TEST(CheckpointRecordTest, TruncatedAndEmptyRecordsAreErrors) {
  const std::string encoded = SampleState().Encode();
  EXPECT_FALSE(CheckpointState::Decode("").ok());
  EXPECT_FALSE(CheckpointState::Decode("NX").ok());
  EXPECT_FALSE(
      CheckpointState::Decode(encoded.substr(0, encoded.size() / 2)).ok());
}

TEST(CheckpointManagerTest, WriteLoadRemove) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->CreateDirs("run").ok());
  CheckpointManager mgr(env.get(), "run");
  EXPECT_TRUE(mgr.Load().status().IsNotFound());
  ASSERT_TRUE(mgr.Write(SampleState()).ok());
  auto loaded = mgr.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->iteration, 7u);
  ASSERT_TRUE(mgr.Remove().ok());
  EXPECT_TRUE(mgr.Load().status().IsNotFound());
}

// ---- restart parity matrix ------------------------------------------------

struct MatrixConfig {
  UpdateStrategy strategy;
  uint64_t writeback;
  const char* name;
};

std::vector<MatrixConfig> MatrixConfigs() {
  return {
      {UpdateStrategy::kSinglePhase, 0, "SPU/wb0"},
      {UpdateStrategy::kSinglePhase, 8ull << 20, "SPU/wb8M"},
      {UpdateStrategy::kDoublePhase, 0, "DPU/wb0"},
      {UpdateStrategy::kDoublePhase, 8ull << 20, "DPU/wb8M"},
      {UpdateStrategy::kMixedPhase, 0, "MPU/wb0"},
      {UpdateStrategy::kMixedPhase, 8ull << 20, "MPU/wb8M"},
  };
}

RunOptions MatrixOptions(const MatrixConfig& cfg, EdgeDirection direction,
                         uint64_t mpu_budget, const std::string& scratch) {
  RunOptions opt;
  opt.strategy = cfg.strategy;
  opt.direction = direction;
  opt.num_threads = 2;
  opt.writeback_buffer_bytes = cfg.writeback;
  if (cfg.strategy == UpdateStrategy::kMixedPhase) {
    // Sized per test so 0 < Q < P: genuinely mixed resident/hub phases.
    opt.memory_budget_bytes = mpu_budget;
  }
  opt.scratch_dir = scratch;
  return opt;
}

/// Runs `program`: once uninterrupted, once checkpointed-but-uninterrupted,
/// and then interrupted at every iteration boundary k and resumed — all
/// three must produce bit-identical final values. `max_iters == 0` lets the
/// run terminate by activity.
template <typename Program>
void RestartMatrix(const testing::MemStore& ms, Program program,
                   EdgeDirection direction, uint64_t mpu_budget,
                   int max_iters) {
  int trial = 0;
  for (const MatrixConfig& cfg : MatrixConfigs()) {
    const std::string tag =
        std::string("scratch/") + cfg.name + "/" + std::to_string(trial++);
    RunOptions base = MatrixOptions(cfg, direction, mpu_budget, tag + "/base");
    base.max_iterations = max_iters;
    Engine<Program> baseline(ms.store, program, base);
    auto base_stats = baseline.Run();
    ASSERT_TRUE(base_stats.ok()) << cfg.name << ": "
                                 << base_stats.status().ToString();
    const int total = base_stats->iterations;
    ASSERT_GE(total, 2) << cfg.name << ": matrix needs >= 2 iterations";

    // Checkpointing on, never interrupted: same values, one record per
    // iteration boundary.
    RunOptions full = MatrixOptions(cfg, direction, mpu_budget, tag + "/full");
    full.max_iterations = max_iters;
    full.checkpoint_interval = 1;
    Engine<Program> checkpointed(ms.store, program, full);
    auto full_stats = checkpointed.Run();
    ASSERT_TRUE(full_stats.ok()) << cfg.name;
    EXPECT_EQ(full_stats->resumed_from_iteration, 0) << cfg.name;
    EXPECT_EQ(full_stats->checkpoints_written, total) << cfg.name;
    EXPECT_GE(full_stats->checkpoint_seconds, 0.0);
    EXPECT_EQ(checkpointed.values(), baseline.values()) << cfg.name;

    // Interrupt at every boundary k, then resume to completion.
    for (int k = 1; k < total; ++k) {
      const std::string scratch = tag + "/k" + std::to_string(k);
      RunOptions leg1 = MatrixOptions(cfg, direction, mpu_budget, scratch);
      leg1.max_iterations = k;
      leg1.checkpoint_interval = 1;
      {
        Engine<Program> interrupted(ms.store, program, leg1);
        auto stats = interrupted.Run();
        ASSERT_TRUE(stats.ok()) << cfg.name << " k=" << k;
        ASSERT_EQ(stats->iterations, k);
      }
      RunOptions leg2 = leg1;
      leg2.max_iterations = max_iters;
      Engine<Program> resumed(ms.store, program, leg2);
      auto stats = resumed.Run();
      ASSERT_TRUE(stats.ok()) << cfg.name << " k=" << k;
      EXPECT_EQ(stats->resumed_from_iteration, k) << cfg.name << " k=" << k;
      EXPECT_EQ(stats->iterations, total) << cfg.name << " k=" << k;
      EXPECT_EQ(resumed.values(), baseline.values())
          << cfg.name << " resumed at k=" << k;
    }
  }
}

TEST(CheckpointMatrixTest, PageRankResumesBitIdentical) {
  EdgeList edges = testing::RandomGraph(400, 4000, 51);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RestartMatrix(ms, program, EdgeDirection::kForward,
                /*mpu_budget=*/6000, /*max_iters=*/4);
}

TEST(CheckpointMatrixTest, WccResumesBitIdentical) {
  EdgeList edges = testing::RandomGraph(250, 600, 52);
  auto ms = testing::BuildMemStore(edges, 4);
  RestartMatrix(ms, WccProgram{}, EdgeDirection::kBoth,
                /*mpu_budget=*/3000, /*max_iters=*/0);
}

// BFS skips blobs by summary, so it also resumes on an NXS1 store without
// summaries, where every iteration plans every row.
TEST(CheckpointMatrixTest, BfsResumesBitIdentical) {
  EdgeList edges = testing::RandomGraph(300, 1800, 53);
  BfsProgram program;
  program.root = 0;
  const testing::MemStore stores[] = {
      testing::BuildMemStore(edges, 4),
      testing::BuildMemStore(edges, 4, /*transpose=*/true,
                             SubShardFormat::kNxs1, SummaryParams{0, 0})};
  for (const testing::MemStore& ms : stores) {
    SCOPED_TRACE(ms.store->manifest().has_summaries() ? "nxs2, summaries"
                                                      : "nxs1, no summaries");
    RestartMatrix(ms, program, EdgeDirection::kForward,
                  /*mpu_budget=*/2700, /*max_iters=*/0);
  }
}

TEST(CheckpointMatrixTest, SsspResumesBitIdentical) {
  EdgeList edges = testing::RandomGraph(200, 1500, 54, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4);
  SsspProgram program;
  program.root = 0;
  RestartMatrix(ms, program, EdgeDirection::kForward,
                /*mpu_budget=*/1800, /*max_iters=*/0);
}

// ---- checkpoint interval > 1 (side snapshot store) ------------------------

TEST(CheckpointIntervalTest, SparseCheckpointsResumeFromLatestBoundary) {
  EdgeList edges = testing::RandomGraph(300, 3000, 55);
  auto ms = testing::BuildMemStore(edges, 5);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();

  for (UpdateStrategy strategy :
       {UpdateStrategy::kDoublePhase, UpdateStrategy::kMixedPhase,
        UpdateStrategy::kSinglePhase}) {
    MatrixConfig cfg{strategy, 8ull << 20, "interval2"};
    const std::string tag =
        "scratch/interval2/" + std::to_string(static_cast<int>(strategy));
    RunOptions base =
        MatrixOptions(cfg, EdgeDirection::kForward, 3200, tag + "/b");
    base.max_iterations = 5;
    Engine<PageRankProgram> baseline(ms.store, program, base);
    ASSERT_TRUE(baseline.Run().ok());

    // Stop at iteration 5 with checkpoints every 2: the latest record is
    // from boundary 4, so the resumed run re-executes iteration 5.
    RunOptions leg1 =
        MatrixOptions(cfg, EdgeDirection::kForward, 3200, tag + "/s");
    leg1.max_iterations = 5;
    leg1.checkpoint_interval = 2;
    {
      Engine<PageRankProgram> interrupted(ms.store, program, leg1);
      auto stats = interrupted.Run();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->checkpoints_written, 2);
    }
    RunOptions leg2 = leg1;
    leg2.max_iterations = 5;
    Engine<PageRankProgram> resumed(ms.store, program, leg2);
    auto stats = resumed.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->resumed_from_iteration, 4);
    EXPECT_EQ(stats->iterations, 5);
    EXPECT_EQ(resumed.values(), baseline.values());
  }
}

// ---- validation fallbacks -------------------------------------------------

TEST(CheckpointFallbackTest, CorruptedRecordFallsBackToFreshStart) {
  EdgeList edges = testing::RandomGraph(200, 2000, 56);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.checkpoint_interval = 1;
  opt.scratch_dir = "scratch/corrupt";
  {
    Engine<PageRankProgram> first(ms.store, program, opt);
    ASSERT_TRUE(first.Run().ok());
  }
  // Flip a byte in the record: resume must fall back to iteration 0 with a
  // warning — not fail, and not silently trust the record.
  const std::string path = std::string("scratch/corrupt/") +
                           kCheckpointFileName;
  std::string data;
  ASSERT_TRUE(ReadFileToString(ms.env.get(), path, &data).ok());
  data[data.size() / 2] ^= 0xFF;
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), path, data).ok());

  opt.max_iterations = 4;
  Engine<PageRankProgram> rerun(ms.store, program, opt);
  auto stats = rerun.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 0);
  EXPECT_EQ(stats->iterations, 4);

  RunOptions plain = opt;
  plain.checkpoint_interval = 0;
  plain.scratch_dir = "scratch/corrupt_base";
  Engine<PageRankProgram> baseline(ms.store, program, plain);
  ASSERT_TRUE(baseline.Run().ok());
  EXPECT_EQ(rerun.values(), baseline.values());
}

// A record of another version is refused even when its CRC32C is
// consistent: a version-1 record describes a values.nxi of the same size
// whose ping and pong segments interleave, which neither the size check
// nor the segments' checksums would catch. The run says why, starts from
// iteration 0 without reading values.nxi, and ends as an uninterrupted run
// does.
TEST(CheckpointFallbackTest, OtherVersionFallsBackToFreshStart) {
  EdgeList edges = testing::RandomGraph(200, 2000, 58);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.checkpoint_interval = 1;
  opt.scratch_dir = "scratch/version";
  {
    Engine<PageRankProgram> first(ms.store, program, opt);
    ASSERT_TRUE(first.Run().ok());
  }
  // The version follows the 4-byte magic, and the record ends with the
  // CRC32C of everything before it.
  const std::string path =
      std::string("scratch/version/") + kCheckpointFileName;
  std::string data;
  ASSERT_TRUE(ReadFileToString(ms.env.get(), path, &data).ok());
  ASSERT_TRUE(CheckpointState::Decode(data).ok());
  const uint32_t version = 1;
  std::memcpy(data.data() + 4, &version, sizeof(version));
  const uint32_t crc = crc32c::Value(data.data(), data.size() - 4);
  std::memcpy(data.data() + data.size() - 4, &crc, sizeof(crc));
  ASSERT_TRUE(CheckpointState::Decode(data).status().IsNotSupported());
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), path, data).ok());

  testing::AccessLogEnv log(ms.env.get());
  auto store = GraphStore::Open(&log, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  opt.max_iterations = 4;
  Engine<PageRankProgram> rerun(*store, program, opt);
  ::testing::internal::CaptureStderr();
  auto stats = rerun.Run();
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(warnings.find("checkpoint version 1"), std::string::npos)
      << warnings;
  EXPECT_EQ(stats->resumed_from_iteration, 0);
  EXPECT_EQ(stats->iterations, 4);
  // The fresh start's first touch of values.nxi writes iteration 0's
  // values; nothing read the old ones.
  const std::vector<testing::LoggedAccess> accesses = log.log();
  const auto first = std::find_if(
      accesses.begin(), accesses.end(), [](const testing::LoggedAccess& a) {
        return a.file == PlanFile::kIntervals;
      });
  ASSERT_NE(first, accesses.end());
  EXPECT_TRUE(first->write);

  RunOptions plain = opt;
  plain.checkpoint_interval = 0;
  plain.scratch_dir = "scratch/version_base";
  Engine<PageRankProgram> baseline(ms.store, program, plain);
  ASSERT_TRUE(baseline.Run().ok());
  EXPECT_EQ(rerun.values(), baseline.values());
}

TEST(CheckpointFallbackTest, StrategyChangeFallsBackToFreshStart) {
  EdgeList edges = testing::RandomGraph(200, 2000, 57);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.checkpoint_interval = 1;
  opt.scratch_dir = "scratch/strategy";
  {
    Engine<PageRankProgram> first(ms.store, program, opt);
    ASSERT_TRUE(first.Run().ok());
  }
  // A DPU checkpoint (Q=0) must not seed an SPU run (Q=P).
  opt.strategy = UpdateStrategy::kSinglePhase;
  opt.max_iterations = 3;
  Engine<PageRankProgram> rerun(ms.store, program, opt);
  auto stats = rerun.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 0);
}

TEST(CheckpointFallbackTest, DifferentAlgorithmFallsBackToFreshStart) {
  // BFS and WCC both use 4-byte values: the record's program identity —
  // not the value size — must reject the cross-resume.
  EdgeList edges = testing::RandomGraph(200, 1200, 61);
  auto ms = testing::BuildMemStore(edges, 4);
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.checkpoint_interval = 1;
  opt.scratch_dir = "scratch/xalgo";
  {
    BfsProgram bfs;
    bfs.root = 0;
    opt.max_iterations = 2;
    Engine<BfsProgram> first(ms.store, bfs, opt);
    ASSERT_TRUE(first.Run().ok());
  }
  opt.direction = EdgeDirection::kBoth;
  opt.max_iterations = 0;
  Engine<WccProgram> rerun(ms.store, WccProgram{}, opt);
  auto stats = rerun.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 0);

  RunOptions plain = opt;
  plain.checkpoint_interval = 0;
  plain.scratch_dir = "scratch/xalgo_base";
  Engine<WccProgram> baseline(ms.store, WccProgram{}, plain);
  ASSERT_TRUE(baseline.Run().ok());
  EXPECT_EQ(rerun.values(), baseline.values());
}

TEST(CheckpointFallbackTest, DifferentParametersFallBackToFreshStart) {
  // Same program type, different root: the record's parameter fingerprint
  // must reject the resume — otherwise root-7 distances would silently
  // continue from root-0 state.
  EdgeList edges = testing::RandomGraph(200, 1200, 63);
  auto ms = testing::BuildMemStore(edges, 4);
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.checkpoint_interval = 1;
  opt.max_iterations = 2;
  opt.scratch_dir = "scratch/xroot";
  {
    BfsProgram bfs;
    bfs.root = 0;
    Engine<BfsProgram> first(ms.store, bfs, opt);
    ASSERT_TRUE(first.Run().ok());
  }
  BfsProgram bfs7;
  bfs7.root = 7;
  opt.max_iterations = 0;
  Engine<BfsProgram> rerun(ms.store, bfs7, opt);
  auto stats = rerun.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 0);
}

TEST(CheckpointFallbackTest, DifferentDirectionFallsBackToFreshStart) {
  // A kBoth WCC checkpoint must not seed a kForward rerun: the hybrid
  // would match neither clean run.
  EdgeList edges = testing::RandomGraph(200, 1200, 64);
  auto ms = testing::BuildMemStore(edges, 4);
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.checkpoint_interval = 1;
  opt.direction = EdgeDirection::kBoth;
  opt.max_iterations = 2;
  opt.scratch_dir = "scratch/xdir";
  {
    Engine<WccProgram> first(ms.store, WccProgram{}, opt);
    ASSERT_TRUE(first.Run().ok());
  }
  opt.direction = EdgeDirection::kForward;
  opt.max_iterations = 0;
  Engine<WccProgram> rerun(ms.store, WccProgram{}, opt);
  auto stats = rerun.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 0);
}

TEST(CheckpointFallbackTest, NonCheckpointingRunInvalidatesStaleRecord) {
  // Run A checkpoints; run B reuses the scratch with checkpointing off
  // (truncating and overwriting the value stores); run C with
  // checkpointing on must NOT resume from A's stale record.
  EdgeList edges = testing::RandomGraph(200, 2000, 62);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.checkpoint_interval = 1;
  opt.max_iterations = 3;
  opt.scratch_dir = "scratch/stale";
  {
    Engine<PageRankProgram> a(ms.store, program, opt);
    ASSERT_TRUE(a.Run().ok());
  }
  {
    RunOptions no_ckpt = opt;
    no_ckpt.checkpoint_interval = 0;
    no_ckpt.max_iterations = 1;
    Engine<PageRankProgram> b(ms.store, program, no_ckpt);
    ASSERT_TRUE(b.Run().ok());
  }
  opt.max_iterations = 4;
  Engine<PageRankProgram> c(ms.store, program, opt);
  auto stats = c.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 0);
  EXPECT_EQ(stats->iterations, 4);
}

TEST(CheckpointFallbackTest, DifferentGraphFallsBackToFreshStart) {
  EdgeList edges_a = testing::RandomGraph(200, 2000, 58);
  EdgeList edges_b = testing::RandomGraph(210, 2100, 59);
  auto ms = testing::BuildMemStore(edges_a, 4);
  // Second store in the same Env, checkpoint scratch shared between runs.
  BuildOptions build;
  build.num_intervals = 4;
  build.env = ms.env.get();
  auto other = BuildGraphStore(edges_b, "g2", build);
  ASSERT_TRUE(other.ok());

  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.checkpoint_interval = 1;
  opt.scratch_dir = "scratch/xgraph";
  {
    Engine<PageRankProgram> first(ms.store, program, opt);
    ASSERT_TRUE(first.Run().ok());
  }
  PageRankProgram program_b;
  program_b.num_vertices = (*other)->num_vertices();
  Engine<PageRankProgram> rerun(*other, program_b, opt);
  auto stats = rerun.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 0);
}

TEST(CheckpointFallbackTest, CheckpointBeyondIterationCapFallsBackToFresh) {
  // A record at iteration 3 must not seed a run capped at 2: the resumed
  // run would report more iterations than asked for. Fresh start matches
  // an uninterrupted capped run exactly.
  EdgeList edges = testing::RandomGraph(200, 2000, 65);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.checkpoint_interval = 1;
  opt.max_iterations = 3;
  opt.scratch_dir = "scratch/cap";
  {
    Engine<PageRankProgram> first(ms.store, program, opt);
    ASSERT_TRUE(first.Run().ok());
  }
  opt.max_iterations = 2;
  Engine<PageRankProgram> rerun(ms.store, program, opt);
  auto stats = rerun.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 0);
  EXPECT_EQ(stats->iterations, 2);

  RunOptions plain = opt;
  plain.checkpoint_interval = 0;
  plain.scratch_dir = "scratch/cap_base";
  Engine<PageRankProgram> baseline(ms.store, program, plain);
  ASSERT_TRUE(baseline.Run().ok());
  EXPECT_EQ(rerun.values(), baseline.values());
}

TEST(CheckpointFallbackTest, DisabledCheckpointingWritesNoRecord) {
  EdgeList edges = testing::RandomGraph(150, 1200, 60);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.scratch_dir = "scratch/off";
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->checkpoints_written, 0);
  EXPECT_FALSE(ms.env->FileExists(std::string("scratch/off/") +
                                  kCheckpointFileName));
}

}  // namespace
}  // namespace nxgraph
