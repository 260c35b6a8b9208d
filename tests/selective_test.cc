// Selective scheduling: per-blob source summaries (manifest v3) must skip
// inactive sub-shards end-to-end — engine phases and server query planning
// — while keeping every result bit-identical to a summaries-off run.
// Also covers the topology-only fingerprint (checkpoints survive a
// manifest version bump) and the PlanRound budget edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/algos/programs.h"
#include "src/algos/reference.h"
#include "src/engine/engine.h"
#include "src/prep/manifest.h"
#include "src/prep/source_summary.h"
#include "src/server/graph_server.h"
#include "src/util/crc32c.h"
#include "src/util/serialize.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

// ---- Summary primitives --------------------------------------------------

TEST(SourceSummaryTest, LayoutSelectsBitmapOrBloom) {
  SummaryParams params;  // defaults: bitmap <= 4096 bits, bloom 512 bits
  const SummaryLayout small = MakeSummaryLayout(params, 100, 4096);
  EXPECT_EQ(small.kind, SummaryKind::kBitmap);
  EXPECT_EQ(small.base, 100u);
  EXPECT_EQ(small.bits, 4096u);
  EXPECT_EQ(small.words(), 64u);

  const SummaryLayout big = MakeSummaryLayout(params, 0, 4097);
  EXPECT_EQ(big.kind, SummaryKind::kBloom);
  EXPECT_EQ(big.bits, 512u);

  const SummaryLayout off = MakeSummaryLayout(SummaryParams{0, 0}, 0, 1000);
  EXPECT_EQ(off.kind, SummaryKind::kNone);
}

TEST(SourceSummaryTest, BitmapIsExact) {
  const SummaryLayout layout = MakeSummaryLayout(SummaryParams{}, 50, 200);
  ASSERT_EQ(layout.kind, SummaryKind::kBitmap);
  std::vector<uint64_t> summary(layout.words(), 0);
  for (VertexId v : {50u, 77u, 249u}) {
    SummaryAddVertex(layout, v, summary.data());
  }
  FrontierFilter f;
  f.layout = layout;
  for (VertexId v = 50; v < 250; ++v) {
    f.ResetToEmpty();
    f.Add(v);
    const bool expect = v == 50 || v == 77 || v == 249;
    EXPECT_EQ(f.MayIntersect(summary), expect) << "v=" << v;
  }
}

TEST(SourceSummaryTest, BloomHasNoFalseNegatives) {
  const SummaryLayout layout = MakeSummaryLayout(SummaryParams{16, 512}, 0, 10000);
  ASSERT_EQ(layout.kind, SummaryKind::kBloom);
  std::vector<uint64_t> summary(layout.words(), 0);
  for (VertexId v = 0; v < 10000; v += 97) {
    SummaryAddVertex(layout, v, summary.data());
  }
  FrontierFilter f;
  f.layout = layout;
  for (VertexId v = 0; v < 10000; v += 97) {
    f.ResetToEmpty();
    f.Add(v);
    EXPECT_TRUE(f.MayIntersect(summary)) << "v=" << v;
  }
}

TEST(SourceSummaryTest, FilterConservativeCases) {
  const SummaryLayout layout = MakeSummaryLayout(SummaryParams{}, 0, 64);
  FrontierFilter f;
  f.layout = layout;
  f.ResetToAll();
  EXPECT_TRUE(f.MayIntersect({}));  // all-pass intersects anything
  f.ResetToEmpty();
  f.Add(3);
  EXPECT_TRUE(f.MayIntersect({}));  // absent summary: conservative
  std::vector<uint64_t> summary(1, 0);
  EXPECT_FALSE(f.MayIntersect(summary));  // present and disjoint: skip
  SummaryAddVertex(layout, 3, summary.data());
  EXPECT_TRUE(f.MayIntersect(summary));
}

// ---- Manifest v3 persistence and compat ----------------------------------

Manifest SampleManifest() {
  Manifest m;
  m.num_vertices = 64;
  m.num_edges = 3;
  m.num_intervals = 2;
  m.has_transpose = false;
  m.summary_bitmap_max_bits = 4096;
  m.summary_bloom_bits = 512;
  m.interval_offsets = {0, 32, 64};
  m.subshards.resize(4);
  SubShardMeta& s = m.subshards[1];  // SS_{0.1}
  s.offset = 0;
  s.size = 40;
  s.num_edges = 3;
  s.num_dsts = 2;
  const SummaryLayout layout = m.summary_layout(0);
  s.summary_kind = layout.kind;
  s.summary.assign(layout.words(), 0);
  SummaryAddVertex(layout, 5, s.summary.data());
  SummaryAddVertex(layout, 17, s.summary.data());
  m.BuildColumnIndex();
  return m;
}

TEST(ManifestV3Test, SummariesSurviveEncodeDecode) {
  const Manifest m = SampleManifest();
  auto decoded = Manifest::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->summary_bitmap_max_bits, 4096u);
  EXPECT_EQ(decoded->summary_bloom_bits, 512u);
  EXPECT_TRUE(decoded->has_summaries());
  const SubShardMeta& s = decoded->subshard(0, 1);
  EXPECT_EQ(s.summary_kind, SummaryKind::kBitmap);
  EXPECT_EQ(s.summary, m.subshard(0, 1).summary);
  EXPECT_EQ(decoded->TotalSummaryBytes(), m.TotalSummaryBytes());
}

// Encodes `m` in the version-1 or version-2 layout (no summary params, no
// per-entry summaries; v1 additionally has no per-entry format byte) — the
// bytes an older release would have written.
std::string EncodeOldManifest(const Manifest& m, uint32_t version) {
  std::string out;
  EncodeFixed<uint32_t>(&out, kManifestMagic);
  EncodeFixed<uint32_t>(&out, version);
  EncodeFixed<uint64_t>(&out, m.num_vertices);
  EncodeFixed<uint64_t>(&out, m.num_edges);
  EncodeFixed<uint32_t>(&out, m.num_intervals);
  EncodeFixed<uint8_t>(&out, m.weighted ? 1 : 0);
  EncodeFixed<uint8_t>(&out, m.has_transpose ? 1 : 0);
  EncodeFixed<uint64_t>(&out, m.interval_offsets.size());
  for (VertexId v : m.interval_offsets) EncodeFixed<uint32_t>(&out, v);
  for (const auto* table : {&m.subshards, &m.subshards_transpose}) {
    EncodeFixed<uint64_t>(&out, table->size());
    for (const auto& s : *table) {
      EncodeFixed<uint64_t>(&out, s.offset);
      EncodeFixed<uint64_t>(&out, s.size);
      EncodeFixed<uint64_t>(&out, s.num_edges);
      EncodeFixed<uint32_t>(&out, s.num_dsts);
      if (version >= 2) {
        EncodeFixed<uint8_t>(&out, static_cast<uint8_t>(s.format));
      }
    }
  }
  EncodeFixed<uint32_t>(&out, crc32c::Value(out.data(), out.size()));
  return out;
}

TEST(ManifestV3Test, OlderVersionsDecodeWithSummariesAbsent) {
  const Manifest m = SampleManifest();
  for (uint32_t version : {1u, 2u}) {
    auto decoded = Manifest::Decode(EncodeOldManifest(m, version));
    ASSERT_TRUE(decoded.ok()) << "v" << version << ": "
                              << decoded.status().ToString();
    EXPECT_FALSE(decoded->has_summaries()) << "v" << version;
    EXPECT_EQ(decoded->subshard(0, 1).summary_kind, SummaryKind::kNone);
    EXPECT_TRUE(decoded->subshard(0, 1).summary.empty());
    EXPECT_EQ(decoded->subshard(0, 1).num_edges, 3u);
    // v1 entries imply NXS1; v2 carries the recorded format.
    EXPECT_EQ(decoded->subshard(0, 1).format,
              version == 1 ? SubShardFormat::kNxs1 : m.subshard(0, 1).format);
  }
}

TEST(ManifestV3Test, FingerprintIsTopologyOnly) {
  const Manifest m = SampleManifest();
  const uint64_t fp = m.Fingerprint();

  // Byte-layout churn a re-encode can cause must not move the fingerprint.
  Manifest relayout = SampleManifest();
  relayout.subshards[1].offset = 999;
  relayout.subshards[1].size = 7;
  relayout.subshards[1].format = SubShardFormat::kNxs2;
  relayout.subshards[1].summary_kind = SummaryKind::kNone;
  relayout.subshards[1].summary.clear();
  relayout.summary_bitmap_max_bits = 0;
  relayout.summary_bloom_bits = 0;
  EXPECT_EQ(relayout.Fingerprint(), fp);

  // A v2 round-trip of the same store keeps its identity.
  auto v2 = Manifest::Decode(EncodeOldManifest(m, 2));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->Fingerprint(), fp);

  // Topology changes must move it.
  Manifest other_topology = SampleManifest();
  other_topology.subshards[1].num_edges = 4;
  EXPECT_NE(other_topology.Fingerprint(), fp);
}

TEST(ManifestV3Test, NonEmptyColumnsIndexMatchesTable) {
  Manifest m = SampleManifest();
  ASSERT_NE(m.NonEmptyColumns(0), nullptr);
  EXPECT_EQ(*m.NonEmptyColumns(0), std::vector<uint32_t>{1});
  EXPECT_TRUE(m.NonEmptyColumns(1)->empty());
  // No transpose table: the index is absent and callers fall back to scans.
  EXPECT_EQ(m.NonEmptyColumns(0, /*transpose=*/true), nullptr);
}

// ---- Shared selective-scheduling graph -----------------------------------

// One chain vertex per interval (the interval's first id) linked interval
// to interval, plus background vertices with random out-edges that make
// most (i, j) blobs non-empty yet stay unreachable from the chain. A
// frontier traversal from the chain head activates one interval per round
// with exactly one changed source in it, so summary-aware planning keeps
// ~1 blob per round while summary-blind planning reads the whole row.
EdgeList ChainWithBackground(uint32_t p, uint32_t interval_size,
                             uint64_t seed, bool weighted) {
  const uint64_t n = static_cast<uint64_t>(p) * interval_size;
  EdgeList edges;
  auto add = [&](VertexIndex src, VertexIndex dst, float w) {
    if (weighted) {
      edges.AddWeighted(src, dst, w);
    } else {
      edges.Add(src, dst);
    }
  };
  for (uint32_t i = 0; i + 1 < p; ++i) {
    add(i * interval_size, (i + 1) * interval_size, 1.0f + 0.25f * i);
  }
  Xoshiro256 rng(seed);
  for (uint64_t v = 0; v < n; ++v) {
    if (v % interval_size == 0) continue;  // chain ids get no other edges
    for (int e = 0; e < 4; ++e) {
      uint64_t dst = rng.NextBounded(n);
      if (dst % interval_size == 0) ++dst;  // never target a chain vertex
      if (dst >= n) dst = 1;
      add(v, dst, 0.5f + 0.1f * e);
    }
  }
  return edges;
}

// ---- Engine parity matrix (satellite: tail-iteration parity) -------------

struct SelectiveConfig {
  UpdateStrategy strategy;
  uint64_t memory_budget;
  SubShardFormat format;
  const char* name;
};

std::vector<SelectiveConfig> SelectiveConfigs() {
  return {
      // Unlimited-budget SPU pins everything decoded and reads through the
      // cache; the planner's verdicts are counted all the same.
      {UpdateStrategy::kSinglePhase, 0, SubShardFormat::kNxs1, "SPU/NXS1"},
      {UpdateStrategy::kSinglePhase, 0, SubShardFormat::kNxs2, "SPU/NXS2"},
      {UpdateStrategy::kDoublePhase, 0, SubShardFormat::kNxs1, "DPU/NXS1"},
      {UpdateStrategy::kDoublePhase, 0, SubShardFormat::kNxs2, "DPU/NXS2"},
      {UpdateStrategy::kMixedPhase, 16 << 10, SubShardFormat::kNxs1,
       "MPU/NXS1"},
      {UpdateStrategy::kMixedPhase, 16 << 10, SubShardFormat::kNxs2,
       "MPU/NXS2"},
  };
}

// Runs each config over a summarized store of `edges` in the config's blob
// format, with selective scheduling off and on.
template <typename Program>
void ExpectEngineParity(const EdgeList& edges, uint32_t p, bool transpose,
                        Program program, EdgeDirection direction) {
  const testing::MemStore nxs1 =
      testing::BuildMemStore(edges, p, transpose, SubShardFormat::kNxs1);
  const testing::MemStore nxs2 =
      testing::BuildMemStore(edges, p, transpose, SubShardFormat::kNxs2);
  for (const SelectiveConfig& cfg : SelectiveConfigs()) {
    const testing::MemStore& ms =
        cfg.format == SubShardFormat::kNxs1 ? nxs1 : nxs2;
    const Manifest& m = ms.store->manifest();
    ASSERT_TRUE(m.has_summaries()) << cfg.name;
    for (const auto* table : {&m.subshards, &m.subshards_transpose}) {
      for (const SubShardMeta& meta : *table) {
        ASSERT_EQ(meta.format, cfg.format) << cfg.name;
      }
    }

    RunOptions base;
    base.strategy = cfg.strategy;
    base.memory_budget_bytes = cfg.memory_budget;
    base.direction = direction;
    base.num_threads = 2;

    RunOptions off = base;
    off.selective_scheduling = false;
    Engine<Program> engine_off(ms.store, program, off);
    auto stats_off = engine_off.Run();
    ASSERT_TRUE(stats_off.ok()) << cfg.name << ": "
                                << stats_off.status().ToString();
    EXPECT_EQ(stats_off->subshards_skipped, 0u) << cfg.name;

    RunOptions on = base;
    on.selective_scheduling = true;
    Engine<Program> engine_on(ms.store, program, on);
    auto stats_on = engine_on.Run();
    ASSERT_TRUE(stats_on.ok()) << cfg.name;

    // Bit-identical values, same round count.
    EXPECT_EQ(engine_on.values(), engine_off.values()) << cfg.name;
    EXPECT_EQ(stats_on->iterations, stats_off->iterations) << cfg.name;

    EXPECT_GT(stats_on->subshards_skipped, 0u) << cfg.name;
    EXPECT_GT(stats_on->summary_bytes, 0u) << cfg.name;
    EXPECT_GT(stats_on->model_bytes_per_iteration, 0u) << cfg.name;
    // The frontier shrinks to one vertex per round: in the last round that
    // planned any stream I/O the planner must drop more blobs than it
    // reads. (The final recorded round can be the empty convergence check
    // with no planning at all, so scan back to the newest active one.)
    const auto& proc = stats_on->iteration_subshards_processed;
    const auto& skip = stats_on->iteration_subshards_skipped;
    ASSERT_EQ(proc.size(), skip.size()) << cfg.name;
    int tail = -1;
    for (int k = static_cast<int>(proc.size()) - 1; k >= 0; --k) {
      if (proc[k] + skip[k] > 0) {
        tail = k;
        break;
      }
    }
    ASSERT_GE(tail, 0) << cfg.name;
    EXPECT_GT(skip[tail], proc[tail]) << cfg.name;
    // Over the last quarter of the rounds that planned any blob, the blind
    // plan (processed + skipped) reads at least 10x the blobs selective
    // planning reads (processed): bench_selective's tail reduction.
    const int begin = tail + 1 - std::max((tail + 1) / 4, 1);
    uint64_t read = 0, planned = 0;
    for (int k = begin; k <= tail; ++k) {
      read += proc[k];
      planned += proc[k] + skip[k];
    }
    EXPECT_GT(read, 0u) << cfg.name;
    EXPECT_GE(planned, 10 * read)
        << cfg.name << ": " << planned << " planned, " << read << " read";
    // Selective never reads MORE than the summary-blind plan.
    EXPECT_LE(stats_on->bytes_read, stats_off->bytes_read) << cfg.name;
  }
}

TEST(EngineSelectiveTest, BfsLongChainParity) {
  EdgeList edges = ChainWithBackground(16, 64, 101, /*weighted=*/false);
  BfsProgram program;
  program.root = 0;
  ExpectEngineParity(edges, 16, /*transpose=*/false, program,
                     EdgeDirection::kForward);
}

TEST(EngineSelectiveTest, SsspLongChainParity) {
  EdgeList edges = ChainWithBackground(16, 64, 102, /*weighted=*/true);
  SsspProgram program;
  program.root = 0;
  ExpectEngineParity(edges, 16, /*transpose=*/false, program,
                     EdgeDirection::kForward);
}

TEST(EngineSelectiveTest, WccDisconnectedParity) {
  // Chain and background form disjoint components; after the background
  // settles in a few rounds, only the chain wavefront stays active.
  EdgeList edges = ChainWithBackground(16, 64, 103, /*weighted=*/false);
  ExpectEngineParity(edges, 16, /*transpose=*/true, WccProgram{},
                     EdgeDirection::kBoth);
}

TEST(EngineSelectiveTest, PageRankNeverSkips) {
  // Not monotone-skippable: the selective flag must be inert.
  EdgeList edges = ChainWithBackground(8, 32, 104, /*weighted=*/false);
  auto ms = testing::BuildMemStore(edges, 8, /*transpose=*/false);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.selective_scheduling = true;
  opt.max_iterations = 3;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->subshards_skipped, 0u);
}

TEST(EngineSelectiveTest, SummaryFreeStoreRunsConservatively) {
  // A v3 store built with summaries disabled behaves like the off run.
  EdgeList edges = ChainWithBackground(8, 32, 105, /*weighted=*/false);
  BuildOptions build;
  build.num_intervals = 8;
  build.build_transpose = false;
  build.summary = SummaryParams{0, 0};
  auto env = NewMemEnv();
  build.env = env.get();
  auto store = BuildGraphStore(edges, "g", build);
  ASSERT_TRUE(store.ok());
  ASSERT_FALSE((*store)->manifest().has_summaries());

  BfsProgram program;
  program.root = 0;
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.selective_scheduling = true;
  Engine<BfsProgram> engine(*store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->subshards_skipped, 0u);
  EXPECT_EQ(stats->summary_bytes, 0u);
}

// ---- Checkpoint upgrade regression (satellite: stable fingerprint) -------

TEST(CheckpointUpgradeTest, ResumeSurvivesManifestVersionBump) {
  EdgeList edges = ChainWithBackground(8, 32, 77, /*weighted=*/false);
  auto ms = testing::BuildMemStore(edges, 8, /*transpose=*/false);

  // Keep the store's v3 manifest bytes, then rewrite the file the way a
  // v2-era release laid it out (no summaries).
  auto v3_manifest = ReadManifest(ms.env.get(), "g");
  ASSERT_TRUE(v3_manifest.ok());
  const std::string v3_bytes = v3_manifest->Encode();
  const std::string path = std::string("g/") + kManifestFileName;
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), path,
                                EncodeOldManifest(*v3_manifest, 2))
                  .ok());
  auto old_store = GraphStore::Open(ms.env.get(), "g");
  ASSERT_TRUE(old_store.ok());
  ASSERT_FALSE((*old_store)->manifest().has_summaries());

  BfsProgram program;
  program.root = 0;
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.num_threads = 2;
  opt.checkpoint_interval = 1;
  opt.scratch_dir = "scratch";

  // Baseline on the v2 store.
  std::vector<uint32_t> expected;
  {
    RunOptions base = opt;
    base.scratch_dir = "scratch_base";
    base.checkpoint_interval = 0;
    Engine<BfsProgram> baseline(*old_store, program, base);
    ASSERT_TRUE(baseline.Run().ok());
    expected = baseline.values();
  }

  // Run 3 iterations against the v2 store, checkpointing each boundary.
  {
    RunOptions leg1 = opt;
    leg1.max_iterations = 3;
    Engine<BfsProgram> interrupted(*old_store, program, leg1);
    auto stats = interrupted.Run();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->iterations, 3);
  }

  // Upgrade the store to manifest v3 (summaries present) and resume: the
  // topology-only fingerprint must match the checkpoint's, so the run
  // picks up at iteration 3 instead of silently restarting.
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), path, v3_bytes).ok());
  auto new_store = GraphStore::Open(ms.env.get(), "g");
  ASSERT_TRUE(new_store.ok());
  ASSERT_TRUE((*new_store)->manifest().has_summaries());
  Engine<BfsProgram> resumed(*new_store, program, opt);
  auto stats = resumed.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 3);
  EXPECT_EQ(resumed.values(), expected);
}

// ---- Server-side selective scheduling ------------------------------------

GraphServer::Options ServerOpts(bool selective) {
  GraphServer::Options o;
  o.num_workers = 2;
  o.io_threads = 2;
  o.prefetch_depth = 2;
  o.selective_scheduling = selective;
  return o;
}

TEST(ServerSelectiveTest, PointQueriesSkipAndMatch) {
  EdgeList edges = ChainWithBackground(16, 64, 201, /*weighted=*/false);
  auto ms = testing::BuildMemStore(edges, 16, /*transpose=*/false);

  PointQuery bfs;
  bfs.kind = QueryKind::kBfs;
  bfs.root = 0;

  Outcome<PointResult> on, off;
  {
    auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(true));
    ASSERT_TRUE(server.ok());
    on = (*server)->Submit(bfs).Wait();
  }
  {
    auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(false));
    ASSERT_TRUE(server.ok());
    off = (*server)->Submit(bfs).Wait();
  }
  ASSERT_TRUE(on.status.ok()) << on.status.ToString();
  ASSERT_TRUE(off.status.ok());
  EXPECT_EQ(on.result.vertices, off.result.vertices);
  EXPECT_EQ(on.result.hops, off.result.hops);
  // Selective planning can detect convergence one round earlier (the last
  // round plans zero blobs instead of reading them to learn nothing moved).
  EXPECT_LE(on.result.stats.iterations, off.result.stats.iterations);
  // The summary-aware plan visits a strict subset and charges fewer bytes.
  EXPECT_GT(on.result.stats.subshards_skipped, 0u);
  EXPECT_LT(on.result.stats.subshards_visited,
            off.result.stats.subshards_visited);
  EXPECT_LT(on.result.stats.bytes_charged, off.result.stats.bytes_charged);
  EXPECT_GT(on.result.stats.summary_bytes, 0u);
  EXPECT_EQ(off.result.stats.subshards_skipped, 0u);
  EXPECT_EQ(off.result.stats.summary_bytes, 0u);
}

TEST(ServerSelectiveTest, BatchWccSkipsAndMatches) {
  EdgeList edges = ChainWithBackground(16, 64, 202, /*weighted=*/false);
  auto ms = testing::BuildMemStore(edges, 16, /*transpose=*/true);

  BatchQuery spec;
  spec.direction = EdgeDirection::kBoth;

  Outcome<BatchResult<uint32_t>> on, off;
  {
    auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(true));
    ASSERT_TRUE(server.ok());
    on = (*server)->SubmitBatch(WccProgram{}, spec).Wait();
  }
  {
    auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(false));
    ASSERT_TRUE(server.ok());
    off = (*server)->SubmitBatch(WccProgram{}, spec).Wait();
  }
  ASSERT_TRUE(on.status.ok());
  ASSERT_TRUE(off.status.ok());
  EXPECT_EQ(on.result.values, off.result.values);
  EXPECT_GT(on.result.stats.subshards_skipped, 0u);
  EXPECT_LT(on.result.stats.subshards_visited,
            off.result.stats.subshards_visited);
}

// A seeded program sent as a batch starts from its exact seed frontier, as
// in Engine::Run: it plans exactly the sub-shards the point query from the
// same root plans, and its dense values match the reference either way.
TEST(ServerSelectiveTest, SeededBatchStartsFromExactFrontier) {
  EdgeList edges = ChainWithBackground(16, 64, 205, /*weighted=*/false);
  auto ms = testing::BuildMemStore(edges, 16, /*transpose=*/false);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const std::vector<uint32_t> expected = ReferenceBfs(*ref_graph, 0);

  BfsProgram bfs;
  bfs.root = 0;
  PointQuery point;
  point.kind = QueryKind::kBfs;
  point.root = 0;
  for (bool selective : {true, false}) {
    SCOPED_TRACE(selective ? "selective on" : "selective off");
    auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(selective));
    ASSERT_TRUE(server.ok());
    const auto batch = (*server)->SubmitBatch(bfs, BatchQuery{}).Wait();
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    EXPECT_EQ(batch.result.values, expected);

    const auto pt = (*server)->Submit(point).Wait();
    ASSERT_TRUE(pt.status.ok()) << pt.status.ToString();
    EXPECT_EQ(batch.result.stats.subshards_visited,
              pt.result.stats.subshards_visited);
    EXPECT_EQ(batch.result.stats.subshards_skipped,
              pt.result.stats.subshards_skipped);
    EXPECT_EQ(batch.result.stats.bytes_charged, pt.result.stats.bytes_charged);
    EXPECT_EQ(batch.result.stats.iterations, pt.result.stats.iterations);
  }
}

// ---- PlanRound budget edges (satellite: oversized first blob) ------------

TEST(ServerSelectiveTest, OversizedFirstBlobReturnsRootOnlyPartial) {
  EdgeList edges = ChainWithBackground(4, 32, 203, /*weighted=*/false);
  auto ms = testing::BuildMemStore(edges, 4, /*transpose=*/false);

  for (bool selective : {true, false}) {
    PointQuery bfs;
    bfs.kind = QueryKind::kBfs;
    bfs.root = 0;
    bfs.limits.io_byte_budget = 1;  // smaller than any encoded blob

    auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(selective));
    ASSERT_TRUE(server.ok());
    // Deterministic: the same truncation twice, independent of the cache.
    for (int trial = 0; trial < 2; ++trial) {
      auto out = (*server)->Submit(bfs).Wait();
      EXPECT_TRUE(out.status.IsResourceExhausted())
          << "selective=" << selective << ": " << out.status.ToString();
      EXPECT_TRUE(out.result.stats.truncated);
      // Nothing was funded, so nothing was visited or charged — but the
      // root itself is still reported at hop 0.
      EXPECT_EQ(out.result.stats.subshards_visited, 0u);
      EXPECT_EQ(out.result.stats.bytes_charged, 0u);
      ASSERT_EQ(out.result.vertices, std::vector<VertexId>{0});
      EXPECT_EQ(out.result.hops, std::vector<uint32_t>{0});
    }
  }
}

TEST(ServerSelectiveTest, UnreachableOversizedBlobCannotTruncate) {
  // With summaries on, a blob the frontier cannot touch is skipped BEFORE
  // the budget check: a budget sized for just the reachable path completes
  // where the summary-blind plan truncates.
  EdgeList edges = ChainWithBackground(8, 64, 204, /*weighted=*/false);
  auto ms = testing::BuildMemStore(edges, 8, /*transpose=*/false);
  const Manifest& m = ms.store->manifest();

  // Budget: the chain blobs only (row i, column i+1), doubled for slack —
  // far below the full per-round row scans the blind plan charges.
  uint64_t chain_bytes = 0;
  for (uint32_t i = 0; i + 1 < m.num_intervals; ++i) {
    chain_bytes += m.subshard(i, i + 1).size;
  }
  PointQuery bfs;
  bfs.kind = QueryKind::kBfs;
  bfs.root = 0;
  bfs.limits.io_byte_budget = 2 * chain_bytes;

  auto on_server = GraphServer::Open(ms.env.get(), "g", ServerOpts(true));
  ASSERT_TRUE(on_server.ok());
  auto on = (*on_server)->Submit(bfs).Wait();
  ASSERT_TRUE(on.status.ok()) << on.status.ToString();
  EXPECT_FALSE(on.result.stats.truncated);
  EXPECT_EQ(on.result.vertices.size(), static_cast<size_t>(m.num_intervals));

  auto off_server = GraphServer::Open(ms.env.get(), "g", ServerOpts(false));
  ASSERT_TRUE(off_server.ok());
  auto off = (*off_server)->Submit(bfs).Wait();
  EXPECT_TRUE(off.status.IsResourceExhausted());
  EXPECT_TRUE(off.result.stats.truncated);
}

}  // namespace
}  // namespace nxgraph
