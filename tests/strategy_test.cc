#include <gtest/gtest.h>

#include "src/engine/io_model.h"
#include "src/engine/iteration_plan.h"
#include "src/engine/strategy.h"
#include "src/prep/sharder.h"
#include "src/storage/interval_store.h"
#include "src/util/logging.h"

namespace nxgraph {
namespace {

Manifest TestManifest(uint64_t n, uint32_t p) {
  Manifest m;
  m.num_vertices = n;
  m.num_intervals = p;
  m.interval_offsets = MakeEqualIntervals(n, p);
  m.subshards.assign(static_cast<size_t>(p) * p, SubShardMeta{});
  return m;
}

TEST(StrategyTest, UnlimitedBudgetPicksSpu) {
  RunOptions opt;
  opt.memory_budget_bytes = 0;
  auto d = ChooseStrategy(TestManifest(1000, 8), 8, 0, opt);
  EXPECT_EQ(d.strategy, UpdateStrategy::kSinglePhase);
  EXPECT_EQ(d.resident_intervals, 8u);
  EXPECT_EQ(d.name, "SPU");
}

TEST(StrategyTest, LargeBudgetPicksSpu) {
  RunOptions opt;
  opt.memory_budget_bytes = 1 << 20;
  auto d = ChooseStrategy(TestManifest(1000, 8), 8, 0, opt);
  EXPECT_EQ(d.strategy, UpdateStrategy::kSinglePhase);
  // Leftover budget goes to the sub-shard cache.
  EXPECT_EQ(d.subshard_cache_budget, (1u << 20) - 2 * 1000 * 8);
}

TEST(StrategyTest, TinyBudgetPicksDpu) {
  RunOptions opt;
  // Less than one interval's ping-pong state.
  opt.memory_budget_bytes = 100;
  auto d = ChooseStrategy(TestManifest(10000, 8), 8, 0, opt);
  EXPECT_EQ(d.strategy, UpdateStrategy::kDoublePhase);
  EXPECT_EQ(d.resident_intervals, 0u);
}

TEST(StrategyTest, MidBudgetPicksMpuWithPaperQ) {
  RunOptions opt;
  const uint64_t n = 10000;
  const uint32_t value_bytes = 8;
  // Half the SPU requirement => Q = P/2 by Q = BM/(2 n Ba) * P.
  opt.memory_budget_bytes = n * value_bytes;  // == 0.5 * 2*n*Ba
  auto d = ChooseStrategy(TestManifest(n, 8), value_bytes, 0, opt);
  EXPECT_EQ(d.strategy, UpdateStrategy::kMixedPhase);
  EXPECT_EQ(d.resident_intervals, 4u);
  EXPECT_EQ(d.name, "MPU(Q=4/8)");
}

TEST(StrategyTest, FixedOverheadReducesAvailable) {
  RunOptions opt;
  const uint64_t n = 1000;
  opt.memory_budget_bytes = 2 * n * 8;  // exactly SPU-sized...
  auto d = ChooseStrategy(TestManifest(n, 4), 8, /*fixed_overhead=*/4 * n,
                          opt);  // ...but degrees eat into it
  EXPECT_NE(d.strategy, UpdateStrategy::kSinglePhase);
}

TEST(StrategyTest, ForcedSpuHonored) {
  RunOptions opt;
  opt.memory_budget_bytes = 100;  // far too small, but forced
  opt.strategy = UpdateStrategy::kSinglePhase;
  auto d = ChooseStrategy(TestManifest(10000, 8), 8, 0, opt);
  EXPECT_EQ(d.strategy, UpdateStrategy::kSinglePhase);
  EXPECT_EQ(d.resident_intervals, 8u);
  EXPECT_EQ(d.subshard_cache_budget, 0u);  // nothing left over
}

TEST(StrategyTest, ForcedDpuHonored) {
  RunOptions opt;
  opt.memory_budget_bytes = 0;
  opt.strategy = UpdateStrategy::kDoublePhase;
  auto d = ChooseStrategy(TestManifest(1000, 8), 8, 0, opt);
  EXPECT_EQ(d.strategy, UpdateStrategy::kDoublePhase);
  EXPECT_EQ(d.resident_intervals, 0u);
}

TEST(StrategyTest, ForcedMpuComputesQ) {
  RunOptions opt;
  opt.strategy = UpdateStrategy::kMixedPhase;
  opt.memory_budget_bytes = 0;  // unlimited => Q == P
  auto d = ChooseStrategy(TestManifest(1000, 8), 8, 0, opt);
  EXPECT_EQ(d.strategy, UpdateStrategy::kMixedPhase);
  EXPECT_EQ(d.resident_intervals, 8u);
}

// ---- prefetch window funding ----------------------------------------------

// Every blob gets encoded size row_bytes / p and per-blob counts chosen so
// its decoded footprint equals its encoded size exactly (the NXS1-like
// case): DecodedBytes = (2*num_dsts + 1 + num_edges) * 4 == size.
Manifest SizedManifest(uint64_t n, uint32_t p, uint64_t row_bytes) {
  Manifest m = TestManifest(n, p);
  const uint64_t size = row_bytes / p;
  NX_CHECK(size >= 16 && size % 4 == 0);
  for (auto& meta : m.subshards) {
    meta.size = size;
    meta.num_dsts = 1;
    meta.num_edges = size / 4 - 3;
  }
  return m;
}

TEST(StrategyTest, UnlimitedBudgetHonorsRequestedPrefetchDepth) {
  RunOptions opt;
  opt.memory_budget_bytes = 0;
  opt.prefetch_depth = 3;
  Manifest m = SizedManifest(1000, 8, 4096);
  auto d = ChooseStrategy(m, 8, 0, opt);
  EXPECT_EQ(d.prefetch_depth, 3u);
  EXPECT_EQ(d.prefetch_buffer_bytes,
            3u * PrefetchSlotBytes(m, 8, opt.direction));
}

TEST(StrategyTest, PrefetchDepthZeroDisablesWindow) {
  RunOptions opt;
  opt.prefetch_depth = 0;
  auto d = ChooseStrategy(SizedManifest(1000, 8, 4096), 8, 0, opt);
  EXPECT_EQ(d.prefetch_depth, 0u);
  EXPECT_EQ(d.prefetch_buffer_bytes, 0u);
}

TEST(StrategyTest, PrefetchSlotCoversRawDecodeAndValueSegment) {
  // Decoded == encoded in SizedManifest, so the slot is raw + decoded +
  // segment = 2 * row + segment.
  Manifest m = SizedManifest(1000, 8, 4096);  // 8 equal intervals of 125
  EXPECT_EQ(PrefetchSlotBytes(m, 8, EdgeDirection::kForward),
            2 * 4096u + 125 * 8u);
}

TEST(StrategyTest, CompressedBlobsShrinkOnlyTheRawSlotHalf) {
  // An NXS2-like manifest: same decoded footprint, half the encoded bytes.
  // The slot must charge raw and decoded separately — raw shrinks, decoded
  // does not — so the compressed store's slot is smaller by exactly the
  // encoded saving, and the same budget funds deeper windows.
  Manifest m = SizedManifest(1000, 8, 4096);
  Manifest compressed = m;
  for (auto& meta : compressed.subshards) meta.size /= 2;
  const uint64_t slot = PrefetchSlotBytes(m, 8, EdgeDirection::kForward);
  const uint64_t cslot =
      PrefetchSlotBytes(compressed, 8, EdgeDirection::kForward);
  EXPECT_EQ(cslot, slot - 8 * (512 / 2));

  // With the budget that funded `depth` slots of the uncompressed store,
  // the compressed store funds at least as deep a window.
  RunOptions opt;
  opt.prefetch_depth = 6;
  const uint64_t decoded_total = 8 * 4096;  // pin target, format-independent
  // Surplus beyond the pin funds 3 uncompressed slots (with change) but 4
  // compressed ones.
  opt.memory_budget_bytes = 2 * 1000 * 8 + decoded_total + 3 * slot + 3000;
  auto d = ChooseStrategy(m, 8, 0, opt);
  auto dc = ChooseStrategy(compressed, 8, 0, opt);
  EXPECT_EQ(d.prefetch_depth, 4u);   // 1 free slot + 3 funded
  EXPECT_EQ(dc.prefetch_depth, 5u);  // 1 free slot + 4 funded
}

TEST(StrategyTest, DeepPrefetchWindowFundedFromCacheLeftover) {
  const uint64_t n = 1000;
  const uint64_t row = 4096;
  RunOptions opt;
  opt.prefetch_depth = 3;
  Manifest m = SizedManifest(n, 8, row);
  const uint64_t slot = PrefetchSlotBytes(m, 8, opt.direction);
  const uint64_t total = 8 * row;  // all rows pinnable
  // SPU state + room to pin the whole graph + 5 spare slots.
  opt.memory_budget_bytes = 2 * n * 8 + total + 5 * slot;
  auto d = ChooseStrategy(m, 8, 0, opt);
  EXPECT_EQ(d.strategy, UpdateStrategy::kSinglePhase);
  EXPECT_EQ(d.prefetch_depth, 3u);
  EXPECT_EQ(d.prefetch_buffer_bytes, 3 * slot);
  // Slots beyond the first are carved out of the cache surplus.
  EXPECT_EQ(d.subshard_cache_budget, total + 5 * slot - 2 * slot);
}

TEST(StrategyTest, WindowNeverDemotesCachedRunToStreaming) {
  const uint64_t n = 1000;
  const uint64_t row = 4096;
  RunOptions opt;
  opt.prefetch_depth = 4;
  Manifest m = SizedManifest(n, 8, row);
  const uint64_t total = 8 * row;
  // Leftover exactly pins the decoded graph: no surplus to fund deep
  // slots, and the cache budget must stay >= total (cached mode).
  opt.memory_budget_bytes = 2 * n * 8 + total + 100;
  auto d = ChooseStrategy(m, 8, 0, opt);
  EXPECT_EQ(d.prefetch_depth, 1u);
  EXPECT_GE(d.subshard_cache_budget, total);
}

TEST(StrategyTest, TightBudgetClampsPrefetchToDoubleBuffering) {
  const uint64_t n = 1000;
  const uint64_t row = 4096;
  RunOptions opt;
  opt.prefetch_depth = 4;
  opt.memory_budget_bytes = 2 * n * 8 + row / 2;  // not even one spare slot
  Manifest m = SizedManifest(n, 8, row);
  auto d = ChooseStrategy(m, 8, 0, opt);
  // The first window slot rides in the synchronous loader's working-set
  // allowance, so prefetch stays on (double buffering) but no deeper.
  EXPECT_EQ(d.prefetch_depth, 1u);
  EXPECT_EQ(d.prefetch_buffer_bytes, PrefetchSlotBytes(m, 8, opt.direction));
  EXPECT_EQ(d.subshard_cache_budget, row / 2);
}

// ---- write-behind funding -------------------------------------------------

TEST(StrategyTest, FullyResidentRunGetsNoWritebackBuffer) {
  RunOptions opt;
  opt.memory_budget_bytes = 0;  // unlimited => SPU, no out-of-core writes
  auto d = ChooseStrategy(SizedManifest(1000, 8, 4096), 8, 0, opt);
  EXPECT_EQ(d.resident_intervals, 8u);
  EXPECT_EQ(d.writeback_buffer_bytes, 0u);
}

TEST(StrategyTest, UnlimitedBudgetHonorsRequestedWriteback) {
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.memory_budget_bytes = 0;
  opt.writeback_buffer_bytes = 1 << 20;
  auto d = ChooseStrategy(SizedManifest(1000, 8, 4096), 8, 0, opt);
  EXPECT_EQ(d.writeback_buffer_bytes, 1u << 20);
}

TEST(StrategyTest, WritebackZeroDisablesQueue) {
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.writeback_buffer_bytes = 0;
  auto d = ChooseStrategy(SizedManifest(1000, 8, 4096), 8, 0, opt);
  EXPECT_EQ(d.writeback_buffer_bytes, 0u);
}

TEST(StrategyTest, WritebackFundedFromCacheLeftoverAfterPrefetch) {
  const uint64_t n = 1000;
  const uint64_t row = 4096;
  RunOptions opt;
  // Forced DPU with a budget big enough to pin the whole decoded graph in
  // the sub-shard cache plus 10000 bytes of surplus.
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.prefetch_depth = 1;  // first slot rides free: no cache spend
  opt.writeback_buffer_bytes = 3000;
  Manifest m = SizedManifest(n, 8, row);
  const uint64_t total = 8 * row;
  opt.memory_budget_bytes = total + 10000;
  auto d = ChooseStrategy(m, 8, 0, opt);
  ASSERT_EQ(d.resident_intervals, 0u);
  // The request fits the surplus beyond pinning the graph, so it is fully
  // funded out of the cache leftover.
  EXPECT_EQ(d.writeback_buffer_bytes, 3000u);
  EXPECT_GE(d.subshard_cache_budget, total);
}

TEST(StrategyTest, WritebackNeverDemotesCachedRunToStreaming) {
  const uint64_t n = 1000;
  const uint64_t row = 4096;
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.prefetch_depth = 1;
  opt.writeback_buffer_bytes = 1 << 20;  // far more than the surplus
  Manifest m = SizedManifest(n, 8, row);
  const uint64_t total = 8 * row;
  opt.memory_budget_bytes = total + 100;  // surplus of 100 bytes
  auto d = ChooseStrategy(m, 8, 0, opt);
  ASSERT_EQ(d.resident_intervals, 0u);
  // The 100-byte surplus is below the largest single payload (an interval
  // segment), so write-behind degrades to synchronous instead of taking a
  // degenerate window — and the cache can still hold every decoded
  // sub-shard, so the run stays cached.
  EXPECT_EQ(d.writeback_buffer_bytes, 0u);
  EXPECT_GE(d.subshard_cache_budget, total);
}

TEST(StrategyTest, TightBudgetClampsWriteback) {
  const uint64_t n = 10000;
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.prefetch_depth = 1;
  opt.writeback_buffer_bytes = 1 << 20;
  opt.memory_budget_bytes = 500;  // streaming: cache budget is tiny
  Manifest m = SizedManifest(n, 8, 4096);
  auto d = ChooseStrategy(m, 8, 0, opt);
  // The tiny leftover cannot hold even one payload, so the window is not
  // worth its overhead: write-behind falls back to synchronous mode.
  EXPECT_EQ(d.writeback_buffer_bytes, 0u);
}

// The write-behind floor is the largest write run: a whole tile of the
// hub layout, not one hub.
TEST(StrategyTest, WritebackFloorsAtTheLargestWriteRun) {
  Manifest m = TestManifest(40, 4);  // intervals of 10: 80-byte segments
  const uint32_t dsts[4] = {1, 10, 10, 1};
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      SubShardMeta& meta = m.subshards[i * 4 + j];
      meta.size = 190;
      meta.num_dsts = dsts[i];
      meta.num_edges = 20;
    }
  }
  // Every hub takes the 2-byte bitmap over its 10 destinations, so hub
  // segments are 8 + 2 + 8 * num_dsts + 4: 22, 94, 94 and 22 bytes per
  // row, and rows' hubs of 88, 376, 376 and 88 against a raw row cap of
  // 4 * 190 = 760: the rows pair as row groups {0, 1} and {2, 3}. The four
  // 80-byte accumulators fit the 656-byte decoded row (row 1: four blobs
  // of (2 * 10 + 1) * 4 + 20 * 4 bytes), so one column group holds every
  // column, and each tile is 4 * (22 + 94) = 464 bytes.
  EXPECT_EQ(RowCap(m, EdgeDirection::kForward).raw, 760u);
  EXPECT_EQ(HubRowBytes(m, 8, EdgeDirection::kForward, 0, 1), 376u);
  const PlanConfig config{0, 8, EdgeDirection::kForward, false, false};
  const HubLayout layout = PlanHubLayout(m, config);
  EXPECT_EQ(layout.row_groups, (HubLayout::Groups{{0, 2}, {2, 4}}));
  EXPECT_EQ(layout.column_groups, (HubLayout::Groups{{0, 4}}));
  EXPECT_EQ(MaxWritePayloadBytes(m, config), 464u);

  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.prefetch_depth = 1;
  opt.memory_budget_bytes = 100000;  // far more than the request
  opt.writeback_buffer_bytes = 463;  // above a hub and a value segment
  EXPECT_EQ(ChooseStrategy(m, 8, 0, opt).writeback_buffer_bytes, 0u);
  opt.writeback_buffer_bytes = 464;
  EXPECT_EQ(ChooseStrategy(m, 8, 0, opt).writeback_buffer_bytes, 464u);
}

// A disk interval's value segment is written with its CRC32C, so when it is
// the largest payload the floor is its stored size.
TEST(StrategyTest, WritebackFloorCountsTheIntervalChecksum) {
  // Empty sub-shards: every hub segment is its 8-byte count and 4-byte
  // checksum, and each tile holds one hub (no row's hubs fit the empty raw
  // row, no 80-byte accumulator fits the decoded one), far below an
  // interval's 10 values of 8 bytes.
  Manifest m = TestManifest(40, 4);
  const PlanConfig config{0, 8, EdgeDirection::kForward, false, false};
  const uint64_t stored = 10 * 8 + IntervalStore::kChecksumBytes;
  EXPECT_EQ(MaxWritePayloadBytes(m, config), stored);

  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.prefetch_depth = 1;
  opt.memory_budget_bytes = 100000;  // far more than the request
  opt.writeback_buffer_bytes = stored - 1;
  EXPECT_EQ(ChooseStrategy(m, 8, 0, opt).writeback_buffer_bytes, 0u);
  opt.writeback_buffer_bytes = stored;
  EXPECT_EQ(ChooseStrategy(m, 8, 0, opt).writeback_buffer_bytes, stored);
}

// Table II is priced at the Q the run uses. The degree tables take half of
// a budget that would otherwise hold half the vertex state, so Q falls
// from 4 to 2 of 8, and the model's in-memory fraction must be 2 / 8, not
// the budget's 4 / 8.
TEST(StrategyTest, MpuModelIsPricedAtTheChosenQ) {
  const uint64_t n = 10000;
  Manifest m = SizedManifest(n, 8, 4096);
  for (const SubShardMeta& meta : m.subshards) m.num_edges += meta.num_edges;
  RunOptions opt;
  opt.memory_budget_bytes = n * 8;
  const StrategyDecision d = ChooseStrategy(m, 8, /*fixed_overhead=*/n * 4, opt);
  ASSERT_EQ(d.name, "MPU(Q=2/8)");
  const IoModelParams at_q = MakeIoModelParams(m, 8, 2 * n * 8 * 2 / 8);
  EXPECT_EQ(d.model_bytes_per_iteration,
            static_cast<uint64_t>(MpuIoCost(at_q).read_bytes));
  const IoModelParams at_budget = MakeIoModelParams(m, 8, n * 8);
  EXPECT_GT(d.model_bytes_per_iteration,
            static_cast<uint64_t>(MpuIoCost(at_budget).read_bytes));
}

TEST(StrategyTest, AutoMatchesPaperThresholds) {
  const uint64_t n = 8000;
  const uint32_t vb = 8;
  const uint64_t spu_threshold = 2 * n * vb;
  RunOptions opt;

  opt.memory_budget_bytes = spu_threshold;
  EXPECT_EQ(ChooseStrategy(TestManifest(n, 8), vb, 0, opt).strategy,
            UpdateStrategy::kSinglePhase);

  opt.memory_budget_bytes = spu_threshold - 1;
  EXPECT_EQ(ChooseStrategy(TestManifest(n, 8), vb, 0, opt).strategy,
            UpdateStrategy::kMixedPhase);

  opt.memory_budget_bytes = spu_threshold / 8;  // Q == 1
  EXPECT_EQ(ChooseStrategy(TestManifest(n, 8), vb, 0, opt).strategy,
            UpdateStrategy::kMixedPhase);

  opt.memory_budget_bytes = spu_threshold / 8 - 1;  // Q == 0
  EXPECT_EQ(ChooseStrategy(TestManifest(n, 8), vb, 0, opt).strategy,
            UpdateStrategy::kDoublePhase);
}

}  // namespace
}  // namespace nxgraph
