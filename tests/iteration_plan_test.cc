// BuildIterationPlan on hand-built manifests: each case states its plan's
// runs and groups as literals. Intervals hold 8 vertices, so a hub's
// destination set is a 1-byte bitmap once it has a destination, a hub
// segment of d destinations is 8 + 1 + d * value_bytes + 4 bytes, an
// interval's values and checksum take 8 * value_bytes + 4 bytes, and a
// column's accumulator 8 * value_bytes. A blob of d destinations and e
// edges decodes to (2d + 1) * 4 + 4e bytes.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/engine/iteration_plan.h"

namespace nxgraph {
namespace {

constexpr uint32_t kIntervalSize = 8;

// A forward P x P grid of blobs, one character each: 'P' nonempty and
// planned, 'n' nonempty and not planned, '.' empty (10 bytes). A nonempty
// blob has `size` bytes, dsts(i, j) destinations and edges(i, j) edges, as
// many as its destinations unless given. Blobs lie row-major from offset 0.
struct Grid {
  Manifest manifest;
  std::vector<uint8_t> planned;
};
using Count = std::function<uint32_t(uint32_t i, uint32_t j)>;
uint32_t One(uint32_t, uint32_t) { return 1; }

Grid MakeGrid(const std::vector<std::string>& rows, uint64_t size,
              const Count& dsts, const Count& edges = nullptr) {
  const uint32_t p = static_cast<uint32_t>(rows.size());
  Grid g;
  Manifest& m = g.manifest;
  m.num_intervals = p;
  m.num_vertices = uint64_t{p} * kIntervalSize;
  for (uint32_t i = 0; i <= p; ++i) {
    m.interval_offsets.push_back(i * kIntervalSize);
  }
  m.subshards.resize(size_t{p} * p);
  g.planned.assign(2 * size_t{p} * p, 0);
  uint64_t offset = 0;
  for (uint32_t i = 0; i < p; ++i) {
    for (uint32_t j = 0; j < p; ++j) {
      SubShardMeta& meta = m.subshards[size_t{i} * p + j];
      meta.offset = offset;
      meta.size = rows[i][j] == '.' ? 10 : size;
      if (rows[i][j] != '.') {
        meta.num_dsts = dsts(i, j);
        meta.num_edges = edges ? edges(i, j) : meta.num_dsts;
      }
      m.num_edges += meta.num_edges;
      offset += meta.size;
      g.planned[PlanGridIndex(p, i, j, false)] = rows[i][j] == 'P';
    }
  }
  return g;
}

// The plan of `g` at `q`, every interval's values at parity 0.
IterationPlan Plan(const Grid& g, uint32_t q, uint32_t value_bytes,
                   bool stream, const std::vector<uint8_t>& held = {},
                   bool selective = false) {
  return BuildIterationPlan(
      g.manifest,
      PlanConfig{q, value_bytes, EdgeDirection::kForward, stream, selective},
      g.planned, held, std::vector<int>(g.manifest.num_intervals, 0));
}

// Accesses as text: "s2[0,4)" is row 2's shard run over columns [0, 4),
// "h(0,2)..(1,3)" the hubs from (0, 2) to (1, 3) in the hub file's order
// and "v2" interval 2's values, each prefixed "w" when written and
// followed by @offset+length.
std::string Describe(const std::vector<PlannedAccess>& accesses) {
  std::string out;
  for (const PlannedAccess& a : accesses) {
    const std::string i = std::to_string(a.i_begin);
    const std::string j = std::to_string(a.j_begin);
    out += out.empty() ? "" : " ";
    out += a.write ? "w" : "";
    switch (a.file) {
      case PlanFile::kShards:
        out += "s" + i + "[" + j + "," + std::to_string(a.j_end) + ")";
        break;
      case PlanFile::kHubs:
        out += "h(" + i + "," + j + ")..(" + std::to_string(a.i_end - 1) +
               "," + std::to_string(a.j_end - 1) + ")";
        break;
      case PlanFile::kIntervals:
        out += "v" + i;
        break;
    }
    out += "@" + std::to_string(a.offset) + "+" + std::to_string(a.length);
  }
  return out;
}

using Rows = std::vector<uint32_t>;

const std::vector<std::string> kRunGrid = {"P.PP", ".PP.", "PnPP", "...."};
const std::vector<std::string> kDense = {"PPPP", "PPPP", "PPPP", "PPPP"};

Rows RowsOf(const IterationPlan::WriteGroup& group) {
  Rows rows;
  for (const auto& row : group.rows) rows.push_back(row.values.i_begin);
  return rows;
}

// Row runs cover planned blobs, bridge an empty blob between two of them,
// take no empty blob at a run's ends, and break at a nonempty blob the
// iteration does not plan. Nonempty blobs are 20 bytes.
TEST(IterationPlanTest, RowRunsBridgeEmptyBlobsAndBreakAtUnplannedOnes) {
  const IterationPlan plan =
      Plan(MakeGrid(kRunGrid, 20, One), 4, 8, /*stream=*/true);
  EXPECT_EQ(Describe(plan.phase_a),
            "s0[0,4)@0+70 s1[1,3)@80+40 s2[0,1)@130+20 s2[2,4)@170+40");
  EXPECT_TRUE(plan.phase_b.empty());
  EXPECT_TRUE(plan.phase_c.empty());
}

// Cached mode's load runs pass over held blobs: a held blob breaks a run as
// an unplanned one does, so the bridge before it is not taken either.
TEST(IterationPlanTest, HeldBlobBreaksACachedLoadRun) {
  std::vector<uint8_t> held(2 * 4 * 4, 0);
  held[PlanGridIndex(4, 0, 2, false)] = 1;
  const IterationPlan plan =
      Plan(MakeGrid(kRunGrid, 20, One), 4, 8, /*stream=*/false, held);
  EXPECT_EQ(Describe(plan.phase_a),
            "s0[0,1)@0+20 s0[3,4)@50+20 s1[1,3)@80+40 s2[0,1)@130+20 "
            "s2[2,4)@170+40");
}

// DPU over 100-byte blobs with one destination each: every hub is 17
// bytes, a row's hubs 68 against a 400-byte raw row, so the four rows form
// one row group. A column costs its 32-byte accumulator against a 64-byte
// decoded row (four 16-byte blobs), so the columns pair into column groups
// [0, 2) and [2, 4), each one tile whose hubs lie column by column, row by
// row: hub (i, j) at 17 * (8 * (j / 2) + 4 * (j % 2) + i). Row 1 plans
// nothing: it is dropped, its values are not read, and its hubs split each
// tile into three written runs, which Phase C reads as they were written.
// Interval i's values lie at 36i in parity 0 and 144 + 36i in parity 1.
TEST(IterationPlanTest, DroppedRowSplitsATileIntoItsWrittenRuns) {
  const IterationPlan plan =
      Plan(MakeGrid({"PPPP", "nnnn", "PPPP", "PPPP"}, 100, One), 0, 4, true);
  ASSERT_EQ(plan.phase_b.size(), 1u);
  EXPECT_EQ(RowsOf(plan.phase_b[0]), (Rows{0, 2, 3}));
  EXPECT_EQ(Describe(plan.Accesses()),
            // Phase B: the group's rows, then its write runs, tile by tile.
            "v0@0+36 s0[0,4)@0+400 v2@72+36 s2[0,4)@800+400 "
            "v3@108+36 s3[0,4)@1200+400 "
            "wh(0,0)..(0,0)@0+17 wh(2,0)..(0,1)@34+51 wh(2,1)..(3,1)@102+34 "
            "wh(0,2)..(0,2)@136+17 wh(2,2)..(0,3)@170+51 "
            "wh(2,3)..(3,3)@238+34 "
            // Phase C: each column group's hub runs, then its columns'
            // values.
            "h(0,0)..(0,0)@0+17 h(2,0)..(0,1)@34+51 h(2,1)..(3,1)@102+34 "
            "v0@0+36 wv0@144+36 v1@36+36 wv1@180+36 "
            "h(0,2)..(0,2)@136+17 h(2,2)..(0,3)@170+51 h(2,3)..(3,3)@238+34 "
            "v2@72+36 wv2@216+36 v3@108+36 wv3@252+36");
}

// DPU over 40-byte blobs with one destination each: a row's hubs are 68
// bytes against a 160-byte raw row, so the rows form row groups [0, 2) and
// [2, 4), and the columns pair as above. Every hub is written, so each
// write group writes each of its two tiles with one call. The tiles of
// column group [0, 2) lie at 0 and 68, those of [2, 4) at 136 and 204.
TEST(IterationPlanTest, TileIsOneWrite) {
  const IterationPlan plan = Plan(MakeGrid(kDense, 40, One), 0, 4, true);
  ASSERT_EQ(plan.phase_b.size(), 2u);
  EXPECT_EQ(RowsOf(plan.phase_b[0]), (Rows{0, 1}));
  EXPECT_EQ(RowsOf(plan.phase_b[1]), (Rows{2, 3}));
  EXPECT_EQ(Describe(plan.phase_b[0].writes),
            "wh(0,0)..(1,1)@0+68 wh(0,2)..(1,3)@136+68");
  EXPECT_EQ(Describe(plan.phase_b[1].writes),
            "wh(2,0)..(3,1)@68+68 wh(2,2)..(3,3)@204+68");
}

// The same plan's Phase C: a column group's two tiles are adjacent and read
// as one 136-byte run within the 160-byte cap. One more hub would still fit
// the cap, but it lies in the next column group, so the run stops.
TEST(IterationPlanTest, ReadRunCrossesTilesButNotColumnGroups) {
  const IterationPlan plan = Plan(MakeGrid(kDense, 40, One), 0, 4, true);
  ASSERT_EQ(plan.phase_c.size(), 2u);
  EXPECT_EQ(Describe(plan.phase_c[0].directions[0].hub_reads),
            "h(0,0)..(3,1)@0+136");
  EXPECT_EQ(Describe(plan.phase_c[1].directions[0].hub_reads),
            "h(0,2)..(3,3)@136+136");
}

// Row 2's blobs have 8 destinations, so its hubs are 4 * 45 = 180 bytes
// against a 160-byte raw row (40-byte blobs); the other rows' are 68. Row
// 2 is a row group of its own between groups {0, 1} and {3}, buffered like
// every group, and with one column group each group's hubs are one tile,
// written with one call after its last row.
TEST(IterationPlanTest, RowOverTheCapIsAGroupOfItsOwn) {
  const IterationPlan plan =
      Plan(MakeGrid(kDense, 40, [](uint32_t i, uint32_t) {
             return i == 2 ? 8u : 1u;
           }),
           0, 4, /*stream=*/true);
  ASSERT_EQ(plan.phase_b.size(), 3u);
  EXPECT_EQ(RowsOf(plan.phase_b[0]), (Rows{0, 1}));
  EXPECT_EQ(RowsOf(plan.phase_b[1]), (Rows{2}));
  EXPECT_EQ(RowsOf(plan.phase_b[2]), (Rows{3}));
  const std::vector<PlannedAccess> all = plan.Accesses();
  EXPECT_EQ(Describe({all.begin(), all.begin() + 11}),
            "v0@0+36 s0[0,4)@0+160 v1@36+36 s1[0,4)@160+160 "
            "wh(0,0)..(1,3)@0+136 "
            "v2@72+36 s2[0,4)@320+160 wh(2,0)..(2,3)@136+180 "
            "v3@108+36 s3[0,4)@480+160 wh(3,0)..(3,3)@316+68");
}

// 50-byte blobs with 8 destinations and 8-byte values: every hub is 77
// bytes against a 200-byte raw row, so each row is a row group, and the
// four columns' 64-byte accumulators fit one 400-byte decoded row: one
// column group, whose tiles are the rows, hub (i, j) at 77 * (4i + j). Its
// sixteen written hubs read as eight runs of two, each within the cap.
TEST(IterationPlanTest, HubReadRunSplitsAtTheRawCap) {
  const IterationPlan plan = Plan(
      MakeGrid(kDense, 50, [](uint32_t, uint32_t) { return 8u; }), 0, 8, true);
  ASSERT_EQ(plan.phase_c.size(), 1u);
  const IterationPlan::ColumnGroup& group = plan.phase_c[0];
  EXPECT_EQ(group.j_begin, 0u);
  EXPECT_EQ(group.j_end, 4u);
  ASSERT_EQ(group.columns.size(), 4u);
  EXPECT_EQ(Describe(group.directions[0].hub_reads),
            "h(0,0)..(0,1)@0+154 h(0,2)..(0,3)@154+154 "
            "h(1,0)..(1,1)@308+154 h(1,2)..(1,3)@462+154 "
            "h(2,0)..(2,1)@616+154 h(2,2)..(2,3)@770+154 "
            "h(3,0)..(3,1)@924+154 h(3,2)..(3,3)@1078+154");
  const IterationPlan::DiskColumn& column = group.columns[2];
  EXPECT_EQ(column.j, 2u);
  EXPECT_EQ(Describe({column.old_values, column.write_back}),
            "v2@136+68 wv2@408+68");
}

// Stream MPU at Q = 2 over 100-byte blobs. The resident rows' blobs in
// the disk columns hold 30 edges (132 bytes decoded), every other blob one
// (16 bytes), so the largest decoded row is 296 bytes. Columns 2 and 3
// each cost a 64-byte accumulator plus a 132-byte resident blob: their
// blobs alone fit the decoded row, but with the accumulators they take
// 392 bytes, so they form two column groups, and each resident row reads
// one run per group. Phase A reads only the resident block.
TEST(IterationPlanTest, ColumnGroupSplitsAtTheDecodedCap) {
  const Count edges = [](uint32_t i, uint32_t j) {
    return i < 2 && j >= 2 ? 30u : 1u;
  };
  const IterationPlan plan =
      Plan(MakeGrid(kDense, 100, One, edges), 2, 8, /*stream=*/true);
  EXPECT_EQ(Describe(plan.phase_a), "s0[0,2)@0+200 s1[0,2)@400+200");
  ASSERT_EQ(plan.phase_c.size(), 2u);
  const char* runs[2] = {"s0[2,3)@200+100 s1[2,3)@600+100",
                         "s0[3,4)@300+100 s1[3,4)@700+100"};
  for (uint32_t k = 0; k < 2; ++k) {
    SCOPED_TRACE("group " + std::to_string(k));
    const IterationPlan::ColumnGroup& group = plan.phase_c[k];
    EXPECT_EQ(group.j_begin, 2 + k);
    EXPECT_EQ(group.j_end, 3 + k);
    ASSERT_EQ(group.columns.size(), 1u);
    EXPECT_EQ(Describe(group.directions[0].row_runs), runs[k]);
  }
}

// With selective scheduling a disk column with no planned resident-row
// blob and no written hub has nothing to fold and is left out; without
// it, every disk column is applied.
TEST(IterationPlanTest, SelectiveColumnWithNoWorkIsLeftOut) {
  const Grid g = MakeGrid({"PnnP", "nnnn", "nnPn", "nnnn"}, 20, One);
  for (bool selective : {true, false}) {
    SCOPED_TRACE(selective ? "selective" : "all columns");
    const IterationPlan plan = Plan(g, 1, 4, /*stream=*/true, {}, selective);
    Rows columns;
    for (const auto& group : plan.phase_c) {
      for (const auto& column : group.columns) columns.push_back(column.j);
    }
    // Column 3 has the planned resident-row blob (0, 3); column 2 the
    // written hub (2, 2).
    EXPECT_EQ(columns, (selective ? Rows{2, 3} : Rows{1, 2, 3}));
  }
}

// The splitter: a second cap (decoded bytes) closes runs on its own, and an
// item over a cap forms a run by itself.
TEST(IterationPlanTest, SplitByBytesHonorsBothCaps) {
  using Runs = std::vector<std::pair<uint32_t, uint32_t>>;
  const RunBytes items[5] = {{10, 1}, {10, 50}, {10, 1}, {10, 1}, {10, 60}};
  auto bytes = [&](uint32_t k) { return items[k]; };
  EXPECT_EQ(SplitByBytes(0, 5, RunBytes{100, 113}, bytes), (Runs{{0, 5}}));
  EXPECT_EQ(SplitByBytes(0, 5, RunBytes{100, 51}, bytes),
            (Runs{{0, 2}, {2, 4}, {4, 5}}));
  EXPECT_EQ(SplitByBytes(0, 5, RunBytes{20, 100}, bytes),
            (Runs{{0, 2}, {2, 4}, {4, 5}}));
  EXPECT_EQ(SplitByBytes(0, 5, RunBytes{0, 0}, bytes),
            (Runs{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}));
  EXPECT_TRUE(SplitByBytes(3, 3, RunBytes{}, bytes).empty());
}

}  // namespace
}  // namespace nxgraph
