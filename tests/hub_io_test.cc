// The device accesses of an engine run against its iteration plans. The
// log of every shard, hub and interval access a run makes is the
// concatenation of its iterations' plans: in order with no compute threads
// and no read-ahead, as a multiset otherwise, and with write-behind's group
// commit joining only whole planned writes. A faulted or corrupted hub read
// is retried whole with bit-identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/algos/programs.h"
#include "src/engine/engine.h"
#include "src/engine/iteration_plan.h"
#include "src/io/flaky_env.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

using testing::AccessLogEnv;
using testing::Logged;
using testing::LoggedAccess;

constexpr uint32_t kP = 8;
constexpr uint32_t kIntervalSize = 40;

// Interval-block graph on kP intervals of kIntervalSize ids: a chain inside
// every interval (every id has an edge, so ids map to intervals by
// id / kIntervalSize) plus random edges between interval pairs, except the
// blocked off-diagonal pairs, whose sub-shards stay empty. Under Q = 0 and
// Q = kP / 2 the blocked pairs sit inside hub columns, so even a dense
// iteration writes columns with gaps.
EdgeList BlockedIntervalGraph(uint64_t seed) {
  auto blocked = [](uint64_t i, uint64_t j) {
    return i != j && (i * 5 + j * 3) % 4 == 1;
  };
  const uint64_t n = static_cast<uint64_t>(kP) * kIntervalSize;
  EdgeList edges;
  for (uint64_t v = 0; v < n; ++v) {
    if ((v + 1) % kIntervalSize != 0) edges.Add(v, v + 1);
  }
  Xoshiro256 rng(seed);
  for (int e = 0; e < 3000; ++e) {
    const uint64_t src = rng.NextBounded(n);
    const uint64_t dst = rng.NextBounded(n);
    if (!blocked(src / kIntervalSize, dst / kIntervalSize)) {
      edges.Add(src, dst);
    }
  }
  return edges;
}

// Interval-block graph shaped for write groups, on the blocked pattern of
// BlockedIntervalGraph: each unblocked (row, column) pair gets 120 edges
// from the row interval's first 3 vertices to the column's first 3, so a
// row's hubs (both directions) are small against its raw bytes and
// consecutive rows form multi-row write groups; every vertex points at its
// interval's first one, so ids map to intervals by id / kIntervalSize; and
// row kWideRow's first vertex instead points at every vertex of every
// unblocked column, so that row's dense hubs outgrow the raw row cap under
// DPU even in the bitmap form.
constexpr uint64_t kWideRow = 5;

EdgeList GroupedIntervalGraph(uint64_t seed) {
  auto blocked = [](uint64_t i, uint64_t j) {
    return i != j && (i * 5 + j * 3) % 4 == 1;
  };
  EdgeList edges;
  Xoshiro256 rng(seed);
  for (uint64_t i = 0; i < kP; ++i) {
    const uint64_t base = i * kIntervalSize;
    for (uint64_t k = 1; k < kIntervalSize; ++k) edges.Add(base + k, base);
    for (uint64_t j = 0; j < kP; ++j) {
      if (blocked(i, j)) continue;
      if (i == kWideRow) {
        for (uint64_t k = 0; k < kIntervalSize; ++k) {
          edges.Add(base, j * kIntervalSize + k);
        }
        continue;
      }
      for (int e = 0; e < 120; ++e) {
        edges.Add(base + rng.NextBounded(3),
                  j * kIntervalSize + rng.NextBounded(3));
      }
    }
  }
  return edges;
}

// One engine run on the store at "g", opened through `env`.
template <typename Program>
struct LoggedRun {
  Status status;
  RunStats stats;
  std::vector<typename Program::Value> values;
  std::vector<LoggedAccess> log;
};

template <typename Program>
LoggedRun<Program> RunLogged(AccessLogEnv* env, const Program& program,
                             const RunOptions& opt) {
  LoggedRun<Program> out;
  env->ClearLog();
  auto store = GraphStore::Open(env, "g");
  out.status = store.status();
  if (!store.ok()) return out;
  Engine<Program> engine(*store, program, opt);
  auto stats = engine.Run();
  out.status = stats.status();
  if (stats.ok()) out.stats = *stats;
  out.values = engine.values();
  out.log = env->log();
  return out;
}

// A run's accesses inside its iterations: setup writes the disk intervals'
// initial values first, `setup_bytes` in all (their segments are adjacent,
// so write-behind may join them), and the run ends by reading each of the
// `disk_intervals` disk intervals' final values.
std::vector<LoggedAccess> Iterations(const std::vector<LoggedAccess>& log,
                                     uint32_t disk_intervals,
                                     uint64_t setup_bytes) {
  size_t setup = 0;
  uint64_t bytes = 0;
  for (; bytes < setup_bytes && setup < log.size(); ++setup) {
    EXPECT_TRUE(log[setup].file == PlanFile::kIntervals && log[setup].write);
    bytes += log[setup].length;
  }
  EXPECT_EQ(bytes, setup_bytes);
  if (log.size() < setup + disk_intervals) {
    ADD_FAILURE() << "log shorter than setup and collection";
    return {};
  }
  for (size_t k = 0; k < disk_intervals; ++k) {
    const LoggedAccess& collect = log[log.size() - 1 - k];
    EXPECT_TRUE(collect.file == PlanFile::kIntervals && !collect.write);
  }
  return {log.begin() + setup, log.end() - disk_intervals};
}

// The nonempty blobs a log's shard reads cover: in stream mode and for
// blobs not yet held, exactly the blobs the iteration planned.
std::vector<uint8_t> PlannedFromShardReads(
    const Manifest& m, const std::vector<LoggedAccess>& log) {
  const uint32_t p = m.num_intervals;
  std::vector<uint8_t> planned(2 * static_cast<size_t>(p) * p, 0);
  for (const LoggedAccess& a : log) {
    if (a.file != PlanFile::kShards) continue;
    for (uint32_t i = 0; i < p; ++i) {
      for (uint32_t j = 0; j < p; ++j) {
        const SubShardMeta& meta = m.subshard(i, j, a.transpose);
        if (meta.num_edges > 0 && meta.offset >= a.offset &&
            meta.offset + meta.size <= a.offset + a.length) {
          planned[PlanGridIndex(p, i, j, a.transpose)] = 1;
        }
      }
    }
  }
  return planned;
}

std::vector<LoggedAccess> Sorted(std::vector<LoggedAccess> log) {
  std::sort(log.begin(), log.end());
  return log;
}

// Write-behind reorders writes and joins those that touch on disk (group
// commit). Against the plans, a run with it reads exactly as planned and
// writes the planned bytes, each write starting where a planned write
// starts and ending where one ends.
void CheckJoinedWrites(const std::vector<LoggedAccess>& log,
                       const std::vector<LoggedAccess>& planned) {
  std::set<std::tuple<PlanFile, bool, uint64_t>> starts, ends;
  std::vector<LoggedAccess> reads, planned_reads;
  uint64_t bytes = 0, planned_bytes = 0;
  for (const LoggedAccess& a : planned) {
    if (!a.write) {
      planned_reads.push_back(a);
      continue;
    }
    starts.insert({a.file, a.transpose, a.offset});
    ends.insert({a.file, a.transpose, a.offset + a.length});
    planned_bytes += a.length;
  }
  for (const LoggedAccess& a : log) {
    if (!a.write) {
      reads.push_back(a);
      continue;
    }
    EXPECT_TRUE(starts.count({a.file, a.transpose, a.offset}) &&
                ends.count({a.file, a.transpose, a.offset + a.length}))
        << "a write that does not span whole planned writes";
    bytes += a.length;
  }
  EXPECT_EQ(Sorted(reads), Sorted(planned_reads));
  EXPECT_EQ(bytes, planned_bytes);
}

// A strategy and the mode its budget gives.
struct Mode {
  const char* name;
  UpdateStrategy strategy;
  bool stream;
};
const Mode kModes[] = {
    {"StreamSpu", UpdateStrategy::kSinglePhase, true},
    {"CachedSpu", UpdateStrategy::kSinglePhase, false},
    {"Dpu", UpdateStrategy::kDoublePhase, false},
    {"StreamMpu", UpdateStrategy::kMixedPhase, true},
    {"CachedMpu", UpdateStrategy::kMixedPhase, false},
};

struct MatrixGraph {
  const char* name;
  EdgeList (*edges)();
  uint32_t p;
};
const MatrixGraph kGraphs[] = {
    // engine_test's probe graph.
    {"Probe", [] { return testing::RandomGraph(4000, 60000, 9); }, 16},
    {"Grouped", [] { return GroupedIntervalGraph(3); }, kP},
    {"Blocked", [] { return BlockedIntervalGraph(3); }, kP},
    {"Delaunay",
     [] {
       DelaunayLikeOptions options;
       options.num_points = 2048;
       return GenerateDelaunayLike(options);
     },
     16},
    // Cached MPU needs the decoded blobs to fit beside the vertex state in
    // less than one interval's share of it (2 n Ba / P), which none of the
    // graphs above allows.
    {"SmallDecoded", testing::SmallDecodedGraph, 2},
};

struct MatrixCase {
  const MatrixGraph* graph;
  const Mode* mode;
};

class PlanMatrixTest : public ::testing::TestWithParam<MatrixCase> {
 protected:
  void SetUp() override {
    ms_ = testing::BuildMemStore(GetParam().graph->edges(),
                                 GetParam().graph->p);
    env_ = std::make_unique<AccessLogEnv>(ms_.env.get());
  }

  template <typename Program>
  void Check(const Program& program, EdgeDirection direction);

  testing::MemStore ms_;
  std::unique_ptr<AccessLogEnv> env_;
  // Write groups the case's plans formed.
  uint64_t multi_row_groups_ = 0;  // of two or more rows
  uint64_t over_cap_groups_ = 0;   // one row whose hubs exceed the cap
  // The first iteration of the first check (PageRank, forward, which plans
  // every nonempty blob): the hub writes its log shows, its plan's write
  // runs, its scheduled disk rows and its disk columns.
  struct FirstIteration {
    uint64_t hub_writes = 0, write_runs = 0, rows = 0, disk_columns = 0;
  };
  std::optional<FirstIteration> first_;
};

constexpr int kIterations = 3;

template <typename Program>
void PlanMatrixTest::Check(const Program& program, EdgeDirection direction) {
  const Manifest& m = ms_.store->manifest();
  const uint32_t p = m.num_intervals;
  const uint64_t n = m.num_vertices;
  const uint32_t value_bytes = sizeof(typename Program::Value);
  const Mode& mode = *GetParam().mode;
  // A run's plan can be read back from its shard reads with selective
  // scheduling in stream mode, or when nothing is held (DPU); a cached
  // run's only without it.
  RunOptions opt;
  opt.strategy = mode.strategy;
  opt.direction = direction;
  opt.selective_scheduling =
      mode.stream || mode.strategy == UpdateStrategy::kDoublePhase;
  const uint64_t degrees = n * 4 * ReadDirections(m, direction).size();
  if (mode.strategy == UpdateStrategy::kSinglePhase && mode.stream) {
    opt.memory_budget_bytes = degrees + 2 * n * value_bytes + 1;
  } else if (mode.strategy == UpdateStrategy::kMixedPhase) {
    opt.memory_budget_bytes = degrees + n * value_bytes;
    if (!mode.stream) {
      // Only PageRank's 8-byte values over one direction leave the
      // decoded blobs room beside the vertex state.
      if (value_bytes != 8 || direction != EdgeDirection::kForward) return;
      opt.memory_budget_bytes += m.TotalDecodedSubShardBytes(false) + 64;
    }
  }
  const StrategyDecision decision =
      ChooseStrategy(m, value_bytes, degrees, opt);
  ASSERT_EQ(decision.stream_mode, mode.stream);
  const uint32_t q = decision.resident_intervals;
  if (mode.strategy == UpdateStrategy::kMixedPhase) {
    ASSERT_GT(q, 0u);
    ASSERT_LT(q, p);
  }
  const PlanConfig config{q, value_bytes, direction, mode.stream,
                          opt.selective_scheduling &&
                              Program::kMonotoneSkippable && m.has_summaries()};
  const std::vector<uint64_t> intervals =
      IntervalStore::SegmentOffsets(m, value_bytes);
  const uint64_t setup_bytes = intervals[p] - intervals[q];

  // Each iteration's accesses: the k-iteration run's past the
  // (k - 1)-iteration run's, with no compute threads and no read-ahead so
  // that one is a prefix of the other.
  opt.num_threads = 0;
  opt.prefetch_depth = 0;
  opt.writeback_buffer_bytes = 0;
  std::vector<std::vector<LoggedAccess>> iterations;
  std::vector<LoggedAccess> previous;
  std::vector<typename Program::Value> values;
  for (int k = 1; k <= kIterations; ++k) {
    opt.max_iterations = k;
    LoggedRun<Program> run = RunLogged(env_.get(), program, opt);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    if (run.stats.iterations < k) break;  // converged
    const std::vector<LoggedAccess> body =
        Iterations(run.log, p - q, setup_bytes);
    ASSERT_GE(body.size(), previous.size());
    ASSERT_TRUE(std::equal(previous.begin(), previous.end(), body.begin()))
        << "the first iterations differ between runs";
    iterations.emplace_back(body.begin() + previous.size(), body.end());
    previous = body;
    values = run.values;
  }
  ASSERT_FALSE(iterations.empty());

  std::vector<uint8_t> held(mode.stream ? 0 : 2 * static_cast<size_t>(p) * p,
                            0);
  std::vector<int> parity(p, 0);
  std::vector<LoggedAccess> planned;
  for (size_t it = 0; it < iterations.size(); ++it) {
    SCOPED_TRACE("iteration " + std::to_string(it));
    const IterationPlan plan = BuildIterationPlan(
        m, config, PlannedFromShardReads(m, iterations[it]), held, parity);
    std::vector<LoggedAccess> expected;
    for (const PlannedAccess& a : plan.Accesses()) {
      expected.push_back(Logged(a));
      if (a.file == PlanFile::kIntervals && a.write) parity[a.i_begin] ^= 1;
    }
    EXPECT_EQ(iterations[it], expected);
    planned.insert(planned.end(), expected.begin(), expected.end());
    // Cached mode holds what the load runs read, bridged empties aside.
    for (const PlannedAccess& run : mode.stream ? std::vector<PlannedAccess>{}
                                                : plan.phase_a) {
      for (uint32_t j = run.j_begin; j < run.j_end; ++j) {
        if (m.subshard(run.i_begin, j, run.transpose).num_edges > 0) {
          held[PlanGridIndex(p, run.i_begin, j, run.transpose)] = 1;
        }
      }
    }
    if (!first_) {
      first_.emplace();
      first_->hub_writes = std::count_if(
          iterations[it].begin(), iterations[it].end(),
          [](const LoggedAccess& a) {
            return a.file == PlanFile::kHubs && a.write;
          });
      first_->disk_columns = p - q;
      for (const auto& group : plan.phase_b) {
        first_->write_runs += group.writes.size();
        first_->rows += group.rows.size();
      }
    }
    for (const auto& group : plan.phase_b) {
      multi_row_groups_ += group.rows.size() >= 2;
      over_cap_groups_ +=
          group.rows.size() == 1 &&
          HubRowBytes(m, value_bytes, direction, q,
                      group.rows[0].values.i_begin) > RowCap(m, direction).raw;
    }
  }

  // Compute threads and read-ahead reorder the accesses, nothing more.
  opt.max_iterations = static_cast<int>(iterations.size());
  opt.num_threads = 2;
  opt.prefetch_depth = 2;
  LoggedRun<Program> threaded = RunLogged(env_.get(), program, opt);
  ASSERT_TRUE(threaded.status.ok()) << threaded.status.ToString();
  EXPECT_EQ(threaded.values, values);
  EXPECT_EQ(Sorted(Iterations(threaded.log, p - q, setup_bytes)),
            Sorted(planned));

  // Write-behind, funded wherever the budget leaves room.
  opt.writeback_buffer_bytes = RunOptions{}.writeback_buffer_bytes;
  LoggedRun<Program> behind = RunLogged(env_.get(), program, opt);
  ASSERT_TRUE(behind.status.ok()) << behind.status.ToString();
  EXPECT_EQ(behind.values, values);
  CheckJoinedWrites(Iterations(behind.log, p - q, setup_bytes), planned);
}

TEST_P(PlanMatrixTest, EnvLogIsTheConcatenatedPlans) {
  for (EdgeDirection direction :
       {EdgeDirection::kForward, EdgeDirection::kBoth}) {
    SCOPED_TRACE(direction == EdgeDirection::kForward ? "forward" : "both");
    {
      SCOPED_TRACE("PageRank");
      PageRankProgram pr;
      pr.num_vertices = ms_.store->num_vertices();
      ASSERT_NO_FATAL_FAILURE(Check(pr, direction));
    }
    {
      SCOPED_TRACE("BFS");
      BfsProgram bfs;
      bfs.root = 0;
      ASSERT_NO_FATAL_FAILURE(Check(bfs, direction));
    }
    {
      SCOPED_TRACE("WCC");
      ASSERT_NO_FATAL_FAILURE(Check(WccProgram{}, direction));
    }
  }
  // The graphs reach the plan shapes they were built for.
  const std::string graph = GetParam().graph->name;
  const std::string mode = GetParam().mode->name;
  const bool disk = mode == "Dpu" || mode == "StreamMpu";
  if (graph == "Grouped" && mode == "Dpu") {
    EXPECT_GT(multi_row_groups_, 0u);
    EXPECT_GT(over_cap_groups_, 0u);  // the wide row
  }
  if ((graph == "Delaunay" || graph == "Probe") && disk) {
    EXPECT_GT(over_cap_groups_, 0u);
  }
  if (graph == "Delaunay" && disk) {
    // Hub-heavy: every row's hubs outgrow the raw row cap, so each row is a
    // row group of its own, and Phase B writes each (row, column group)
    // tile with one call where one call per hub, (P - Q) per row, would
    // not group at all. DPU: 16 rows x 3 column groups; stream MPU at
    // Q = 8: 8 rows x 2 column groups.
    ASSERT_TRUE(first_.has_value());
    EXPECT_EQ(first_->hub_writes, first_->write_runs);
    EXPECT_LT(first_->hub_writes, first_->disk_columns * first_->rows);
    EXPECT_EQ(first_->hub_writes, mode == "Dpu" ? 48u : 16u);
  }
}

std::vector<MatrixCase> MatrixCases() {
  std::vector<MatrixCase> cases;
  for (const MatrixGraph& graph : kGraphs) {
    for (const Mode& mode : kModes) {
      if (std::string(mode.name) == "CachedMpu" &&
          std::string(graph.name) != "SmallDecoded") {
        continue;
      }
      cases.push_back({&graph, &mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PlanMatrixTest, ::testing::ValuesIn(MatrixCases()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string(info.param.graph->name) + info.param.mode->name;
    });

std::vector<LoggedAccess> ForwardHubReads(
    const std::vector<LoggedAccess>& log) {
  std::vector<LoggedAccess> reads;
  for (const LoggedAccess& a : log) {
    if (a.file == PlanFile::kHubs && !a.transpose && !a.write) {
      reads.push_back(a);
    }
  }
  return reads;
}

// A transient fault on a run read fails the whole run; the prefetch
// pipeline's retry re-reads exactly the same span and the result is
// bit-identical to a fault-free run.
TEST(HubIoTest, FaultedRunReadRetriesWholeRun) {
  auto ms = testing::BuildMemStore(BlockedIntervalGraph(5), kP);
  const Manifest& m = ms.store->manifest();
  const uint64_t n = ms.store->num_vertices();
  PageRankProgram pr;
  pr.num_vertices = n;
  RunOptions opt;
  opt.strategy = UpdateStrategy::kMixedPhase;
  opt.num_threads = 2;
  opt.io_threads = 1;  // hub reads in issue order, retries back to back
  opt.max_iterations = 3;
  opt.memory_budget_bytes = n * sizeof(double) + n * 4;

  AccessLogEnv clean_log(ms.env.get());
  opt.scratch_dir = "clean";
  auto clean = RunLogged(&clean_log, pr, opt);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_EQ(clean.stats.io_retries, 0u);

  // Hub reads run in push order, the first column group's runs in file
  // order first. Here each disk row is a row group of its own and the
  // first column group is [4, 7); under the blocked pattern its written
  // hubs read as (4, 4)-(4, 6), (5, 5)-(6, 4) and (6, 6)-(7, 5). Fault the
  // second, a run that crosses from row 5's tile into row 6's, and a later
  // one.
  FlakyEnv flaky(ms.env.get());
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 2,
                      FlakyEnv::FaultKind::kShortRead);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 5,
                      FlakyEnv::FaultKind::kTransientError);
  AccessLogEnv flaky_log(ms.env.get(), &flaky);
  opt.scratch_dir = "flaky";
  auto faulted = RunLogged(&flaky_log, pr, opt);
  ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
  EXPECT_EQ(flaky.injected_faults(), 2u);
  EXPECT_GE(faulted.stats.io_retries, 2u);
  EXPECT_EQ(faulted.values, clean.values);

  const std::vector<LoggedAccess> reads = ForwardHubReads(faulted.log);
  ASSERT_EQ(reads.size(), ForwardHubReads(clean.log).size() + 2);
  // Reads 2 and 5 (1-based) failed; each retry is the same whole span.
  for (size_t failed : {size_t{1}, size_t{4}}) {
    EXPECT_EQ(reads[failed + 1], reads[failed]);
  }
  // Read 2 is the first column group's second hub run in the first
  // iteration's plan.
  const IterationPlan plan = BuildIterationPlan(
      m, PlanConfig{kP / 2, sizeof(double), EdgeDirection::kForward, true},
      PlannedFromShardReads(m, clean.log), {}, std::vector<int>(kP, 0));
  const IterationPlan::ColumnGroup& group = plan.phase_c[0];
  ASSERT_EQ(group.j_begin, 4u);
  ASSERT_EQ(group.j_end, 7u);
  ASSERT_EQ(group.directions[0].hub_reads.size(), 3u);
  const PlannedAccess& run = group.directions[0].hub_reads[1];
  EXPECT_EQ(std::make_pair(run.i_begin, run.j_begin), std::make_pair(5u, 5u));
  EXPECT_EQ(std::make_pair(run.i_end - 1, run.j_end - 1),
            std::make_pair(6u, 4u));
  EXPECT_EQ(reads[1], Logged(run));
}

// A hub destination corrupted in flight is caught before the FromHub fold
// indexes its accumulator with it: the run read fails as a retryable
// Corruption, the pipeline's retry reads it again, and the values match a
// fault-free run.
TEST(HubIoTest, CorruptDestinationIsRereadNotFolded) {
  auto ms = testing::BuildMemStore(BlockedIntervalGraph(5), kP);
  const uint64_t n = ms.store->num_vertices();
  PageRankProgram pr;
  pr.num_vertices = n;
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.num_threads = 2;
  opt.io_threads = 1;  // hub reads in issue order
  opt.max_iterations = 3;

  AccessLogEnv clean_log(ms.env.get());
  opt.scratch_dir = "clean";
  auto clean = RunLogged(&clean_log, pr, opt);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_EQ(clean.stats.io_retries, 0u);

  // Every hub PageRank writes holds entries. Read 1 is the first of the
  // first iteration; read 12 lands in a later column.
  AccessLogEnv corrupting(ms.env.get());
  corrupting.CorruptDestinationOnReads({1, 12});
  opt.scratch_dir = "corrupt";
  auto healed = RunLogged(&corrupting, pr, opt);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_EQ(corrupting.corrupted(), 2u);
  EXPECT_EQ(healed.stats.io_retries, 2u);
  EXPECT_EQ(healed.values, clean.values);
}

}  // namespace
}  // namespace nxgraph
