// Hub I/O pattern of the out-of-core phases. Hub files are column-major, so
// Phase C must read each (direction, destination column, run of hubs
// written this iteration) with exactly one ReadAt spanning exactly that
// run: never a segment that was not written, and a faulted run read is
// retried whole with bit-identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/algos/programs.h"
#include "src/algos/reference.h"
#include "src/engine/engine.h"
#include "src/engine/strategy.h"
#include "src/io/flaky_env.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

bool IsHubPath(const std::string& path) {
  return path.find("/hubs_") != std::string::npos;
}

// One positional access to a hub file, logged when it returns. `bytes` is
// the requested length.
struct HubAccess {
  bool write;
  bool transpose;  // hubs_t.nxh
  uint64_t offset;
  uint64_t bytes;
};

// Env decorator that opens the engine's hub files through `hub_env` (the
// same base, or a FlakyEnv over it) and logs their positional reads and
// writes in completion order; every other file goes straight to `base`.
class HubTapEnv : public Env {
 public:
  HubTapEnv(Env* base, Env* hub_env) : base_(base), hub_env_(hub_env) {}

  // Hub reads with these 1-based ordinals get the first entry of their
  // first segment corrupted in the caller's buffer: the destination's top
  // bit is set, which puts it outside every column. The file is untouched,
  // so a re-read heals.
  void CorruptDestinationOnReads(std::vector<uint64_t> ordinals) {
    std::lock_guard<std::mutex> lock(mu_);
    corrupt_ordinals_ = std::move(ordinals);
  }
  uint64_t corrupted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return corrupted_;
  }

  std::vector<HubAccess> accesses(bool transpose) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<HubAccess> out;
    for (const HubAccess& a : accesses_) {
      if (a.transpose == transpose) out.push_back(a);
    }
    return out;
  }

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    return Route(path)->NewSequentialFile(path, out);
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    NX_RETURN_NOT_OK(Route(path)->NewRandomAccessFile(path, out));
    if (IsHubPath(path)) {
      *out = std::make_unique<TapReader>(this, IsTranspose(path),
                                         std::move(*out));
    }
    return Status::OK();
  }
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    return Route(path)->NewWritableFile(path, out);
  }
  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override {
    NX_RETURN_NOT_OK(Route(path)->NewRandomWriteFile(path, out));
    if (IsHubPath(path)) {
      *out = std::make_unique<TapWriter>(this, IsTranspose(path),
                                         std::move(*out));
    }
    return Status::OK();
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RemoveDirRecursively(const std::string& path) override {
    return base_->RemoveDirRecursively(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return base_->ListDir(path, names);
  }

 private:
  class TapReader : public RandomAccessFile {
   public:
    TapReader(HubTapEnv* env, bool transpose,
              std::unique_ptr<RandomAccessFile> file)
        : env_(env), transpose_(transpose), file_(std::move(file)) {}
    Status ReadAt(uint64_t offset, size_t n, void* buf,
                  size_t* bytes_read) const override {
      Status s = file_->ReadAt(offset, n, buf, bytes_read);
      env_->OnRead(static_cast<char*>(buf), s.ok() ? *bytes_read : 0);
      env_->Record({false, transpose_, offset, n});
      return s;
    }

   private:
    HubTapEnv* env_;
    bool transpose_;
    std::unique_ptr<RandomAccessFile> file_;
  };

  class TapWriter : public RandomWriteFile {
   public:
    TapWriter(HubTapEnv* env, bool transpose,
              std::unique_ptr<RandomWriteFile> file)
        : env_(env), transpose_(transpose), file_(std::move(file)) {}
    Status WriteAt(uint64_t offset, const void* data, size_t n) override {
      Status s = file_->WriteAt(offset, data, n);
      env_->Record({true, transpose_, offset, n});
      return s;
    }
    Status Flush() override { return file_->Flush(); }
    Status Truncate(uint64_t size) override { return file_->Truncate(size); }
    Status Close() override { return file_->Close(); }

   private:
    HubTapEnv* env_;
    bool transpose_;
    std::unique_ptr<RandomWriteFile> file_;
  };

  static bool IsTranspose(const std::string& path) {
    return path.find("/hubs_t") != std::string::npos;
  }
  Env* Route(const std::string& path) {
    return IsHubPath(path) ? hub_env_ : base_;
  }
  void Record(HubAccess a) {
    std::lock_guard<std::mutex> lock(mu_);
    accesses_.push_back(a);
  }
  void OnRead(char* buf, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    ++reads_;
    if (std::find(corrupt_ordinals_.begin(), corrupt_ordinals_.end(),
                  reads_) == corrupt_ordinals_.end()) {
      return;
    }
    uint64_t count = 0;
    if (n >= 12) std::memcpy(&count, buf, 8);
    if (count == 0) return;
    buf[11] ^= static_cast<char>(0x80);  // little-endian dst, bits 24-31
    ++corrupted_;
  }

  Env* base_;
  Env* hub_env_;
  mutable std::mutex mu_;
  std::vector<HubAccess> accesses_;
  std::vector<uint64_t> corrupt_ordinals_;
  uint64_t reads_ = 0;
  uint64_t corrupted_ = 0;
};

// The column-major hub layout recomputed from the manifest: segment (i, j),
// i, j >= q, holds 8 + num_dsts * (4 + value_bytes) bytes and a 4-byte
// checksum, and the segments follow each other in (j, i) order.
struct HubLayout {
  HubLayout(const Manifest& m, uint32_t q_in, bool transpose,
            uint32_t value_bytes)
      : p(m.num_intervals), q(q_in) {
    offset.assign(static_cast<size_t>(p) * p, 0);
    capacity.assign(static_cast<size_t>(p) * p, 0);
    uint64_t at = 0;
    for (uint32_t j = q; j < p; ++j) {
      for (uint32_t i = q; i < p; ++i) {
        const size_t k = static_cast<size_t>(i) * p + j;
        offset[k] = at;
        capacity[k] = 8 +
                      static_cast<uint64_t>(
                          m.subshard(i, j, transpose).num_dsts) *
                          (4 + value_bytes) +
                      4;
        at += capacity[k];
      }
    }
  }
  uint32_t p, q;
  std::vector<uint64_t> offset, capacity;  // indexed i * p + j
};

struct PatternStats {
  int iterations = 0;
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  // (iteration, column)s whose written hubs form two or more runs.
  uint64_t broken_columns = 0;
  // Expected reads spanning two or more segments.
  uint64_t multi_segment_reads = 0;
  // Runs cut because they would outgrow `max_run_bytes`.
  uint64_t splits = 0;
};

// Splits one hub file's log into iterations — Phase B's writes, then Phase
// C's reads — and checks that each iteration reads exactly one span per
// maximal run of hubs written in a column, cut greedily in ascending i
// wherever a span would outgrow `max_run_bytes`, and nothing else.
PatternStats CheckColumnRunReads(const std::vector<HubAccess>& log,
                                 const HubLayout& layout,
                                 uint64_t max_run_bytes) {
  const uint32_t p = layout.p;
  auto at = [p](uint32_t i, uint32_t j) {
    return static_cast<size_t>(i) * p + j;
  };
  PatternStats st;
  size_t k = 0;
  while (k < log.size()) {
    std::vector<uint8_t> written(static_cast<size_t>(p) * p, 0);
    for (; k < log.size() && log[k].write; ++k) {
      // A group commit may cover several adjacent segments.
      for (uint32_t j = layout.q; j < p; ++j) {
        for (uint32_t i = layout.q; i < p; ++i) {
          const uint64_t start = layout.offset[at(i, j)];
          if (start >= log[k].offset &&
              start < log[k].offset + log[k].bytes) {
            written[at(i, j)] = 1;
          }
        }
      }
      st.write_bytes += log[k].bytes;
    }
    std::vector<std::pair<uint64_t, uint64_t>> reads;
    for (; k < log.size() && !log[k].write; ++k) {
      reads.emplace_back(log[k].offset, log[k].bytes);
      st.read_bytes += log[k].bytes;
    }
    std::vector<std::pair<uint64_t, uint64_t>> expected;
    auto close = [&](uint64_t begin, uint64_t bytes, int segments) {
      expected.emplace_back(begin, bytes);
      if (segments >= 2) ++st.multi_segment_reads;
    };
    for (uint32_t j = layout.q; j < p; ++j) {
      int runs = 0;
      for (uint32_t i = layout.q; i < p;) {
        if (!written[at(i, j)]) {
          ++i;
          continue;
        }
        ++runs;
        uint64_t begin = layout.offset[at(i, j)];
        uint64_t bytes = 0;
        int segments = 0;
        for (; i < p && written[at(i, j)]; ++i) {
          const uint64_t capacity = layout.capacity[at(i, j)];
          if (segments > 0 && bytes + capacity > max_run_bytes) {
            close(begin, bytes, segments);
            ++st.splits;
            begin += bytes;
            bytes = 0;
            segments = 0;
          }
          bytes += capacity;
          ++segments;
        }
        close(begin, bytes, segments);
      }
      if (runs >= 2) ++st.broken_columns;
    }
    std::sort(reads.begin(), reads.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(reads, expected) << "iteration " << st.iterations;
    st.reads += reads.size();
    ++st.iterations;
  }
  return st;
}

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

// One engine run on the store reopened through `tap`.
template <typename Program>
struct TappedRun {
  Status status;
  RunStats stats;
  std::vector<typename Program::Value> values;
};

template <typename Program>
TappedRun<Program> RunTapped(HubTapEnv* tap, Program program,
                             const RunOptions& opt) {
  TappedRun<Program> out;
  auto store = GraphStore::Open(tap, "g");
  if (!store.ok()) {
    out.status = store.status();
    return out;
  }
  Engine<Program> engine(*store, program, opt);
  auto stats = engine.Run();
  out.status = stats.status();
  if (stats.ok()) out.stats = *stats;
  out.values = engine.values();
  return out;
}

struct HubCase {
  const char* name;
  UpdateStrategy strategy;
  EdgeDirection direction;
};

class HubPatternTest : public ::testing::TestWithParam<HubCase> {};

// PageRank writes the hub of every nonempty sub-shard with i, j >= Q each
// iteration; WCC's selective scheduling leaves some unwritten. Either way
// each iteration reads one span per (direction, column, run).
TEST_P(HubPatternTest, OneReadPerColumnRunOfWrittenHubs) {
  const HubCase& c = GetParam();
  auto ms = testing::BuildMemStore(BlockedIntervalGraph(3), kP);
  ASSERT_EQ(ms.store->manifest().num_intervals, kP);
  HubTapEnv tap(ms.env.get(), ms.env.get());
  RunOptions opt;
  opt.strategy = c.strategy;
  opt.direction = c.direction;
  opt.num_threads = 2;
  opt.max_iterations = 4;
  const uint64_t n = ms.store->num_vertices();
  uint32_t value_bytes = 0;
  Status status;
  RunStats stats;
  if (c.direction == EdgeDirection::kForward) {
    PageRankProgram pr;
    pr.num_vertices = n;
    value_bytes = sizeof(PageRankProgram::Value);
    // Half the vertex state resident under MPU: Q = P / 2.
    if (c.strategy == UpdateStrategy::kMixedPhase) {
      opt.memory_budget_bytes = n * value_bytes + n * 4;
    }
    auto run = RunTapped(&tap, pr, opt);
    status = run.status;
    stats = run.stats;
  } else {
    value_bytes = sizeof(WccProgram::Value);
    auto run = RunTapped(&tap, WccProgram{}, opt);
    status = run.status;
    stats = run.stats;
    auto ref = LoadReferenceGraph(*ms.store);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(run.values, ReferenceWcc(*ref));
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  const uint32_t q = c.strategy == UpdateStrategy::kDoublePhase ? 0 : kP / 2;
  ASSERT_EQ(stats.strategy, q == 0 ? "DPU" : "MPU(Q=4/8)");

  const std::vector<bool> transposes =
      c.direction == EdgeDirection::kBoth ? std::vector<bool>{false, true}
                                          : std::vector<bool>{false};
  const uint64_t max_row = MaxRowBytes(ms.store->manifest(), c.direction);
  for (bool transpose : transposes) {
    SCOPED_TRACE(transpose ? "transpose hubs" : "forward hubs");
    const HubLayout layout(ms.store->manifest(), q, transpose, value_bytes);
    const PatternStats st =
        CheckColumnRunReads(tap.accesses(transpose), layout, max_row);
    EXPECT_EQ(st.iterations, stats.iterations);
    EXPECT_GT(st.reads, 0u);
    // No read spans a segment this iteration did not write.
    EXPECT_EQ(st.read_bytes, st.write_bytes);
    // The graph really puts gaps inside columns, and reads coalesce.
    EXPECT_GT(st.broken_columns, 0u);
    EXPECT_GT(st.multi_segment_reads, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, HubPatternTest,
    ::testing::Values(
        HubCase{"MpuPageRank", UpdateStrategy::kMixedPhase,
                EdgeDirection::kForward},
        HubCase{"DpuPageRank", UpdateStrategy::kDoublePhase,
                EdgeDirection::kForward},
        HubCase{"DpuWccBothDirections", UpdateStrategy::kDoublePhase,
                EdgeDirection::kBoth}),
    [](const ::testing::TestParamInfo<HubCase>& info) {
      return std::string(info.param.name);
    });

// Selective BFS under MPU: rows and blobs the frontier misses write no hub,
// so runs break at those unwritten hubs — the reads still cover exactly the
// written segments and the depths match the reference.
TEST(HubIoTest, SelectiveBfsBreaksRunsAtUnwrittenHubs) {
  // Sparse random graph: the BFS frontier touches scattered intervals.
  auto ms = testing::BuildMemStore(testing::RandomGraph(320, 700, 17), kP);
  HubTapEnv tap(ms.env.get(), ms.env.get());
  const uint64_t n = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kMixedPhase;
  opt.selective_scheduling = true;
  opt.num_threads = 2;
  opt.memory_budget_bytes = n * sizeof(BfsProgram::Value) + n * 4;
  BfsProgram bfs;
  bfs.root = 0;
  auto run = RunTapped(&tap, bfs, opt);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.stats.strategy, "MPU(Q=4/8)");
  EXPECT_GT(run.stats.subshards_skipped, 0u);

  auto ref = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(run.values, ReferenceBfs(*ref, 0));

  const HubLayout layout(ms.store->manifest(), kP / 2, false,
                         sizeof(BfsProgram::Value));
  const PatternStats st = CheckColumnRunReads(
      tap.accesses(false), layout,
      MaxRowBytes(ms.store->manifest(), EdgeDirection::kForward));
  EXPECT_GT(st.reads, 0u);
  EXPECT_EQ(st.read_bytes, st.write_bytes);
  EXPECT_GT(st.broken_columns, 0u);
  EXPECT_GT(st.multi_segment_reads, 0u);
}

// A transient fault on a run read fails the whole run; the prefetch
// pipeline's retry re-reads exactly the same span and the result is
// bit-identical to a fault-free run.
TEST(HubIoTest, FaultedRunReadRetriesWholeRun) {
  auto ms = testing::BuildMemStore(BlockedIntervalGraph(5), kP);
  const uint64_t n = ms.store->num_vertices();
  PageRankProgram pr;
  pr.num_vertices = n;
  RunOptions opt;
  opt.strategy = UpdateStrategy::kMixedPhase;
  opt.num_threads = 2;
  opt.io_threads = 1;  // hub reads in issue order, retries back to back
  opt.max_iterations = 3;
  opt.memory_budget_bytes = n * sizeof(double) + n * 4;

  HubTapEnv clean_tap(ms.env.get(), ms.env.get());
  opt.scratch_dir = "clean";
  auto clean = RunTapped(&clean_tap, pr, opt);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_EQ(clean.stats.io_retries, 0u);

  // Hub reads run in push order: column Q's runs in ascending i, then the
  // next column's. Under the blocked pattern column Q = 4 has the runs
  // {4} and {6, 7}; fault the second (a two-segment run) and a later one.
  FlakyEnv flaky(ms.env.get());
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 2,
                      FlakyEnv::FaultKind::kShortRead);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 5,
                      FlakyEnv::FaultKind::kTransientError);
  HubTapEnv flaky_tap(ms.env.get(), &flaky);
  opt.scratch_dir = "flaky";
  auto faulted = RunTapped(&flaky_tap, pr, opt);
  ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
  EXPECT_EQ(flaky.injected_faults(), 2u);
  EXPECT_GE(faulted.stats.io_retries, 2u);
  EXPECT_EQ(faulted.values, clean.values);

  std::vector<HubAccess> reads;
  for (const HubAccess& a : flaky_tap.accesses(false)) {
    if (!a.write) reads.push_back(a);
  }
  size_t clean_reads = 0;
  for (const HubAccess& a : clean_tap.accesses(false)) clean_reads += !a.write;
  ASSERT_EQ(reads.size(), clean_reads + 2);
  // Reads 2 and 5 (1-based) failed; each retry is the same whole span.
  for (size_t failed : {size_t{1}, size_t{4}}) {
    EXPECT_EQ(reads[failed + 1].offset, reads[failed].offset);
    EXPECT_EQ(reads[failed + 1].bytes, reads[failed].bytes);
  }
  const HubLayout layout(ms.store->manifest(), kP / 2, false, sizeof(double));
  const size_t seg_6_4 = static_cast<size_t>(6) * kP + 4;
  const size_t seg_7_4 = static_cast<size_t>(7) * kP + 4;
  EXPECT_EQ(reads[1].offset, layout.offset[seg_6_4]);
  EXPECT_EQ(reads[1].bytes,
            layout.capacity[seg_6_4] + layout.capacity[seg_7_4]);
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

  HubTapEnv clean_tap(ms.env.get(), ms.env.get());
  opt.scratch_dir = "clean";
  auto clean = RunTapped(&clean_tap, pr, opt);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_EQ(clean.stats.io_retries, 0u);

  // Every hub PageRank writes holds entries. Read 1 is the first of the
  // first iteration; read 12 lands in a later column.
  HubTapEnv tap(ms.env.get(), ms.env.get());
  tap.CorruptDestinationOnReads({1, 12});
  opt.scratch_dir = "corrupt";
  auto healed = RunTapped(&tap, pr, opt);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_EQ(tap.corrupted(), 2u);
  EXPECT_EQ(healed.stats.io_retries, 2u);
  EXPECT_EQ(healed.values, clean.values);
}

}  // namespace
}  // namespace nxgraph
