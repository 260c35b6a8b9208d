// Hub I/O pattern of the out-of-core phases. Hub files are column-major, so
// Phase B must write each (direction, destination column, run of hubs it
// writes within one write group) with exactly one WriteAt spanning whole
// segments, and Phase C must read each (direction, destination column, run
// of hubs written this iteration) with exactly one ReadAt spanning exactly
// that run: never a segment that was not written, and a faulted run read
// is retried whole with bit-identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
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

  // Hub reads with these 1-based ordinals get their first segment's
  // destination set corrupted in the caller's buffer: bit 7 of its byte 3,
  // which is the top bit of the first id in the list form (an id outside
  // every column) and destination 31's bit in the bitmap form. The file is
  // untouched, so a re-read heals.
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
  // Both hub files' accesses, in completion order.
  std::vector<HubAccess> accesses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return accesses_;
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
    buf[11] ^= static_cast<char>(0x80);  // set byte 3 (little-endian)
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
// i, j >= q, holds an 8-byte count, the smaller destination set (a bitmap
// of ceil(|I_j| / 8) bytes or 4 bytes per destination), num_dsts values
// and a 4-byte checksum, and the segments follow each other in (j, i)
// order.
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
        const uint64_t num_dsts = m.subshard(i, j, transpose).num_dsts;
        const uint64_t bitmap = (m.interval_size(j) + 7) / 8;
        capacity[k] = 8 + std::min(bitmap, 4 * num_dsts) +
                      num_dsts * value_bytes + 4;
        at += capacity[k];
      }
    }
  }
  uint32_t p, q;
  std::vector<uint64_t> offset, capacity;  // indexed i * p + j
};

// Splits a hub file's log into iterations: Phase B's writes, then Phase C's
// reads. Both hub files' logs split the same way.
std::vector<std::pair<std::vector<HubAccess>, std::vector<HubAccess>>>
SplitIterations(const std::vector<HubAccess>& log) {
  std::vector<std::pair<std::vector<HubAccess>, std::vector<HubAccess>>> out;
  size_t k = 0;
  while (k < log.size()) {
    out.emplace_back();
    for (; k < log.size() && log[k].write; ++k) {
      out.back().first.push_back(log[k]);
    }
    for (; k < log.size() && !log[k].write; ++k) {
      out.back().second.push_back(log[k]);
    }
  }
  return out;
}

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
  for (const auto& [writes, reads_log] : SplitIterations(log)) {
    std::vector<uint8_t> written(static_cast<size_t>(p) * p, 0);
    uint64_t iteration_writes = 0;
    for (const HubAccess& w : writes) {
      // A group commit may cover several adjacent segments.
      for (uint32_t j = layout.q; j < p; ++j) {
        for (uint32_t i = layout.q; i < p; ++i) {
          const uint64_t start = layout.offset[at(i, j)];
          if (start >= w.offset && start < w.offset + w.bytes) {
            written[at(i, j)] = 1;
          }
        }
      }
      iteration_writes += w.bytes;
    }
    st.write_bytes += iteration_writes;
    std::vector<std::pair<uint64_t, uint64_t>> reads;
    uint64_t iteration_reads = 0;
    for (const HubAccess& r : reads_log) {
      reads.emplace_back(r.offset, r.bytes);
      iteration_reads += r.bytes;
    }
    st.read_bytes += iteration_reads;
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
    // No read spans a segment this iteration did not write.
    EXPECT_EQ(iteration_reads, iteration_writes)
        << "iteration " << st.iterations;
    st.reads += reads.size();
    ++st.iterations;
  }
  return st;
}

struct WriteStats {
  int iterations = 0;
  uint64_t writes = 0;
  // Writes spanning two or more segments.
  uint64_t multi_segment_writes = 0;
  // (iteration, direction, column)s written with two or more runs inside
  // one write group: unwritten hubs broke them.
  uint64_t broken_runs = 0;
  // Writes of rows whose hubs alone exceed the cap.
  uint64_t over_cap_row_writes = 0;
};

// How much of Phase B's write pattern a run can be held to.
enum class WriteCheck {
  // Every write spans whole segments. With write-behind funded, the
  // queue's group commit may join writes that touch on disk, across rows
  // and columns alike, so this is all such a run promises.
  kSegments,
  // Also: every write lies in one column, none is larger than max(cap,
  // the largest row's hubs), and a row over the cap is written alone.
  kBounded,
  // Also: exactly one write per (direction, column, maximal run of
  // written hubs within a write group).
  kExact,
};

// Checks Phase B's hub writes in `log` (both hub files, completion order),
// per iteration, to the level `check`. Write groups are recomputed as the
// engine plans them: runs of consecutive rows that write, cut greedily by
// `row_bytes` (every direction's hubs of the row) at `cap`. A row is taken
// to be in Phase B's schedule iff it writes a hub, which holds for DPU and
// for graphs whose every disk row has a nonempty disk-column blob; a
// selective MPU run can schedule a row for its resident columns alone, so
// it cannot be checked kExact.
WriteStats CheckWriteRuns(const std::vector<HubAccess>& log,
                          const std::vector<HubLayout>& layouts,
                          const std::vector<uint64_t>& row_bytes,
                          uint64_t cap, WriteCheck check) {
  const uint32_t p = layouts[0].p;
  const uint32_t q = layouts[0].q;
  const uint64_t max_row =
      *std::max_element(row_bytes.begin() + q, row_bytes.end());
  auto at = [p](uint32_t i, uint32_t j) {
    return static_cast<size_t>(i) * p + j;
  };
  WriteStats st;
  for (const auto& [writes, reads] : SplitIterations(log)) {
    SCOPED_TRACE("iteration " + std::to_string(st.iterations));
    // written[t][i * p + j]: hub (i, j) of direction t written this
    // iteration.
    std::vector<std::vector<uint8_t>> written(
        layouts.size(), std::vector<uint8_t>(static_cast<size_t>(p) * p, 0));
    std::vector<std::tuple<bool, uint64_t, uint64_t>> actual;
    for (const HubAccess& w : writes) {
      actual.emplace_back(w.transpose, w.offset, w.bytes);
      const HubLayout& layout = layouts[w.transpose ? 1 : 0];
      // Walk the segments from the write's start in file order: column by
      // column, ascending rows within each.
      uint64_t span = 0;
      std::vector<std::pair<uint32_t, uint32_t>> covered;
      for (uint32_t j = q; j < p && span < w.bytes; ++j) {
        for (uint32_t i = q; i < p && span < w.bytes; ++i) {
          if (covered.empty() && layout.offset[at(i, j)] != w.offset) continue;
          covered.emplace_back(i, j);
          span += layout.capacity[at(i, j)];
        }
      }
      ++st.writes;
      if (covered.empty()) {
        ADD_FAILURE() << "a write starts inside a segment";
        continue;
      }
      EXPECT_EQ(span, w.bytes) << "a write ends inside a segment";
      bool over_cap = false;
      for (auto [i, j] : covered) {
        written[w.transpose ? 1 : 0][at(i, j)] = 1;
        over_cap = over_cap || row_bytes[i] > cap;
      }
      st.multi_segment_writes += covered.size() >= 2;
      st.over_cap_row_writes += over_cap;
      if (check != WriteCheck::kSegments) {
        EXPECT_EQ(covered.front().second, covered.back().second)
            << "a write spans two columns";
        EXPECT_LE(w.bytes, std::max(cap, max_row));
        // A row over the cap is a write group of its own.
        if (over_cap) {
          EXPECT_EQ(covered.size(), 1u);
        }
      }
    }
    // Rows that write, and their write groups.
    std::vector<uint8_t> writes_row(p, 0);
    for (const auto& dir : written) {
      for (uint32_t i = q; i < p; ++i) {
        for (uint32_t j = q; j < p; ++j) writes_row[i] |= dir[at(i, j)];
      }
    }
    std::vector<std::pair<uint32_t, uint32_t>> groups;
    for (uint32_t i = q; i < p;) {
      if (!writes_row[i]) {
        ++i;
        continue;
      }
      uint32_t end = i;
      while (end < p && writes_row[end]) ++end;
      for (auto g : SplitByBytes(i, end, RunBytes{cap, 0}, [&](uint32_t r) {
             return RunBytes{row_bytes[r], 0};
           })) {
        groups.push_back(g);
      }
      i = end;
    }
    std::vector<std::tuple<bool, uint64_t, uint64_t>> expected;
    for (auto [gb, ge] : groups) {
      for (size_t t = 0; t < layouts.size(); ++t) {
        for (uint32_t j = q; j < p; ++j) {
          int runs = 0;
          for (uint32_t i = gb; i < ge;) {
            if (!written[t][at(i, j)]) {
              ++i;
              continue;
            }
            ++runs;
            uint64_t bytes = 0;
            const uint64_t begin = layouts[t].offset[at(i, j)];
            for (; i < ge && written[t][at(i, j)]; ++i) {
              bytes += layouts[t].capacity[at(i, j)];
            }
            expected.emplace_back(t == 1, begin, bytes);
          }
          st.broken_runs += runs >= 2;
        }
      }
    }
    std::sort(actual.begin(), actual.end());
    std::sort(expected.begin(), expected.end());
    if (check == WriteCheck::kExact) {
      EXPECT_EQ(actual, expected);
    }
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

// One tapped engine run of a HubCase, with the facts its checks recompute
// from the manifest.
struct HubCaseRun {
  RunStats stats;
  uint32_t q = 0;
  std::vector<HubLayout> layouts;            // forward hubs, then transpose
  std::vector<std::vector<HubAccess>> logs;  // per layout
  std::vector<HubAccess> log;                // both hub files
  std::vector<uint64_t> row_bytes;           // HubRowBytes per disk row
  uint64_t max_row = 0;                      // MaxRowBytes
};

// Runs case `c` for 4 iterations on `edges` through a HubTapEnv: PageRank
// for a forward case (MPU with half the vertex state resident), WCC over
// both directions otherwise, its components checked against the
// reference. `write_behind` false sets writeback_buffer_bytes = 0.
void RunHubCase(const HubCase& c, const EdgeList& edges, bool write_behind,
                HubCaseRun* out) {
  auto ms = testing::BuildMemStore(edges, kP);
  ASSERT_EQ(ms.store->manifest().num_intervals, kP);
  HubTapEnv tap(ms.env.get(), ms.env.get());
  RunOptions opt;
  opt.strategy = c.strategy;
  opt.direction = c.direction;
  opt.num_threads = 2;
  opt.max_iterations = 4;
  if (!write_behind) opt.writeback_buffer_bytes = 0;
  const uint64_t n = ms.store->num_vertices();
  uint32_t value_bytes = 0;
  Status status;
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
    out->stats = run.stats;
  } else {
    value_bytes = sizeof(WccProgram::Value);
    auto run = RunTapped(&tap, WccProgram{}, opt);
    status = run.status;
    out->stats = run.stats;
    auto ref = LoadReferenceGraph(*ms.store);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(run.values, ReferenceWcc(*ref));
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  out->q = c.strategy == UpdateStrategy::kDoublePhase ? 0 : kP / 2;
  ASSERT_EQ(out->stats.strategy, out->q == 0 ? "DPU" : "MPU(Q=4/8)");

  const Manifest& m = ms.store->manifest();
  for (bool transpose : {false, true}) {
    if (transpose && c.direction != EdgeDirection::kBoth) break;
    out->layouts.emplace_back(m, out->q, transpose, value_bytes);
    out->logs.push_back(tap.accesses(transpose));
  }
  out->log = tap.accesses();
  out->row_bytes.assign(kP, 0);
  for (uint32_t i = out->q; i < kP; ++i) {
    out->row_bytes[i] = HubRowBytes(m, value_bytes, c.direction, out->q, i);
  }
  out->max_row = MaxRowBytes(m, c.direction);
}

class HubPatternTest : public ::testing::TestWithParam<HubCase> {};

// PageRank writes the hub of every nonempty sub-shard with i, j >= Q each
// iteration; WCC's selective scheduling leaves some unwritten. Either way
// each iteration reads one span per (direction, column, run), and every
// write, group-committed by the write-behind queue or not, spans whole
// segments.
TEST_P(HubPatternTest, OneReadPerColumnRunOfWrittenHubs) {
  HubCaseRun run;
  ASSERT_NO_FATAL_FAILURE(RunHubCase(GetParam(), BlockedIntervalGraph(3),
                                     /*write_behind=*/true, &run));
  // With no memory budget, the DPU runs fund the default write-behind, so
  // their hub writes go through the queue.
  if (run.q == 0) {
    EXPECT_GT(run.stats.writeback_buffer_bytes, 0u);
  }
  for (size_t t = 0; t < run.layouts.size(); ++t) {
    SCOPED_TRACE(t == 1 ? "transpose hubs" : "forward hubs");
    const PatternStats st =
        CheckColumnRunReads(run.logs[t], run.layouts[t], run.max_row);
    EXPECT_EQ(st.iterations, run.stats.iterations);
    EXPECT_GT(st.reads, 0u);
    // No read spans a segment this iteration did not write.
    EXPECT_EQ(st.read_bytes, st.write_bytes);
    // The graph really puts gaps inside columns, and reads coalesce.
    EXPECT_GT(st.broken_columns, 0u);
    EXPECT_GT(st.multi_segment_reads, 0u);
  }
  const WriteStats ws = CheckWriteRuns(run.log, run.layouts, run.row_bytes,
                                       run.max_row, WriteCheck::kSegments);
  EXPECT_EQ(ws.iterations, run.stats.iterations);
}

// Without write-behind (whose group commit may join write runs that touch
// on disk), each iteration writes exactly one span per (direction, column,
// maximal run of hubs written within one write group), and still reads one
// span per (direction, column, run).
TEST_P(HubPatternTest, OneWritePerWriteRunOfAGroup) {
  HubCaseRun run;
  ASSERT_NO_FATAL_FAILURE(RunHubCase(GetParam(), GroupedIntervalGraph(3),
                                     /*write_behind=*/false, &run));
  ASSERT_EQ(run.stats.writeback_buffer_bytes, 0u);
  for (size_t t = 0; t < run.layouts.size(); ++t) {
    SCOPED_TRACE(t == 1 ? "transpose hubs" : "forward hubs");
    const PatternStats st =
        CheckColumnRunReads(run.logs[t], run.layouts[t], run.max_row);
    EXPECT_EQ(st.iterations, run.stats.iterations);
    EXPECT_GT(st.reads, 0u);
    EXPECT_EQ(st.read_bytes, st.write_bytes);
  }
  const WriteStats ws = CheckWriteRuns(run.log, run.layouts, run.row_bytes,
                                       run.max_row, WriteCheck::kExact);
  EXPECT_EQ(ws.iterations, run.stats.iterations);
  // Write groups really span rows.
  EXPECT_GT(ws.multi_segment_writes, 0u);
  // Under DPU the wide row's hubs outgrow the cap: it is written as a
  // group of its own, one hub per write.
  if (run.q == 0) {
    EXPECT_GT(run.row_bytes[kWideRow], run.max_row);
    EXPECT_GT(ws.over_cap_row_writes, 0u);
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

// Selective BFS from vertex 0 under MPU(Q=4/8) on `edges` through a
// HubTapEnv, its depths checked against the reference. BFS reads forward
// edges only, so there is one hub file.
void RunSelectiveBfs(const EdgeList& edges, bool write_behind,
                     HubCaseRun* out) {
  auto ms = testing::BuildMemStore(edges, kP);
  HubTapEnv tap(ms.env.get(), ms.env.get());
  const uint64_t n = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kMixedPhase;
  opt.selective_scheduling = true;
  opt.num_threads = 2;
  opt.memory_budget_bytes = n * sizeof(BfsProgram::Value) + n * 4;
  if (!write_behind) opt.writeback_buffer_bytes = 0;
  BfsProgram bfs;
  bfs.root = 0;
  auto run = RunTapped(&tap, bfs, opt);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.stats.strategy, "MPU(Q=4/8)");
  EXPECT_GT(run.stats.subshards_skipped, 0u);
  out->stats = run.stats;

  auto ref = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(run.values, ReferenceBfs(*ref, bfs.root));

  const Manifest& m = ms.store->manifest();
  const uint32_t value_bytes = sizeof(BfsProgram::Value);
  out->q = kP / 2;
  out->layouts.emplace_back(m, out->q, false, value_bytes);
  out->logs.push_back(tap.accesses(false));
  out->log = tap.accesses();
  out->row_bytes.assign(kP, 0);
  for (uint32_t i = out->q; i < kP; ++i) {
    out->row_bytes[i] =
        HubRowBytes(m, value_bytes, EdgeDirection::kForward, out->q, i);
  }
  out->max_row = MaxRowBytes(m, EdgeDirection::kForward);
}

// Selective BFS under MPU: rows and blobs the frontier misses write no hub,
// so runs break at those unwritten hubs — the reads still cover exactly the
// written segments and the depths match the reference.
TEST(HubIoTest, SelectiveBfsBreaksRunsAtUnwrittenHubs) {
  // Sparse random graph: the BFS frontier touches scattered intervals.
  HubCaseRun run;
  ASSERT_NO_FATAL_FAILURE(RunSelectiveBfs(testing::RandomGraph(320, 700, 17),
                                          /*write_behind=*/true, &run));
  const PatternStats st =
      CheckColumnRunReads(run.logs[0], run.layouts[0], run.max_row);
  EXPECT_GT(st.reads, 0u);
  EXPECT_EQ(st.read_bytes, st.write_bytes);
  EXPECT_GT(st.broken_columns, 0u);
  EXPECT_GT(st.multi_segment_reads, 0u);
  CheckWriteRuns(run.log, run.layouts, run.row_bytes, run.max_row,
                 WriteCheck::kSegments);
}

// The same search without write-behind, on a graph whose raw rows outweigh
// their hubs so that the disk rows form multi-row write groups: write runs
// break at the unwritten hubs inside a group, each lies in one column, and
// none outgrows the cap.
TEST(HubIoTest, SelectiveBfsWriteRunsBreakAtUnwrittenHubs) {
  // One pair of vertices repeated 3000 times makes a raw row far larger
  // than any row's hubs.
  EdgeList edges = testing::RandomGraph(320, 700, 17);
  for (int e = 0; e < 3000; ++e) edges.Add(0, 1);
  HubCaseRun run;
  ASSERT_NO_FATAL_FAILURE(
      RunSelectiveBfs(edges, /*write_behind=*/false, &run));
  const PatternStats st =
      CheckColumnRunReads(run.logs[0], run.layouts[0], run.max_row);
  EXPECT_GT(st.reads, 0u);
  EXPECT_EQ(st.read_bytes, st.write_bytes);
  const WriteStats ws = CheckWriteRuns(run.log, run.layouts, run.row_bytes,
                                       run.max_row, WriteCheck::kBounded);
  EXPECT_GT(ws.multi_segment_writes, 0u);
  EXPECT_GT(ws.broken_runs, 0u);
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
