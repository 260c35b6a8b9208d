// Shared helpers for the NXgraph test suite.
#ifndef NXGRAPH_TESTS_TEST_UTIL_H_
#define NXGRAPH_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <chrono>
#include <compare>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/nxgraph.h"
#include "src/engine/iteration_plan.h"
#include "src/util/random.h"

namespace nxgraph {
namespace testing {

/// Deterministic random multigraph in a (possibly sparse) index space.
inline EdgeList RandomGraph(uint64_t num_vertices, uint64_t num_edges,
                            uint64_t seed, bool weighted = false,
                            uint64_t index_stride = 1) {
  Xoshiro256 rng(seed);
  EdgeList edges;
  for (uint64_t e = 0; e < num_edges; ++e) {
    const VertexIndex src = rng.NextBounded(num_vertices) * index_stride;
    const VertexIndex dst = rng.NextBounded(num_vertices) * index_stride;
    if (weighted) {
      edges.AddWeighted(src, dst,
                        static_cast<float>(rng.NextDouble()) + 0.01f);
    } else {
      edges.Add(src, dst);
    }
  }
  return edges;
}

/// Builds a store for `edges` in a fresh MemEnv; returns {env, store}.
struct MemStore {
  std::unique_ptr<Env> env;
  std::shared_ptr<GraphStore> store;
};

/// Builds with BuildOptions' defaults (NXS2 blobs, source summaries)
/// unless the caller names a format or summary sizing.
inline MemStore BuildMemStore(
    const EdgeList& edges, uint32_t num_intervals, bool transpose = true,
    SubShardFormat format = BuildOptions{}.subshard_format,
    SummaryParams summary = BuildOptions{}.summary) {
  MemStore ms;
  ms.env = NewMemEnv();
  BuildOptions options;
  options.num_intervals = num_intervals;
  options.build_transpose = transpose;
  options.subshard_format = format;
  options.summary = summary;
  options.env = ms.env.get();
  auto store = BuildGraphStore(edges, "g", options);
  NX_CHECK(store.ok()) << store.status().ToString();
  ms.store = *store;
  return ms;
}

/// 4,000 edges k -> k + 4,000 plus 500 edges k + 4,000 -> 3k mod 4,000:
/// the decoded graph is smaller than n doubles, so at P = 2 a budget of
/// degrees + n * 8 + the decoded graph keeps one interval resident AND
/// holds every blob — a cached MPU run.
inline EdgeList SmallDecodedGraph() {
  EdgeList edges;
  for (VertexIndex k = 0; k < 4000; ++k) edges.Add(k, k + 4000);
  for (VertexIndex k = 0; k < 500; ++k) edges.Add(k + 4000, (3 * k) % 4000);
  return edges;
}

/// One positional access to an engine file, logged when it returns:
/// `length` is the requested length.
struct LoggedAccess {
  PlanFile file = PlanFile::kShards;
  bool transpose = false;
  bool write = false;
  uint64_t offset = 0;
  uint64_t length = 0;
  auto operator<=>(const LoggedAccess&) const = default;
};

/// The entry a planned access leaves in an AccessLogEnv's log.
inline LoggedAccess Logged(const PlannedAccess& a) {
  return {a.file, a.transpose, a.write, a.offset, a.length};
}

/// Env decorator that logs every positional read and write of the engine's
/// files — the store's shard files, the run's hub files and its interval
/// value file — in completion order. Hub files open through `hub_env` (the
/// same base, or a FlakyEnv over it); every other file goes to `base`.
class AccessLogEnv : public EnvWrapper {
 public:
  explicit AccessLogEnv(Env* base, Env* hub_env = nullptr)
      : EnvWrapper(base), hub_env_(hub_env != nullptr ? hub_env : base) {}

  /// Hub reads with these 1-based ordinals get their first segment's
  /// destination set corrupted in the caller's buffer: bit 7 of its byte
  /// 3, which is the top bit of the first id in the list form (an id
  /// outside every column) and destination 31's bit in the bitmap form.
  /// The file is untouched, so a re-read heals.
  void CorruptDestinationOnReads(std::vector<uint64_t> ordinals) {
    std::lock_guard<std::mutex> lock(mu_);
    corrupt_ordinals_ = std::move(ordinals);
  }
  uint64_t corrupted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return corrupted_;
  }

  std::vector<LoggedAccess> log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
  }
  void ClearLog() {
    std::lock_guard<std::mutex> lock(mu_);
    log_.clear();
  }

  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    NX_RETURN_NOT_OK(Route(path)->NewRandomAccessFile(path, out));
    LoggedAccess kind;
    if (Classify(path, &kind)) {
      *out = std::make_unique<LogReader>(this, kind, std::move(*out));
    }
    return Status::OK();
  }
  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override {
    NX_RETURN_NOT_OK(Route(path)->NewRandomWriteFile(path, out));
    LoggedAccess kind;
    if (Classify(path, &kind)) {
      kind.write = true;
      *out = std::make_unique<LogWriter>(this, kind, std::move(*out));
    }
    return Status::OK();
  }

 private:
  struct LogReader : RandomAccessFile {
    LogReader(AccessLogEnv* env, LoggedAccess kind,
              std::unique_ptr<RandomAccessFile> file)
        : env(env), kind(kind), file(std::move(file)) {}
    Status ReadAt(uint64_t offset, size_t n, void* buf,
                  size_t* bytes_read) const override {
      Status s = file->ReadAt(offset, n, buf, bytes_read);
      if (kind.file == PlanFile::kHubs) {
        env->OnHubRead(static_cast<char*>(buf), s.ok() ? *bytes_read : 0);
      }
      env->Record(kind, offset, n);
      return s;
    }
    AccessLogEnv* env;
    LoggedAccess kind;
    std::unique_ptr<RandomAccessFile> file;
  };
  struct LogWriter : RandomWriteFile {
    LogWriter(AccessLogEnv* env, LoggedAccess kind,
              std::unique_ptr<RandomWriteFile> file)
        : env(env), kind(kind), file(std::move(file)) {}
    Status WriteAt(uint64_t offset, const void* data, size_t n) override {
      Status s = file->WriteAt(offset, data, n);
      env->Record(kind, offset, n);
      return s;
    }
    Status Flush() override { return file->Flush(); }
    Status Truncate(uint64_t size) override { return file->Truncate(size); }
    Status Close() override { return file->Close(); }
    AccessLogEnv* env;
    LoggedAccess kind;
    std::unique_ptr<RandomWriteFile> file;
  };

  // The engine file at `path`, if it is one.
  static bool Classify(const std::string& path, LoggedAccess* kind) {
    static const std::pair<const char*, LoggedAccess> kFiles[] = {
        {"/subshards.nxs", {PlanFile::kShards, false}},
        {"/subshards_t.nxs", {PlanFile::kShards, true}},
        {"/hubs_f.nxh", {PlanFile::kHubs, false}},
        {"/hubs_t.nxh", {PlanFile::kHubs, true}},
        {"/values.nxi", {PlanFile::kIntervals, false}},
    };
    for (const auto& [suffix, file] : kFiles) {
      const size_t n = std::strlen(suffix);
      if (path.size() >= n && path.compare(path.size() - n, n, suffix) == 0) {
        *kind = file;
        return true;
      }
    }
    return false;
  }
  Env* Route(const std::string& path) {
    return path.find("/hubs_") != std::string::npos ? hub_env_ : base_;
  }
  void Record(LoggedAccess kind, uint64_t offset, uint64_t length) {
    kind.offset = offset;
    kind.length = length;
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(kind);
  }
  void OnHubRead(char* buf, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    ++hub_reads_;
    if (std::find(corrupt_ordinals_.begin(), corrupt_ordinals_.end(),
                  hub_reads_) == corrupt_ordinals_.end()) {
      return;
    }
    uint64_t count = 0;
    if (n >= 12) std::memcpy(&count, buf, 8);
    if (count == 0) return;
    buf[11] ^= static_cast<char>(0x80);  // set byte 3 (little-endian)
    ++corrupted_;
  }

  Env* hub_env_;
  mutable std::mutex mu_;
  std::vector<LoggedAccess> log_;
  std::vector<uint64_t> corrupt_ordinals_;
  uint64_t hub_reads_ = 0;
  uint64_t corrupted_ = 0;
};

// Env wrapper whose reads block while "armed": lets a test hold a cache
// leader mid-load while followers queue up behind it.
struct ReadGate {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  bool open = false;
  int waiting = 0;

  void Block() {
    std::unique_lock<std::mutex> lock(mu);
    if (!armed || open) return;
    ++waiting;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    --waiting;
  }
  void Arm() {
    std::lock_guard<std::mutex> lock(mu);
    armed = true;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  /// Waits until at least `readers` reads are blocked at the gate.
  bool WaitForReader(std::chrono::milliseconds timeout, int readers = 1) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [&] { return waiting >= readers; });
  }
};

class GatedEnv : public EnvWrapper {
 public:
  GatedEnv(Env* base, ReadGate* gate) : EnvWrapper(base), gate_(gate) {}

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    NX_RETURN_NOT_OK(base_->NewSequentialFile(path, out));
    *out = std::make_unique<GatedSequential>(std::move(*out), gate_);
    return Status::OK();
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    NX_RETURN_NOT_OK(base_->NewRandomAccessFile(path, out));
    *out = std::make_unique<GatedRandom>(std::move(*out), gate_);
    return Status::OK();
  }

 private:
  struct GatedSequential : SequentialFile {
    GatedSequential(std::unique_ptr<SequentialFile> base, ReadGate* gate)
        : base(std::move(base)), gate(gate) {}
    Status Read(size_t n, void* buf, size_t* bytes_read) override {
      gate->Block();
      return base->Read(n, buf, bytes_read);
    }
    Status Skip(uint64_t n) override { return base->Skip(n); }
    std::unique_ptr<SequentialFile> base;
    ReadGate* gate;
  };
  struct GatedRandom : RandomAccessFile {
    GatedRandom(std::unique_ptr<RandomAccessFile> base, ReadGate* gate)
        : base(std::move(base)), gate(gate) {}
    Status ReadAt(uint64_t offset, size_t n, void* buf,
                  size_t* bytes_read) const override {
      gate->Block();
      return base->ReadAt(offset, n, buf, bytes_read);
    }
    std::unique_ptr<RandomAccessFile> base;
    ReadGate* gate;
  };

  ReadGate* gate_;
};

}  // namespace testing
}  // namespace nxgraph

#endif  // NXGRAPH_TESTS_TEST_UTIL_H_
