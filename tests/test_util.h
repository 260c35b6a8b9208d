// Shared helpers for the NXgraph test suite.
#ifndef NXGRAPH_TESTS_TEST_UTIL_H_
#define NXGRAPH_TESTS_TEST_UTIL_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/nxgraph.h"
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

class GatedEnv : public Env {
 public:
  GatedEnv(Env* base, ReadGate* gate) : base_(base), gate_(gate) {}

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
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    return base_->NewWritableFile(path, out);
  }
  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override {
    return base_->NewRandomWriteFile(path, out);
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

  Env* base_;
  ReadGate* gate_;
};

}  // namespace testing
}  // namespace nxgraph

#endif  // NXGRAPH_TESTS_TEST_UTIL_H_
