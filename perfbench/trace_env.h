// Benchmark-side tracing: an Env decorator that records one span per file
// transfer, plus scoped spans the benchmark puts around public API calls. Spans
// stay in memory and are written once, as Chrome trace-event JSON, when the
// run ends. Exact per-class byte and call counters are kept apart from the
// span buffer, so they stay exact even when the buffer is full.
#ifndef PERFBENCH_TRACE_ENV_H_
#define PERFBENCH_TRACE_ENV_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/io/env.h"

namespace nxbench {

/// What a store file holds, from its name.
enum class FileClass : uint8_t {
  kForwardShards = 0,
  kTransposeShards,
  kHubs,
  kIntervals,
  kOther,
};
inline constexpr int kNumFileClasses = 5;

const char* FileClassName(FileClass c);
FileClass ClassifyPath(const std::string& path);

/// One recorded interval: an Env transfer ("io") or a public call ("api").
/// `name` and `cat` point at string literals.
struct Span {
  const char* name = "";
  const char* cat = "";
  FileClass file_class = FileClass::kOther;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief In-memory span buffer shared by every thread of the run. Holds at
/// most `max_spans`; later spans are counted in dropped() only.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t max_spans);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Nanoseconds since the recorder was created (steady clock).
  int64_t NowNs() const;
  /// Small dense id of the calling thread.
  static uint32_t ThreadId();

  void Add(const Span& span);
  std::vector<Span> spans() const;
  size_t size() const;  ///< spans kept
  uint64_t dropped() const;

  /// Writes every kept span as Chrome trace-event JSON ("X" events, times
  /// in microseconds), openable in Perfetto or chrome://tracing.
  nxgraph::Status WriteChromeTrace(const std::string& path) const;

  /// \brief Records an "api" span covering its own lifetime.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far, seconds.
    double Seconds() const;

   private:
    SpanRecorder* recorder_;
    Span span_;
  };

 private:
  const std::chrono::steady_clock::time_point epoch_;
  const size_t max_spans_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// \brief Exact aggregate counters of a TracingEnv.
struct IoCounters {
  struct Snapshot {
    uint64_t read_calls = 0;
    uint64_t read_bytes = 0;
    uint64_t write_calls = 0;
    uint64_t write_bytes = 0;
    uint64_t seeks = 0;
    uint64_t syncs = 0;
    uint64_t read_busy_ns = 0;
    uint64_t write_busy_ns = 0;
    std::array<uint64_t, kNumFileClasses> class_read_bytes{};
    std::array<uint64_t, kNumFileClasses> class_write_bytes{};

    Snapshot operator-(const Snapshot& base) const;
  };

  std::atomic<uint64_t> read_calls{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_calls{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> seeks{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> read_busy_ns{0};
  std::atomic<uint64_t> write_busy_ns{0};
  std::array<std::atomic<uint64_t>, kNumFileClasses> class_read_bytes{};
  std::array<std::atomic<uint64_t>, kNumFileClasses> class_write_bytes{};

  Snapshot snapshot() const;
};

/// \brief Env decorator, shaped like ThrottledEnv, that records a span per
/// Read, ReadAt, Append, WriteAt, Flush and Sync and counts seeks by
/// ThrottledEnv's rule: opening a sequential or writable file, Skip, Sync
/// and RandomWriteFile::Flush each count one, and a positional access
/// counts one when it does not start where the previous one on that file
/// ended. Transfers are recorded in this Env's own IoStats as well, so
/// engine and server stats read through it stay exact.
///
/// While recording is off the decorator only forwards calls and keeps
/// IoStats; spans and IoCounters are updated only while it is on.
class TracingEnv : public nxgraph::Env {
 public:
  /// `base`, `recorder` and `counters` are not owned and must outlive the
  /// Env and every file it opens.
  TracingEnv(nxgraph::Env* base, SpanRecorder* recorder, IoCounters* counters);

  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  nxgraph::Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<nxgraph::SequentialFile>* out) override;
  nxgraph::Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<nxgraph::RandomAccessFile>* out) override;
  nxgraph::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<nxgraph::WritableFile>* out) override;
  nxgraph::Status NewRandomWriteFile(
      const std::string& path,
      std::unique_ptr<nxgraph::RandomWriteFile>* out) override;

  bool FileExists(const std::string& path) override;
  nxgraph::Result<uint64_t> GetFileSize(const std::string& path) override;
  nxgraph::Status CreateDirs(const std::string& path) override;
  nxgraph::Status RemoveFile(const std::string& path) override;
  nxgraph::Status RemoveDirRecursively(const std::string& path) override;
  nxgraph::Status RenameFile(const std::string& from,
                             const std::string& to) override;
  nxgraph::Status ListDir(const std::string& path,
                          std::vector<std::string>* names) override;

  /// File-object hooks (public so the file wrappers in the .cc can reach
  /// them; not part of the Env interface).
  enum class Kind { kRead, kWrite, kBarrier };
  struct Access {
    const char* name;
    Kind kind;
    FileClass file_class;
    uint64_t offset;
    uint64_t bytes;
    int64_t start_ns;
  };
  int64_t BeginAccess() const;
  void EndAccess(const Access& access);
  void CountSeek();
  void CountSync();

 private:
  nxgraph::Env* base_;
  SpanRecorder* recorder_;
  IoCounters* counters_;
  std::atomic<bool> recording_{true};
};

}  // namespace nxbench

#endif  // PERFBENCH_TRACE_ENV_H_
