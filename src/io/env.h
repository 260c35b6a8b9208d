// Filesystem abstraction (RocksDB's Env idiom). All NXgraph disk access goes
// through an Env so tests can run in memory and benches can model device
// characteristics (see ThrottledEnv).
#ifndef NXGRAPH_IO_ENV_H_
#define NXGRAPH_IO_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/macros.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace nxgraph {

/// \brief Aggregate I/O counters, updated atomically by file objects.
class IoStats {
 public:
  struct Snapshot {
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t read_ops = 0;
    uint64_t write_ops = 0;
  };

  void RecordRead(uint64_t bytes) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordWrite(uint64_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    write_ops_.fetch_add(1, std::memory_order_relaxed);
  }

  Snapshot snapshot() const {
    Snapshot s;
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    s.read_ops = read_ops_.load(std::memory_order_relaxed);
    s.write_ops = write_ops_.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    bytes_read_ = 0;
    bytes_written_ = 0;
    read_ops_ = 0;
    write_ops_ = 0;
  }

 private:
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> write_ops_{0};
};

/// \brief Forward-only streaming reader (the engines' "streamlined" access).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to `n` bytes into `buf`; `*bytes_read < n` signals EOF.
  virtual Status Read(size_t n, void* buf, size_t* bytes_read) = 0;

  /// Skips `n` bytes forward.
  virtual Status Skip(uint64_t n) = 0;
};

/// \brief Positional reader (pread semantics); safe for concurrent use.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to `n` bytes at `offset`; short reads signal EOF.
  virtual Status ReadAt(uint64_t offset, size_t n, void* buf,
                        size_t* bytes_read) const = 0;
};

/// \brief Append-only writer.
///
/// Durability contract (shared by every Env implementation and honored by
/// FaultInjectionEnv's crash model):
///   - Append() may buffer; the data is not even guaranteed to be visible
///     to readers until Flush().
///   - Flush() pushes buffered data to the OS (page cache): subsequent
///     reads through the same Env see it, but a crash may still lose it.
///   - Sync() makes everything appended so far durable (fdatasync on
///     Posix): the data survives a crash.
///   - Close() flushes but does NOT sync — exactly like POSIX close(2).
///     A file that must survive a crash needs an explicit Sync() first.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const void* data, size_t n) = 0;
  virtual Status Flush() = 0;
  /// Durability barrier: flushes, then forces the appended data to the
  /// device. Implementations must not silently equate this with Flush()
  /// unless the medium genuinely has no volatile cache (MemEnv documents
  /// its model at NewMemEnv()).
  virtual Status Sync() = 0;
  /// Flushes and closes the file; must be called before destruction for
  /// the write to be considered complete. Not a durability barrier.
  virtual Status Close() = 0;

  Status Append(const std::string& s) { return Append(s.data(), s.size()); }
};

/// \brief Positional writer (pwrite semantics); used for preallocated hub
/// segments written concurrently by worker rows.
class RandomWriteFile {
 public:
  virtual ~RandomWriteFile() = default;

  virtual Status WriteAt(uint64_t offset, const void* data, size_t n) = 0;
  /// Durability barrier: pushes every preceding WriteAt to the device
  /// (fdatasync on Posix). The write-behind queue calls this per target at
  /// each Drain(); device models charge it a seek.
  virtual Status Flush() { return Status::OK(); }
  virtual Status Truncate(uint64_t size) = 0;
  virtual Status Close() = 0;
};

/// \brief Filesystem interface.
///
/// Lifetime contract: file objects must not outlive the Env that created
/// them — backend Envs own shared machinery (aligned buffer pools) their
/// files reference.
///
/// Metadata contract relied on by the checkpoint commit protocol
/// (write-temp + Sync + RenameFile):
///   - RenameFile() atomically replaces `to`: readers observe either the
///     old or the new file, never a mixture or a missing file.
///   - A rename is durable once it returns: PosixEnv fsyncs the parent
///     directory (POSIX does not promise directory metadata commits with
///     a file's own fdatasync on every filesystem). The renamed file's
///     *contents* are only as durable as the last Sync()/Flush() on it —
///     renaming an unsynced file can surface a torn or empty file after a
///     crash, which is exactly what FaultInjectionEnv simulates.
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide Posix environment.
  static Env* Default();

  virtual Status NewSequentialFile(const std::string& path,
                                   std::unique_ptr<SequentialFile>* out) = 0;
  virtual Status NewRandomAccessFile(const std::string& path,
                                     std::unique_ptr<RandomAccessFile>* out) = 0;
  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* out) = 0;
  virtual Status NewRandomWriteFile(const std::string& path,
                                    std::unique_ptr<RandomWriteFile>* out) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> GetFileSize(const std::string& path) = 0;
  virtual Status CreateDirs(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status RemoveDirRecursively(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* names) = 0;

  /// Counters covering every transfer through the file objects this Env
  /// creates: the ones a run's or a server's Env reports.
  virtual IoStats* stats() { return &stats_; }

 protected:
  IoStats stats_;
};

/// \brief Forwards every call to `base` (not owned; it must outlive this
/// Env and every file opened through it). A decorator overrides only the
/// calls it changes. Its files are the base's files, which record into the
/// base's IoStats, so stats() is the base's too; a decorator whose files
/// record into its own counters (ThrottledEnv) returns those instead.
class EnvWrapper : public Env {
 public:
  explicit EnvWrapper(Env* base) : base_(base) {}

  IoStats* stats() override { return base_->stats(); }

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    return base_->NewSequentialFile(path, out);
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    return base_->NewRandomAccessFile(path, out);
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

 protected:
  Env* const base_;
};

/// Reads an entire file into `out`.
Status ReadFileToString(Env* env, const std::string& path, std::string* out);

/// Atomically (write + rename) replaces `path` with `contents`. Not a
/// durability barrier: after a crash the new contents may be torn or lost.
Status WriteStringToFile(Env* env, const std::string& path,
                         const std::string& contents);

/// Atomic AND durable replacement: write-temp + Sync + rename. After it
/// returns, a crash leaves either the complete old file or the complete
/// new one — the checkpoint commit protocol.
Status WriteStringToFileDurable(Env* env, const std::string& path,
                                const std::string& contents);

/// Returns a fresh in-memory Env (paths are flat keys; dirs are implicit).
///
/// Durability model: writes become visible to readers immediately (the
/// backing string is shared with open file objects — the "page cache"),
/// Flush()/Sync() are accepted no-ops, and nothing is ever lost because
/// MemEnv has no crash model of its own. Code that needs honest
/// crash-durability semantics in memory must wrap it in
/// NewFaultInjectionEnv (fault_env.h), which tracks the synced-vs-unsynced
/// distinction the raw MemEnv intentionally does not fake.
std::unique_ptr<Env> NewMemEnv();

// ---- real-filesystem backend Envs (see docs/io-stack.md) -------------------

/// Offset/length/buffer alignment every DirectIOEnv transfer is padded to.
/// 4096 covers the direct-I/O requirement of every mainstream filesystem and
/// equals the page size, so buffered and direct sub-ranges of one write
/// never share a page.
constexpr uint64_t kDirectIOAlignment = 4096;

/// O_DIRECT Env: positional reads/writes bypass the
/// page cache through pooled aligned buffers while preserving exact logical
/// offsets and lengths; a file whose filesystem refuses O_DIRECT (tmpfs...)
/// falls back to buffered I/O for that file only. Append/sequential paths
/// and all metadata behave exactly like Env::Default().
std::unique_ptr<Env> NewDirectIOEnv();

/// True when files created in `dir` accept O_DIRECT (probes with a temp
/// file). DirectIOEnv works either way — this reports whether it will
/// actually run direct or per-file fall back.
bool DirectIOSupported(const std::string& dir);

/// \brief Device model for ThrottledEnv.
struct DeviceProfile {
  /// Sustained sequential bandwidth in bytes per second.
  double bandwidth_bytes_per_sec = 500.0 * 1024 * 1024;
  /// Latency charged per non-contiguous access (seek), in seconds.
  double seek_latency_sec = 0.0001;

  static DeviceProfile Ssd() { return {500.0 * 1024 * 1024, 0.0001}; }
  static DeviceProfile Hdd() { return {120.0 * 1024 * 1024, 0.008}; }
};

/// Wraps `base` (not owned) so every read/write pays `profile` time costs.
/// Used to reproduce the paper's SSD-vs-HDD contrast (Table V) on whatever
/// device actually backs the test machine.
std::unique_ptr<Env> NewThrottledEnv(Env* base, DeviceProfile profile);

}  // namespace nxgraph

#endif  // NXGRAPH_IO_ENV_H_
