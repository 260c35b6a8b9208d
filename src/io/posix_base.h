// Internal: the buffered Posix Env as a reusable base class.
//
// PosixEnv and DirectIOEnv both live on the real filesystem and share
// every metadata operation (open/rename/fsync-parent-dir/list) and the
// buffered append/sequential paths; they differ only in how the positional
// files — RandomAccessFile (the prefetcher's reads) and RandomWriteFile (the
// writeback queue's writes) — reach the device. Backends subclass PosixFsEnv
// and override exactly those two factories; anything they cannot serve
// (unsupported filesystem, refused O_DIRECT) falls back to the base class's
// buffered implementation per file, so the Env contract (docs/io-stack.md)
// holds identically on every backend.
//
// Not part of the public API — include src/io/env.h instead.
#ifndef NXGRAPH_IO_POSIX_BASE_H_
#define NXGRAPH_IO_POSIX_BASE_H_

#include <string>

#include "src/io/env.h"

namespace nxgraph {
namespace internal {

/// Status from errno, prefixed with `context`. Thin wrapper over
/// Status::FromErrno — the one errno→Status funnel shared by the
/// buffered and direct-I/O backends; it sets the retryability
/// bit for transient errnos (Status::TransientErrno).
Status PosixError(const std::string& context, int err);

/// Open-failure status for `path` from the current errno (NotFound for
/// ENOENT, IOError otherwise).
Status PosixOpenError(const std::string& path);

/// Full-coverage pread loop: EINTR-safe, short only at EOF (the Env
/// ReadAt contract). Does not record stats.
Status PReadFull(int fd, uint64_t offset, size_t n, void* buf,
                 size_t* bytes_read);

/// Full-coverage pwrite loop: EINTR-safe. Does not record stats.
Status PWriteFull(int fd, uint64_t offset, const void* data, size_t n);

/// \brief Buffered Posix Env (the kBuffered backend and the base class of
/// DirectIOEnv). Env::Default() returns the process-wide instance.
class PosixFsEnv : public Env {
 public:
  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override;
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override;
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override;
  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override;

  bool FileExists(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveDirRecursively(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override;
};

/// Test-only: a DirectIOEnv whose O_DIRECT opens always fail, so the
/// per-file buffered fallback is exercised deterministically even on
/// kernels whose tmpfs accepts O_DIRECT (Linux >= 6.5 — the natural refusal
/// vehicle disappeared there).
std::unique_ptr<Env> NewDirectIOEnvRefusingODirectForTest();

}  // namespace internal
}  // namespace nxgraph

#endif  // NXGRAPH_IO_POSIX_BASE_H_
