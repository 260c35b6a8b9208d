// Buffered Posix Env implementation (PosixFsEnv, see posix_base.h): buffered
// sequential streams over open(2)/read(2), pread/pwrite for positional
// access. The fd helpers and the metadata methods here are shared by the
// DirectIOEnv backend.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "src/io/posix_base.h"

namespace nxgraph {
namespace internal {

namespace fs = std::filesystem;

Status PosixError(const std::string& context, int err) {
  // Single funnel for errno translation across the buffered and direct-I/O
  // backends; FromErrno also sets the retryability bit for
  // transient errnos so pipeline retry loops can classify without
  // re-parsing messages.
  return Status::FromErrno(context, err);
}

Status PosixOpenError(const std::string& path) {
  if (errno == ENOENT) {
    return Status::NotFound("open " + path + ": no such file");
  }
  return PosixError("open " + path, errno);
}

Status PReadFull(int fd, uint64_t offset, size_t n, void* buf,
                 size_t* bytes_read) {
  size_t total = 0;
  char* dst = static_cast<char*>(buf);
  while (total < n) {
    ssize_t r = ::pread(fd, dst + total, n - total,
                        static_cast<off_t>(offset + total));
    if (r < 0) {
      if (errno == EINTR) continue;
      return PosixError("pread", errno);
    }
    if (r == 0) break;  // EOF
    total += static_cast<size_t>(r);
  }
  *bytes_read = total;
  return Status::OK();
}

Status PWriteFull(int fd, uint64_t offset, const void* data, size_t n) {
  const char* src = static_cast<const char*>(data);
  size_t total = 0;
  while (total < n) {
    ssize_t w = ::pwrite(fd, src + total, n - total,
                         static_cast<off_t>(offset + total));
    if (w < 0) {
      if (errno == EINTR) continue;
      return PosixError("pwrite", errno);
    }
    total += static_cast<size_t>(w);
  }
  return Status::OK();
}

namespace {

class PosixSequentialFile : public SequentialFile {
 public:
  PosixSequentialFile(int fd, IoStats* stats) : fd_(fd), stats_(stats) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, void* buf, size_t* bytes_read) override {
    size_t total = 0;
    char* dst = static_cast<char*>(buf);
    while (total < n) {
      ssize_t r = ::read(fd_, dst + total, n - total);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError("read", errno);
      }
      if (r == 0) break;  // EOF
      total += static_cast<size_t>(r);
    }
    *bytes_read = total;
    stats_->RecordRead(total);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) < 0) {
      return PosixError("lseek", errno);
    }
    return Status::OK();
  }

 private:
  int fd_;
  IoStats* stats_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, IoStats* stats) : fd_(fd), stats_(stats) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status ReadAt(uint64_t offset, size_t n, void* buf,
                size_t* bytes_read) const override {
    NX_RETURN_NOT_OK(PReadFull(fd_, offset, n, buf, bytes_read));
    stats_->RecordRead(*bytes_read);
    return Status::OK();
  }

 private:
  int fd_;
  IoStats* stats_;
};

// Buffered appender; 1 MiB buffer keeps sub-shard emission sequential and
// syscall-light.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, IoStats* stats) : fd_(fd), stats_(stats) {
    buffer_.reserve(kBufferSize);
  }
  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      FlushBuffer();
      ::close(fd_);
    }
  }

  Status Append(const void* data, size_t n) override {
    stats_->RecordWrite(n);
    const char* src = static_cast<const char*>(data);
    if (buffer_.size() + n <= kBufferSize) {
      buffer_.append(src, n);
      return Status::OK();
    }
    NX_RETURN_NOT_OK(FlushBuffer());
    if (n >= kBufferSize) return WriteRaw(src, n);
    buffer_.append(src, n);
    return Status::OK();
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    NX_RETURN_NOT_OK(FlushBuffer());
    if (::fdatasync(fd_) < 0) return PosixError("fdatasync", errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status s = FlushBuffer();
    if (::close(fd_) < 0 && s.ok()) s = PosixError("close", errno);
    fd_ = -1;
    return s;
  }

 private:
  static constexpr size_t kBufferSize = 1 << 20;

  Status FlushBuffer() {
    if (buffer_.empty()) return Status::OK();
    Status s = WriteRaw(buffer_.data(), buffer_.size());
    buffer_.clear();
    return s;
  }

  Status WriteRaw(const char* data, size_t n) {
    size_t total = 0;
    while (total < n) {
      ssize_t w = ::write(fd_, data + total, n - total);
      if (w < 0) {
        if (errno == EINTR) continue;
        return PosixError("write", errno);
      }
      total += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  int fd_;
  IoStats* stats_;
  std::string buffer_;
};

class PosixRandomWriteFile : public RandomWriteFile {
 public:
  PosixRandomWriteFile(int fd, IoStats* stats) : fd_(fd), stats_(stats) {}
  ~PosixRandomWriteFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    stats_->RecordWrite(n);
    return PWriteFull(fd_, offset, data, n);
  }

  Status Flush() override {
    if (::fdatasync(fd_) < 0) return PosixError("fdatasync", errno);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) < 0) {
      return PosixError("ftruncate", errno);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status s;
    if (::close(fd_) < 0) s = PosixError("close", errno);
    fd_ = -1;
    return s;
  }

 private:
  int fd_;
  IoStats* stats_;
};

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return PosixError("open dir " + dir, errno);
  Status s;
  if (::fsync(fd) < 0) s = PosixError("fsync dir " + dir, errno);
  ::close(fd);
  return s;
}

}  // namespace

Status PosixFsEnv::NewSequentialFile(const std::string& path,
                                     std::unique_ptr<SequentialFile>* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return PosixOpenError(path);
  *out = std::make_unique<PosixSequentialFile>(fd, stats());
  return Status::OK();
}

Status PosixFsEnv::NewRandomAccessFile(const std::string& path,
                                       std::unique_ptr<RandomAccessFile>* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return PosixOpenError(path);
  *out = std::make_unique<PosixRandomAccessFile>(fd, stats());
  return Status::OK();
}

Status PosixFsEnv::NewWritableFile(const std::string& path,
                                   std::unique_ptr<WritableFile>* out) {
  int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return PosixOpenError(path);
  *out = std::make_unique<PosixWritableFile>(fd, stats());
  return Status::OK();
}

Status PosixFsEnv::NewRandomWriteFile(const std::string& path,
                                      std::unique_ptr<RandomWriteFile>* out) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return PosixOpenError(path);
  *out = std::make_unique<PosixRandomWriteFile>(fd, stats());
  return Status::OK();
}

bool PosixFsEnv::FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<uint64_t> PosixFsEnv::GetFileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("stat " + path + ": " + std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status PosixFsEnv::CreateDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IOError("mkdir " + path + ": " + ec.message());
  return Status::OK();
}

Status PosixFsEnv::RemoveFile(const std::string& path) {
  // Plain unlink, no directory fsync: callers on hot paths (per-interval
  // scratch files) must not pay metadata-durability costs. Code that
  // needs a crash-durable removal replaces the file atomically instead
  // (see CheckpointManager::Remove's tombstone).
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return PosixError("unlink " + path, errno);
  }
  return Status::OK();
}

Status PosixFsEnv::RemoveDirRecursively(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) return Status::IOError("rm -r " + path + ": " + ec.message());
  return Status::OK();
}

Status PosixFsEnv::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return PosixError("rename " + from + " -> " + to, errno);
  }
  // The Env contract promises the rename is durable once this returns;
  // POSIX only promises that after the parent directory is fsynced (an
  // fdatasync on the file does not commit directory metadata on every
  // filesystem). The checkpoint commit protocol depends on this: losing
  // a record rename in a power cut while later data syncs survived
  // would resurrect an older record whose segments have been
  // overwritten. Renames are rare (atomic commits only), so the extra
  // fsync is noise.
  NX_RETURN_NOT_OK(SyncDir(ParentDir(to)));
  const std::string from_dir = ParentDir(from);
  if (from_dir != ParentDir(to)) NX_RETURN_NOT_OK(SyncDir(from_dir));
  return Status::OK();
}

Status PosixFsEnv::ListDir(const std::string& path,
                           std::vector<std::string>* names) {
  names->clear();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    names->push_back(entry.path().filename().string());
  }
  if (ec) return Status::IOError("list " + path + ": " + ec.message());
  return Status::OK();
}

}  // namespace internal

Env* Env::Default() {
  static internal::PosixFsEnv env;
  return &env;
}

}  // namespace nxgraph
