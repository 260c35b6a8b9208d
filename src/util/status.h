// Status: lightweight error propagation without exceptions (RocksDB idiom).
#ifndef NXGRAPH_UTIL_STATUS_H_
#define NXGRAPH_UTIL_STATUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace nxgraph {

/// \brief Result of an operation that may fail.
///
/// A Status is cheap to copy in the OK case (no allocation); error states
/// carry a code and a human-readable message. Library code returns Status
/// (or Result<T>) instead of throwing exceptions.
///
/// Orthogonal to the code, an error may be marked *retryable*: the failure
/// is transient (interrupted syscall, momentary resource exhaustion, a
/// short read that may fill in on the next attempt) and repeating the same
/// operation is both safe and plausibly useful. Retry loops live in the
/// pipelines (prefetcher, writeback, checkpoint commits) — Env backends
/// only classify, via FromErrno / TransientErrno.
class Status {
 public:
  enum class Code : uint8_t {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIOError = 4,
    kNotSupported = 5,
    kAborted = 6,
    kOutOfMemory = 7,
    kResourceExhausted = 8,
    kDeadlineExceeded = 9,
    kCancelled = 10,
  };

  /// Creates an OK (success) status.
  Status() = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(Code::kOutOfMemory, std::move(msg));
  }
  /// A bounded resource (admission queue slot, per-query I/O byte budget)
  /// ran out. Not retryable by definition: the caller must shed load or
  /// raise the budget, re-issuing the identical operation cannot help.
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  /// The operation's deadline passed before it could run to completion.
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  /// The operation was cooperatively cancelled (client cancel or server
  /// drain — see CancelToken). Not retryable: the caller asked it to stop.
  static Status Cancelled(std::string msg) {
    return Status(Code::kCancelled, std::move(msg));
  }

  /// I/O error already known to be transient (retry may succeed).
  static Status TransientIOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg), /*retryable=*/true, 0);
  }

  /// Builds an IOError from an errno value, formatted as
  /// "<context>: <strerror>", with the retryability bit set when
  /// TransientErrno(err) holds. The single funnel for errno translation
  /// across the buffered and direct-I/O backends.
  static Status FromErrno(const std::string& context, int err);

  /// True for errnos that name transient conditions worth retrying:
  /// EINTR, EAGAIN/EWOULDBLOCK, EBUSY, ETIMEDOUT, ENOBUFS. Notably
  /// excludes EIO (media failure: retrying cannot heal it) and ENOSPC
  /// (retry cannot create space; writeback degrades to sync instead).
  static bool TransientErrno(int err);

  /// Copy of `s` with the retryability bit set (no-op for OK). Used to
  /// mark short-read Corruption as worth one more attempt without
  /// changing its code.
  static Status MakeRetryable(Status s) {
    if (s.ok() || s.retryable()) return s;
    return Status(s.code(), s.message(), /*retryable=*/true, s.sys_errno());
  }

  /// True iff the operation succeeded.
  bool ok() const { return rep_ == nullptr; }
  bool IsNotFound() const { return code() == Code::kNotFound; }
  bool IsCorruption() const { return code() == Code::kCorruption; }
  bool IsInvalidArgument() const { return code() == Code::kInvalidArgument; }
  bool IsIOError() const { return code() == Code::kIOError; }
  bool IsNotSupported() const { return code() == Code::kNotSupported; }
  bool IsAborted() const { return code() == Code::kAborted; }
  bool IsOutOfMemory() const { return code() == Code::kOutOfMemory; }
  bool IsResourceExhausted() const {
    return code() == Code::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code() == Code::kDeadlineExceeded;
  }
  bool IsCancelled() const { return code() == Code::kCancelled; }

  Code code() const { return rep_ ? rep_->code : Code::kOk; }

  /// True when the error is transient and the operation may be retried.
  /// Always false for OK.
  bool retryable() const { return rep_ && rep_->retryable; }

  /// Originating errno when built via FromErrno, else 0.
  int sys_errno() const { return rep_ ? rep_->sys_errno : 0; }

  /// Error message; empty for OK statuses.
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  /// "OK" or "<code>: <message>", for logs and test failures.
  std::string ToString() const;

  bool operator==(const Status& other) const { return code() == other.code(); }

 private:
  struct Rep {
    Code code;
    std::string message;
    bool retryable = false;
    int sys_errno = 0;
  };

  Status(Code code, std::string msg, bool retryable = false,
         int sys_errno = 0)
      : rep_(std::make_shared<Rep>(
            Rep{code, std::move(msg), retryable, sys_errno})) {}

  std::shared_ptr<Rep> rep_;  // null == OK
};

}  // namespace nxgraph

#endif  // NXGRAPH_UTIL_STATUS_H_
