// Asynchronous prefetching I/O pipeline (paper §III-C/§IV: the
// Destination-Sorted Sub-Shard layout makes every out-of-core phase a
// forward scan, so disk reads can run ahead of the consumer and overlap
// with computation).
//
// The core `Prefetcher` manages a FIFO window of two-stage jobs:
//
//   io stage     — the raw disk read; runs on a dedicated I/O pool so the
//                  device streams continuously while workers compute;
//   decode stage — optional blob decode; submitted to the compute pool the
//                  moment the read lands, keeping I/O threads read-only.
//
// At most `depth` jobs are issued-but-unconsumed at any time (double
// buffering at depth 1, triple at 2, ...), which bounds the transient
// memory to depth in-flight rows. `depth == 0` degrades to fully
// synchronous consumption — the exact behavior of the pre-pipeline engine.
//
// Consumption is strictly FIFO (`Next()` returns results in push order), so
// engines keep their deterministic row-major accumulation order and results
// are bit-identical to the synchronous path.
#ifndef NXGRAPH_IO_PREFETCHER_H_
#define NXGRAPH_IO_PREFETCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/util/result.h"
#include "src/util/retry.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace nxgraph {

/// \brief Type-erased bounded-depth read-ahead window. Use the typed
/// PrefetchStream<T> wrapper unless you only need statuses.
///
/// Thread contract: Push/Next/Cancel may be called from one consumer thread;
/// job stages run on the pools. Jobs must not touch the Prefetcher.
class Prefetcher {
 public:
  struct Job {
    /// Raw read; runs on the I/O pool (or inline when depth == 0).
    std::function<Status()> io;
    /// Optional decode; runs on the compute pool once `io` succeeds. With a
    /// null compute pool it runs on the I/O thread.
    std::function<Status()> decode;
  };

  /// Neither pool is owned. `depth == 0` means synchronous: stages run
  /// inline in Next() and the pools are never used. The io stage of every
  /// job runs under `retry`: transient failures (retryable Status) are
  /// retried with backoff before the job's status is surfaced — io
  /// closures must therefore be idempotent (all of the engine's are: they
  /// read into owned buffers). Decode stages are never retried here;
  /// checksum re-reads are the store's job. `counters` (not owned, may be
  /// null) tallies the retries.
  ///
  /// `cancel` (not owned, may be null, must outlive the stream) makes the
  /// window cooperative: once the token fires, no further reads are
  /// issued, unissued jobs complete with the token's status, and retry
  /// backoffs abort mid-sleep. In-flight reads still run to completion —
  /// a read into an owned buffer is bounded — so the destructor's drain
  /// barrier is never longer than one outstanding window.
  Prefetcher(ThreadPool* io_pool, ThreadPool* compute_pool, size_t depth,
             RetryPolicy retry = {}, RetryCounters* counters = nullptr,
             const CancelToken* cancel = nullptr);

  /// Cancels queued jobs and blocks until in-flight stages finish.
  ~Prefetcher();
  NX_DISALLOW_COPY(Prefetcher);

  /// Appends a job and (depth permitting) issues reads immediately.
  void Push(Job job);

  /// Blocks until the oldest unconsumed job finishes; returns its status.
  /// Calling Next() more times than Push() is an InvalidArgument.
  Status Next();

  /// After Cancel(), unstarted jobs complete as Aborted; in-flight jobs
  /// finish normally. Next() keeps draining in FIFO order.
  void Cancel();

  /// Jobs pushed but not yet consumed.
  size_t pending() const;

  /// Total wall-clock time Next() spent blocked — the residual I/O latency
  /// the pipeline failed to hide (plus all read time when depth == 0).
  double io_wait_seconds() const {
    return static_cast<double>(io_wait_micros_.load(std::memory_order_relaxed)) /
           1e6;
  }

 private:
  enum class State { kQueued, kIssued, kDone };

  struct Slot {
    Job job;
    State state = State::kQueued;
    Status status;
  };

  /// Moves queued slots into the window and submits their reads. Called
  /// without mu_ held (Submit may run the job inline on 0-thread pools).
  void Issue();
  void RunIo(std::shared_ptr<Slot> slot);
  void RunDecode(std::shared_ptr<Slot> slot);
  void Finish(const std::shared_ptr<Slot>& slot, Status s);
  void TaskDone();
  Status RunInline(const std::shared_ptr<Slot>& slot);

  /// True once the external token (if any) has fired. Lock-free.
  bool TokenCancelled() const {
    return cancel_ != nullptr && cancel_->cancelled();
  }

  ThreadPool* io_pool_;
  ThreadPool* compute_pool_;
  const size_t depth_;
  const RetryPolicy retry_;
  RetryCounters* counters_;       // not owned; may be null
  const CancelToken* cancel_;     // not owned; may be null

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Slot>> queued_;    // pushed, not yet issued
  std::deque<std::shared_ptr<Slot>> inflight_;  // issued, not yet consumed
  size_t outstanding_tasks_ = 0;                // pool closures referencing this
  bool cancelled_ = false;

  std::atomic<int64_t> io_wait_micros_{0};
};

namespace internal {
template <typename R>
struct ResultValue;
template <typename V>
struct ResultValue<Result<V>> {
  using type = V;
};
}  // namespace internal

/// \brief Typed FIFO prefetch stream over a Prefetcher.
///
///   PrefetchStream<std::vector<SubShard>> rows(io_pool, pool, depth);
///   for (row : schedule) rows.PushStaged(read_fn, decode_fn);
///   for (row : schedule) NX_ASSIGN_OR_RETURN(auto r, rows.Next());
template <typename T>
class PrefetchStream {
 public:
  PrefetchStream(ThreadPool* io_pool, ThreadPool* compute_pool, size_t depth,
                 RetryPolicy retry = {}, RetryCounters* counters = nullptr,
                 const CancelToken* cancel = nullptr)
      : core_(io_pool, compute_pool, depth, retry, counters, cancel) {}

  /// Single-stage job: the whole load (read + any decode) runs on the I/O
  /// pool. Use for raw reads with no decode work worth offloading.
  template <typename LoadFn>
  void Push(LoadFn load) {
    static_assert(
        std::is_same_v<std::invoke_result_t<LoadFn>, Result<T>>,
        "load must return Result<T>");
    auto cell = std::make_shared<std::optional<T>>();
    Prefetcher::Job job;
    job.io = [load = std::move(load), cell]() -> Status {
      Result<T> r = load();
      if (!r.ok()) return r.status();
      cell->emplace(std::move(r).value());
      return Status::OK();
    };
    cells_.push_back(std::move(cell));
    core_.Push(std::move(job));
  }

  /// Two-stage job: `io` produces the raw bytes on the I/O pool, `decode`
  /// turns them into T on the compute pool.
  template <typename IoFn, typename DecodeFn>
  void PushStaged(IoFn io, DecodeFn decode) {
    using Raw =
        typename internal::ResultValue<std::invoke_result_t<IoFn>>::type;
    static_assert(
        std::is_same_v<std::invoke_result_t<DecodeFn, Raw&&>, Result<T>>,
        "decode must map the io stage's value to Result<T>");
    auto cell = std::make_shared<std::optional<T>>();
    auto raw = std::make_shared<std::optional<Raw>>();
    Prefetcher::Job job;
    job.io = [io = std::move(io), raw]() -> Status {
      Result<Raw> r = io();
      if (!r.ok()) return r.status();
      raw->emplace(std::move(r).value());
      return Status::OK();
    };
    job.decode = [decode = std::move(decode), raw, cell]() -> Status {
      Result<T> r = decode(std::move(**raw));
      raw->reset();  // release the raw buffer before the consumer sees T
      if (!r.ok()) return r.status();
      cell->emplace(std::move(r).value());
      return Status::OK();
    };
    cells_.push_back(std::move(cell));
    core_.Push(std::move(job));
  }

  /// Blocks for the oldest unconsumed job and returns its value or error.
  Result<T> Next() {
    if (cells_.empty()) {
      return Status::InvalidArgument("PrefetchStream::Next past the last job");
    }
    Status s = core_.Next();
    auto cell = std::move(cells_.front());
    cells_.pop_front();
    if (!s.ok()) return s;
    return std::move(**cell);
  }

  void Cancel() { core_.Cancel(); }
  size_t pending() const { return core_.pending(); }
  double io_wait_seconds() const { return core_.io_wait_seconds(); }

 private:
  Prefetcher core_;
  std::deque<std::shared_ptr<std::optional<T>>> cells_;
};

}  // namespace nxgraph

#endif  // NXGRAPH_IO_PREFETCHER_H_
