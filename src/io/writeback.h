// Asynchronous write-behind I/O pipeline — the write-side twin of the
// prefetcher (paper §IV: the Destination-Sorted Sub-Shard phases overlap
// disk access with computation; PR 1 made the reads asynchronous, this
// queue does the same for hub payloads and interval write-backs).
//
// Producers serialize their payload on the compute pool and enqueue the
// owned buffer; dedicated I/O threads drain the queue as positional
// WriteAt calls, so compute tasks never block on device write latency.
// The queue is bounded by bytes, not entries: Push applies backpressure
// once `budget_bytes` of payload are queued or in flight, which caps the
// transient memory exactly like the prefetch window caps read-ahead.
//
//   budget == 0  — fully synchronous: Push performs the WriteAt inline and
//                  charges its whole duration to write_wait_seconds (the
//                  pre-writeback engine behavior);
//   budget  > 0  — asynchronous: Push blocks only on backpressure, errors
//                  surface at the next Drain().
//
// Ordering: disjoint writes (the only kind the engine produces between
// barriers) may drain in any order, so the queue issues them with a
// per-file elevator sweep — ascending offset from the last issued write,
// wrapping around — which turns the scrambled completion order of Phase B
// compute tasks back into one ascending sweep per file. At issue time,
// exactly-adjacent queued writes on the same file are group-committed into
// one WriteAt (byte-identical, since queued writes are disjoint), so they
// reach the device as a single larger transfer instead of a run of small
// ones. Phase B already hands the queue one write per (tile, run of a
// write group's written hubs) of the hub files (src/storage/hub_file.h),
// so group commit only joins runs that happen to touch: the tiles of
// consecutive row groups in one column group, or back-to-back interval
// write-backs of one parity. A write that overlaps a pending write on the
// same file is deferred until that file quiesces and then applied in push
// order, so overlapping writes always land exactly as the synchronous path
// would have written them.
//
// Drain() is the durability barrier the engine places at every phase and
// iteration boundary: it blocks until the queue is empty, Flush()es every
// distinct target file written since the previous barrier, and returns the
// first error any write or flush produced — a failed flush surfaces here,
// never silently dropped.
//
// Resilience (docs/io-stack.md "Error handling, retries, and degradation"):
// every WriteAt/Flush the queue issues runs under the RetryPolicy, so
// transient failures (retryable Status) are absorbed invisibly. A write
// that still fails is parked with its payload and re-attempted
// synchronously at the next Drain barrier — an error that heals by then
// (ENOSPC cleared by a log rotation, a device that came back) never
// surfaces at all. Drain keeps first-error-wins semantics for its return
// value but counts and logs every suppressed error (dropped_write_errors).
// An ENOSPC failure, or a queue whose writes fail repeatedly (dead queue),
// flips the queue into degraded mode: subsequent Pushes write inline
// (synchronously, after quiescing the async window) and return their
// status directly to the producer instead of piling more doomed writes
// into the pipeline.
#ifndef NXGRAPH_IO_WRITEBACK_H_
#define NXGRAPH_IO_WRITEBACK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/io/env.h"
#include "src/util/macros.h"
#include "src/util/retry.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace nxgraph {

/// \brief Bounded-byte write-behind queue over an I/O thread pool.
///
/// Thread contract: Push may be called concurrently from any number of
/// producer threads; Drain from one driver thread at a time (concurrent
/// Push while another thread Drains is allowed — the barrier covers every
/// write enqueued before it returns). Target files must outlive the queue.
class WritebackQueue {
 public:
  /// `io_pool` is not owned and may be null when `budget_bytes == 0`.
  /// Synchronous mode never touches the pool and never records flush
  /// targets either — budget 0 is exactly the pre-writeback write path,
  /// which issued no durability syncs. `counters` (not owned, may be null)
  /// receives retry / suppressed-error tallies; `retry` governs every
  /// WriteAt and Flush the queue issues.
  WritebackQueue(ThreadPool* io_pool, uint64_t budget_bytes,
                 RetryPolicy retry = {}, RetryCounters* counters = nullptr);

  /// Drains outstanding writes (they are completed, never dropped — this
  /// is a write path; cancellation would lose data). Flush errors during
  /// destruction are swallowed; call Drain() first to observe them.
  ~WritebackQueue();
  NX_DISALLOW_COPY(WritebackQueue);

  /// Enqueues one positional write of `data` to `file` at `offset`,
  /// transferring ownership of the buffer. Blocks while the queue holds
  /// `budget_bytes` or more of pending payload (a single payload larger
  /// than the whole budget is admitted once the queue is empty, so Push
  /// can never deadlock). In synchronous mode returns the WriteAt status
  /// directly; in asynchronous mode returns OK — failures surface from
  /// the next Drain() — unless the queue has degraded (see degraded()),
  /// in which case the write runs inline and its status is returned.
  Status Push(RandomWriteFile* file, uint64_t offset, std::string data);

  /// Barrier: blocks until every write enqueued so far has landed. With
  /// `sync` (the default) it then Flush()es each distinct target touched
  /// since the last syncing Drain — the durability barrier; `sync = false`
  /// is an ordering-only barrier (reads issued after it see every write)
  /// and leaves the flush debt to the next syncing Drain. Writes that
  /// failed permanently in flight are re-attempted synchronously here
  /// first (degrade, don't abort — see the file comment). Returns the
  /// first surviving write error, else the first flush error; additional
  /// errors are counted in dropped_write_errors and logged. Resets the
  /// error state so the queue can be reused for the next phase.
  Status Drain(bool sync = true);

  /// Bytes queued or in flight right now.
  uint64_t pending_bytes() const;

  /// Total wall-clock time producers spent blocked in Push (backpressure,
  /// or the inline write when synchronous) plus time Drain spent waiting —
  /// the residual write latency the pipeline failed to hide.
  double write_wait_seconds() const {
    return static_cast<double>(
               write_wait_micros_.load(std::memory_order_relaxed)) /
           1e6;
  }

  /// Queued writes absorbed into a neighbor by group commit (each absorbed
  /// write saved one WriteAt).
  uint64_t coalesced_writes() const;

  /// True once the queue has fallen back to synchronous inline writes
  /// (ENOSPC or repeated permanent write failures). Sticky for the life
  /// of the queue.
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Errors suppressed by first-error-wins reporting at Drain barriers
  /// (each was logged when dropped).
  uint64_t dropped_write_errors() const {
    return dropped_write_errors_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    RandomWriteFile* file;
    uint64_t offset;
    std::string data;
    /// Original Push calls folded into this write (group commit); the
    /// barrier counter drops by this much when the write lands.
    uint64_t merged = 1;
    /// Exactly-adjacent successors absorbed by group commit at pick time.
    /// Their payloads are concatenated into `data` by the writer thread
    /// OUTSIDE the queue lock (the copy can be megabytes; holding mu_
    /// across it would stall every producer and the barrier).
    std::vector<std::shared_ptr<Pending>> group;
    /// Authoritative end once grouped (covers the absorbed payloads before
    /// they are concatenated); 0 for ungrouped writes.
    uint64_t span_end = 0;
    uint64_t end() const { return offset + data.size(); }
    uint64_t span() const { return span_end != 0 ? span_end : end(); }
  };

  /// Per-target issue state. Disjoint queued writes live in an
  /// offset-ordered map served by the elevator; writes that overlap any
  /// pending write are parked in `deferred` and issued FIFO once the file
  /// has fully quiesced. At most one write per writer thread is submitted
  /// to the pool at a time (`issue_cap_`), so the reorder window stays in
  /// the sorted map instead of degenerating into the pool's FIFO queue —
  /// each completion picks the next write by offset.
  struct FileState {
    std::map<uint64_t, std::shared_ptr<Pending>> queued;  // disjoint, by offset
    std::deque<std::shared_ptr<Pending>> deferred;        // overlapping, FIFO
    std::vector<std::shared_ptr<Pending>> inflight;
    uint64_t head = 0;  // device position model: end of the last issue
  };

  /// Moves issuable queued writes onto the I/O pool in elevator order. A
  /// single thread runs the issue loop at a time (`issuing_`); the loop
  /// re-examines the queues each round, so completions during the loop are
  /// picked up without a separate wakeup. Called without mu_ held (Submit
  /// may run the write inline on a 0-thread pool).
  void Issue();
  void RunWrite(std::shared_ptr<Pending> w);
  /// Next elevator candidate across all files, or null. Called under mu_.
  /// Group commit: the picked write absorbs exactly-adjacent queued
  /// successors on the same file (the tiles of two consecutive Phase B
  /// write groups in one column group, for instance) into a single larger
  /// WriteAt, up to kCoalesceCapBytes.
  std::shared_ptr<Pending> PickLocked();
  bool OverlapsPendingLocked(const FileState& fs, const Pending& w) const;
  void TaskDone();

  ThreadPool* io_pool_;
  const uint64_t budget_bytes_;
  const size_t issue_cap_;  // max writes submitted to the pool at once
  const RetryPolicy retry_;
  RetryCounters* counters_;  // not owned; may be null

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<RandomWriteFile*, FileState> files_;
  uint64_t pending_bytes_ = 0;   // backpressure (payload bytes)
  uint64_t pending_writes_ = 0;  // barrier (covers zero-length writes too)
  size_t inflight_writes_ = 0;   // issued to the pool, not yet landed
  size_t outstanding_tasks_ = 0;  // pool closures still referencing this
  bool issuing_ = false;
  uint64_t coalesced_writes_ = 0;
  std::vector<RandomWriteFile*> targets_;  // distinct files since last Drain
  /// Writes that failed permanently in flight, parked with their payloads
  /// for the synchronous re-attempt at the next Drain. Their bytes no
  /// longer count against the budget (they left the async pipeline).
  std::vector<std::shared_ptr<Pending>> failed_;

  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> dropped_write_errors_{0};
  std::atomic<int64_t> write_wait_micros_{0};
};

}  // namespace nxgraph

#endif  // NXGRAPH_IO_WRITEBACK_H_
