// Asynchronous write-behind I/O pipeline — the write-side twin of the
// prefetcher (paper §IV: the Destination-Sorted Sub-Shard phases overlap
// disk access with computation; the prefetcher makes the reads
// asynchronous, this queue does the same for hub payloads and interval
// write-backs).
//
// Producers serialize their payload on the compute pool and enqueue the
// owned buffer; the queue's own writer thread drains it as positional
// WriteAt calls, one at a time, so compute tasks never block on device
// write latency, and a slow write never occupies a prefetch thread and
// starves the read window. The queue is bounded by bytes, not entries:
// Push applies backpressure once `budget_bytes` of payload are queued or
// in flight, which caps the transient memory exactly like the prefetch
// window caps read-ahead.
//
//   budget == 0  — fully synchronous: Push performs the WriteAt inline and
//                  charges its whole duration to write_wait_seconds (the
//                  pre-writeback engine behavior); no writer thread starts;
//   budget  > 0  — asynchronous: Push blocks only on backpressure, errors
//                  surface at the next Drain().
//
// Ordering: the writes pushed between two Drain barriers must be disjoint
// — Phase B's hub runs, Phase C's write-backs of the opposite parity and a
// checkpoint's segments are disjoint by construction — so they may land in
// any order. A Push that overlaps a queued or in-flight write is rejected
// with InvalidArgument and queues nothing. The writer picks the next write
// with a per-file elevator sweep — ascending offset from the last issued
// write, wrapping around — which turns the scrambled completion order of
// Phase B compute tasks back into one ascending sweep per file. At pick
// time, exactly-adjacent queued writes on the same file are group-committed
// into one WriteAt (byte-identical, since queued writes are disjoint), so
// they reach the device as a single larger transfer instead of a run of
// small ones. Phase B already hands the queue one write per (tile, run of a
// write group's written hubs) of the hub files (src/storage/hub_file.h),
// so group commit only joins runs that happen to touch: the tiles of
// consecutive row groups in one column group, or back-to-back interval
// write-backs of one parity.
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
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/io/env.h"
#include "src/util/macros.h"
#include "src/util/retry.h"
#include "src/util/status.h"

namespace nxgraph {

/// \brief Bounded-byte write-behind queue with one writer thread.
///
/// Thread contract: Push may be called concurrently from any number of
/// producer threads; Drain from one driver thread at a time (concurrent
/// Push while another thread Drains is allowed — the barrier covers every
/// write enqueued before it returns). Target files must outlive the queue.
class WritebackQueue {
 public:
  /// Starts the writer thread when `budget_bytes > 0`. Synchronous mode
  /// (budget 0) starts none and never records flush targets either —
  /// budget 0 is exactly the pre-writeback write path, which issued no
  /// durability syncs. `counters` (not owned, may be null) receives retry /
  /// suppressed-error tallies; `retry` governs every WriteAt and Flush the
  /// queue issues.
  explicit WritebackQueue(uint64_t budget_bytes, RetryPolicy retry = {},
                          RetryCounters* counters = nullptr);

  /// Drains outstanding writes (they are completed, never dropped — this
  /// is a write path; cancellation would lose data), then joins the writer.
  /// Flush errors during destruction are swallowed; call Drain() first to
  /// observe them.
  ~WritebackQueue();
  NX_DISALLOW_COPY(WritebackQueue);

  /// Enqueues one positional write of `data` to `file` at `offset`,
  /// transferring ownership of the buffer. Blocks while the queue holds
  /// `budget_bytes` or more of pending payload (a single payload larger
  /// than the whole budget is admitted once the queue is empty, so Push
  /// can never deadlock). In synchronous mode returns the WriteAt status
  /// directly; in asynchronous mode returns OK — failures surface from
  /// the next Drain() — unless the queue has degraded (see degraded()),
  /// in which case the write runs inline and its status is returned. An
  /// asynchronous write that overlaps a queued or in-flight write on the
  /// same file (or starts where a queued one does) is InvalidArgument and
  /// queues nothing.
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
    /// End of the bytes this write covers. Group commit extends it over
    /// the absorbed successors at pick time, before their payloads are
    /// appended to `data`.
    uint64_t end;
    std::string data;
    /// Payloads of the exactly-adjacent successors group commit absorbed,
    /// in offset order. The writer thread appends them to `data` OUTSIDE
    /// the queue lock (the copy can be megabytes; holding mu_ across it
    /// would stall every producer and the barrier).
    std::vector<std::string> group;
  };

  /// Per-target state: the queued writes, pairwise disjoint, in the
  /// offset-ordered map the elevator serves.
  struct FileState {
    std::map<uint64_t, std::unique_ptr<Pending>> queued;
    uint64_t head = 0;  // device position model: end of the last pick
  };

  /// The writer thread: picks, writes and retires one write at a time,
  /// until the queue is empty and stop_ is set.
  void WriterLoop();
  /// Next elevator candidate across all files, or null. Called under mu_.
  /// Group commit: the picked write absorbs exactly-adjacent queued
  /// successors on the same file (the tiles of two consecutive Phase B
  /// write groups in one column group, for instance) into a single larger
  /// WriteAt, up to kCoalesceCapBytes.
  std::unique_ptr<Pending> PickLocked();
  bool OverlapsPendingLocked(const FileState& fs, const Pending& w) const;

  const uint64_t budget_bytes_;
  const RetryPolicy retry_;
  RetryCounters* counters_;  // not owned; may be null

  mutable std::mutex mu_;
  std::condition_variable cv_;       // a write landed (backpressure, Drain)
  std::condition_variable work_cv_;  // a write was queued, or stop_ was set
  std::map<RandomWriteFile*, FileState> files_;
  const Pending* inflight_ = nullptr;  // the write the writer is issuing
  uint64_t pending_bytes_ = 0;   // backpressure (payload bytes)
  uint64_t pending_writes_ = 0;  // barrier (covers zero-length writes too)
  bool stop_ = false;
  uint64_t coalesced_writes_ = 0;
  std::vector<RandomWriteFile*> targets_;  // distinct files since last Drain
  /// Writes that failed permanently in flight, parked with their payloads
  /// for the synchronous re-attempt at the next Drain. Their bytes no
  /// longer count against the budget (they left the async pipeline).
  std::vector<std::unique_ptr<Pending>> failed_;

  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> dropped_write_errors_{0};
  std::atomic<int64_t> write_wait_micros_{0};
  std::thread writer_;  // runs WriterLoop when budget_bytes_ > 0
};

}  // namespace nxgraph

#endif  // NXGRAPH_IO_WRITEBACK_H_
