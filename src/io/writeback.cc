#include "src/io/writeback.h"

#include <algorithm>
#include <cerrno>

#include "src/util/logging.h"
#include "src/util/timer.h"

namespace nxgraph {

namespace {

/// Permanent write failures parked before the queue declares itself dead
/// and degrades to synchronous pushes (ENOSPC degrades immediately).
constexpr size_t kDeadQueueFailures = 8;

}  // namespace

WritebackQueue::WritebackQueue(uint64_t budget_bytes, RetryPolicy retry,
                               RetryCounters* counters)
    : budget_bytes_(budget_bytes), retry_(retry), counters_(counters) {
  if (budget_bytes_ > 0) writer_ = std::thread([this] { WriterLoop(); });
}

WritebackQueue::~WritebackQueue() {
  // Writes are never dropped: a write-behind queue that discarded pending
  // data on shutdown would silently corrupt the interval/hub files.
  (void)Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_one();
  if (writer_.joinable()) writer_.join();
}

bool WritebackQueue::OverlapsPendingLocked(const FileState& fs,
                                           const Pending& w) const {
  // Queued entries are pairwise disjoint, so only the map neighbors can
  // intersect the new range.
  auto it = fs.queued.lower_bound(w.offset);
  if (it != fs.queued.end() && it->second->offset < w.end) return true;
  if (it != fs.queued.begin() && std::prev(it)->second->end > w.offset) {
    return true;
  }
  // `end` covers a grouped write's absorbed range even before the writer
  // has concatenated the payloads.
  return inflight_ != nullptr && inflight_->file == w.file &&
         w.offset < inflight_->end && inflight_->offset < w.end;
}

Status WritebackQueue::Push(RandomWriteFile* file, uint64_t offset,
                            std::string data) {
  if (budget_bytes_ == 0) {
    // Synchronous mode: the write happens right here on the producer
    // thread, and its whole duration counts as unhidden write latency. No
    // flush target is recorded — budget 0 reproduces the pre-writeback
    // path exactly, which never synced these files.
    Timer timer;
    Status s = RunWithRetry(retry_, counters_, [&] {
      return file->WriteAt(offset, data.data(), data.size());
    });
    write_wait_micros_.fetch_add(timer.ElapsedMicros(),
                                 std::memory_order_relaxed);
    return s;
  }
  if (degraded_.load(std::memory_order_acquire)) {
    // Degraded mode: the async pipeline is considered dead (ENOSPC or
    // repeated permanent failures). Quiesce the remaining window so
    // ordering against earlier queued writes holds, then write inline and
    // hand the status straight to the producer — no more doomed writes
    // enter the pipeline. The target is still recorded so Drain keeps its
    // durability-barrier meaning.
    Timer timer;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return pending_writes_ == 0; });
      if (std::find(targets_.begin(), targets_.end(), file) ==
          targets_.end()) {
        targets_.push_back(file);
      }
    }
    Status s = RunWithRetry(retry_, counters_, [&] {
      return file->WriteAt(offset, data.data(), data.size());
    });
    write_wait_micros_.fetch_add(timer.ElapsedMicros(),
                                 std::memory_order_relaxed);
    return s;
  }

  auto w = std::make_unique<Pending>();
  w->file = file;
  w->offset = offset;
  w->end = offset + data.size();
  w->data = std::move(data);
  const uint64_t bytes = w->data.size();
  Timer timer;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Backpressure: admit once the payload fits the budget. A payload
    // larger than the whole budget is admitted alone (empty queue), so a
    // producer can never deadlock against its own oversized write.
    cv_.wait(lock, [&] {
      return pending_bytes_ == 0 || pending_bytes_ + bytes <= budget_bytes_;
    });
    FileState& fs = files_[file];
    // Writes between two barriers are disjoint, so they may land in any
    // order; one that is not would land unordered against its neighbor.
    if (OverlapsPendingLocked(fs, *w) ||
        !fs.queued.try_emplace(offset, std::move(w)).second) {
      return Status::InvalidArgument(
          "write-behind push overlaps a pending write at offset " +
          std::to_string(offset));
    }
    pending_bytes_ += bytes;
    ++pending_writes_;
    if (std::find(targets_.begin(), targets_.end(), file) == targets_.end()) {
      targets_.push_back(file);
    }
  }
  work_cv_.notify_one();
  write_wait_micros_.fetch_add(timer.ElapsedMicros(),
                               std::memory_order_relaxed);
  return Status::OK();
}

std::unique_ptr<WritebackQueue::Pending> WritebackQueue::PickLocked() {
  // Largest write group commit will grow: past a few MiB the transfer is
  // bandwidth-bound anyway and the append-copy only burns memory.
  constexpr uint64_t kCoalesceCapBytes = 4ull << 20;
  for (auto& [file, fs] : files_) {
    if (fs.queued.empty()) continue;
    // Elevator sweep: the queued write at or after the device position
    // model, wrapping to the lowest offset when the sweep runs out.
    auto it = fs.queued.lower_bound(fs.head);
    if (it == fs.queued.end()) it = fs.queued.begin();
    std::unique_ptr<Pending> w = std::move(it->second);
    fs.queued.erase(it);
    // Group commit: absorb exactly-adjacent queued successors into one
    // WriteAt. Queued writes are pairwise disjoint, so byte-identical
    // to issuing them separately — one device op instead of several
    // (in the hub files, the tiles of two consecutive Phase B write
    // groups in one column group are adjacent).
    // Only the map surgery happens here; the payload concatenation — up
    // to kCoalesceCapBytes of memcpy — is done by the writer outside mu_.
    for (auto next = fs.queued.find(w->end);
         next != fs.queued.end() &&
         w->end - w->offset + next->second->data.size() <= kCoalesceCapBytes;
         next = fs.queued.find(w->end)) {
      w->end = next->second->end;
      w->group.push_back(std::move(next->second->data));
      ++coalesced_writes_;
      fs.queued.erase(next);
    }
    fs.head = w->end;
    return w;
  }
  return nullptr;
}

void WritebackQueue::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::unique_ptr<Pending> w = PickLocked();
    if (w == nullptr) {
      if (stop_) return;
      work_cv_.wait(lock);
      continue;
    }
    inflight_ = w.get();
    lock.unlock();
    // Concatenate the group-committed payloads (outside mu_ — this copy
    // can be megabytes). pending_bytes_ is unchanged: the bytes move from
    // the members into `data`, and completion subtracts the grown size.
    const uint64_t pushes = 1 + w->group.size();
    w->data.reserve(static_cast<size_t>(w->end - w->offset));
    for (const std::string& member : w->group) w->data.append(member);
    w->group.clear();
    Status s = RunWithRetry(retry_, counters_, [&] {
      return w->file->WriteAt(w->offset, w->data.data(), w->data.size());
    });
    lock.lock();
    inflight_ = nullptr;
    pending_bytes_ -= w->data.size();
    pending_writes_ -= pushes;  // a group-committed write retires all the
                                // pushes folded into it
    if (!s.ok()) {
      // Park the write, payload and all, for a synchronous re-attempt at
      // the Drain barrier — the error is only reported if it fails again
      // there (degrade, don't abort). ENOSPC, or a pile of permanent
      // failures, marks the whole queue dead: later Pushes go inline.
      const bool enospc = s.sys_errno() == ENOSPC;
      failed_.push_back(std::move(w));
      if (!degraded_.load(std::memory_order_relaxed) &&
          (enospc || failed_.size() >= kDeadQueueFailures)) {
        degraded_.store(true, std::memory_order_release);
        NX_LOG(Warn) << "writeback: degrading to synchronous writes after "
                     << (enospc ? "ENOSPC" : "repeated write failures")
                     << ": " << s.ToString();
      }
    }
    cv_.notify_all();
  }
}

Status WritebackQueue::Drain(bool sync) {
  Timer timer;
  std::vector<RandomWriteFile*> targets;
  std::vector<std::unique_ptr<Pending>> failed;
  Status s;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_writes_ == 0; });
    failed.swap(failed_);
    // Ordering-only barriers leave targets_ accumulating; the next
    // syncing Drain (or destruction) settles the flush debt.
    if (sync) targets.swap(targets_);
  }
  // Second chance for writes that failed permanently in flight: the
  // barrier must not return with data silently missing, so each parked
  // write is re-attempted synchronously right here. One that succeeds now
  // (the condition healed) never surfaces as an error at all.
  for (const auto& w : failed) {
    Status ws = RunWithRetry(retry_, counters_, [&] {
      return w->file->WriteAt(w->offset, w->data.data(), w->data.size());
    });
    if (ws.ok()) continue;
    if (s.ok()) {
      s = std::move(ws);
      continue;
    }
    // First-error-wins for the return value, but never silently: every
    // suppressed error is counted and logged.
    dropped_write_errors_.fetch_add(1, std::memory_order_relaxed);
    if (counters_ != nullptr) {
      counters_->dropped_write_errors.fetch_add(1, std::memory_order_relaxed);
    }
    NX_LOG(Warn) << "writeback: suppressed write error (first error wins): "
                 << ws.ToString();
  }
  // Durability barrier: per-target flush, first error wins (write errors
  // precede flush errors chronologically, so they take precedence).
  for (RandomWriteFile* f : targets) {
    Status fs =
        RunWithRetry(retry_, counters_, [&] { return f->Flush(); });
    if (fs.ok()) continue;
    if (s.ok()) {
      s = std::move(fs);
      continue;
    }
    dropped_write_errors_.fetch_add(1, std::memory_order_relaxed);
    if (counters_ != nullptr) {
      counters_->dropped_write_errors.fetch_add(1, std::memory_order_relaxed);
    }
    NX_LOG(Warn) << "writeback: suppressed flush error (first error wins): "
                 << fs.ToString();
  }
  write_wait_micros_.fetch_add(timer.ElapsedMicros(),
                               std::memory_order_relaxed);
  return s;
}

uint64_t WritebackQueue::pending_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_bytes_;
}

uint64_t WritebackQueue::coalesced_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_writes_;
}

}  // namespace nxgraph
