// RetryPolicy: bounded retries with exponential backoff for transient I/O.
//
// Retries live at the *pipeline* layer (prefetcher read jobs, writeback
// writes/flushes, checkpoint commits, store re-reads) — never inside Env
// backends, which only classify failures (Status::FromErrno sets the
// retryability bit). Keeping the loop in one place means every retry is
// counted, its wait time is measured, and the backoff schedule is
// deterministic: jitter comes from SplitMix64 seeded by (policy seed,
// per-counter attempt index), not from wall-clock entropy, so a soak run
// under a fixed FlakyEnv seed replays bit-identically.
#ifndef NXGRAPH_UTIL_RETRY_H_
#define NXGRAPH_UTIL_RETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/util/cancel.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace nxgraph {

/// \brief How a pipeline reacts to a retryable failure.
///
/// Defaults are tuned for transient glitches (interrupted syscalls,
/// momentary EAGAIN/ENOBUFS): a handful of quick attempts whose waits sum
/// to well under a second, bounded by a per-operation deadline so a
/// persistently failing device cannot stall a drain barrier indefinitely.
struct RetryPolicy {
  /// Total attempts including the first (1 == no retries, 0 disables
  /// retries entirely and is treated as 1).
  int max_attempts = 4;
  /// Backoff before retry k (1-based) is
  ///   min(initial * multiplier^(k-1), max) * uniform[0.5, 1.0)
  /// — full-jitter-halved, deterministic via `jitter_seed`.
  uint64_t backoff_initial_micros = 100;
  double backoff_multiplier = 8.0;
  uint64_t backoff_max_micros = 50'000;
  /// Upper bound on the summed backoff waits for one logical operation;
  /// once exceeded no further attempts are made even if attempts remain.
  double op_deadline_seconds = 2.0;
  /// Seed for deterministic jitter (combined with a per-retry counter).
  uint64_t jitter_seed = 0x6e786772ULL;  // "nxgr"

  /// Backoff wait (microseconds) before 1-based retry `attempt`, with
  /// deterministic jitter drawn from `salt` (a monotone per-process retry
  /// index keeps consecutive retries from thundering in lockstep).
  uint64_t BackoffMicros(int attempt, uint64_t salt) const {
    double raw = static_cast<double>(backoff_initial_micros);
    for (int i = 1; i < attempt; ++i) raw *= backoff_multiplier;
    const double capped = raw < static_cast<double>(backoff_max_micros)
                              ? raw
                              : static_cast<double>(backoff_max_micros);
    SplitMix64 sm(jitter_seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                  static_cast<uint64_t>(attempt));
    const double frac = 0.5 + 0.5 * ((sm.Next() >> 11) * 0x1.0p-53);
    return static_cast<uint64_t>(capped * frac);
  }
};

/// \brief Shared, thread-safe tally of retry activity across pipelines.
///
/// One instance per run (owned by the engine; standalone WritebackQueue /
/// Prefetcher users may pass nullptr to skip counting). Relaxed ordering:
/// the counters are reporting, not synchronization.
struct RetryCounters {
  std::atomic<uint64_t> io_retries{0};
  std::atomic<uint64_t> retry_wait_micros{0};
  std::atomic<uint64_t> dropped_write_errors{0};
  /// Monotone salt source for jitter decorrelation across threads.
  std::atomic<uint64_t> retry_salt{0};
};

/// Runs `op` (a callable returning Status) under `policy`: retryable
/// failures are retried with backoff until attempts or the deadline run
/// out; the first non-retryable failure (or success) is returned as-is.
/// `op` must be idempotent. `counters` may be null.
///
/// `cancel` (optional) makes the loop observe external state instead of
/// sleeping blind: cancellation is checked before every attempt, backoff
/// waits are interruptible (a mid-backoff Cancel returns the token's
/// status immediately, distinguishable from retryable-exhausted), and the
/// op deadline is capped at the token's remaining deadline so a query
/// with 10ms left never funds a 2s retry storm.
template <typename Op>
Status RunWithRetry(const RetryPolicy& policy, RetryCounters* counters,
                    Op&& op, const CancelToken* cancel = nullptr) {
  const int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  double deadline_seconds = policy.op_deadline_seconds;
  if (cancel != nullptr && deadline_seconds > cancel->RemainingSeconds()) {
    deadline_seconds = cancel->RemainingSeconds();
  }
  uint64_t waited_micros = 0;
  Status s;
  for (int attempt = 1;; ++attempt) {
    if (cancel != nullptr && cancel->cancelled()) return cancel->ToStatus();
    s = op();
    if (s.ok() || !s.retryable() || attempt >= attempts) return s;
    const uint64_t salt =
        counters ? counters->retry_salt.fetch_add(1, std::memory_order_relaxed)
                 : static_cast<uint64_t>(attempt);
    const uint64_t wait = policy.BackoffMicros(attempt, salt);
    if (static_cast<double>(waited_micros + wait) * 1e-6 > deadline_seconds) {
      return s;
    }
    if (wait > 0) {
      if (cancel != nullptr) {
        if (cancel->WaitFor(std::chrono::microseconds(wait))) {
          return cancel->ToStatus();
        }
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(wait));
      }
    }
    waited_micros += wait;
    if (counters) {
      counters->io_retries.fetch_add(1, std::memory_order_relaxed);
      counters->retry_wait_micros.fetch_add(wait, std::memory_order_relaxed);
    }
  }
}

}  // namespace nxgraph

#endif  // NXGRAPH_UTIL_RETRY_H_
