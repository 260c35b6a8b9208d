// GraphServer: a long-lived multi-tenant query server over one shared
// GraphStore + SubShardCache + I/O stack. See docs/serving.md.
#ifndef NXGRAPH_SERVER_GRAPH_SERVER_H_
#define NXGRAPH_SERVER_GRAPH_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/io/env.h"
#include "src/server/query.h"
#include "src/server/query_runner.h"
#include "src/storage/graph_store.h"
#include "src/util/cancel.h"
#include "src/util/histogram.h"
#include "src/util/macros.h"
#include "src/util/result.h"
#include "src/util/thread_pool.h"

namespace nxgraph {

/// \brief Long-lived query server: owns one open GraphStore, one shared
/// evictable SubShardCache, one shared I/O pool, and a fixed pool of query
/// workers; serves many concurrent point (BFS/SSSP/k-hop) and batch
/// queries against them.
///
/// Shared across queries: the store, the encoded-blob cache (read pins
/// keep a query's rows from being evicted under it), the I/O threads, and
/// the degree arrays. Per query: all value/accumulator state and the
/// decoding of the blobs it pins, so queries never contend on vertex values
/// and every result is bit-identical to the same query run alone (see
/// query_runner.h).
///
/// Admission control: at most `num_workers` queries execute at once;
/// beyond that, up to `max_queue` wait in FIFO order. Submissions past the
/// queue bound are rejected immediately with ResourceExhausted, and queued
/// queries whose deadline passes before a worker picks them up are shed
/// with DeadlineExceeded — the future always completes, nothing hangs.
///
/// Lifecycle: every admitted query gets an id (stamped on its future) and
/// a CancelToken that is a child of the server-wide drain token and
/// carries the query's end-to-end deadline. Cancel(id) fires one token;
/// Drain(timeout) closes admission and fans shutdown out to all of them;
/// a deadline fires its own token lazily. Running queries observe their
/// token cooperatively at load and round checkpoints (query_runner.h),
/// return deterministic partial results, and release every cache pin on
/// the way out. A stall watchdog flags queries that stop reaching checkpoints.
class GraphServer {
 public:
  /// The shared I/O settings (IoOptions: prefetch_depth per query,
  /// io_threads for the pool shared by all queries' cache loads, retry,
  /// selective_scheduling, simd_decode for every blob decode the queries
  /// perform) plus the serving knobs.
  struct Options : IoOptions {
    Options() { io_threads = 2; }
    /// Shared cache budget in encoded blob bytes (evictable, pin-aware).
    uint64_t cache_budget_bytes = 256ull << 20;
    /// Concurrent query executions (dedicated worker threads).
    int num_workers = 4;
    /// Queries allowed to WAIT beyond the in-flight limit before admission
    /// rejects.
    int max_queue = 64;
    /// Start with dispatch paused (test hook): submissions queue (and shed
    /// and reject) normally but no worker picks anything up until
    /// SetPaused(false).
    bool start_paused = false;
    /// Stall-watchdog scan period, seconds; <= 0 disables the watchdog
    /// thread entirely.
    double watchdog_interval_seconds = 0.05;
    /// A RUNNING query older than stall_multiplier × its deadline is
    /// flagged as stalled: logged once (with the phase and blob it is
    /// stuck in, from QueryProgress) and surfaced in Stats. Flagging never
    /// kills the query — the deadline cancellation already fired at
    /// 1× deadline; a stall flag means the query is not reaching
    /// checkpoints (wedged I/O, a blocked hook). Queries without a
    /// deadline are never flagged.
    double stall_multiplier = 4.0;
    /// TEST HOOK: forwarded to every query's
    /// QueryContext::boundary_hook — invoked at each cancellation
    /// checkpoint. Empty in production.
    std::function<void()> boundary_hook;
  };

  /// \brief A query the stall watchdog flagged: still running past
  /// stall_multiplier × its deadline, last seen at this phase/blob.
  struct StalledQuery {
    uint64_t id = 0;
    double running_seconds = 0;
    QueryPhase phase = QueryPhase::kQueued;
    uint32_t round = 0;
    uint32_t i = 0;
    uint32_t j = 0;
  };

  /// \brief Server-level statistics (the serving analogue of RunStats).
  /// Its DecodeCounters cover the shared store's lifetime, across all
  /// queries (QueryStats has the per-query attribution).
  struct Stats : DecodeCounters {
    uint64_t submitted = 0;
    uint64_t completed = 0;  ///< includes truncated
    uint64_t truncated = 0;  ///< completed with partial results (budget)
    uint64_t rejected = 0;   ///< admission-rejected (queue full)
    uint64_t shed = 0;       ///< deadline passed while still QUEUED
    uint64_t failed = 0;     ///< execution errors
    /// Client Cancel() completions (status Cancelled, reason kClient) —
    /// both mid-run and while still queued.
    uint64_t cancelled = 0;
    /// Deadline fired while the query was RUNNING: cancelled at its next
    /// checkpoint with a partial result (status DeadlineExceeded, reason
    /// kDeadline). Counted separately from `shed`, which never ran at all.
    uint64_t deadline_cancelled = 0;
    /// Queries cancelled by Drain()'s straggler sweep (reason kShutdown).
    uint64_t drain_cancelled = 0;
    /// Lifetime stall-watchdog flags (see Options::stall_multiplier).
    uint64_t stalled = 0;
    uint64_t queued = 0;     ///< currently waiting
    uint64_t running = 0;    ///< currently executing
    bool draining = false;   ///< Drain() has closed admission
    /// Currently-running queries holding a stall flag, with where they are.
    std::vector<StalledQuery> stalled_queries;
    double uptime_seconds = 0;
    double qps = 0;          ///< completed / uptime
    /// End-to-end latency (queue + run) percentiles over every query that
    /// ran, milliseconds, within LogHistogram::kRelativeError. 0 when
    /// nothing ran yet.
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    /// Shared-cache behavior across all queries.
    SubShardCache::Counters cache;
    uint64_t cache_bytes_cached = 0;
    double cache_hit_rate = 0;  ///< hits / (hits + misses)
  };

  /// Opens the store and starts the worker/I/O pools. The Env must outlive
  /// the server.
  static Result<std::unique_ptr<GraphServer>> Open(Env* env,
                                                   const std::string& dir,
                                                   const Options& options);

  /// Completes all queued queries with Aborted, then joins the workers.
  ~GraphServer();
  NX_DISALLOW_COPY(GraphServer);

  /// Submits a point query; returns immediately. The future completes with
  /// the result, a partial result (ResourceExhausted, stats.truncated), or
  /// the rejection/shedding status.
  QueryFuture<PointResult> Submit(const PointQuery& query);

  /// Submits a batch-analytics program (PageRank, WCC, ...) through the
  /// same admission/budget path as point queries.
  template <VertexProgram Program>
  QueryFuture<BatchResult<typename Program::Value>> SubmitBatch(
      const Program& program, const BatchQuery& spec) {
    return SubmitQuery<BatchResult<typename Program::Value>>(
        spec.limits.deadline, [program, spec](const QueryContext& ctx) {
          return RunBatchQuery(program, ctx, spec.direction,
                               spec.max_iterations,
                               spec.limits.io_byte_budget);
        });
  }

  /// Requests cooperative cancellation of a live query by the id stamped
  /// on its future. A queued query completes immediately with Cancelled;
  /// a running one unwinds at its next checkpoint, returning Cancelled
  /// with the deterministic partial result of its completed rounds.
  /// Returns false when the id names no live query (already finished,
  /// rejected, or unknown) — cancellation raced completion, and the
  /// future holds the run's real outcome.
  bool Cancel(uint64_t query_id);

  /// Graceful shutdown of admission: immediately stops accepting new
  /// queries (submissions complete with Aborted), lets queued + running
  /// work finish for up to `timeout`, then fans CancelReason::kShutdown
  /// out to every remaining query and waits for them to unwind. Returns
  /// OK once the server is idle (whether or not stragglers had to be
  /// cancelled — Stats::drain_cancelled says how many were), or
  /// DeadlineExceeded if a wedged query failed to reach a cancellation
  /// checkpoint within a generous hard cap. Idempotent; admission stays
  /// closed afterwards. The destructor remains the non-graceful path
  /// (aborts the queue, finishes only what is mid-run).
  Status Drain(std::chrono::milliseconds timeout);

  /// Pauses / resumes dispatch (test hook; see Options::start_paused).
  void SetPaused(bool paused);

  Stats stats() const;
  const GraphStore& store() const { return *store_; }
  SubShardCache* cache() { return cache_.get(); }

 private:
  /// \brief Per-query lifecycle record, registered from admission until
  /// FinishQuery (or queue-time abort). The token is a child of the
  /// server-wide drain token, carrying the query's end-to-end deadline;
  /// `progress` is written lock-free by the running query and read by the
  /// stall watchdog. `running`/`stall_flagged` are guarded by mu_.
  struct LiveQuery {
    uint64_t id = 0;
    CancelToken token;
    QueryProgress progress;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::milliseconds deadline{0};  // 0 = none
    bool running = false;
    bool stall_flagged = false;
  };

  /// A queued query: `run(queue_seconds)` executes and completes the
  /// future; `abort(status)` completes it without running (rejection,
  /// shedding, cancellation, shutdown).
  struct Ticket {
    std::shared_ptr<LiveQuery> lq;
    std::function<void(double)> run;
    std::function<void(Status)> abort;
  };

  GraphServer(Env* env, Options options);

  QueryContext MakeContext(LiveQuery* lq) const;

  /// Allocates an id and a drain-token child carrying the deadline.
  std::shared_ptr<LiveQuery> NewLiveQuery(std::chrono::milliseconds deadline);

  /// Admission control: queues the ticket and registers it live, or calls
  /// `abort` inline with ResourceExhausted (queue full) / Aborted
  /// (draining or shutting down) without registering.
  void EnqueueTicket(std::shared_ptr<LiveQuery> lq,
                     std::function<void(double)> run,
                     std::function<void(Status)> abort);

  /// Server-side completion accounting (latency histogram + counters) and
  /// live-registry removal.
  void FinishQuery(const std::shared_ptr<LiveQuery>& lq, const Status& status,
                   const QueryStats& stats);

  /// The one ticket body behind Submit and SubmitBatch: admits a query
  /// whose work is `execute(context)`, then, once a worker runs it, stamps
  /// its queue and run seconds, settles the server counters, and completes
  /// the future.
  template <typename R, typename Execute>
  QueryFuture<R> SubmitQuery(std::chrono::milliseconds deadline,
                             Execute execute) {
    QueryFuture<R> future;
    std::shared_ptr<LiveQuery> lq = NewLiveQuery(deadline);
    future.SetId(lq->id);
    EnqueueTicket(
        lq,
        [this, execute, lq, future](double queue_seconds) {
          const auto start = std::chrono::steady_clock::now();
          Outcome<R> out = execute(MakeContext(lq.get()));
          out.result.stats.queue_seconds = queue_seconds;
          out.result.stats.run_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          FinishQuery(lq, out.status, out.result.stats);
          future.Complete(std::move(out));
        },
        [future](Status s) { future.Complete({std::move(s), {}}); });
    return future;
  }

  void WorkerLoop();
  void WatchdogLoop();

  Env* env_;
  const Options options_;
  /// options_.simd_decode, resolved once: every query decodes with it.
  const DecodePath decode_path_;
  std::shared_ptr<GraphStore> store_;
  std::unique_ptr<SubShardCache> cache_;
  std::unique_ptr<ThreadPool> io_pool_;
  std::vector<uint32_t> out_degrees_;
  std::vector<uint32_t> in_degrees_;
  std::chrono::steady_clock::time_point started_;

  /// Root of the cancellation tree: Drain() fires it with kShutdown and
  /// every per-query token is its child. Never carries a deadline itself.
  CancelToken drain_token_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Signalled whenever the server may have gone idle (queue empty, no
  /// runners) — Drain() blocks on it.
  std::condition_variable drained_cv_;
  std::condition_variable watchdog_cv_;
  std::deque<Ticket> queue_;
  /// Queries between admission and completion, by id (queued + running).
  std::unordered_map<uint64_t, std::shared_ptr<LiveQuery>> live_;
  uint64_t next_query_id_ = 1;
  bool paused_ = false;
  bool stopping_ = false;
  bool draining_ = false;
  uint64_t running_ = 0;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t truncated_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_ = 0;
  uint64_t failed_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t deadline_cancelled_ = 0;
  uint64_t drain_cancelled_ = 0;
  uint64_t stalled_ = 0;
  LogHistogram latency_ms_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace nxgraph

#endif  // NXGRAPH_SERVER_GRAPH_SERVER_H_
