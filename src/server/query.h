// Query specs, results, and completion futures for the serving layer.
#ifndef NXGRAPH_SERVER_QUERY_H_
#define NXGRAPH_SERVER_QUERY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/engine/options.h"
#include "src/graph/types.h"
#include "src/util/cancel.h"
#include "src/util/status.h"

namespace nxgraph {

/// What a point query computes from its root.
enum class QueryKind {
  kBfs,   ///< hop distances, optionally capped at max_hops
  kSssp,  ///< weighted shortest-path costs, optionally capped at max_cost
  kKHop,  ///< the k-hop neighborhood (BFS reachability within max_hops)
};

/// \brief Per-query resource limits, enforced by the server.
struct QueryLimits {
  /// BFS / k-hop: stop after this many propagation rounds (every vertex at
  /// hop distance <= max_hops is final). 0 = run to convergence.
  int max_hops = 0;

  /// SSSP: paths costlier than this are pruned (treated as unreachable).
  /// 0 = no cap.
  float max_cost = 0;

  /// Encoded sub-shard bytes this query may pull through the shared cache.
  /// Every sub-shard the query visits is charged at its manifest size —
  /// HIT OR MISS — so the truncation point is a deterministic function of
  /// the query alone, never of what other queries happen to have cached.
  /// On exhaustion the query stops cleanly with ResourceExhausted and
  /// whatever partial result it reached. 0 = unlimited.
  uint64_t io_byte_budget = 0;

  /// End-to-end deadline, measured from submission, covering queueing AND
  /// execution. Still queued when it passes → shed with DeadlineExceeded
  /// before ever occupying a worker (counted in Stats::shed). Already
  /// running → cancelled cooperatively at the next load or round
  /// checkpoint, returning DeadlineExceeded with the deterministic partial
  /// result of the rounds that completed (counted in
  /// Stats::deadline_cancelled). 0 = no deadline.
  std::chrono::milliseconds deadline{0};
};

/// \brief A point query: traversal from one root over the shared store.
struct PointQuery {
  QueryKind kind = QueryKind::kBfs;
  VertexId root = 0;
  QueryLimits limits;
};

/// \brief A batch-analytics query: a full VertexProgram run (PageRank, WCC,
/// ...) executed over the server's shared cache instead of a private engine
/// stack. Submitted via GraphServer::SubmitBatch, which carries the
/// program itself.
struct BatchQuery {
  EdgeDirection direction = EdgeDirection::kForward;
  /// Iteration cap; <= 0 runs until every interval goes inactive (programs
  /// that never converge on their own — PageRank with tolerance 0 — must
  /// set this).
  int max_iterations = 0;
  QueryLimits limits;  ///< max_hops / max_cost are ignored for batch
};

/// \brief Per-query execution accounting (the query-side analogue of
/// RunStats). Its DecodeCounters cover the decodes THIS query ran: the
/// cache holds encoded blobs, and the query's worker decodes every blob it
/// visits, hit or miss, so an NXS2 visit counts three bulk scans either
/// way.
struct QueryStats : DecodeCounters {
  uint64_t subshards_visited = 0;  ///< sub-shards pulled through the cache
  /// Non-empty sub-shards dropped because their source summary did not
  /// intersect the query's frontier (selective scheduling; 0 when the
  /// store has no summaries or the program is not monotone-skippable).
  /// Skipped sub-shards are neither visited nor charged to the budget.
  uint64_t subshards_skipped = 0;
  uint64_t bytes_charged = 0;      ///< encoded bytes charged to the budget
  /// Total bytes of the manifest's per-blob source summaries the planner
  /// consulted (0 when selective scheduling was off for this query).
  uint64_t summary_bytes = 0;
  int iterations = 0;              ///< propagation rounds fully applied
  bool truncated = false;          ///< stopped early on io_byte_budget
  /// Why the query was cancelled (kNone for a run that finished on its
  /// own). The partial result of a cancelled query is deterministic: it
  /// equals the same query run to completion with its round cap set to
  /// `iterations` — the round in flight at cancellation is discarded
  /// whole, never half-applied.
  CancelReason cancel_reason = CancelReason::kNone;
  double queue_seconds = 0;        ///< submission -> start of execution
  double run_seconds = 0;          ///< execution wall-clock
};

/// Where a running query currently is (for the stall watchdog and stats).
enum class QueryPhase : uint8_t {
  kQueued = 0,   ///< admitted, waiting for a worker
  kPlan = 1,     ///< planning the round's sub-shard visits
  kLoad = 2,     ///< pulling a load (one row's sub-shards) through the cache
  kApply = 3,    ///< applying the round's accumulators
  kCollect = 4,  ///< materializing the final result
};

const char* QueryPhaseName(QueryPhase phase);

/// \brief Live position of a running query, updated at every cancellation
/// checkpoint with relaxed atomics (reporting, not synchronization). The
/// stall watchdog snapshots this to say *where* a wedged query is stuck —
/// phase plus the (round, i, j) blob coordinates it last touched.
struct QueryProgress {
  std::atomic<uint8_t> phase{0};       // QueryPhase
  std::atomic<uint32_t> round{0};
  std::atomic<uint32_t> i{0};
  std::atomic<uint32_t> j{0};
  std::atomic<uint64_t> checkpoints{0};  ///< cancellation checks passed

  void Set(QueryPhase p, uint32_t r, uint32_t ii, uint32_t jj) {
    phase.store(static_cast<uint8_t>(p), std::memory_order_relaxed);
    round.store(r, std::memory_order_relaxed);
    i.store(ii, std::memory_order_relaxed);
    j.store(jj, std::memory_order_relaxed);
    checkpoints.fetch_add(1, std::memory_order_relaxed);
  }
};

/// \brief Result of a point query: the reached vertices (ascending id) and
/// their values. `hops` is filled for kBfs/kKHop, `costs` for kSssp.
struct PointResult {
  std::vector<VertexId> vertices;
  std::vector<uint32_t> hops;
  std::vector<float> costs;
  QueryStats stats;
};

/// \brief Result of a batch-analytics query: final values for all vertices,
/// indexed by id — what Engine::Run's CollectFinalValues produces.
template <typename V>
struct BatchResult {
  std::vector<V> values;
  QueryStats stats;
};

/// \brief Terminal state of one query. `status` is OK for a complete
/// result, ResourceExhausted for a budget-truncated one (partial `result`
/// is still populated, stats.truncated set), DeadlineExceeded for a shed
/// or deadline-cancelled query (the latter with the deterministic partial
/// result and stats.cancel_reason = kDeadline), Cancelled for a
/// client-cancelled or drain-cancelled query (partial result populated,
/// cancel_reason kClient / kShutdown), ResourceExhausted with empty stats
/// for an admission rejection, Aborted when the server shut down first, or
/// the execution error.
template <typename R>
struct Outcome {
  Status status;
  R result;
};

/// \brief Completion handle for a submitted query. Copyable; all copies
/// share one outcome. Wait() blocks until the server completes, sheds, or
/// rejects the query — rejection completes the future immediately at
/// Submit time, so Wait never hangs.
template <typename R>
class QueryFuture {
 public:
  QueryFuture() : state_(std::make_shared<State>()) {}

  /// The reference lives as long as some copy of this future does. On a
  /// temporary future (`Submit(q).Wait()`) the outcome is returned by value
  /// instead — the server side may drop its copy the moment it completes
  /// the query, so a reference into an expiring future would dangle.
  const Outcome<R>& Wait() const& {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    return state_->outcome;
  }

  Outcome<R> Wait() const&& { return Wait(); }

  bool Done() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
  }

  /// Server-assigned query id (for GraphServer::Cancel). 0 until the
  /// server admits the query; stays 0 for inline rejections, which are
  /// already complete and cannot be cancelled.
  uint64_t id() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->id;
  }

  /// Server-side: stamps the id at admission, before the ticket can run.
  void SetId(uint64_t id) const {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->id = id;
  }

  /// Completes the future (server-side; calling twice is a bug guarded by
  /// the scheduler, the second outcome would be dropped).
  void Complete(Outcome<R> outcome) const {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->done) return;
      state_->outcome = std::move(outcome);
      state_->done = true;
    }
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    uint64_t id = 0;
    Outcome<R> outcome;
  };
  std::shared_ptr<State> state_;
};

}  // namespace nxgraph

#endif  // NXGRAPH_SERVER_QUERY_H_
