// Per-query execution over the server's shared store/cache/I-O stack.
//
// Point queries (RunPointTraversal) and batch analytics (RunBatchQuery)
// run one round loop, server_internal::RunRounds. The wrappers only shape
// its output — a sparse list of reached vertices, or a dense vector — and
// the program type picks the starting state and the accumulators. Rounds
// are planned by the engine's planner (PlanRound, traversal.h).
//
// Every query computes SINGLE-THREADED: the server's concurrency is across
// queries, not within one, so a query's accumulation order is a fixed
// function of the manifest (i ascending, j ascending, destination groups in
// stored order) and its results are bit-identical whether it runs alone or
// next to a hundred others. A round's visits are pulled through the shared
// SubShardCache as loads — runs of one row's sub-shards (SplitLoads), each
// read the way the engine streams a row: one sequential read per run of
// missing blobs (SubShardCache::GetPinnedRow) — with bounded read-ahead on
// the shared I/O pool; concurrent queries missing on the same sub-shard
// still share one disk load. The cache holds encoded blobs, so the query's
// own worker decodes each pinned blob, one at a time, and the I/O pool only
// reads.
#ifndef NXGRAPH_SERVER_QUERY_RUNNER_H_
#define NXGRAPH_SERVER_QUERY_RUNNER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/engine/options.h"
#include "src/engine/traversal.h"
#include "src/engine/vertex_program.h"
#include "src/io/prefetcher.h"
#include "src/prep/manifest.h"
#include "src/server/query.h"
#include "src/storage/graph_store.h"
#include "src/util/retry.h"
#include "src/util/thread_pool.h"

namespace nxgraph {

/// \brief The shared server state one query executes against. All pointers
/// are borrowed from the GraphServer and outlive the query.
struct QueryContext {
  const GraphStore* store = nullptr;
  SubShardCache* cache = nullptr;
  /// The varint decode path every blob this query pins is decoded with.
  DecodePath decode_path = ResolveDecodePath(SimdDecode::kAuto);
  ThreadPool* io_pool = nullptr;
  size_t prefetch_depth = 0;  ///< loads read ahead; 0 = synchronous loads
  /// Encoded bytes (SubShardMeta::size) one load may cover: a round's
  /// visits are loaded as runs of one (direction, row) up to this size
  /// (SplitLoads), and a load's pins are held together. A load always
  /// holds at least one blob, so 0 loads blob by blob; the default loads
  /// each planned row whole. GraphServer derives it from its cache budget
  /// so every worker's pins fit in the cache at once.
  uint64_t max_load_bytes = UINT64_MAX;
  RetryPolicy retry;
  const std::vector<uint32_t>* out_degrees = nullptr;
  /// In-degrees; empty unless the store has a transpose.
  const std::vector<uint32_t>* in_degrees = nullptr;
  /// Consult per-blob source summaries (manifest v3) when planning rounds:
  /// sub-shards whose summary cannot intersect the query's frontier are
  /// skipped — not visited, not charged. Only effective for
  /// monotone-skippable programs on stores carrying summaries; results are
  /// bit-identical either way.
  bool selective = true;
  /// Cooperative cancellation/deadline token (may be null). Observed at
  /// every checkpoint: round plan, before each load, and round apply. On
  /// cancellation the round in flight is DISCARDED whole and the
  /// query returns the token's status with the deterministic partial
  /// result of the rounds that fully applied (equal to the same query run
  /// with its round cap at stats.iterations). The token also flows into
  /// the prefetch stream, cache gets, and retry backoffs this query issues.
  const CancelToken* cancel = nullptr;
  /// Live (round, i, j, phase) position, updated at every checkpoint with
  /// relaxed atomics (may be null). The server's stall watchdog reads it.
  QueryProgress* progress = nullptr;
  /// TEST HOOK: invoked at every checkpoint, before the cancellation
  /// check. Lets tests cancel at the k-th boundary deterministically or
  /// block a query to exercise the stall watchdog. Empty in production.
  std::function<void()> boundary_hook;
};

/// \brief Sparse traversal output: reached vertices (ascending id) and
/// their final values. Value must be equality-comparable — "reached" means
/// value != program.DefaultValue().
template <typename V>
struct SparseTraversalResult {
  std::vector<VertexId> vertices;
  std::vector<V> values;
  QueryStats stats;
};

/// \brief SSSP with a path-cost cap: contributions costlier than max_cost
/// are pruned, so capped vertices report unreachable. With the default cap
/// (+inf) this is exactly SsspProgram.
struct CostCappedSsspProgram {
  using Value = float;
  static constexpr Value kInfinity = std::numeric_limits<Value>::infinity();
  static constexpr bool kMonotoneSkippable = true;

  VertexId root = 0;
  float max_cost = kInfinity;

  Value Init(VertexId v, uint32_t) const { return v == root ? 0.0f : kInfinity; }
  static Value Identity() { return kInfinity; }
  Value Gather(const EdgeContext& e, const Value& src_value) const {
    if (src_value == kInfinity) return kInfinity;
    const float cost = src_value + e.weight;
    return cost > max_cost ? kInfinity : cost;
  }
  static Value Accumulate(const Value& a, const Value& b) {
    return a < b ? a : b;
  }
  Value Apply(VertexId, const Value& acc, const Value& old_value) const {
    return acc < old_value ? acc : old_value;
  }
  bool Changed(const Value& old_value, const Value& new_value) const {
    return old_value != new_value;
  }
  bool InitiallyActive(VertexId v) const { return v == root; }
  Value DefaultValue() const { return kInfinity; }
  std::vector<VertexId> SeedVertices() const { return {root}; }
};

namespace server_internal {

/// Accumulates one sub-shard's contributions. `ensure_acc(j)` materializes
/// the destination interval's Identity-filled accumulator on the first
/// contribution that Changed from Identity (for monotone programs, whole
/// intervals that receive nothing never allocate).
template <VertexProgram Program, typename EnsureAcc>
void AccumulateSubShard(const Program& program, const SubShard& ss,
                        const typename Program::Value* src_vals,
                        VertexId src_base, VertexId dst_base,
                        const std::vector<uint32_t>& degrees,
                        std::vector<typename Program::Value>* acc,
                        EnsureAcc ensure_acc) {
  using Value = typename Program::Value;
  for (uint32_t g = 0; g < ss.num_dsts(); ++g) {
    const Value a = GatherGroup(program, ss, g, src_vals, src_base, degrees);
    if (!program.Changed(Program::Identity(), a)) continue;
    if (acc->empty()) ensure_acc();
    Value& slot = (*acc)[ss.dsts[g] - dst_base];
    slot = Program::Accumulate(slot, a);
  }
}

/// One cooperative cancellation checkpoint: publish where the query is,
/// fire the test hook, observe the token. Returns true when the query must
/// unwind (the caller discards the round in flight and returns the token's
/// status with the completed-rounds partial result).
inline bool Checkpoint(const QueryContext& ctx, QueryPhase phase,
                       uint32_t round, uint32_t i, uint32_t j) {
  if (ctx.progress != nullptr) ctx.progress->Set(phase, round, i, j);
  if (ctx.boundary_hook) ctx.boundary_hook();
  return ctx.cancel != nullptr && ctx.cancel->cancelled();
}

inline Status TruncatedStatus(uint64_t budget) {
  return Status::ResourceExhausted(
      "io byte budget exhausted (" + std::to_string(budget) +
      " bytes); partial result returned");
}

/// One load of a round: the visits [begin, end), all of one (direction,
/// row), pulled through the cache with one GetPinnedRow.
struct Load {
  size_t begin;
  size_t end;
};

/// Splits a round's visits (in PlanRound order) into loads: runs of
/// consecutive visits of one (direction, row) whose encoded bytes — what
/// their pins hold — sum to at most `max_load_bytes`. A load always holds
/// at least one visit, so a blob larger than the bound is a load of its
/// own, 0 gives one visit per load, and UINT64_MAX one load per planned
/// row.
inline std::vector<Load> SplitLoads(const Manifest& m,
                                    const std::vector<Visit>& visits,
                                    uint64_t max_load_bytes) {
  std::vector<Load> loads;
  uint64_t bytes = 0;  // encoded bytes of loads.back()
  for (size_t k = 0; k < visits.size(); ++k) {
    const Visit& v = visits[k];
    const uint64_t b = m.subshard(v.i, v.j, v.transpose).size;
    if (!loads.empty()) {
      const Visit& first = visits[loads.back().begin];
      if (first.transpose == v.transpose && first.i == v.i &&
          bytes <= max_load_bytes && b <= max_load_bytes - bytes) {
        loads.back().end = k + 1;
        bytes += b;
        continue;
      }
    }
    loads.push_back({k, k + 1});
    bytes = b;
  }
  return loads;
}

/// Copies the query's decode tallies into its stats (called on every exit
/// path, including load failures, so partial stats still report the decode
/// work done so far).
inline void SettleDecodeStats(const QueryContext& ctx,
                              const DecodeTallies& tallies,
                              QueryStats* stats) {
  stats->decode_path = DecodePathName(ctx.decode_path);
  stats->bulk_decode_calls = tallies.bulk_decode_calls;
  stats->decode_seconds = static_cast<double>(tallies.decode_nanos) / 1e9;
}

/// The one round loop behind RunPointTraversal and RunBatchQuery. Rounds
/// follow the engine's synchronous (Jacobi) model: plan the round's
/// sub-shard visits, accumulate them all from the previous round's values,
/// then apply. The program type decides the rest:
///   - a SeededProgram starts from its seed intervals and an exact
///     frontier, as Engine::InitValues does; any other program starts from
///     every interval its Init activates, with an all-pass frontier;
///   - a kMonotoneSkippable program allocates each accumulator on its
///     first contribution and skips the apply of intervals that received
///     none (Apply(v, Identity, old) == old); any other program
///     accumulates densely and applies every interval each round.
/// Interval values materialize on first touch, the seeds' up front — a
/// point query on a quiet corner of the graph touches a handful of
/// intervals, not V. `max_rounds` <= 0 runs to convergence.
///
/// Unless a load fails, `collect(values)` then shapes the output; an
/// interval whose entry is still empty was never touched and holds its
/// initial values. Returns OK, the budget truncation, the token's status
/// on cancellation, or the failed load's status. stats->iterations counts
/// rounds fully applied, on every path.
template <VertexProgram Program, typename Collect>
Status RunRounds(const Program& program, const QueryContext& ctx,
                 EdgeDirection direction, int max_rounds, uint64_t budget,
                 QueryStats* stats, Collect collect) {
  using Value = typename Program::Value;
  const Manifest& m = ctx.store->manifest();
  const uint32_t p = m.num_intervals;
  const bool use_forward = direction != EdgeDirection::kTranspose;
  const bool use_transpose = direction != EdgeDirection::kForward;
  if (use_transpose && !ctx.store->has_transpose()) {
    return Status::InvalidArgument(
        "batch query needs transpose edges but the store has none");
  }
  DecodeTallies decodes;  // this query's own, all on this thread

  std::vector<uint8_t> active = InitialActivity(program, m);
  std::vector<std::vector<Value>> values(p);
  auto ensure_values = [&](uint32_t i) {
    if (values[i].empty()) {
      InitIntervalValues(program, m, i, *ctx.out_degrees, &values[i]);
    }
  };
  const bool selective =
      ctx.selective && Program::kMonotoneSkippable && m.has_summaries();
  Frontier frontier;
  if (selective) {
    frontier.ResetToAll(m);
    stats->summary_bytes = m.TotalSummaryBytes();
  }
  if constexpr (SeededProgram<Program>) {
    // The seeds are part of the result even if the budget funds no I/O at
    // all (a zero-budget BFS still reports its root at hop 0).
    for (VertexId v : program.SeedVertices()) ensure_values(m.IntervalOf(v));
    if (selective) frontier.Seed(m, program.SeedVertices());
  }

  bool truncated = false;
  bool cancelled = false;
  std::vector<Visit> visits;
  for (int round = 1; max_rounds <= 0 || round <= max_rounds; ++round) {
    const uint32_t r = static_cast<uint32_t>(round);
    if (std::find(active.begin(), active.end(), 1) == active.end()) {
      break;  // nothing active: converged before this round
    }
    if (Checkpoint(ctx, QueryPhase::kPlan, r, 0, 0)) {
      cancelled = true;
      break;
    }
    truncated = !PlanRound(m, active, Program::kMonotoneSkippable,
                           use_forward, use_transpose,
                           selective ? &frontier : nullptr, budget,
                           &stats->bytes_charged, &stats->subshards_skipped,
                           &visits);
    if (visits.empty()) break;  // converged, or nothing left the budget funds

    const std::vector<Load> loads = SplitLoads(m, visits, ctx.max_load_bytes);
    PrefetchStream<std::vector<SubShardCache::Pin>> pins(
        ctx.io_pool, nullptr, ctx.prefetch_depth, ctx.retry, nullptr,
        ctx.cancel);
    for (const Load& load : loads) {
      const Visit first = visits[load.begin];
      std::vector<uint32_t> js;
      js.reserve(load.end - load.begin);
      for (size_t k = load.begin; k < load.end; ++k) js.push_back(visits[k].j);
      pins.Push([cache = ctx.cache, first, js = std::move(js),
                 cancel = ctx.cancel] {
        return cache->GetPinnedRow(first.i, js, first.transpose, cancel);
      });
    }
    std::vector<std::vector<Value>> acc(p);
    auto ensure_acc = [&](uint32_t j) {
      acc[j].assign(m.interval_size(j), Program::Identity());
    };
    if constexpr (!Program::kMonotoneSkippable) {
      for (uint32_t j = 0; j < p; ++j) ensure_acc(j);
    }
    for (const Load& load : loads) {
      const Visit& first = visits[load.begin];
      if (Checkpoint(ctx, QueryPhase::kLoad, r, first.i, first.j)) {
        cancelled = true;
        break;
      }
      Result<std::vector<SubShardCache::Pin>> loaded = pins.Next();
      if (!loaded.ok()) {
        // A load that failed BECAUSE the token fired (cache detach, retry
        // abort, unissued prefetch slot) is a cancellation, not an error:
        // the completed rounds are still a valid deterministic result.
        if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
          cancelled = true;
          break;
        }
        SettleDecodeStats(ctx, decodes, stats);
        return loaded.status();
      }
      ensure_values(first.i);
      for (size_t k = load.begin; k < load.end; ++k) {
        const Visit& v = visits[k];
        SubShardCache::Pin& pin = (*loaded)[k - load.begin];
        Result<SubShard> ss = ctx.store->DecodeVerifiedBlob(
            v.i, v.j, (*pin).data(), (*pin).size(), ctx.decode_path, &decodes);
        pin = SubShardCache::Pin();  // unpin (and free a transient copy)
        if (!ss.ok()) {
          SettleDecodeStats(ctx, decodes, stats);
          return ss.status();
        }
        ++stats->subshards_visited;
        AccumulateSubShard(
            program, *ss, values[v.i].data(), m.interval_begin(v.i),
            m.interval_begin(v.j),
            v.transpose ? *ctx.in_degrees : *ctx.out_degrees, &acc[v.j],
            [&] { ensure_acc(v.j); });
      }
    }
    // The round in flight is discarded WHOLE on cancellation (its
    // accumulators are never applied; `pins` cancels queued loads and
    // drops every pin on destruction) so the surviving values are exactly
    // rounds 1..round-1 — the same contract as a round cap.
    if (cancelled || Checkpoint(ctx, QueryPhase::kApply, r, 0, 0)) {
      cancelled = true;
      break;
    }

    bool any_next = false;
    if (selective) frontier.BeginRound();
    for (uint32_t j = 0; j < p; ++j) {
      active[j] = 0;
      if (Program::kMonotoneSkippable && acc[j].empty()) continue;
      ensure_values(j);
      const VertexId begin = m.interval_begin(j);
      for (uint32_t k = 0; k < values[j].size(); ++k) {
        const Value old = values[j][k];
        const Value next = program.Apply(begin + k, acc[j][k], old);
        if (program.Changed(old, next)) {
          active[j] = 1;
          if (selective) frontier.Add(j, begin + k);
        }
        values[j][k] = next;
      }
      any_next = any_next || active[j];
    }
    if (selective) frontier.Advance();
    stats->iterations = round;
    if (truncated || !any_next) break;
  }

  stats->truncated = !cancelled && truncated;
  if (ctx.progress != nullptr) {
    ctx.progress->Set(QueryPhase::kCollect, 0, 0, 0);
  }
  collect(values);
  SettleDecodeStats(ctx, decodes, stats);
  if (cancelled) {
    stats->cancel_reason = ctx.cancel->reason();
    return ctx.cancel->ToStatus();
  }
  return truncated ? TruncatedStatus(budget) : Status::OK();
}

}  // namespace server_internal

/// \brief Runs a root-seeded point traversal (BFS / SSSP / k-hop) to
/// convergence, the hop cap, or budget exhaustion, and reports the reached
/// vertices sparsely. `max_rounds` caps propagation (BFS: every vertex
/// within max_rounds hops is final); <= 0 runs to convergence.
template <SeededProgram Program>
Outcome<SparseTraversalResult<typename Program::Value>> RunPointTraversal(
    const Program& program, const QueryContext& ctx, int max_rounds,
    uint64_t io_byte_budget) {
  using Value = typename Program::Value;
  Outcome<SparseTraversalResult<Value>> out;
  const Manifest& m = ctx.store->manifest();
  out.status = server_internal::RunRounds(
      program, ctx, EdgeDirection::kForward, max_rounds, io_byte_budget,
      &out.result.stats, [&](const std::vector<std::vector<Value>>& values) {
        const Value dflt = program.DefaultValue();
        for (uint32_t i = 0; i < m.num_intervals; ++i) {
          const VertexId begin = m.interval_begin(i);
          for (uint32_t k = 0; k < values[i].size(); ++k) {
            if (values[i][k] == dflt) continue;
            out.result.vertices.push_back(begin + k);
            out.result.values.push_back(values[i][k]);
          }
        }
      });
  return out;
}

/// \brief Runs a batch-analytics program (the Engine::Run workloads) over
/// the server's SHARED cache instead of a private engine stack, and
/// reports dense per-vertex values. `max_iterations <= 0` runs until every
/// interval goes inactive.
template <VertexProgram Program>
Outcome<BatchResult<typename Program::Value>> RunBatchQuery(
    const Program& program, const QueryContext& ctx, EdgeDirection direction,
    int max_iterations, uint64_t io_byte_budget) {
  using Value = typename Program::Value;
  Outcome<BatchResult<Value>> out;
  const Manifest& m = ctx.store->manifest();
  out.status = server_internal::RunRounds(
      program, ctx, direction, max_iterations, io_byte_budget,
      &out.result.stats, [&](std::vector<std::vector<Value>>& values) {
        out.result.values.reserve(m.num_vertices);
        for (uint32_t i = 0; i < m.num_intervals; ++i) {
          if (values[i].empty()) {
            InitIntervalValues(program, m, i, *ctx.out_degrees, &values[i]);
          }
          out.result.values.insert(out.result.values.end(), values[i].begin(),
                                   values[i].end());
        }
      });
  return out;
}

}  // namespace nxgraph

#endif  // NXGRAPH_SERVER_QUERY_RUNNER_H_
