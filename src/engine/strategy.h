// Update-strategy selection from the memory budget (paper §III-B: "NXgraph
// can adaptively choose the fastest strategy ... according to the graph size
// and the available memory resources").
#ifndef NXGRAPH_ENGINE_STRATEGY_H_
#define NXGRAPH_ENGINE_STRATEGY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/engine/options.h"
#include "src/prep/manifest.h"

namespace nxgraph {

/// \brief Concrete plan chosen for a run.
struct StrategyDecision {
  UpdateStrategy strategy = UpdateStrategy::kSinglePhase;
  /// Number of memory-resident (ping-pong) intervals, Q. Q == P for SPU,
  /// Q == 0 for DPU.
  uint32_t resident_intervals = 0;
  /// Leftover budget for caching decoded sub-shards in memory (after the
  /// prefetch window has been funded).
  uint64_t subshard_cache_budget = 0;
  /// Effective prefetch window: the requested RunOptions::prefetch_depth
  /// clamped to what the budget can fund (see prefetch_buffer_bytes).
  uint32_t prefetch_depth = 0;
  /// Transient bytes the prefetch window may hold in flight:
  /// prefetch_depth * PrefetchSlotBytes(). The first window slot rides in
  /// the synchronous loader's pre-existing working-set allowance; every
  /// deeper slot is carved out of subshard_cache_budget — but only from
  /// the surplus beyond what the cache needs to pin the whole graph, so
  /// funding the window can neither exceed the paper's memory model nor
  /// demote a fully-cached run into stream mode.
  uint64_t prefetch_buffer_bytes = 0;
  /// Effective write-behind budget: RunOptions::writeback_buffer_bytes
  /// clamped to what the cache leftover can fund after the prefetch window
  /// is paid for. Funding follows the same rule as the read window: when
  /// the leftover can pin the whole decoded graph, only the surplus beyond
  /// that pin is spent — funding write buffers never demotes a fully
  /// cached run into stream mode. 0 when the run has no out-of-core
  /// writes (Q == P) or write-behind is disabled.
  uint64_t writeback_buffer_bytes = 0;
  /// io_model prediction of a FULLY-ACTIVE iteration's read bytes under the
  /// chosen strategy (IoModelParams::active_fraction == 1) — surfaced in
  /// RunStats so measured per-iteration bytes can be compared against the
  /// model; with selective scheduling the measured tail iterations should
  /// undercut this by roughly the frontier's activity fraction.
  uint64_t model_bytes_per_iteration = 0;
  /// Human-readable name ("SPU", "DPU", "MPU(Q=3/16)").
  std::string name;
};

/// Picks the strategy per the paper's rules:
///  - vertex state costs 2 * n * value_bytes (ping-pong copies);
///  - fits in budget (or budget unlimited) => SPU, leftover caches shards;
///  - otherwise Q = floor(BM / (2 n Ba) * P); Q == 0 => DPU, else MPU.
/// A forced strategy in `options.strategy` is honored; the budget then only
/// sizes Q and the cache. Finally the prefetch window (options.prefetch_depth)
/// is funded from the cache leftover as described on StrategyDecision.
StrategyDecision ChooseStrategy(const Manifest& manifest, uint32_t value_bytes,
                                uint64_t fixed_overhead_bytes,
                                const RunOptions& options);

/// Largest encoded sub-shard row over the directions `direction` reads:
/// the raw bytes one whole-row disk read moves, and the raw half of a
/// prefetch slot. Hub read runs and Phase B's write groups are capped at
/// this size.
uint64_t MaxRowBytes(const Manifest& manifest, EdgeDirection direction);

/// Largest decoded sub-shard row over the directions `direction` reads:
/// the decoded half of a prefetch slot.
uint64_t MaxRowDecodedBytes(const Manifest& manifest, EdgeDirection direction);

/// Bytes a run of reads or writes moves (`raw`) and holds once decoded
/// (`decoded`; 0 for hubs, which are never decoded).
struct RunBytes {
  uint64_t raw = 0;
  uint64_t decoded = 0;
};

/// The two halves of one prefetch slot's row: {MaxRowBytes,
/// MaxRowDecodedBytes}. Every grouped disk access the engine makes is
/// capped at it.
RunBytes RowCap(const Manifest& manifest, EdgeDirection direction);

/// The one byte-capped splitter behind hub read runs, Phase B's write
/// groups and stream-mode Phase C's column groups. Cuts [lo, hi) greedily,
/// in ascending order, into consecutive runs, closing a run before the
/// item whose bytes (`bytes(k)`, a RunBytes) would take either of its
/// totals past `cap`. An item over the cap on its own forms a run by
/// itself.
template <typename Bytes>
std::vector<std::pair<uint32_t, uint32_t>> SplitByBytes(uint32_t lo,
                                                        uint32_t hi,
                                                        RunBytes cap,
                                                        Bytes bytes) {
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  uint32_t begin = lo;
  RunBytes total;
  for (uint32_t k = lo; k < hi; ++k) {
    const RunBytes b = bytes(k);
    if (k > begin && (total.raw + b.raw > cap.raw ||
                      total.decoded + b.decoded > cap.decoded)) {
      runs.emplace_back(begin, k);
      begin = k;
      total = RunBytes{};
    }
    total.raw += b.raw;
    total.decoded += b.decoded;
  }
  if (begin < hi) runs.emplace_back(begin, hi);
  return runs;
}

/// Hub bytes of disk row i (i >= q): the capacities of its hub segments
/// (i, j), j >= q, summed over the directions `direction` reads — the
/// cost of the row in Phase B's write groups.
uint64_t HubRowBytes(const Manifest& manifest, uint32_t value_bytes,
                     EdgeDirection direction, uint32_t q, uint32_t i);

/// Largest single payload a run with q resident intervals hands the
/// write-behind queue: a write run of hubs (i_begin..i_end-1, j), which
/// Phase B's write groups bound, or a disk interval's value segment. A
/// write-behind budget below it is not funded.
uint64_t MaxWritePayloadBytes(const Manifest& manifest, uint32_t value_bytes,
                              EdgeDirection direction, uint32_t q);

/// Peak transient bytes one prefetch window slot can hold: a sub-shard
/// row's raw and decoded form coexisting during the decode stage, plus the
/// interval value segment the phase's side stream keeps in flight at the
/// same position.
uint64_t PrefetchSlotBytes(const Manifest& manifest, uint32_t value_bytes,
                           EdgeDirection direction);

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_STRATEGY_H_
