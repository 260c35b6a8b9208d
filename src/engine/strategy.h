// Update-strategy selection from the memory budget (paper §III-B: "NXgraph
// can adaptively choose the fastest strategy ... according to the graph size
// and the available memory resources").
#ifndef NXGRAPH_ENGINE_STRATEGY_H_
#define NXGRAPH_ENGINE_STRATEGY_H_

#include <cstdint>
#include <string>

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
  /// The leftover cannot hold every blob the run reads, decoded: each
  /// iteration reads the blobs it plans and holds none. Otherwise the
  /// resident rows' blobs are held once read.
  bool stream_mode = false;
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
  /// chosen strategy and Q (IoModelParams::active_fraction == 1; MPU's
  /// in-memory fraction is Q / P) — surfaced in
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

/// Peak transient bytes one prefetch window slot can hold: a sub-shard
/// row's raw and decoded form coexisting during the decode stage, plus the
/// interval value segment the phase's side stream keeps in flight at the
/// same position.
uint64_t PrefetchSlotBytes(const Manifest& manifest, uint32_t value_bytes,
                           EdgeDirection direction);

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_STRATEGY_H_
