#include "src/engine/strategy.h"

#include <algorithm>

#include "src/engine/io_model.h"
#include "src/engine/iteration_plan.h"

namespace nxgraph {

namespace {

std::string MpuName(uint32_t q, uint32_t p) {
  return "MPU(Q=" + std::to_string(q) + "/" + std::to_string(p) + ")";
}

// Decoded footprint of every sub-shard this run will read — what a cached
// engine run would hold (SubShard::MemoryBytes) with the whole graph
// decoded.
uint64_t TotalShardBytes(const Manifest& manifest, EdgeDirection direction) {
  uint64_t total = 0;
  for (bool t : ReadDirections(manifest, direction)) {
    total += manifest.TotalDecodedSubShardBytes(t);
  }
  return total;
}

}  // namespace

uint64_t PrefetchSlotBytes(const Manifest& manifest, uint32_t value_bytes,
                           EdgeDirection direction) {
  // One window slot at its peak holds a row's raw bytes and its decoded
  // sub-shards simultaneously (the decode stage overlaps the two), plus the
  // phase's side stream may hold an interval value segment in the same
  // slot position (Phase B pairs every row with its source values; Phase C
  // pairs each column with its write-back values). Raw and decoded sizes
  // come from the manifest separately: with a compressed blob format the
  // raw half of the slot shrinks, so the same budget funds deeper windows.
  uint64_t max_segment = 0;
  for (uint32_t i = 0; i < manifest.num_intervals; ++i) {
    max_segment = std::max<uint64_t>(
        max_segment,
        static_cast<uint64_t>(manifest.interval_size(i)) * value_bytes);
  }
  const RunBytes row = RowCap(manifest, direction);
  return row.raw + row.decoded + max_segment;
}

StrategyDecision ChooseStrategy(const Manifest& manifest, uint32_t value_bytes,
                                uint64_t fixed_overhead_bytes,
                                const RunOptions& options) {
  const uint32_t p = manifest.num_intervals;
  const uint64_t n = manifest.num_vertices;
  const uint64_t full_state = 2ULL * n * value_bytes;  // ping-pong copies

  StrategyDecision d;
  const bool unlimited = options.memory_budget_bytes == 0;
  const uint64_t budget = options.memory_budget_bytes;
  const uint64_t avail =
      unlimited ? UINT64_MAX
                : (budget > fixed_overhead_bytes ? budget - fixed_overhead_bytes
                                                 : 0);

  // Q from the paper's formula: Q <= BM / (2 n Ba) * P.
  uint32_t q_budget;
  if (unlimited || avail >= full_state) {
    q_budget = p;
  } else {
    q_budget = static_cast<uint32_t>(
        static_cast<double>(avail) / static_cast<double>(full_state) * p);
    q_budget = std::min(q_budget, p);
  }

  switch (options.strategy) {
    case UpdateStrategy::kSinglePhase:
      d.strategy = UpdateStrategy::kSinglePhase;
      d.resident_intervals = p;
      d.name = "SPU";
      break;
    case UpdateStrategy::kDoublePhase:
      d.strategy = UpdateStrategy::kDoublePhase;
      d.resident_intervals = 0;
      d.name = "DPU";
      break;
    case UpdateStrategy::kMixedPhase:
      d.strategy = UpdateStrategy::kMixedPhase;
      d.resident_intervals = q_budget;
      d.name = MpuName(q_budget, p);
      break;
    case UpdateStrategy::kAuto:
      if (q_budget == p) {
        d.strategy = UpdateStrategy::kSinglePhase;
        d.resident_intervals = p;
        d.name = "SPU";
      } else if (q_budget == 0) {
        d.strategy = UpdateStrategy::kDoublePhase;
        d.resident_intervals = 0;
        d.name = "DPU";
      } else {
        d.strategy = UpdateStrategy::kMixedPhase;
        d.resident_intervals = q_budget;
        d.name = MpuName(q_budget, p);
      }
      break;
  }

  // Whatever is left after resident vertex state caches sub-shards
  // ("it is more efficient to store intervals in memory than sub-shards",
  // §III-B1 — intervals claim budget first).
  uint64_t resident_state = 0;
  for (uint32_t i = 0; i < d.resident_intervals; ++i) {
    resident_state += 2ULL * manifest.interval_size(i) * value_bytes;
  }
  d.subshard_cache_budget =
      unlimited ? UINT64_MAX : (avail > resident_state ? avail - resident_state : 0);

  // Cache leftover fundable for the I/O windows without demoting a cached
  // run: when the leftover is big enough to hold the whole graph decoded
  // (the engine holds every blob it reads and re-reads none), only the
  // surplus beyond that is up for grabs. Shared by the prefetch and
  // writeback funding below so the two windows obey one rule.
  const uint64_t total_shards = TotalShardBytes(manifest, options.direction);
  auto fundable = [&d, total_shards] {
    return d.subshard_cache_budget >= total_shards
               ? d.subshard_cache_budget - total_shards
               : d.subshard_cache_budget;
  };

  // Fund the prefetch window first: one slot rides in the synchronous
  // loader's transient-row allowance, each deeper slot is paid for out of
  // the cache leftover so the window stays inside the memory model.
  const uint32_t requested =
      options.prefetch_depth > 0 ? static_cast<uint32_t>(options.prefetch_depth)
                                 : 0;
  const uint64_t slot_bytes =
      PrefetchSlotBytes(manifest, value_bytes, options.direction);
  // No edge data to read ahead (empty shard tables) => the window is free.
  const bool no_row_data = RowCap(manifest, options.direction).raw == 0;
  if (requested == 0) {
    d.prefetch_depth = 0;
    d.prefetch_buffer_bytes = 0;
  } else if (unlimited || no_row_data || slot_bytes == 0) {
    d.prefetch_depth = requested;
    d.prefetch_buffer_bytes = requested * slot_bytes;
  } else {
    const uint64_t funded_slots =
        std::min<uint64_t>(requested - 1, fundable() / slot_bytes);
    d.prefetch_depth = 1 + static_cast<uint32_t>(funded_slots);
    d.prefetch_buffer_bytes = d.prefetch_depth * slot_bytes;
    d.subshard_cache_budget -= funded_slots * slot_bytes;
  }

  // Fund the write-behind buffer the same way, after the read window: a
  // fully resident run (Q == P) performs no out-of-core writes, so it gets
  // no write buffer and pays nothing; otherwise the requested budget is
  // clamped to what is still fundable after the prefetch spend.
  const uint64_t wb_requested = options.writeback_buffer_bytes;
  if (wb_requested == 0 || d.resident_intervals == p) {
    d.writeback_buffer_bytes = 0;
  } else if (unlimited) {
    d.writeback_buffer_bytes = wb_requested;
  } else {
    uint64_t funded = std::min(wb_requested, fundable());
    // Floor: a window too small for the largest single payload (a hub
    // write run or an interval segment) degrades to serialized oversized
    // admissions — synchronous writes plus queue overhead — so fall back
    // to plain synchronous mode instead. The payloads follow the hub
    // layout of the mode the funded window leaves; a window that is not
    // funded writes nothing behind, whatever mode the run then takes.
    const PlanConfig config{
        d.resident_intervals, value_bytes, options.direction,
        /*stream_mode=*/d.subshard_cache_budget - funded < total_shards};
    if (funded < MaxWritePayloadBytes(manifest, config)) funded = 0;
    d.writeback_buffer_bytes = funded;
    d.subshard_cache_budget -= funded;
  }

  d.stream_mode = d.subshard_cache_budget < total_shards;

  // Model prediction for a fully-active iteration's reads under the chosen
  // strategy (measured Be/d from this manifest), reported so runs can
  // compare it against measured bytes — selective scheduling shows up as
  // tail iterations undercutting this number.
  {
    IoModelParams mp =
        MakeIoModelParams(manifest, value_bytes, options.memory_budget_bytes);
    IoCost cost;
    switch (d.strategy) {
      case UpdateStrategy::kSinglePhase:
        cost = SpuIoCost(mp);
        break;
      case UpdateStrategy::kDoublePhase:
        cost = DpuIoCost(mp);
        break;
      default:
        // At the Q this run uses: the in-memory fraction BM / (2 n Ba) is
        // Q / P. The budget would overstate it, since it also pays for the
        // degree tables.
        mp.BM = 2.0 * mp.n * mp.Ba * d.resident_intervals / mp.P;
        cost = MpuIoCost(mp);
        break;
    }
    d.model_bytes_per_iteration = static_cast<uint64_t>(cost.read_bytes);
  }
  return d;
}

}  // namespace nxgraph
