#include "src/engine/iteration_plan.h"

#include <algorithm>

#include "src/storage/hub_file.h"
#include "src/storage/interval_store.h"

namespace nxgraph {

namespace {

using Runs = std::vector<std::pair<uint32_t, uint32_t>>;

// Maximal [begin, end) runs of the k in [lo, hi) that `take` accepts: the
// hub-run and write-group rules. (Row runs also bridge empty blobs; that
// rule is the manifest's RowRuns.)
template <typename Take>
Runs MaximalRuns(uint32_t lo, uint32_t hi, Take take) {
  Runs runs;
  for (uint32_t k = lo; k < hi; ++k) {
    if (!take(k)) continue;
    if (!runs.empty() && runs.back().second == k) {
      runs.back().second = k + 1;
    } else {
      runs.emplace_back(k, k + 1);
    }
  }
  return runs;
}

template <typename T>
void Append(std::vector<T>* to, std::vector<T>&& from) {
  to->insert(to->end(), std::make_move_iterator(from.begin()),
             std::make_move_iterator(from.end()));
}

using DiskRow = IterationPlan::DiskRow;
using WriteGroup = IterationPlan::WriteGroup;
using DiskColumn = IterationPlan::DiskColumn;
using ColumnGroup = IterationPlan::ColumnGroup;

// One iteration's planner: BuildIterationPlan's inputs, the run's read
// directions and row cap, and the hub and interval files' layouts.
struct Planner {
  const Manifest& m;
  const PlanConfig& c;
  const std::vector<uint8_t>& planned;
  const std::vector<uint8_t>& held;
  const std::vector<int>& parity;
  uint32_t p;
  std::vector<bool> dirs;
  RunBytes cap;
  std::vector<uint64_t> intervals;  // IntervalStore::SegmentOffsets
  HubLayout layout;
  std::vector<std::pair<uint32_t, uint32_t>> order;  // hubs in file order
  std::vector<std::vector<uint64_t>> hubs;  // HubFile::SegmentOffsets by dir

  bool Planned(uint32_t i, uint32_t j, bool t) const {
    return planned[PlanGridIndex(p, i, j, t)] != 0;
  }
  bool Held(uint32_t i, uint32_t j, bool t) const {
    return !held.empty() && held[PlanGridIndex(p, i, j, t)] != 0;
  }

  // Row i's shard reads within columns [jb, je): the manifest's row runs
  // of every planned blob not already held.
  std::vector<PlannedAccess> ShardRuns(uint32_t i, bool t, uint32_t jb,
                                       uint32_t je) const {
    std::vector<PlannedAccess> runs;
    for (auto [b, e] : RowRuns(m, i, t, jb, je, [&](uint32_t j) {
           return Planned(i, j, t) && !Held(i, j, t);
         })) {
      const SubShardMeta& first = m.subshard(i, b, t);
      const SubShardMeta& last = m.subshard(i, e - 1, t);
      runs.push_back({PlanFile::kShards, t, false, i, i + 1, b, e,
                      first.offset, last.offset + last.size - first.offset});
    }
    return runs;
  }

  // Interval k's latest values, or the segment its new ones go to.
  PlannedAccess Interval(uint32_t k, bool write) const {
    const int to = write ? 1 - parity[k] : parity[k];
    return {PlanFile::kIntervals, false, write, k, k + 1, 0, 0,
            intervals[k] + static_cast<uint64_t>(to) * intervals[p],
            intervals[k + 1] - intervals[k]};
  }

  // Slots [b, e) of direction d's hub file.
  PlannedAccess HubRun(size_t d, uint32_t b, uint32_t e, bool write) const {
    const auto [ib, jb] = order[b];
    const auto [il, jl] = order[e - 1];
    return {PlanFile::kHubs, static_cast<bool>(dirs[d]), write, ib, il + 1,
            jb, jl + 1, hubs[d][b], hubs[d][e] - hubs[d][b]};
  }

  // The slots of the hubs (rows [rb, re), columns [cb, ce)) — a tile, or a
  // column group's tiles over rows that start and end a row group — as
  // the maximal runs of hubs written this iteration: Phase B writes the
  // hub of every planned disk-block blob (planned blobs are nonempty) and
  // no other.
  Runs WrittenHubRuns(size_t d, uint32_t rb, uint32_t re, uint32_t cb,
                      uint32_t ce) const {
    return MaximalRuns(
        static_cast<uint32_t>(layout.Slot(rb, cb)),
        static_cast<uint32_t>(layout.Slot(re - 1, ce - 1) + 1),
        [&](uint32_t s) {
          return Planned(order[s].first, order[s].second, dirs[d]);
        });
  }

  // Streaming reads the resident block, columns < Q; the cached load step
  // reads every column, so Phase C finds its resident-row blobs held.
  std::vector<PlannedAccess> PhaseA() const {
    std::vector<PlannedAccess> runs;
    for (bool t : dirs) {
      for (uint32_t i = 0; i < c.q; ++i) {
        Append(&runs, ShardRuns(i, t, 0, c.stream_mode ? c.q : p));
      }
    }
    return runs;
  }

  // A write group is a row group's scheduled rows with their runs; a row
  // where every direction planned nothing is dropped (its source values
  // are not even read). Its writes go tile by tile.
  std::vector<WriteGroup> PhaseB() const {
    std::vector<WriteGroup> groups;
    for (auto [rb, re] : layout.row_groups) {
      WriteGroup group;
      for (uint32_t i = rb; i < re; ++i) {
        DiskRow row{Interval(i, false), {}};
        for (bool t : dirs) Append(&row.runs, ShardRuns(i, t, 0, p));
        if (!row.runs.empty()) group.rows.push_back(std::move(row));
      }
      if (group.rows.empty()) continue;
      for (size_t d = 0; d < dirs.size(); ++d) {
        for (auto [cb, ce] : layout.column_groups) {
          for (auto [b, e] : WrittenHubRuns(d, rb, re, cb, ce)) {
            group.writes.push_back(HubRun(d, b, e, /*write=*/true));
          }
        }
      }
      groups.push_back(std::move(group));
    }
    return groups;
  }

  std::vector<ColumnGroup> PhaseC() const {
    std::vector<ColumnGroup> groups;
    for (auto [cb, ce] : layout.column_groups) {
      ColumnGroup group{cb, ce, {}, {}};
      for (uint32_t j = cb; j < ce; ++j) {
        bool work = !c.selective;
        for (uint32_t i = 0; i < p && !work; ++i) {
          for (bool t : dirs) work = work || Planned(i, j, t);
        }
        if (work) {
          group.columns.push_back({j, Interval(j, false), Interval(j, true)});
        }
      }
      if (group.columns.empty()) continue;
      for (size_t d = 0; d < dirs.size(); ++d) {
        ColumnGroup::Direction dir;
        for (uint32_t i = 0; i < c.q; ++i) {
          if (c.stream_mode) {
            Append(&dir.row_runs, ShardRuns(i, dirs[d], cb, ce));
            continue;
          }
          for (uint32_t j = cb; j < ce; ++j) {
            if (Planned(i, j, dirs[d])) {
              dir.rows.push_back(i);
              break;
            }
          }
        }
        for (auto [rb, re] : WrittenHubRuns(d, c.q, p, cb, ce)) {
          for (auto [sb, se] : SplitByBytes(rb, re, cap, [&](uint32_t s) {
                 return RunBytes{hubs[d][s + 1] - hubs[d][s], 0};
               })) {
            dir.hub_reads.push_back(HubRun(d, sb, se, /*write=*/false));
          }
        }
        group.directions.push_back(std::move(dir));
      }
      groups.push_back(std::move(group));
    }
    return groups;
  }
};

}  // namespace

std::vector<PlannedAccess> IterationPlan::Accesses() const {
  std::vector<PlannedAccess> out(phase_a);
  for (const WriteGroup& group : phase_b) {
    for (const DiskRow& row : group.rows) {
      out.push_back(row.values);
      out.insert(out.end(), row.runs.begin(), row.runs.end());
    }
    out.insert(out.end(), group.writes.begin(), group.writes.end());
  }
  for (const ColumnGroup& group : phase_c) {
    for (const ColumnGroup::Direction& dir : group.directions) {
      out.insert(out.end(), dir.row_runs.begin(), dir.row_runs.end());
      out.insert(out.end(), dir.hub_reads.begin(), dir.hub_reads.end());
    }
    for (const DiskColumn& col : group.columns) {
      out.push_back(col.old_values);
      out.push_back(col.write_back);
    }
  }
  return out;
}

std::vector<bool> ReadDirections(const Manifest& manifest,
                                 EdgeDirection direction) {
  std::vector<bool> dirs;
  if (direction != EdgeDirection::kTranspose) dirs.push_back(false);
  if (direction != EdgeDirection::kForward && manifest.has_transpose) {
    dirs.push_back(true);
  }
  return dirs;
}

HubLayout PlanHubLayout(const Manifest& manifest, const PlanConfig& config) {
  const uint32_t p = manifest.num_intervals;
  const RunBytes cap = RowCap(manifest, config.direction);
  HubLayout layout;
  layout.row_groups = SplitByBytes(config.q, p, cap, [&](uint32_t i) {
    return RunBytes{HubRowBytes(manifest, config.value_bytes, config.direction,
                                config.q, i),
                    0};
  });
  const std::vector<bool> dirs = ReadDirections(manifest, config.direction);
  layout.column_groups = SplitByBytes(config.q, p, cap, [&](uint32_t j) {
    // The column's accumulator and its largest resident-row blob, decoded.
    uint64_t blob = 0;
    for (uint32_t i = 0; config.stream_mode && i < config.q; ++i) {
      for (bool t : dirs) {
        blob = std::max(
            blob, manifest.subshard(i, j, t).DecodedBytes(manifest.weighted));
      }
    }
    return RunBytes{
        0, uint64_t{manifest.interval_size(j)} * config.value_bytes + blob};
  });
  return layout;
}

IterationPlan BuildIterationPlan(const Manifest& manifest,
                                 const PlanConfig& config,
                                 const std::vector<uint8_t>& planned,
                                 const std::vector<uint8_t>& held,
                                 const std::vector<int>& parity) {
  Planner planner{manifest,
                  config,
                  planned,
                  held,
                  parity,
                  manifest.num_intervals,
                  ReadDirections(manifest, config.direction),
                  RowCap(manifest, config.direction),
                  IntervalStore::SegmentOffsets(manifest, config.value_bytes),
                  {},
                  {},
                  {}};
  IterationPlan plan;
  plan.phase_a = planner.PhaseA();
  if (config.q < manifest.num_intervals) {
    planner.layout = PlanHubLayout(manifest, config);
    planner.order = planner.layout.Order();
    for (bool t : planner.dirs) {
      planner.hubs.push_back(HubFile::SegmentOffsets(
          manifest, planner.layout, config.value_bytes, t));
    }
    plan.phase_b = planner.PhaseB();
    plan.phase_c = planner.PhaseC();
  }
  return plan;
}

// Raw and decoded sizes are separate maxima: with a compressed blob
// format (NXS2) the raw row is much smaller than its decoded footprint, so
// smaller raw slots leave more budget for deeper windows.
RunBytes RowCap(const Manifest& manifest, EdgeDirection direction) {
  RunBytes cap;
  for (bool t : ReadDirections(manifest, direction)) {
    for (uint32_t i = 0; i < manifest.num_intervals; ++i) {
      RunBytes row;
      for (uint32_t j = 0; j < manifest.num_intervals; ++j) {
        const SubShardMeta& meta = manifest.subshard(i, j, t);
        row.raw += meta.size;
        row.decoded += meta.DecodedBytes(manifest.weighted);
      }
      cap.raw = std::max(cap.raw, row.raw);
      cap.decoded = std::max(cap.decoded, row.decoded);
    }
  }
  return cap;
}

Runs SplitByBytes(uint32_t lo, uint32_t hi, RunBytes cap,
                  const std::function<RunBytes(uint32_t)>& bytes) {
  Runs runs;
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

uint64_t HubRowBytes(const Manifest& manifest, uint32_t value_bytes,
                     EdgeDirection direction, uint32_t q, uint32_t i) {
  uint64_t bytes = 0;
  for (bool t : ReadDirections(manifest, direction)) {
    for (uint32_t j = q; j < manifest.num_intervals; ++j) {
      bytes += HubFile::SegmentBytes(manifest.subshard(i, j, t).num_dsts,
                                     manifest.interval_size(j), value_bytes);
    }
  }
  return bytes;
}

// A write run lies inside one tile, so the largest is a whole tile.
uint64_t MaxWritePayloadBytes(const Manifest& manifest,
                              const PlanConfig& config) {
  const uint32_t p = manifest.num_intervals;
  uint64_t max_payload = 0;
  if (config.q < p) {
    const HubLayout layout = PlanHubLayout(manifest, config);
    for (bool t : ReadDirections(manifest, config.direction)) {
      const std::vector<uint64_t> hubs =
          HubFile::SegmentOffsets(manifest, layout, config.value_bytes, t);
      for (auto [rb, re] : layout.row_groups) {
        for (auto [cb, ce] : layout.column_groups) {
          max_payload = std::max(max_payload,
                                 hubs[layout.Slot(re - 1, ce - 1) + 1] -
                                     hubs[layout.Slot(rb, cb)]);
        }
      }
    }
  }
  for (uint32_t i = config.q; i < p; ++i) {
    max_payload = std::max<uint64_t>(
        max_payload,
        static_cast<uint64_t>(manifest.interval_size(i)) * config.value_bytes +
            IntervalStore::kChecksumBytes);
  }
  return max_payload;
}

}  // namespace nxgraph
