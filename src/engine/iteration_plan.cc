#include "src/engine/iteration_plan.h"

#include <algorithm>

#include "src/storage/hub_file.h"
#include "src/storage/interval_store.h"
#include "src/util/logging.h"

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
  std::vector<uint64_t> intervals;        // IntervalStore::SegmentOffsets
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
    const uint64_t stored = (intervals[k + 1] - intervals[k]) / 2;
    const int to = write ? 1 - parity[k] : parity[k];
    return {PlanFile::kIntervals, false, write, k, k + 1, 0, 0,
            intervals[k] + static_cast<uint64_t>(to) * stored, stored};
  }

  // Hubs (ib..ie-1, j) of direction d: consecutive segments of the
  // column-major hub file.
  size_t Segment(uint32_t i, uint32_t j) const {
    return static_cast<size_t>(j - c.q) * (p - c.q) + (i - c.q);
  }
  PlannedAccess HubRun(size_t d, uint32_t ib, uint32_t ie, uint32_t j,
                       bool write) const {
    const uint64_t begin = hubs[d][Segment(ib, j)];
    return {PlanFile::kHubs, static_cast<bool>(dirs[d]), write, ib, ie, j,
            j + 1, begin, hubs[d][Segment(ie - 1, j) + 1] - begin};
  }

  // Rows [ib, ie) of column j's hubs in direction d, as the maximal runs
  // of hubs written this iteration: Phase B writes the hub of every planned
  // disk-block blob (planned blobs are nonempty) and no other.
  Runs WrittenHubRuns(size_t d, uint32_t j, uint32_t ib, uint32_t ie) const {
    return MaximalRuns(ib, ie,
                       [&](uint32_t i) { return Planned(i, j, dirs[d]); });
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

  // Disk rows with their runs, then write groups: runs of consecutive
  // scheduled rows cut where their hubs would outgrow one raw row, the cap
  // hub reads have too; a row over the cap on its own is a group of one.
  // A row where every direction planned nothing is dropped (its source
  // values are not even read) and ends a group.
  std::vector<WriteGroup> PhaseB() const {
    std::vector<DiskRow> rows(p);  // by row; a dropped row has no runs
    for (uint32_t i = c.q; i < p; ++i) {
      rows[i].values = Interval(i, false);
      for (bool t : dirs) Append(&rows[i].runs, ShardRuns(i, t, 0, p));
    }
    const auto row_bytes = [&](uint32_t i) {
      return HubRowBytes(m, c.value_bytes, c.direction, c.q, i);
    };
    std::vector<WriteGroup> groups;
    for (auto [rb, re] : MaximalRuns(c.q, p, [&](uint32_t i) {
           return !rows[i].runs.empty();
         })) {
      for (auto [gb, ge] : SplitByBytes(rb, re, cap, [&](uint32_t i) {
             return RunBytes{row_bytes(i), 0};
           })) {
        WriteGroup group;
        for (uint32_t i = gb; i < ge; ++i) {
          group.rows.push_back(std::move(rows[i]));
        }
        for (size_t d = 0; d < dirs.size(); ++d) {
          for (uint32_t j = c.q; j < p; ++j) {
            for (auto [ib, ie] : WrittenHubRuns(d, j, gb, ge)) {
              group.writes.push_back(HubRun(d, ib, ie, j, /*write=*/true));
            }
          }
        }
        groups.push_back(std::move(group));
      }
    }
    return groups;
  }

  std::vector<ColumnGroup> PhaseC() const {
    std::vector<DiskColumn> columns;
    for (uint32_t j = c.q; j < p; ++j) {
      DiskColumn col;
      col.j = j;
      bool any_work = !c.selective;
      for (size_t d = 0; d < dirs.size(); ++d) {
        DiskColumn::Direction dir;
        for (uint32_t i = 0; i < c.q; ++i) {
          if (Planned(i, j, dirs[d])) dir.rows.push_back(i);
        }
        for (auto [ib, ie] : WrittenHubRuns(d, j, c.q, p)) {
          for (auto [sb, se] : SplitByBytes(ib, ie, cap, [&](uint32_t i) {
                 return RunBytes{HubRun(d, i, i + 1, j, false).length, 0};
               })) {
            dir.hub_reads.push_back(HubRun(d, sb, se, j, /*write=*/false));
          }
        }
        any_work = any_work || !dir.rows.empty() || !dir.hub_reads.empty();
        col.directions.push_back(std::move(dir));
      }
      col.old_values = Interval(j, false);
      col.write_back = Interval(j, true);
      if (any_work) columns.push_back(std::move(col));
    }
    if (columns.empty()) return {};
    if (!c.stream_mode) {
      const uint32_t j_begin = columns.front().j, j_end = columns.back().j + 1;
      return {ColumnGroup{j_begin, j_end, std::move(columns)}};
    }

    // Stream mode: runs of consecutive columns whose planned resident-row
    // blobs fit one row read, raw and decoded — the two halves of a
    // prefetch slot — read as one row run per (direction, resident row)
    // where the plan allows, each taken at the column where it starts.
    const Runs spans = SplitByBytes(
        0, static_cast<uint32_t>(columns.size()), cap, [&](uint32_t k) {
          RunBytes b;
          for (size_t d = 0; d < dirs.size(); ++d) {
            for (uint32_t i : columns[k].directions[d].rows) {
              const SubShardMeta& meta = m.subshard(i, columns[k].j, dirs[d]);
              b.raw += meta.size;
              b.decoded += meta.DecodedBytes(m.weighted);
            }
          }
          return b;
        });
    std::vector<ColumnGroup> groups;
    for (auto [cb, ce] : spans) {
      ColumnGroup group{columns[cb].j, columns[ce - 1].j + 1, {}};
      for (uint32_t k = cb; k < ce; ++k) {
        group.columns.push_back(std::move(columns[k]));
      }
      for (size_t d = 0; d < dirs.size(); ++d) {
        for (uint32_t i = 0; i < c.q; ++i) {
          for (const PlannedAccess& run :
               ShardRuns(i, dirs[d], group.j_begin, group.j_end)) {
            // A run starts at a planned blob, so its column has work.
            auto col = std::find_if(
                group.columns.begin(), group.columns.end(),
                [&](const DiskColumn& dc) { return dc.j == run.j_begin; });
            NX_CHECK(col != group.columns.end());
            col->directions[d].row_runs.push_back(run);
          }
        }
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
    for (const DiskColumn& col : group.columns) {
      for (const DiskColumn::Direction& dir : col.directions) {
        out.insert(out.end(), dir.row_runs.begin(), dir.row_runs.end());
        out.insert(out.end(), dir.hub_reads.begin(), dir.hub_reads.end());
      }
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
                  {}};
  IterationPlan plan;
  plan.phase_a = planner.PhaseA();
  if (config.q < manifest.num_intervals) {
    for (bool t : planner.dirs) {
      planner.hubs.push_back(HubFile::SegmentOffsets(
          manifest, config.q, config.value_bytes, t));
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

// A write run lies inside one write group, and a group that starts at row
// s ends where SplitByBytes closes its first run from s; gaps in the
// schedule can start a group at any disk row, so every start is tried.
// Spans only grow as a group grows, so the largest run of each start is
// its whole group's column, read off the hub file's layout.
uint64_t MaxWritePayloadBytes(const Manifest& manifest, uint32_t value_bytes,
                              EdgeDirection direction, uint32_t q) {
  const uint32_t p = manifest.num_intervals;
  const RunBytes cap = RowCap(manifest, direction);
  std::vector<uint64_t> row_bytes(p, 0);
  for (uint32_t i = q; i < p; ++i) {
    row_bytes[i] = HubRowBytes(manifest, value_bytes, direction, q, i);
  }
  std::vector<uint32_t> group_end(p, p);
  for (uint32_t s = q; s < p; ++s) {
    group_end[s] = SplitByBytes(s, p, cap, [&](uint32_t i) {
                     return RunBytes{row_bytes[i], 0};
                   }).front().second;
  }
  uint64_t max_payload = 0;
  for (bool t : ReadDirections(manifest, direction)) {
    const std::vector<uint64_t> hubs =
        HubFile::SegmentOffsets(manifest, q, value_bytes, t);
    for (uint32_t j = q; j < p; ++j) {
      for (uint32_t s = q; s < p; ++s) {
        const size_t first = static_cast<size_t>(j - q) * (p - q) + (s - q);
        max_payload = std::max(max_payload,
                               hubs[first + (group_end[s] - s)] - hubs[first]);
      }
    }
  }
  for (uint32_t i = q; i < p; ++i) {
    max_payload = std::max<uint64_t>(
        max_payload,
        static_cast<uint64_t>(manifest.interval_size(i)) * value_bytes);
  }
  return max_payload;
}

}  // namespace nxgraph
