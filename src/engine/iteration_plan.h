// One iteration's device accesses as data. SPU, DPU and MPU differ only in
// which interval, sub-shard and hub accesses an iteration makes (paper
// §III-B, §III-C), and Table II prices each strategy by exactly those
// bytes. BuildIterationPlan decides them before any phase runs; the
// engine's phases execute the plan, and tests compare an Env's log with it.
#ifndef NXGRAPH_ENGINE_ITERATION_PLAN_H_
#define NXGRAPH_ENGINE_ITERATION_PLAN_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/engine/options.h"
#include "src/prep/manifest.h"
#include "src/storage/hub_file.h"

namespace nxgraph {

/// The engine files an iteration reads and writes.
enum class PlanFile : uint8_t {
  kShards,     ///< the store's subshards.nxs / subshards_t.nxs
  kHubs,       ///< the run's hubs_f.nxh / hubs_t.nxh
  kIntervals,  ///< the run's values.nxi
};

/// \brief One positional ReadAt or WriteAt of `length` bytes at `offset`.
struct PlannedAccess {
  PlanFile file = PlanFile::kShards;
  bool transpose = false;  ///< the direction of the shard or hub file
  bool write = false;
  /// A shard row run is row i_begin, columns [j_begin, j_end); a hub run
  /// is the hub file's segments from hub (i_begin, j_begin) to hub
  /// (i_end - 1, j_end - 1) in file order (a whole tile is rows
  /// [i_begin, i_end) of columns [j_begin, j_end)); an interval segment is
  /// interval i_begin.
  uint32_t i_begin = 0, i_end = 0, j_begin = 0, j_end = 0;
  uint64_t offset = 0;
  uint64_t length = 0;

  bool operator==(const PlannedAccess&) const = default;
};

/// \brief An iteration's accesses, grouped as the phases consume them.
struct IterationPlan {
  /// Phase A: in stream mode the resident block's row runs (rows and
  /// columns < Q); in cached mode the load runs of the resident rows'
  /// planned blobs not yet held, over every column.
  std::vector<PlannedAccess> phase_a;

  /// Phase B: a disk row (i >= Q) some direction plans a blob of.
  struct DiskRow {
    PlannedAccess values;              ///< its source values
    std::vector<PlannedAccess> runs;   ///< by direction, then column
  };
  /// The scheduled rows of one of the hub layout's row groups (a row
  /// where every direction planned nothing is dropped). `writes` has one
  /// hub run per maximal run of written hubs in file order inside each
  /// (direction, column group) tile, issued after the group's last row: a
  /// tile whose hubs are all written is one write.
  struct WriteGroup {
    std::vector<DiskRow> rows;
    std::vector<PlannedAccess> writes;
  };
  std::vector<WriteGroup> phase_b;

  /// Phase C: a disk column (j >= Q) with work. With selective scheduling a
  /// column with no planned blob (no planned resident-row blob and no
  /// written hub) is left out: its apply is the identity, so its values
  /// are neither read nor written.
  struct DiskColumn {
    uint32_t j = 0;
    PlannedAccess old_values, write_back;
  };
  /// One of the hub layout's column groups with a column with work. Each
  /// direction folds its resident rows, then its hubs, into the group's
  /// accumulators; then each column is applied and written back.
  struct ColumnGroup {
    uint32_t j_begin = 0, j_end = 0;
    struct Direction {
      /// Cached mode: the resident rows with a planned blob in the group,
      /// folded in turn from held blobs.
      std::vector<uint32_t> rows;
      /// Stream mode: the resident rows' runs inside [j_begin, j_end), in
      /// row order.
      std::vector<PlannedAccess> row_runs;
      /// The hubs Phase B wrote in the group, as the maximal runs of
      /// written hubs over the group's tiles in file order, cut at the raw
      /// row cap.
      std::vector<PlannedAccess> hub_reads;
    };
    std::vector<Direction> directions;
    std::vector<DiskColumn> columns;
  };
  std::vector<ColumnGroup> phase_c;

  /// Every access in the order the engine issues them with no compute
  /// threads and no read-ahead: a write group's hub writes follow its rows.
  std::vector<PlannedAccess> Accesses() const;
};

/// \brief What stays fixed across a run's iterations.
struct PlanConfig {
  uint32_t q = 0;  ///< resident intervals
  uint32_t value_bytes = 0;
  EdgeDirection direction = EdgeDirection::kForward;
  bool stream_mode = false;  ///< StrategyDecision::stream_mode
  bool selective = false;    ///< selective scheduling is in effect
};

/// The run's hub layout (HubLayout, src/storage/hub_file.h). Row groups are
/// consecutive disk rows whose hubs (every direction, columns >= Q;
/// HubRowBytes) total at most the largest raw sub-shard row; a row whose
/// hubs alone exceed it is a group of its own. Column groups are
/// consecutive disk columns whose accumulators (|I_j| * value_bytes each)
/// plus, in stream mode, the largest decoded blob of any resident row
/// (i < Q) in each column fit the largest decoded row, so one resident row
/// run of the group and the group's accumulators stay within one decoded
/// row. BuildIterationPlan derives it from the same inputs.
HubLayout PlanHubLayout(const Manifest& manifest, const PlanConfig& config);

/// Slot of blob (i, j) of one direction in a per-(direction, i, j) bitmap
/// over `p` intervals.
inline size_t PlanGridIndex(uint32_t p, uint32_t i, uint32_t j,
                            bool transpose) {
  return (transpose ? static_cast<size_t>(p) * p : 0) +
         static_cast<size_t>(i) * p + j;
}

/// The directions a run reads, as transpose flags, forward first.
std::vector<bool> ReadDirections(const Manifest& manifest,
                                 EdgeDirection direction);

/// One iteration's plan. `planned` is this iteration's PlanRound verdict
/// per blob (PlanGridIndex), `held` the blobs cached mode holds already
/// (empty in stream mode), `parity` each interval's parity of its latest
/// values on disk. Shard reads are the manifest's RowRuns of every planned
/// blob not held.
IterationPlan BuildIterationPlan(const Manifest& manifest,
                                 const PlanConfig& config,
                                 const std::vector<uint8_t>& planned,
                                 const std::vector<uint8_t>& held,
                                 const std::vector<int>& parity);

/// Bytes a run moves (`raw`) and holds once decoded (`decoded`; 0 for
/// hubs).
struct RunBytes {
  uint64_t raw = 0;
  uint64_t decoded = 0;
};

/// The largest sub-shard row over the directions `direction` reads, raw
/// and decoded: the two halves of a prefetch slot, and the cap on every
/// grouped disk access (hub read runs, row groups, column groups).
RunBytes RowCap(const Manifest& manifest, EdgeDirection direction);

/// The one byte-capped splitter behind hub read runs, row groups and
/// column groups: cuts [lo, hi) greedily into consecutive runs, closing a
/// run before the item whose bytes would take either total past `cap`. An
/// item over the cap on its own forms a run by itself.
std::vector<std::pair<uint32_t, uint32_t>> SplitByBytes(
    uint32_t lo, uint32_t hi, RunBytes cap,
    const std::function<RunBytes(uint32_t)>& bytes);

/// Hub bytes of disk row i >= q over the directions `direction` reads: the
/// row's cost in the hub layout's row groups.
uint64_t HubRowBytes(const Manifest& manifest, uint32_t value_bytes,
                     EdgeDirection direction, uint32_t q, uint32_t i);

/// Largest single payload a run of `config` hands the write-behind queue:
/// a whole tile of its hub layout, or a disk interval's value segment with
/// its checksum. A write-behind budget below it is not funded.
uint64_t MaxWritePayloadBytes(const Manifest& manifest,
                              const PlanConfig& config);

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_ITERATION_PLAN_H_
