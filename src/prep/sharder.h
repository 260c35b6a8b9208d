// Sharding: second preprocessing step (paper §III-A). Partitions vertices
// into P equal intervals and edges into P^2 destination-sorted sub-shards.
#ifndef NXGRAPH_PREP_SHARDER_H_
#define NXGRAPH_PREP_SHARDER_H_

#include <cstdint>
#include <string>

#include "src/io/env.h"
#include "src/prep/degreer.h"
#include "src/prep/manifest.h"
#include "src/storage/subshard_format.h"
#include "src/util/result.h"

namespace nxgraph {

/// \brief Sharding configuration.
struct SharderOptions {
  /// Number of intervals P. The paper finds P = 12..48 all work well
  /// (Fig. 7); 16 is a robust default at our scales.
  uint32_t num_intervals = 16;

  /// Also build the transposed sub-shards (edges reversed). Required by
  /// algorithms that propagate against edge direction (WCC over in+out
  /// edges, the backward phase of SCC).
  bool build_transpose = true;

  /// Remove duplicate (src, dst) pairs within each sub-shard. Off by
  /// default: degrees were computed over the multiset, and PageRank treats
  /// parallel edges as distinct contributions (GraphChi behaves the same).
  bool dedup = false;

  /// Rows are bucketed to temporary files and processed one source interval
  /// at a time, so peak memory is O(largest row), not O(m). This caps the
  /// edge count per bucketing batch.
  uint64_t batch_edges = 4 << 20;

  /// Blob encoding for the written sub-shards (recorded per blob in the
  /// manifest). Defaults to NXS2 (delta-varint); pass kNxs1 to write the
  /// raw fixed-width format. Readers dispatch on each blob's magic, so
  /// stores of either (or mixed) format load identically.
  SubShardFormat format = SubShardFormat::kNxs2;

  /// Per-blob source-vertex summary sizing (manifest v3). Defaults to
  /// summaries ON (bitmap up to 4096-vertex intervals, 512-bit bloom
  /// above); set both fields to 0 to write a summary-free store.
  SummaryParams summary;
};

/// \brief Runs sharding over the pre-shard produced by RunDegreer in `dir`,
/// writing `subshards.nxs` (+ `subshards_t.nxs`) and the manifest.
///
/// Returns the manifest it wrote.
Result<Manifest> RunSharder(Env* env, const std::string& dir,
                            const DegreeResult& degrees,
                            const SharderOptions& options);

/// Convenience: equal-size interval boundaries for n vertices in P parts.
std::vector<VertexId> MakeEqualIntervals(uint64_t num_vertices, uint32_t p);

}  // namespace nxgraph

#endif  // NXGRAPH_PREP_SHARDER_H_
