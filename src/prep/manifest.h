// Graph-store manifest: the root metadata file describing a preprocessed
// graph (intervals, sub-shard segment tables, degree files).
#ifndef NXGRAPH_PREP_MANIFEST_H_
#define NXGRAPH_PREP_MANIFEST_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/types.h"
#include "src/io/env.h"
#include "src/prep/source_summary.h"
#include "src/storage/subshard_format.h"
#include "src/util/result.h"

namespace nxgraph {

// File names inside a graph-store directory.
inline constexpr char kManifestFileName[] = "manifest.nxm";
inline constexpr char kDegreesFileName[] = "degrees.nxd";
inline constexpr char kMappingFileName[] = "mapping.nxmap";
inline constexpr char kSubShardsFileName[] = "subshards.nxs";
inline constexpr char kSubShardsTransposeFileName[] = "subshards_t.nxs";

inline constexpr uint32_t kManifestMagic = 0x314D584Eu;  // "NXM1"
/// Version 2 added a per-blob format byte to the sub-shard tables (NXS2).
/// Version 3 added per-blob source-vertex summaries (source_summary.h):
/// two sizing params in the header plus a kind byte and filter words per
/// table entry. Older manifests still decode — v1 implies NXS1 blobs, v1/v2
/// imply no summaries — and Fingerprint() hashes topology-stable fields
/// only, so a store re-encoded at a newer manifest version keeps its
/// identity and existing checkpoints stay resumable.
inline constexpr uint32_t kManifestVersion = 3;

/// \brief Location and shape of one sub-shard blob inside a shard file.
struct SubShardMeta {
  uint64_t offset = 0;     ///< byte offset of the blob
  uint64_t size = 0;       ///< blob size in bytes (including checksum);
                           ///< the ENCODED (possibly compressed) size
  uint64_t num_edges = 0;  ///< edges stored in this sub-shard
  uint32_t num_dsts = 0;   ///< distinct destination vertices
  /// Blob encoding this sub-shard was written with. Informational — every
  /// blob is self-describing via its magic — but recorded so tooling and
  /// benches can report a store's format without reading shard bytes.
  SubShardFormat format = SubShardFormat::kNxs1;

  /// Source-vertex summary (v3): a filter over this blob's source vertices
  /// in the layout Manifest::summary_layout derives for the blob's source
  /// interval. kNone / empty on v1/v2 manifests and empty blobs — absent
  /// summaries always schedule conservatively ("may contribute").
  SummaryKind summary_kind = SummaryKind::kNone;
  std::vector<uint64_t> summary;

  /// Exact in-memory footprint of the decoded SubShard (dsts + offsets +
  /// srcs + optional weights, 4 bytes each; offsets always holds
  /// num_dsts + 1 entries, so an empty blob decodes to 4 bytes). Matches
  /// SubShard::MemoryBytes() exactly — decoded bytes are what a cached
  /// engine run holds and the strategy's pin/funding math account, while
  /// meta.size is what a disk read of the blob moves and what the server's
  /// SubShardCache charges.
  uint64_t DecodedBytes(bool weighted) const {
    return (2ull * num_dsts + 1) * sizeof(uint32_t) +
           num_edges * (weighted ? 2 : 1) * sizeof(uint32_t);
  }
};

/// \brief Everything needed to open and schedule over a prepared graph.
struct Manifest {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint32_t num_intervals = 0;  ///< P
  bool weighted = false;
  bool has_transpose = false;

  /// Summary sizing the sharder used (v3); both 0 when the store carries no
  /// summaries (v1/v2 manifests, or summaries disabled at build time).
  /// Persisted so every reader derives exactly the layout that was written.
  uint32_t summary_bitmap_max_bits = 0;
  uint32_t summary_bloom_bits = 0;

  /// Interval boundaries: interval i covers ids
  /// [interval_offsets[i], interval_offsets[i+1]). Size P+1.
  std::vector<VertexId> interval_offsets;

  /// Row-major P*P table for the forward sub-shards; SS_{i.j} is entry
  /// i * P + j (i = source interval, j = destination interval).
  std::vector<SubShardMeta> subshards;

  /// Same table for the transpose graph when has_transpose.
  std::vector<SubShardMeta> subshards_transpose;

  /// Serializes to the on-disk manifest representation.
  std::string Encode() const;

  /// Parses and validates a manifest blob.
  static Result<Manifest> Decode(const std::string& data);

  /// Stable identity of the prepared graph: a hash over the TOPOLOGY only —
  /// counts, interval boundaries, weightedness, and each sub-shard's
  /// edge/destination counts. Byte-layout details (blob offsets, encoded
  /// sizes, per-blob format, summaries, manifest version) are deliberately
  /// excluded, so re-encoding a store — NXS1 -> NXS2, v2 -> v3, summaries
  /// on/off — keeps its fingerprint and existing checkpoints stay
  /// resumable. Two stores with the same fingerprint propagate values
  /// identically, which is what the checkpoint subsystem validates before
  /// resuming a run against a store.
  uint64_t Fingerprint() const;

  const SubShardMeta& subshard(uint32_t i, uint32_t j,
                               bool transpose = false) const {
    const auto& table = transpose ? subshards_transpose : subshards;
    return table[static_cast<size_t>(i) * num_intervals + j];
  }

  /// Sum of DecodedBytes over one direction's table: the memory needed to
  /// hold every decoded sub-shard (what the engine's cached mode and the
  /// strategy's never-demote rule compare budgets against). The encoded
  /// counterpart — bytes a full scan READS — is the sum of meta.size
  /// (GraphStore::TotalSubShardBytes).
  uint64_t TotalDecodedSubShardBytes(bool transpose = false) const;

  VertexId interval_begin(uint32_t i) const { return interval_offsets[i]; }
  VertexId interval_end(uint32_t i) const { return interval_offsets[i + 1]; }
  uint32_t interval_size(uint32_t i) const {
    return interval_end(i) - interval_begin(i);
  }

  /// Interval containing vertex `v`.
  uint32_t IntervalOf(VertexId v) const;

  SummaryParams summary_params() const {
    return SummaryParams{summary_bitmap_max_bits, summary_bloom_bits};
  }
  bool has_summaries() const {
    return summary_bitmap_max_bits != 0 || summary_bloom_bits != 0;
  }

  /// Filter layout shared by every blob whose SOURCE interval is `i` and by
  /// interval i's frontier filter. kNone when the store has no summaries.
  SummaryLayout summary_layout(uint32_t i) const {
    return MakeSummaryLayout(summary_params(), interval_begin(i),
                             interval_size(i));
  }

  /// Bytes of summary filter words across both tables — the metadata cost
  /// of selective scheduling, surfaced in RunStats/QueryStats.
  uint64_t TotalSummaryBytes() const;

  /// Ascending destination intervals j with subshard(i, j).num_edges > 0,
  /// so planners iterate work that exists instead of rescanning all P^2
  /// slots. Built by BuildColumnIndex() — Decode() runs it automatically;
  /// hand-assembled manifests call it after filling the tables. Returns
  /// nullptr when the index is absent (callers fall back to a full scan).
  const std::vector<uint32_t>* NonEmptyColumns(uint32_t i,
                                               bool transpose = false) const {
    const auto& rows = transpose ? nonempty_cols_transpose_ : nonempty_cols_;
    if (i >= rows.size()) return nullptr;
    return &rows[i];
  }
  void BuildColumnIndex();

 private:
  std::vector<std::vector<uint32_t>> nonempty_cols_;
  std::vector<std::vector<uint32_t>> nonempty_cols_transpose_;
};

/// The one row-run rule: maximal [begin, end) runs over row i's columns
/// [j_begin, j_end) of the columns `take` accepts. A run bridges an empty
/// blob between two taken columns (it costs almost no bytes) and breaks at
/// every other blob it does not take, so that blob's bytes are not read;
/// it never starts or ends on a bridged blob. The iteration planner cuts
/// the engine's shard reads with it, and SubShardCache its led loads.
std::vector<std::pair<uint32_t, uint32_t>> RowRuns(
    const Manifest& manifest, uint32_t i, bool transpose, uint32_t j_begin,
    uint32_t j_end, const std::function<bool(uint32_t)>& take);

/// Writes the manifest atomically into `dir`.
Status WriteManifest(Env* env, const std::string& dir, const Manifest& m);

/// Reads and validates the manifest from `dir`.
Result<Manifest> ReadManifest(Env* env, const std::string& dir);

}  // namespace nxgraph

#endif  // NXGRAPH_PREP_MANIFEST_H_
