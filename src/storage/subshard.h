// The Destination-Sorted Sub-Shard (DSSS): the paper's core storage unit.
#ifndef NXGRAPH_STORAGE_SUBSHARD_H_
#define NXGRAPH_STORAGE_SUBSHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/types.h"
#include "src/storage/subshard_format.h"
#include "src/util/result.h"
#include "src/util/simd_varint.h"

namespace nxgraph {

/// \brief Reusable decode working memory. The NXS2 decoder stages raw
/// varint values in a flat scratch array before the delta reconstruction
/// loops; callers decoding many blobs (GraphStore::DecodeVerifiedBlob) keep
/// one of these per thread so the staging buffer is allocated once instead
/// of per blob. Passing nullptr makes Decode use a local buffer.
struct SubShardDecodeScratch {
  std::vector<uint32_t> u32;
};

/// \brief Decode accounting that SubShard::Decode adds to when it is given
/// one. GraphStore folds each decode's tallies into its process-wide
/// counters for RunStats and the server's stats, and hands a query the
/// tallies of the decodes it ran itself.
struct DecodeTallies {
  uint64_t bulk_decode_calls = 0; ///< BulkGetVarint32 stream scans (NXS2)
  uint64_t decode_nanos = 0;      ///< wall time inside SubShard::Decode
};

/// \brief One decoded sub-shard SS_{i.j}: all edges with source in interval
/// I_i and destination in interval I_j, in compressed sparse (CSR-like) form
/// grouped by destination.
///
/// Invariants:
///  - `dsts` is strictly ascending (each destination appears once);
///  - `offsets.size() == dsts.size() + 1`, `offsets.front() == 0`,
///    `offsets.back() == srcs.size()`;
///  - within each destination group, `srcs` is ascending (the paper's
///    secondary sort for CPU-cache-friendly source interval reads);
///  - `weights` is empty or parallel to `srcs`.
struct SubShard {
  uint32_t src_interval = 0;
  uint32_t dst_interval = 0;

  std::vector<VertexId> dsts;
  std::vector<uint32_t> offsets;
  std::vector<VertexId> srcs;
  std::vector<float> weights;

  uint64_t num_edges() const { return srcs.size(); }
  uint32_t num_dsts() const { return static_cast<uint32_t>(dsts.size()); }
  bool empty() const { return srcs.empty(); }

  /// Decoded footprint, which SubShardMeta::DecodedBytes predicts from the
  /// manifest: what an engine run that holds the graph budgets per blob.
  uint64_t MemoryBytes() const {
    return dsts.size() * sizeof(VertexId) + offsets.size() * sizeof(uint32_t) +
           srcs.size() * sizeof(VertexId) + weights.size() * sizeof(float);
  }

  /// Serializes to the on-disk blob representation (with checksum) in the
  /// given format. Both formats decode to the exact same in-memory SubShard.
  std::string Encode(SubShardFormat format) const;

  /// Decodes a blob produced by Encode() of either format (the leading
  /// magic dispatches). Store reads verify the checksum once, as they read
  /// (GraphStore::ReadVerifiedRow), and decode with `verify_checksum =
  /// false`, which also lets tests reach the structural validators with
  /// tampered bodies. `scratch`, when non-null, provides reusable staging
  /// memory for the NXS2 varint decoder. `path` selects the varint decode
  /// implementation; every path produces bit-identical SubShards and the
  /// identical accept/reject set (corrupt blobs are Status::Corruption on
  /// all of them), so it is purely a performance knob
  /// (RunOptions::simd_decode). `tallies`, when non-null, is charged the
  /// decode's bulk scans and wall time.
  static Result<SubShard> Decode(
      const char* data, size_t size, uint32_t src_interval,
      uint32_t dst_interval, bool verify_checksum = true,
      SubShardDecodeScratch* scratch = nullptr,
      DecodePath path = ResolveDecodePath(SimdDecode::kAuto),
      DecodeTallies* tallies = nullptr);

  /// True when the blob's trailing CRC32C matches its body: the check
  /// Decode makes with `verify_checksum`.
  static bool ChecksumMatches(const char* data, size_t size);

  /// Index of the first entry in `dsts` with id >= `v` (for destination-
  /// chunked scheduling).
  uint32_t LowerBoundDst(VertexId v) const;
};

}  // namespace nxgraph

#endif  // NXGRAPH_STORAGE_SUBSHARD_H_
