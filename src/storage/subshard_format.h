// On-disk sub-shard blob format selection. Kept in its own tiny header so
// the prep layer (SharderOptions) and the public API (BuildOptions) can name
// a format without pulling in the full SubShard interface.
#ifndef NXGRAPH_STORAGE_SUBSHARD_FORMAT_H_
#define NXGRAPH_STORAGE_SUBSHARD_FORMAT_H_

namespace nxgraph {

/// Which blob encoding a sub-shard is written with. Every blob is
/// self-describing (the leading magic names its format), so a store may mix
/// formats and SubShard::Decode dispatches per blob — the format choice only
/// affects what the sharder WRITES. Decoded results are identical.
enum class SubShardFormat {
  kNxs1 = 1,  ///< raw fixed-width arrays ("NXS1"): uint32 dsts/counts/srcs.
  kNxs2 = 2,  ///< delta-varint compact encoding ("NXS2"): varint deltas for
              ///< dsts, varint per-destination counts, delta-varint srcs
              ///< within each destination group; weights stay raw floats.
              ///< 2-4x smaller on unweighted power-law graphs — see
              ///< docs/storage-format.md.
};

inline const char* SubShardFormatName(SubShardFormat f) {
  switch (f) {
    case SubShardFormat::kNxs1:
      return "nxs1";
    case SubShardFormat::kNxs2:
      return "nxs2";
  }
  return "?";
}

}  // namespace nxgraph

#endif  // NXGRAPH_STORAGE_SUBSHARD_FORMAT_H_
