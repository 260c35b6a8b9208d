// HubFile: preallocated per-sub-shard segments holding the DPU/MPU
// intermediate "hub" data — (destination id, partial accumulated value)
// pairs written in the ToHub phase and folded in the FromHub phase.
#ifndef NXGRAPH_STORAGE_HUB_FILE_H_
#define NXGRAPH_STORAGE_HUB_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/io/env.h"
#include "src/prep/manifest.h"
#include "src/util/result.h"

namespace nxgraph {

class WritebackQueue;

/// \brief Hub storage for the sub-shards SS_{i.j} with i >= q and j >= q
/// (q = number of memory-resident intervals; q = 0 for pure DPU).
///
/// Segment capacity is 8 + num_dsts(i,j) * (4 + value_bytes) + 4 — every
/// destination with any in-edge in the sub-shard can appear at most once
/// because the ToHub phase pre-accumulates per destination, and the
/// count-prefixed payload is followed by a CRC32C of itself, written and
/// read in the same positional call. Segments are written whole with
/// pwrite, so disjoint runs need no locking, and both phases touch each hub
/// exactly once per iteration.
///
/// Layout is column-major: segment (i+1, j) directly follows (i, j), so
/// FromHub fetches a destination column's hubs — or any run of consecutive
/// rows of it — with one sequential read (ReadHubRun), and ToHub writes
/// them the same way (WriteHubRun). Phase B computes a write group of
/// consecutive disk rows, seals each hub (SealHub) at its segment's offset
/// in the buffer of its write run (a maximal run of the group's written
/// hubs in one column), and then writes each run with one call. A group's
/// hubs total at most one raw sub-shard row, the cap hub read runs have
/// too; a row whose hubs alone exceed it is written one hub per call.
class HubFile {
 public:
  /// The CRC32C that ends each written segment's payload.
  static constexpr uint64_t kChecksumBytes = 4;

  /// `transpose` selects which sub-shard table sizes the segments (the
  /// transpose table generally has different num_dsts per sub-shard).
  static Result<std::unique_ptr<HubFile>> Create(Env* env,
                                                 const std::string& path,
                                                 const Manifest& manifest,
                                                 uint32_t q,
                                                 uint32_t value_bytes,
                                                 bool transpose = false);

  /// Hubs (i_begin..i_end-1, j) as read by one ReadHubRun.
  struct Run {
    std::string bytes;  ///< the run's segments, back to back as on disk
    /// Per segment, ascending i: (start in `bytes`, count-prefixed
    /// payload length, its checksum excluded).
    std::vector<std::pair<size_t, size_t>> segments;

    /// Count-prefixed payload of the run's k-th segment.
    std::string_view segment(size_t k) const {
      return std::string_view(bytes).substr(segments[k].first,
                                            segments[k].second);
    }
  };

  /// Capacity of the hub segment of a sub-shard described by `meta`: the
  /// count prefix, one entry per destination and the checksum.
  static uint64_t SegmentBytes(const SubShardMeta& meta, uint32_t value_bytes);

  /// Seals hub (i, j)'s count-prefixed payload, already in place at the
  /// start of `segment` (SegmentCapacity(i, j) bytes), by writing its
  /// CRC32C after it. InvalidArgument if the payload and its checksum
  /// exceed the segment.
  Status SealHub(uint32_t i, uint32_t j, char* segment,
                 size_t payload_bytes) const;

  /// Writes hubs (i_begin..i_end-1, j) with one WriteAt. `run` holds their
  /// sealed segments back to back, as on disk: RunSpan(i_begin, i_end, j)
  /// bytes, segment (i, j) at RunOffset(i_begin, i, j). Goes through `wb`
  /// (inline when its budget is 0; otherwise write errors surface from its
  /// next Drain()), or straight to the file when `wb` is null.
  Status WriteHubRun(WritebackQueue* wb, uint32_t i_begin, uint32_t i_end,
                     uint32_t j, std::string run);

  /// Writes the hub payload for SS_{i.j}, sealed, as one whole segment: the
  /// one-segment WriteHubRun. `data` is the serialized entry array
  /// (count-prefixed); with the checksum it must fit the segment capacity.
  Status WriteHub(uint32_t i, uint32_t j, const void* data, size_t bytes);

  /// Reads hubs (i_begin..i_end-1, j) with a single ReadAt spanning their
  /// segments. Every segment in the run must have been written. A short
  /// read, a count prefix claiming more entries than its segment holds, a
  /// payload whose CRC32C does not match, or an entry whose destination
  /// lies outside interval j is a retryable Corruption.
  Status ReadHubRun(uint32_t i_begin, uint32_t i_end, uint32_t j,
                    Run* out) const;

  /// Reads the hub payload for SS_{i.j} into `out` (resized to the
  /// count-prefixed payload length): the one-segment run.
  Status ReadHub(uint32_t i, uint32_t j, std::string* out) const;

  /// Capacity in bytes of segment (i, j), its checksum included: what a
  /// read or write of the segment moves.
  uint64_t SegmentCapacity(uint32_t i, uint32_t j) const;

  /// Bytes hubs (i_begin..i_end-1, j) span on disk.
  uint64_t RunSpan(uint32_t i_begin, uint32_t i_end, uint32_t j) const;

  /// Where segment (i, j) starts in a run that begins at hub (i_begin, j).
  uint64_t RunOffset(uint32_t i_begin, uint32_t i, uint32_t j) const;

  uint64_t total_bytes() const { return total_bytes_; }

 private:
  HubFile() = default;

  size_t SegmentIndex(uint32_t i, uint32_t j) const;

  uint32_t p_ = 0;
  uint32_t q_ = 0;
  uint32_t value_bytes_ = 0;
  uint64_t total_bytes_ = 0;
  std::vector<uint64_t> offsets_;     // per segment
  std::vector<uint64_t> capacities_;  // per segment
  // Interval boundaries from column q on: column j's destinations are
  // [column_offsets_[j - q], column_offsets_[j - q + 1]).
  std::vector<VertexId> column_offsets_;
  std::unique_ptr<RandomWriteFile> writer_;
  std::unique_ptr<RandomAccessFile> reader_;
};

}  // namespace nxgraph

#endif  // NXGRAPH_STORAGE_HUB_FILE_H_
