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
/// pwrite, so rows can overlap without locking, and both phases touch each
/// hub exactly once per iteration.
///
/// Layout is column-major: segment (i+1, j) directly follows (i, j), so
/// FromHub fetches a destination column's hubs — or any run of consecutive
/// rows of it — with one sequential read (ReadHubRun). The seeks move to
/// ToHub, whose one-row writes land one column apart: those writes drain
/// on the write-behind thread while Phase B keeps computing, whereas
/// every FromHub read blocks the fold that consumes it.
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

  /// Writes the hub payload for SS_{i.j} and its CRC32C with one WriteAt.
  /// `data` is the serialized entry array (count-prefixed); with the
  /// checksum it must fit the segment capacity.
  Status WriteHub(uint32_t i, uint32_t j, const void* data, size_t bytes);

  /// Write-behind variant: validates the payload against the segment
  /// capacity, appends its CRC32C, then hands the owned buffer to `wb`
  /// (write errors surface from the queue's next Drain()). `wb == nullptr`
  /// writes synchronously.
  Status WriteHub(WritebackQueue* wb, uint32_t i, uint32_t j,
                  std::string payload);

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

  /// Splits the column run [i_begin, i_end) of column j into consecutive
  /// runs of at most `max_bytes` each (greedy, ascending i). A segment
  /// larger than `max_bytes` forms a run of its own.
  std::vector<std::pair<uint32_t, uint32_t>> SplitRun(
      uint32_t i_begin, uint32_t i_end, uint32_t j, uint64_t max_bytes) const;

  /// Capacity in bytes of segment (i, j), its checksum included: what a
  /// read of the segment moves.
  uint64_t SegmentCapacity(uint32_t i, uint32_t j) const;

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
