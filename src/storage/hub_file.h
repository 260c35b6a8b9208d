// HubFile: preallocated per-sub-shard segments holding the DPU/MPU
// intermediate "hub" data — each destination's partial accumulated value,
// sealed in the ToHub phase and folded in the FromHub phase. The segment
// format is private to this class: the engine hands SealHub a sub-shard's
// destinations and values and takes them back through Fold.
#ifndef NXGRAPH_STORAGE_HUB_FILE_H_
#define NXGRAPH_STORAGE_HUB_FILE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/io/env.h"
#include "src/prep/manifest.h"
#include "src/util/result.h"

namespace nxgraph {

class WritebackQueue;

/// \brief The order of a hub file's segments. The disk rows and the disk
/// columns, both [q, P), are cut into consecutive row groups and column
/// groups; a tile is the hubs of one row group in one column group.
/// Segments lie by column group, then row group, then column, then row, so
/// each tile is contiguous and a column group's tiles follow each other in
/// row order: Phase B writes a row group's hubs tile by tile, and Phase C
/// reads a column group's tiles in one sweep. Column-major is the case of
/// one row group and one-column groups. The engine's iteration planner
/// chooses the groups (PlanHubLayout, src/engine/iteration_plan.h).
struct HubLayout {
  using Groups = std::vector<std::pair<uint32_t, uint32_t>>;
  Groups row_groups;     ///< [begin, end) rows, in order, tiling [q, P)
  Groups column_groups;  ///< [begin, end) columns, likewise

  /// Position of hub (i, j), i, j >= q, in file order.
  size_t Slot(uint32_t i, uint32_t j) const;

  /// Every hub (i, j) in file order: Order()[Slot(i, j)] == {i, j}.
  std::vector<std::pair<uint32_t, uint32_t>> Order() const;
};

/// \brief Hub storage for the sub-shards SS_{i.j} with i >= q and j >= q
/// (q = number of memory-resident intervals; q = 0 for pure DPU).
///
/// Segment format. Hub (i, j) holds one entry per destination of SS_{i.j}
/// (the manifest's num_dsts: ToHub pre-accumulates per destination), in
/// ascending destination order, and always fills its segment:
///
///   count      8 B        == num_dsts(i, j)
///   dst set    fixed size, in one of two forms (below)
///   values     count * value_bytes, in destination order
///   CRC32C     4 B        of everything before it
///
/// The destination set is a bitmap over interval j — ceil(|I_j| / 8)
/// bytes, bit d (byte d / 8, bit d % 8) set iff destination
/// interval_begin(j) + d has an entry, padding bits past |I_j| zero — or
/// the list of the entries' 4-byte destination ids, strictly ascending
/// inside interval j. A segment takes the bitmap when it is smaller than
/// the list (ceil(|I_j| / 8) < 4 * num_dsts), so the form and the capacity
/// follow from the manifest alone, and no hub is larger than with ids. The
/// paper's Table II prices a hub entry at Ba + Bv bytes with Bv a 4-byte
/// id; on dense sub-shards the bitmap brings Bv well under one byte.
///
/// Segments lie in a HubLayout's order. A run is any range of consecutive
/// segments in that order, its slots [begin, end); each run is written
/// (WriteHubRun) and read (ReadHubRun) with one positional call, every
/// segment's checksum in the same call, so disjoint runs need no locking
/// and both phases touch each hub exactly once per iteration. Which runs
/// an iteration reads and writes is the engine's iteration plan
/// (src/engine/iteration_plan.h): Phase B seals each hub (SealHub) at its
/// segment's offset in the buffer of its write run and writes each run
/// with one call.
class HubFile {
 public:
  /// A file of `layout`'s hubs. `transpose` selects which sub-shard table
  /// sizes the segments (the transpose table generally has different
  /// num_dsts per sub-shard). InvalidArgument when the layout's row and
  /// column groups do not both tile one disk block [q, P).
  static Result<std::unique_ptr<HubFile>> Create(Env* env,
                                                 const std::string& path,
                                                 const Manifest& manifest,
                                                 const HubLayout& layout,
                                                 uint32_t value_bytes,
                                                 bool transpose = false);

  /// The segments of slots [begin, end) as read and verified by one
  /// ReadHubRun.
  struct Run {
    std::string bytes;  ///< the run's segments, back to back as on disk
    struct Segment {
      size_t start = 0;    ///< in `bytes`
      uint32_t i = 0, j = 0;  ///< the hub
      VertexId column_begin = 0;  ///< first destination of interval j
      uint32_t column_size = 0;   ///< |I_j|
      uint64_t count = 0;  ///< entries, the blob's num_dsts
      bool bitmap = false;  ///< destination-set form
    };
    std::vector<Segment> segments;  ///< in file order
  };

  /// True when a hub of `num_dsts` entries over an interval of
  /// `interval_size` destinations stores its destinations as a bitmap.
  static bool UsesBitmap(uint64_t num_dsts, uint64_t interval_size) {
    return BitmapBytes(interval_size) < 4 * num_dsts;
  }

  /// Bytes of that hub's destination set, in whichever form is smaller.
  static uint64_t DstSetBytes(uint64_t num_dsts, uint64_t interval_size) {
    return std::min(BitmapBytes(interval_size), 4 * num_dsts);
  }

  /// Capacity of that hub's segment, its count and checksum included: what
  /// a read or write of the segment moves.
  static uint64_t SegmentBytes(uint64_t num_dsts, uint64_t interval_size,
                               uint32_t value_bytes) {
    return kCountBytes + DstSetBytes(num_dsts, interval_size) +
           num_dsts * value_bytes + kChecksumBytes;
  }

  /// Seals hub (i, j) into `segment` (SegmentCapacity(i, j) bytes): the
  /// count, the destination set of `dsts` — the sub-shard's destinations,
  /// strictly ascending inside interval j — then dsts.size() values of
  /// value_bytes each from `values`, in the same order, then the CRC32C.
  /// InvalidArgument, with nothing written, when dsts.size() is not the
  /// blob's num_dsts or a destination is out of order or outside the
  /// interval.
  Status SealHub(uint32_t i, uint32_t j, char* segment,
                 std::span<const VertexId> dsts, const void* values) const;

  /// Writes the segments of slots [begin, end) with one WriteAt. `run`
  /// holds them sealed, back to back, as on disk: RunSpan(begin, end)
  /// bytes, slot s at RunOffset(begin, s). Goes through `wb` (inline when
  /// its budget is 0; otherwise write errors surface from its next
  /// Drain()), or straight to the file when `wb` is null.
  Status WriteHubRun(WritebackQueue* wb, size_t begin, size_t end,
                     std::string run);

  /// Reads the segments of slots [begin, end) with a single ReadAt, and
  /// verifies each. Every segment in the run must have been written. A
  /// short read, a segment whose CRC32C does not match, a count other than
  /// the blob's num_dsts, a bitmap whose popcount is not the count or that
  /// sets a padding bit, or an id list that is not strictly ascending
  /// inside the segment's interval j is a retryable Corruption, and leaves
  /// `out` with no segments to fold.
  Status ReadHubRun(size_t begin, size_t end, Run* out) const;

  /// Calls fold(d, value) for each entry of the run's k-th segment whose
  /// destination lies in [column_begin + lo, column_begin + hi) of that
  /// segment's column, where d is the destination minus column_begin, in
  /// ascending d. Disjoint ranges fold disjoint entries, so they may run in
  /// parallel. `Value` must be value_bytes wide.
  template <typename Value, typename Fn>
  static void Fold(const Run& run, size_t k, uint32_t lo, uint32_t hi,
                   Fn&& fold);

  /// Where each slot of `layout` starts in a file laid out for `manifest`,
  /// then the file's size: the segments in file order, each SegmentBytes
  /// long. The file's one layout rule.
  static std::vector<uint64_t> SegmentOffsets(const Manifest& manifest,
                                              const HubLayout& layout,
                                              uint32_t value_bytes,
                                              bool transpose);

  /// Position of hub (i, j) in file order.
  size_t Slot(uint32_t i, uint32_t j) const { return layout_.Slot(i, j); }

  /// The hub (i, j) at `slot`.
  std::pair<uint32_t, uint32_t> Hub(size_t slot) const { return order_[slot]; }

  /// Capacity in bytes of segment (i, j), its checksum included: what a
  /// read or write of the segment moves.
  uint64_t SegmentCapacity(uint32_t i, uint32_t j) const;

  /// Bytes slots [begin, end) span on disk.
  uint64_t RunSpan(size_t begin, size_t end) const {
    return offsets_[end] - offsets_[begin];
  }

  /// Where slot `slot` starts in a run that begins at slot `begin`.
  uint64_t RunOffset(size_t begin, size_t slot) const {
    return offsets_[slot] - offsets_[begin];
  }

  uint64_t total_bytes() const { return total_bytes_; }

 private:
  HubFile() = default;

  // The entry count that starts each segment and the CRC32C that ends it.
  static constexpr uint64_t kCountBytes = 8;
  static constexpr uint64_t kChecksumBytes = 4;

  static uint64_t BitmapBytes(uint64_t interval_size) {
    return (interval_size + 7) / 8;
  }
  // Bitmap word w (destinations 64w .. 64w+63) of a `bytes`-byte bitmap,
  // zero-filled past its end.
  static uint64_t BitmapWord(const char* bitmap, uint64_t bytes, uint64_t w) {
    uint64_t word = 0;
    std::memcpy(&word, bitmap + 8 * w, std::min<uint64_t>(8, bytes - 8 * w));
    return word;
  }

  HubLayout layout_;
  uint32_t value_bytes_ = 0;
  uint64_t total_bytes_ = 0;
  std::vector<uint64_t> offsets_;  // SegmentOffsets, by slot
  std::vector<std::pair<uint32_t, uint32_t>> order_;  // (i, j) by slot
  std::vector<uint64_t> num_dsts_;  // by slot: its blob's num_dsts
  std::vector<VertexId> interval_offsets_;  // the manifest's
  std::unique_ptr<RandomWriteFile> writer_;
  std::unique_ptr<RandomAccessFile> reader_;
};

template <typename Value, typename Fn>
void HubFile::Fold(const Run& run, size_t k, uint32_t lo, uint32_t hi,
                   Fn&& fold) {
  const Run::Segment& s = run.segments[k];
  hi = std::min(hi, s.column_size);
  if (lo >= hi || s.count == 0) return;
  const char* set = run.bytes.data() + s.start + kCountBytes;
  const auto value = [values = set + DstSetBytes(s.count, s.column_size)](
                         uint64_t e) {
    Value v{};
    std::memcpy(&v, values + e * sizeof(Value), sizeof(Value));
    return v;
  };
  if (!s.bitmap) {
    const auto id = [set](uint64_t e) {
      VertexId dst = 0;
      std::memcpy(&dst, set + 4 * e, 4);
      return dst;
    };
    // The first entry at or past lo, by binary search over the ids.
    uint64_t e = 0;
    for (uint64_t n = s.count; n > 0;) {
      const uint64_t half = n / 2;
      if (id(e + half) - s.column_begin < lo) {
        e += half + 1;
        n -= half + 1;
      } else {
        n = half;
      }
    }
    for (; e < s.count; ++e) {
      const uint32_t d = id(e) - s.column_begin;
      if (d >= hi) break;
      fold(d, value(e));
    }
    return;
  }
  const uint64_t bytes = BitmapBytes(s.column_size);
  uint64_t rank = 0;  // entries before destination lo
  for (uint64_t w = 0; w < lo / 64; ++w) {
    rank += std::popcount(BitmapWord(set, bytes, w));
  }
  for (uint64_t w = lo / 64; w * 64 < hi; ++w) {
    uint64_t word = BitmapWord(set, bytes, w);
    if (w == lo / 64 && lo % 64 != 0) {
      const uint64_t below = (uint64_t{1} << (lo % 64)) - 1;
      rank += std::popcount(word & below);
      word &= ~below;
    }
    if (hi - w * 64 < 64) word &= (uint64_t{1} << (hi - w * 64)) - 1;
    for (; word != 0; word &= word - 1) {
      fold(static_cast<uint32_t>(w * 64 + std::countr_zero(word)),
           value(rank++));
    }
  }
}

}  // namespace nxgraph

#endif  // NXGRAPH_STORAGE_HUB_FILE_H_
