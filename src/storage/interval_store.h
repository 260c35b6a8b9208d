// IntervalStore: on-disk vertex attribute segments with ping-pong parity,
// used by DPU/MPU for intervals that do not fit in memory.
#ifndef NXGRAPH_STORAGE_INTERVAL_STORE_H_
#define NXGRAPH_STORAGE_INTERVAL_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/io/env.h"
#include "src/prep/manifest.h"
#include "src/util/result.h"

namespace nxgraph {

class WritebackQueue;

/// \brief Raw attribute file: for each interval i, two fixed segments
/// ("ping" and "pong", parity 0 and 1) of interval_size(i) * value_bytes
/// bytes, each followed by a CRC32C of its values that travels in the same
/// positional read or write. The engine reads the previous iteration's
/// parity and writes the next one, so a consistent snapshot always exists
/// (paper §II-B consistency task).
///
/// The file is parity-major: every parity-0 segment in interval order,
/// then every parity-1 segment. Intervals that share a parity — every disk
/// interval, once each iteration has flipped them all — are adjacent, so
/// Phase B's source reads and Phase C's old-value reads and write-backs,
/// which visit the disk intervals in order, walk consecutive segments.
///
/// Value types are engine templates; this class moves opaque bytes.
class IntervalStore {
 public:
  /// The CRC32C that ends each segment.
  static constexpr uint64_t kChecksumBytes = 4;

  /// Creates (truncating) the attribute file sized for `manifest` with
  /// `value_bytes` per vertex.
  static Result<std::unique_ptr<IntervalStore>> Create(
      Env* env, const std::string& path, const Manifest& manifest,
      uint32_t value_bytes);

  /// Opens an existing attribute file WITHOUT truncating it — the resume
  /// path: the surviving ping/pong segments are the checkpointed state.
  /// Fails with NotFound when the file is missing and Corruption when its
  /// size does not match the manifest/value_bytes layout.
  static Result<std::unique_ptr<IntervalStore>> Open(
      Env* env, const std::string& path, const Manifest& manifest,
      uint32_t value_bytes);

  /// Where each interval's parity-0 segment starts in a file laid out for
  /// `manifest` with `value_bytes` per vertex, then where parity 1 starts:
  /// segments are stored_bytes long, interval i's parity-k segment lies at
  /// offsets[i] + k * offsets[P], and the file is 2 * offsets[P] bytes.
  static std::vector<uint64_t> SegmentOffsets(const Manifest& manifest,
                                              uint32_t value_bytes);

  /// Reads interval `i`'s segment of the given parity (0 or 1) into `buf`
  /// (must hold segment_bytes(i)). A short read or a checksum mismatch is
  /// a retryable Corruption.
  Status Read(uint32_t interval, int parity, void* buf) const;

  /// Writes interval `i`'s segment of the given parity from `buf`, with
  /// its checksum.
  Status Write(uint32_t interval, int parity, const void* buf);

  /// Write-behind variant: `buf` (segment_bytes(interval) long) and its
  /// checksum are copied into the owned buffer handed to `wb` — write
  /// errors then surface from its next Drain(). `wb == nullptr` writes
  /// synchronously.
  Status Write(WritebackQueue* wb, uint32_t interval, int parity,
               const void* buf);

  /// Durability barrier: forces every completed Write to the device.
  /// The checkpoint path calls this when no write-behind queue exists to
  /// carry the flush (writes pushed through a queue are synced by its
  /// Drain(sync=true) instead).
  Status Sync() { return writer_->Flush(); }

  /// Bytes of interval `i`'s values: what Read fills and Write takes.
  uint64_t segment_bytes(uint32_t interval) const {
    return static_cast<uint64_t>(sizes_[interval]) * value_bytes_;
  }

  /// Bytes one Read or Write of interval `i` moves: its values and their
  /// checksum.
  uint64_t stored_bytes(uint32_t interval) const {
    return segment_bytes(interval) + kChecksumBytes;
  }

  /// Total file size: sum of both parity segments over all intervals.
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  IntervalStore() = default;

  static Result<std::unique_ptr<IntervalStore>> Layout(
      const Manifest& manifest, uint32_t value_bytes);

  uint64_t Offset(uint32_t interval, int parity) const {
    return offsets_[interval] + (parity ? offsets_.back() : 0);
  }

  /// `buf`'s segment_bytes(interval) values followed by their checksum.
  std::string Seal(uint32_t interval, const void* buf) const;

  uint32_t value_bytes_ = 0;
  uint64_t total_bytes_ = 0;
  std::vector<uint64_t> offsets_;  // SegmentOffsets
  std::vector<uint32_t> sizes_;    // vertices per interval
  std::unique_ptr<RandomWriteFile> writer_;
  std::unique_ptr<RandomAccessFile> reader_;
};

}  // namespace nxgraph

#endif  // NXGRAPH_STORAGE_INTERVAL_STORE_H_
