#include "src/storage/hub_file.h"

#include <bit>
#include <cstring>
#include <utility>

#include "src/io/writeback.h"
#include "src/util/crc32c.h"
#include "src/util/serialize.h"

namespace nxgraph {

Result<std::unique_ptr<HubFile>> HubFile::Create(Env* env,
                                                 const std::string& path,
                                                 const Manifest& manifest,
                                                 uint32_t q,
                                                 uint32_t value_bytes,
                                                 bool transpose) {
  const uint32_t p = manifest.num_intervals;
  if (q > p) return Status::InvalidArgument("q exceeds interval count");
  std::unique_ptr<HubFile> hub(new HubFile());
  hub->p_ = p;
  hub->q_ = q;
  hub->value_bytes_ = value_bytes;
  hub->offsets_ = SegmentOffsets(manifest, q, value_bytes, transpose);
  hub->total_bytes_ = hub->offsets_.back();
  hub->num_dsts_.resize(hub->offsets_.size() - 1);
  for (uint32_t j = q; j < p; ++j) {
    for (uint32_t i = q; i < p; ++i) {
      hub->num_dsts_[hub->SegmentIndex(i, j)] =
          manifest.subshard(i, j, transpose).num_dsts;
    }
  }
  hub->column_offsets_.assign(manifest.interval_offsets.begin() + q,
                              manifest.interval_offsets.end());
  std::unique_ptr<WritableFile> init;
  NX_RETURN_NOT_OK(env->NewWritableFile(path, &init));
  NX_RETURN_NOT_OK(init->Close());
  NX_RETURN_NOT_OK(env->NewRandomWriteFile(path, &hub->writer_));
  NX_RETURN_NOT_OK(hub->writer_->Truncate(hub->total_bytes_));
  NX_RETURN_NOT_OK(env->NewRandomAccessFile(path, &hub->reader_));
  return hub;
}

std::vector<uint64_t> HubFile::SegmentOffsets(const Manifest& manifest,
                                              uint32_t q, uint32_t value_bytes,
                                              bool transpose) {
  const uint32_t p = manifest.num_intervals;
  std::vector<uint64_t> offsets(1, 0);
  // Column-major: a destination column's segments are contiguous in
  // ascending i, the order FromHub folds them.
  for (uint32_t j = q; j < p; ++j) {
    for (uint32_t i = q; i < p; ++i) {
      offsets.push_back(offsets.back() +
                        SegmentBytes(manifest.subshard(i, j, transpose).num_dsts,
                                     manifest.interval_size(j), value_bytes));
    }
  }
  return offsets;
}

size_t HubFile::SegmentIndex(uint32_t i, uint32_t j) const {
  const uint32_t side = p_ - q_;
  return static_cast<size_t>(j - q_) * side + (i - q_);
}

uint64_t HubFile::SegmentCapacity(uint32_t i, uint32_t j) const {
  const size_t idx = SegmentIndex(i, j);
  return offsets_[idx + 1] - offsets_[idx];
}

uint64_t HubFile::RunSpan(uint32_t i_begin, uint32_t i_end,
                          uint32_t j) const {
  return offsets_[SegmentIndex(i_end - 1, j) + 1] -
         offsets_[SegmentIndex(i_begin, j)];
}

uint64_t HubFile::RunOffset(uint32_t i_begin, uint32_t i, uint32_t j) const {
  return offsets_[SegmentIndex(i, j)] - offsets_[SegmentIndex(i_begin, j)];
}

Status HubFile::SealHub(uint32_t i, uint32_t j, char* segment,
                        std::span<const VertexId> dsts,
                        const void* values) const {
  const size_t idx = SegmentIndex(i, j);
  const uint64_t count = dsts.size();
  if (count != num_dsts_[idx]) {
    return Status::InvalidArgument(
        "hub entry count differs from its sub-shard's num_dsts");
  }
  const VertexId begin = column_offsets_[j - q_];
  const uint32_t size = column_offsets_[j - q_ + 1] - begin;
  for (size_t e = 0; e < dsts.size(); ++e) {
    if (dsts[e] < begin || dsts[e] - begin >= size ||
        (e > 0 && dsts[e] <= dsts[e - 1])) {
      return Status::InvalidArgument(
          "hub destinations not ascending inside their column");
    }
  }
  std::memcpy(segment, &count, kCountBytes);
  char* set = segment + kCountBytes;
  const uint64_t set_bytes = DstSetBytes(count, size);
  if (UsesBitmap(count, size)) {
    std::memset(set, 0, set_bytes);
    for (VertexId dst : dsts) {
      const uint32_t d = dst - begin;
      set[d / 8] = static_cast<char>(set[d / 8] | (1u << (d % 8)));
    }
  } else if (count > 0) {
    std::memcpy(set, dsts.data(), set_bytes);
  }
  const uint64_t payload = offsets_[idx + 1] - offsets_[idx] - kChecksumBytes;
  if (count > 0) {
    std::memcpy(set + set_bytes, values, count * value_bytes_);
  }
  const uint32_t crc = crc32c::Value(segment, payload);
  std::memcpy(segment + payload, &crc, sizeof(crc));
  return Status::OK();
}

Status HubFile::WriteHubRun(WritebackQueue* wb, uint32_t i_begin,
                            uint32_t i_end, uint32_t j, std::string run) {
  if (i_begin >= i_end) return Status::InvalidArgument("empty hub run");
  if (run.size() != RunSpan(i_begin, i_end, j)) {
    return Status::InvalidArgument("hub run does not span its segments");
  }
  const uint64_t offset = offsets_[SegmentIndex(i_begin, j)];
  if (wb == nullptr) return writer_->WriteAt(offset, run.data(), run.size());
  return wb->Push(writer_.get(), offset, std::move(run));
}

Status HubFile::WriteHub(uint32_t i, uint32_t j,
                         std::span<const VertexId> dsts, const void* values) {
  std::string segment(SegmentCapacity(i, j), '\0');
  NX_RETURN_NOT_OK(SealHub(i, j, segment.data(), dsts, values));
  return WriteHubRun(nullptr, i, i + 1, j, std::move(segment));
}

Status HubFile::ReadHubRun(uint32_t i_begin, uint32_t i_end, uint32_t j,
                           Run* out) const {
  out->segments.clear();
  if (i_begin >= i_end) return Status::InvalidArgument("empty hub run");
  const size_t first = SegmentIndex(i_begin, j);
  const size_t last = SegmentIndex(i_end - 1, j);
  const uint64_t base = offsets_[first];
  const uint64_t span = offsets_[last + 1] - base;
  out->bytes.resize(span);
  out->column_begin = column_offsets_[j - q_];
  out->column_size = column_offsets_[j - q_ + 1] - out->column_begin;
  size_t n = 0;
  NX_RETURN_NOT_OK(reader_->ReadAt(base, span, out->bytes.data(), &n));
  // Every failure below is marked retryable: the file has its full
  // preallocated size (Create wrote every segment), so a short read is a
  // transient transfer hiccup, and a segment that fails its CRC32C or
  // whose verified bytes do not describe its blob's destinations is
  // bus/DMA garbage — all heal on a fresh read, and a real on-medium
  // corruption still fails after the pipeline's bounded retries. FromHub
  // indexes its accumulator by destination and its values by entry, so no
  // entry may leave column j and the set must hold exactly `count` entries.
  const auto corrupt = [out](const char* what) {
    out->segments.clear();
    return Status::MakeRetryable(Status::Corruption(what));
  };
  if (n != span) return corrupt("hub run truncated");
  const uint32_t size = out->column_size;
  for (size_t idx = first; idx <= last; ++idx) {
    const size_t at = offsets_[idx] - base;
    const char* segment = out->bytes.data() + at;
    const uint64_t payload = offsets_[idx + 1] - offsets_[idx] - kChecksumBytes;
    if (DecodeFixed<uint32_t>(segment + payload) !=
        crc32c::Value(segment, payload)) {
      return corrupt("hub segment checksum mismatch");
    }
    const uint64_t count = DecodeFixed<uint64_t>(segment);
    if (count != num_dsts_[idx]) {
      return corrupt("hub entry count differs from its sub-shard's num_dsts");
    }
    const char* set = segment + kCountBytes;
    const bool bitmap = UsesBitmap(count, size);
    if (bitmap) {
      const uint64_t bytes = BitmapBytes(size);
      uint64_t ones = 0;
      for (uint64_t w = 0; 8 * w < bytes; ++w) {
        ones += std::popcount(BitmapWord(set, bytes, w));
      }
      if (ones != count) {
        return corrupt("hub bitmap popcount differs from its count");
      }
      if (size % 8 != 0 &&
          (static_cast<unsigned char>(set[bytes - 1]) >> (size % 8)) != 0) {
        return corrupt("hub bitmap sets a bit past its column");
      }
    } else {
      VertexId prev = 0;
      for (uint64_t e = 0; e < count; ++e) {
        const uint32_t d =
            DecodeFixed<VertexId>(set + 4 * e) - out->column_begin;
        if (d >= size || (e > 0 && d <= prev)) {
          return corrupt("hub destinations not ascending inside their column");
        }
        prev = d;
      }
    }
    out->segments.push_back({at, count, bitmap});
  }
  return Status::OK();
}

}  // namespace nxgraph
