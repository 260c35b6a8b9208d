#include "src/storage/hub_file.h"

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
  const uint32_t side = p - q;
  hub->offsets_.resize(static_cast<size_t>(side) * side);
  hub->capacities_.resize(static_cast<size_t>(side) * side);
  // Column-major: a destination column's segments are contiguous in
  // ascending i, the order FromHub folds them.
  uint64_t offset = 0;
  for (uint32_t j = q; j < p; ++j) {
    for (uint32_t i = q; i < p; ++i) {
      const uint64_t capacity =
          SegmentBytes(manifest.subshard(i, j, transpose), value_bytes);
      const size_t idx = hub->SegmentIndex(i, j);
      hub->offsets_[idx] = offset;
      hub->capacities_[idx] = capacity;
      offset += capacity;
    }
  }
  hub->total_bytes_ = offset;
  hub->column_offsets_.assign(manifest.interval_offsets.begin() + q,
                              manifest.interval_offsets.end());
  std::unique_ptr<WritableFile> init;
  NX_RETURN_NOT_OK(env->NewWritableFile(path, &init));
  NX_RETURN_NOT_OK(init->Close());
  NX_RETURN_NOT_OK(env->NewRandomWriteFile(path, &hub->writer_));
  NX_RETURN_NOT_OK(hub->writer_->Truncate(offset));
  NX_RETURN_NOT_OK(env->NewRandomAccessFile(path, &hub->reader_));
  return hub;
}

size_t HubFile::SegmentIndex(uint32_t i, uint32_t j) const {
  const uint32_t side = p_ - q_;
  return static_cast<size_t>(j - q_) * side + (i - q_);
}

uint64_t HubFile::SegmentBytes(const SubShardMeta& meta,
                               uint32_t value_bytes) {
  return 8 + static_cast<uint64_t>(meta.num_dsts) * (4 + value_bytes) +
         kChecksumBytes;
}

uint64_t HubFile::SegmentCapacity(uint32_t i, uint32_t j) const {
  return capacities_[SegmentIndex(i, j)];
}

uint64_t HubFile::RunSpan(uint32_t i_begin, uint32_t i_end,
                          uint32_t j) const {
  const size_t first = SegmentIndex(i_begin, j);
  const size_t last = SegmentIndex(i_end - 1, j);
  return offsets_[last] + capacities_[last] - offsets_[first];
}

uint64_t HubFile::RunOffset(uint32_t i_begin, uint32_t i, uint32_t j) const {
  return offsets_[SegmentIndex(i, j)] - offsets_[SegmentIndex(i_begin, j)];
}

Status HubFile::SealHub(uint32_t i, uint32_t j, char* segment,
                        size_t payload_bytes) const {
  if (payload_bytes + kChecksumBytes > SegmentCapacity(i, j)) {
    return Status::InvalidArgument("hub payload exceeds segment capacity");
  }
  const uint32_t crc = crc32c::Value(segment, payload_bytes);
  std::memcpy(segment + payload_bytes, &crc, sizeof(crc));
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

Status HubFile::WriteHub(uint32_t i, uint32_t j, const void* data,
                         size_t bytes) {
  if (bytes + kChecksumBytes > SegmentCapacity(i, j)) {
    return Status::InvalidArgument("hub payload exceeds segment capacity");
  }
  std::string segment(SegmentCapacity(i, j), '\0');
  std::memcpy(segment.data(), data, bytes);
  NX_RETURN_NOT_OK(SealHub(i, j, segment.data(), bytes));
  return WriteHubRun(nullptr, i, i + 1, j, std::move(segment));
}

Status HubFile::ReadHubRun(uint32_t i_begin, uint32_t i_end, uint32_t j,
                           Run* out) const {
  if (i_begin >= i_end) return Status::InvalidArgument("empty hub run");
  const size_t first = SegmentIndex(i_begin, j);
  const size_t last = SegmentIndex(i_end - 1, j);
  const uint64_t base = offsets_[first];
  const uint64_t span = offsets_[last] + capacities_[last] - base;
  out->bytes.resize(span);
  out->segments.clear();
  size_t n = 0;
  NX_RETURN_NOT_OK(reader_->ReadAt(base, span, out->bytes.data(), &n));
  // The truncation, bad-count, checksum and bad-destination cases are
  // marked retryable: the file has its full preallocated size (Create wrote
  // every segment), so a short read is a transient transfer hiccup, and a
  // count exceeding the segment capacity, a payload that fails its CRC32C
  // or a destination outside column j is bus/DMA garbage — all heal on a
  // fresh read, and a real on-medium corruption still fails after the
  // pipeline's bounded retries. FromHub indexes its accumulator by
  // destination, so no entry may leave column j.
  if (n != span) {
    return Status::MakeRetryable(Status::Corruption("hub run truncated"));
  }
  const uint64_t entry_bytes = 4 + value_bytes_;
  const VertexId dst_begin = column_offsets_[j - q_];
  const VertexId dst_end = column_offsets_[j - q_ + 1];
  for (size_t idx = first; idx <= last; ++idx) {
    const size_t at = offsets_[idx] - base;
    const char* segment = out->bytes.data() + at;
    const uint64_t count = DecodeFixed<uint64_t>(segment);
    if (count > (capacities_[idx] - 8 - kChecksumBytes) / entry_bytes) {
      return Status::MakeRetryable(
          Status::Corruption("hub entry count exceeds capacity"));
    }
    const uint64_t payload = 8 + count * entry_bytes;
    if (DecodeFixed<uint32_t>(segment + payload) !=
        crc32c::Value(segment, payload)) {
      return Status::MakeRetryable(
          Status::Corruption("hub segment checksum mismatch"));
    }
    const char* entries = segment + 8;
    for (uint64_t e = 0; e < count; ++e) {
      const VertexId dst = DecodeFixed<VertexId>(entries + e * entry_bytes);
      if (dst < dst_begin || dst >= dst_end) {
        return Status::MakeRetryable(
            Status::Corruption("hub destination outside its column"));
      }
    }
    out->segments.emplace_back(at, payload);
  }
  return Status::OK();
}

Status HubFile::ReadHub(uint32_t i, uint32_t j, std::string* out) const {
  Run run;
  NX_RETURN_NOT_OK(ReadHubRun(i, i + 1, j, &run));
  out->assign(run.segment(0));
  return Status::OK();
}

}  // namespace nxgraph
