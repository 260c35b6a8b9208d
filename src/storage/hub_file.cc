#include "src/storage/hub_file.h"

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
      const auto& meta = manifest.subshard(i, j, transpose);
      const uint64_t capacity =
          8 + static_cast<uint64_t>(meta.num_dsts) * (4 + value_bytes) +
          kChecksumBytes;
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

uint64_t HubFile::SegmentCapacity(uint32_t i, uint32_t j) const {
  return capacities_[SegmentIndex(i, j)];
}

Status HubFile::WriteHub(uint32_t i, uint32_t j, const void* data,
                         size_t bytes) {
  return WriteHub(nullptr, i, j,
                  std::string(static_cast<const char*>(data), bytes));
}

Status HubFile::WriteHub(WritebackQueue* wb, uint32_t i, uint32_t j,
                         std::string payload) {
  const size_t idx = SegmentIndex(i, j);
  if (payload.size() + kChecksumBytes > capacities_[idx]) {
    return Status::InvalidArgument("hub payload exceeds segment capacity");
  }
  EncodeFixed<uint32_t>(&payload,
                        crc32c::Value(payload.data(), payload.size()));
  if (wb == nullptr) {
    return writer_->WriteAt(offsets_[idx], payload.data(), payload.size());
  }
  return wb->Push(writer_.get(), offsets_[idx], std::move(payload));
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

std::vector<std::pair<uint32_t, uint32_t>> HubFile::SplitRun(
    uint32_t i_begin, uint32_t i_end, uint32_t j, uint64_t max_bytes) const {
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  uint32_t begin = i_begin;
  uint64_t bytes = 0;
  for (uint32_t i = i_begin; i < i_end; ++i) {
    const uint64_t capacity = SegmentCapacity(i, j);
    if (i > begin && bytes + capacity > max_bytes) {
      runs.emplace_back(begin, i);
      begin = i;
      bytes = 0;
    }
    bytes += capacity;
  }
  if (begin < i_end) runs.emplace_back(begin, i_end);
  return runs;
}

}  // namespace nxgraph
