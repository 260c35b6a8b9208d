#include "src/storage/hub_file.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "src/io/writeback.h"
#include "src/util/crc32c.h"
#include "src/util/serialize.h"

namespace nxgraph {

namespace {

// The group of `groups` that holds k.
const std::pair<uint32_t, uint32_t>& GroupOf(const HubLayout::Groups& groups,
                                             uint32_t k) {
  return *std::partition_point(
      groups.begin(), groups.end(),
      [k](const std::pair<uint32_t, uint32_t>& g) { return g.second <= k; });
}

// True when `groups` are nonempty, consecutive and tile [q, p).
bool Tiles(const HubLayout::Groups& groups, uint32_t q, uint32_t p) {
  uint32_t at = q;
  for (auto [b, e] : groups) {
    if (b != at || e <= b) return false;
    at = e;
  }
  return at == p;
}

}  // namespace

size_t HubLayout::Slot(uint32_t i, uint32_t j) const {
  const uint32_t q = row_groups.front().first;
  const uint32_t p = row_groups.back().second;
  const auto [rb, re] = GroupOf(row_groups, i);
  const auto [cb, ce] = GroupOf(column_groups, j);
  // Earlier column groups, the group's earlier tiles, then the tile's
  // earlier columns.
  return static_cast<size_t>(cb - q) * (p - q) +
         static_cast<size_t>(ce - cb) * (rb - q) +
         static_cast<size_t>(j - cb) * (re - rb) + (i - rb);
}

std::vector<std::pair<uint32_t, uint32_t>> HubLayout::Order() const {
  std::vector<std::pair<uint32_t, uint32_t>> order;
  for (auto [cb, ce] : column_groups) {
    for (auto [rb, re] : row_groups) {
      for (uint32_t j = cb; j < ce; ++j) {
        for (uint32_t i = rb; i < re; ++i) order.emplace_back(i, j);
      }
    }
  }
  return order;
}

Result<std::unique_ptr<HubFile>> HubFile::Create(Env* env,
                                                 const std::string& path,
                                                 const Manifest& manifest,
                                                 const HubLayout& layout,
                                                 uint32_t value_bytes,
                                                 bool transpose) {
  const uint32_t p = manifest.num_intervals;
  if (layout.row_groups.empty() ||
      !Tiles(layout.row_groups, layout.row_groups.front().first, p) ||
      !Tiles(layout.column_groups, layout.row_groups.front().first, p)) {
    return Status::InvalidArgument(
        "hub layout groups do not tile the disk block");
  }
  std::unique_ptr<HubFile> hub(new HubFile());
  hub->layout_ = layout;
  hub->value_bytes_ = value_bytes;
  hub->offsets_ = SegmentOffsets(manifest, layout, value_bytes, transpose);
  hub->total_bytes_ = hub->offsets_.back();
  hub->order_ = layout.Order();
  for (auto [i, j] : hub->order_) {
    hub->num_dsts_.push_back(manifest.subshard(i, j, transpose).num_dsts);
  }
  hub->interval_offsets_ = manifest.interval_offsets;
  std::unique_ptr<WritableFile> init;
  NX_RETURN_NOT_OK(env->NewWritableFile(path, &init));
  NX_RETURN_NOT_OK(init->Close());
  NX_RETURN_NOT_OK(env->NewRandomWriteFile(path, &hub->writer_));
  NX_RETURN_NOT_OK(hub->writer_->Truncate(hub->total_bytes_));
  NX_RETURN_NOT_OK(env->NewRandomAccessFile(path, &hub->reader_));
  return hub;
}

std::vector<uint64_t> HubFile::SegmentOffsets(const Manifest& manifest,
                                              const HubLayout& layout,
                                              uint32_t value_bytes,
                                              bool transpose) {
  std::vector<uint64_t> offsets(1, 0);
  for (auto [i, j] : layout.Order()) {
    offsets.push_back(offsets.back() +
                      SegmentBytes(manifest.subshard(i, j, transpose).num_dsts,
                                   manifest.interval_size(j), value_bytes));
  }
  return offsets;
}

uint64_t HubFile::SegmentCapacity(uint32_t i, uint32_t j) const {
  const size_t slot = Slot(i, j);
  return offsets_[slot + 1] - offsets_[slot];
}

Status HubFile::SealHub(uint32_t i, uint32_t j, char* segment,
                        std::span<const VertexId> dsts,
                        const void* values) const {
  const size_t slot = Slot(i, j);
  const uint64_t count = dsts.size();
  if (count != num_dsts_[slot]) {
    return Status::InvalidArgument(
        "hub entry count differs from its sub-shard's num_dsts");
  }
  const VertexId begin = interval_offsets_[j];
  const uint32_t size = interval_offsets_[j + 1] - begin;
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
  const uint64_t payload = offsets_[slot + 1] - offsets_[slot] - kChecksumBytes;
  if (count > 0) {
    std::memcpy(set + set_bytes, values, count * value_bytes_);
  }
  const uint32_t crc = crc32c::Value(segment, payload);
  std::memcpy(segment + payload, &crc, sizeof(crc));
  return Status::OK();
}

Status HubFile::WriteHubRun(WritebackQueue* wb, size_t begin, size_t end,
                            std::string run) {
  if (begin >= end || end > order_.size()) {
    return Status::InvalidArgument("hub run empty or past the last segment");
  }
  if (run.size() != RunSpan(begin, end)) {
    return Status::InvalidArgument("hub run does not span its segments");
  }
  const uint64_t offset = offsets_[begin];
  if (wb == nullptr) return writer_->WriteAt(offset, run.data(), run.size());
  return wb->Push(writer_.get(), offset, std::move(run));
}

Status HubFile::ReadHubRun(size_t begin, size_t end, Run* out) const {
  out->segments.clear();
  if (begin >= end || end > order_.size()) {
    return Status::InvalidArgument("hub run empty or past the last segment");
  }
  const uint64_t base = offsets_[begin];
  const uint64_t span = offsets_[end] - base;
  out->bytes.resize(span);
  size_t n = 0;
  NX_RETURN_NOT_OK(reader_->ReadAt(base, span, out->bytes.data(), &n));
  // Every failure below is marked retryable: the file has its full
  // preallocated size (Create wrote every segment), so a short read is a
  // transient transfer hiccup, and a segment that fails its CRC32C or
  // whose verified bytes do not describe its blob's destinations is
  // bus/DMA garbage — all heal on a fresh read, and a real on-medium
  // corruption still fails after the pipeline's bounded retries. FromHub
  // indexes its accumulator by destination and its values by entry, so no
  // entry may leave its column and the set must hold exactly `count`
  // entries.
  const auto corrupt = [out](const char* what) {
    out->segments.clear();
    return Status::MakeRetryable(Status::Corruption(what));
  };
  if (n != span) return corrupt("hub run truncated");
  for (size_t slot = begin; slot < end; ++slot) {
    const auto [i, j] = order_[slot];
    const VertexId column_begin = interval_offsets_[j];
    const uint32_t size = interval_offsets_[j + 1] - column_begin;
    const size_t at = offsets_[slot] - base;
    const char* segment = out->bytes.data() + at;
    const uint64_t payload =
        offsets_[slot + 1] - offsets_[slot] - kChecksumBytes;
    if (DecodeFixed<uint32_t>(segment + payload) !=
        crc32c::Value(segment, payload)) {
      return corrupt("hub segment checksum mismatch");
    }
    const uint64_t count = DecodeFixed<uint64_t>(segment);
    if (count != num_dsts_[slot]) {
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
        const uint32_t d = DecodeFixed<VertexId>(set + 4 * e) - column_begin;
        if (d >= size || (e > 0 && d <= prev)) {
          return corrupt("hub destinations not ascending inside their column");
        }
        prev = d;
      }
    }
    out->segments.push_back({at, i, j, column_begin, size, count, bitmap});
  }
  return Status::OK();
}

}  // namespace nxgraph
