#include "src/storage/interval_store.h"

#include <cstring>

#include "src/io/writeback.h"
#include "src/util/crc32c.h"
#include "src/util/serialize.h"

namespace nxgraph {

Result<std::unique_ptr<IntervalStore>> IntervalStore::Layout(
    const Manifest& manifest, uint32_t value_bytes) {
  if (value_bytes == 0) {
    return Status::InvalidArgument("value_bytes must be positive");
  }
  std::unique_ptr<IntervalStore> store(new IntervalStore());
  store->value_bytes_ = value_bytes;
  store->offsets_ = SegmentOffsets(manifest, value_bytes);
  store->total_bytes_ = 2 * store->offsets_.back();
  for (uint32_t i = 0; i < manifest.num_intervals; ++i) {
    store->sizes_.push_back(manifest.interval_size(i));
  }
  return store;
}

std::vector<uint64_t> IntervalStore::SegmentOffsets(const Manifest& manifest,
                                                    uint32_t value_bytes) {
  std::vector<uint64_t> offsets(1, 0);
  for (uint32_t i = 0; i < manifest.num_intervals; ++i) {
    const uint64_t stored =
        static_cast<uint64_t>(manifest.interval_size(i)) * value_bytes +
        kChecksumBytes;
    offsets.push_back(offsets.back() + stored);
  }
  return offsets;
}

Result<std::unique_ptr<IntervalStore>> IntervalStore::Create(
    Env* env, const std::string& path, const Manifest& manifest,
    uint32_t value_bytes) {
  NX_ASSIGN_OR_RETURN(std::unique_ptr<IntervalStore> store,
                      Layout(manifest, value_bytes));
  // Truncate any stale file, then preallocate by extending to full size.
  std::unique_ptr<WritableFile> init;
  NX_RETURN_NOT_OK(env->NewWritableFile(path, &init));
  NX_RETURN_NOT_OK(init->Close());
  NX_RETURN_NOT_OK(env->NewRandomWriteFile(path, &store->writer_));
  NX_RETURN_NOT_OK(store->writer_->Truncate(store->total_bytes_));
  NX_RETURN_NOT_OK(env->NewRandomAccessFile(path, &store->reader_));
  return store;
}

Result<std::unique_ptr<IntervalStore>> IntervalStore::Open(
    Env* env, const std::string& path, const Manifest& manifest,
    uint32_t value_bytes) {
  NX_ASSIGN_OR_RETURN(std::unique_ptr<IntervalStore> store,
                      Layout(manifest, value_bytes));
  if (!env->FileExists(path)) return Status::NotFound(path);
  NX_ASSIGN_OR_RETURN(const uint64_t size, env->GetFileSize(path));
  if (size != store->total_bytes_) {
    return Status::Corruption("interval store size mismatch: " + path);
  }
  NX_RETURN_NOT_OK(env->NewRandomWriteFile(path, &store->writer_));
  NX_RETURN_NOT_OK(env->NewRandomAccessFile(path, &store->reader_));
  return store;
}

Status IntervalStore::Read(uint32_t interval, int parity, void* buf) const {
  const uint64_t bytes = stored_bytes(interval);
  std::string raw(bytes, '\0');
  size_t n = 0;
  NX_RETURN_NOT_OK(reader_->ReadAt(Offset(interval, parity), bytes,
                                   raw.data(), &n));
  // Both checks are retryable: Open checked the file size, so a short read
  // of a segment is a transient transfer hiccup, and a checksum mismatch
  // is a transfer-level flip that heals on a fresh read (an on-medium one
  // still fails after the pipeline's bounded retries).
  if (n != bytes) {
    return Status::MakeRetryable(
        Status::Corruption("interval segment truncated"));
  }
  const uint64_t values = segment_bytes(interval);
  if (DecodeFixed<uint32_t>(raw.data() + values) !=
      crc32c::Value(raw.data(), values)) {
    return Status::MakeRetryable(
        Status::Corruption("interval segment checksum mismatch"));
  }
  std::memcpy(buf, raw.data(), values);
  return Status::OK();
}

std::string IntervalStore::Seal(uint32_t interval, const void* buf) const {
  std::string sealed;
  sealed.reserve(stored_bytes(interval));
  sealed.append(static_cast<const char*>(buf), segment_bytes(interval));
  EncodeFixed<uint32_t>(&sealed, crc32c::Value(sealed.data(), sealed.size()));
  return sealed;
}

Status IntervalStore::Write(uint32_t interval, int parity, const void* buf) {
  const std::string sealed = Seal(interval, buf);
  return writer_->WriteAt(Offset(interval, parity), sealed.data(),
                          sealed.size());
}

Status IntervalStore::Write(WritebackQueue* wb, uint32_t interval, int parity,
                            const void* buf) {
  if (wb == nullptr) return Write(interval, parity, buf);
  return wb->Push(writer_.get(), Offset(interval, parity),
                  Seal(interval, buf));
}

}  // namespace nxgraph
