#include "src/storage/graph_store.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "src/prep/degreer.h"

namespace nxgraph {

namespace {

// The NXS2 decoder stages varints in scratch memory before the delta
// reconstruction; one buffer per thread means every blob decoded on a
// thread reuses a single allocation that grows to the largest blob and
// stays there.
SubShardDecodeScratch& ThreadScratch() {
  static thread_local SubShardDecodeScratch scratch;
  return scratch;
}

}  // namespace

Result<std::shared_ptr<GraphStore>> GraphStore::Open(Env* env,
                                                     const std::string& dir) {
  std::shared_ptr<GraphStore> store(new GraphStore(env, dir));
  NX_ASSIGN_OR_RETURN(store->manifest_, ReadManifest(env, dir));
  NX_RETURN_NOT_OK(env->NewRandomAccessFile(dir + "/" + kSubShardsFileName,
                                            &store->shards_));
  if (store->manifest_.has_transpose) {
    NX_RETURN_NOT_OK(env->NewRandomAccessFile(
        dir + "/" + kSubShardsTransposeFileName, &store->shards_transpose_));
  }
  return store;
}

Result<SubShard> GraphStore::LoadSubShard(uint32_t i, uint32_t j,
                                          bool transpose) const {
  NX_ASSIGN_OR_RETURN(std::string blob,
                      ReadVerifiedRow(i, j, j + 1, transpose,
                                      /*max_rereads=*/1));
  return DecodeVerifiedBlob(i, j, blob.data(), blob.size(),
                            ResolveDecodePath(SimdDecode::kAuto), nullptr);
}

Result<std::string> GraphStore::ReadSubShardRowBytes(uint32_t i,
                                                     uint32_t j_begin,
                                                     uint32_t j_end,
                                                     bool transpose) const {
  if (i >= num_intervals() || j_begin >= j_end || j_end > num_intervals()) {
    return Status::InvalidArgument("sub-shard row range out of bounds");
  }
  if (transpose && !manifest_.has_transpose) {
    return Status::InvalidArgument("store was built without a transpose");
  }
  const SubShardMeta& first = manifest_.subshard(i, j_begin, transpose);
  const SubShardMeta& last = manifest_.subshard(i, j_end - 1, transpose);
  const uint64_t bytes = last.offset + last.size - first.offset;
  std::string buf(bytes, '\0');
  const RandomAccessFile* file =
      transpose ? shards_transpose_.get() : shards_.get();
  size_t n = 0;
  NX_RETURN_NOT_OK(file->ReadAt(first.offset, bytes, buf.data(), &n));
  if (n != bytes) {
    // Retryable: a short read may fill in on the next attempt (an
    // interrupted transfer), unlike a checksum mismatch of a full-length
    // read.
    return Status::MakeRetryable(
        Status::Corruption("sub-shard row truncated on disk"));
  }
  return buf;
}

Result<std::string> GraphStore::ReadVerifiedRow(uint32_t i, uint32_t j_begin,
                                                uint32_t j_end, bool transpose,
                                                int max_rereads) const {
  // The read checks the row, the column range and the transpose.
  NX_ASSIGN_OR_RETURN(std::string raw,
                      ReadSubShardRowBytes(i, j_begin, j_end, transpose));
  const uint64_t base = manifest_.subshard(i, j_begin, transpose).offset;
  const auto verified = [&](const std::string& bytes) {
    for (uint32_t j = j_begin; j < j_end; ++j) {
      const SubShardMeta& meta = manifest_.subshard(i, j, transpose);
      if (!SubShard::ChecksumMatches(bytes.data() + (meta.offset - base),
                                     meta.size)) {
        return false;
      }
    }
    return true;
  };
  if (verified(raw)) return raw;
  // Before declaring the store corrupt, read the span again: a
  // transfer-level bit flip lives in the buffer, not on the medium, and
  // vanishes on a fresh read. If every re-read fails, or its fresh bytes
  // fail too, the corruption is real, and the mismatch is what surfaces (a
  // transient re-read error must not mask what the caller needs to know).
  for (int attempt = 0; attempt < max_rereads; ++attempt) {
    checksum_rereads_.fetch_add(1, std::memory_order_relaxed);
    auto reread = ReadSubShardRowBytes(i, j_begin, j_end, transpose);
    if (reread.ok() && verified(*reread)) return std::move(*reread);
  }
  return Status::Corruption("sub-shard checksum mismatch");
}

Result<SubShard> GraphStore::DecodeVerifiedBlob(uint32_t i, uint32_t j,
                                                const char* data, size_t size,
                                                DecodePath path,
                                                DecodeTallies* tallies) const {
  DecodeTallies mine;
  auto ss = SubShard::Decode(data, size, i, j, /*verify_checksum=*/false,
                             &ThreadScratch(), path, &mine);
  bulk_decode_calls_.fetch_add(mine.bulk_decode_calls,
                               std::memory_order_relaxed);
  decode_nanos_.fetch_add(mine.decode_nanos, std::memory_order_relaxed);
  if (tallies != nullptr) {
    tallies->bulk_decode_calls += mine.bulk_decode_calls;
    tallies->decode_nanos += mine.decode_nanos;
  }
  return ss;
}

Result<std::vector<uint32_t>> GraphStore::LoadOutDegrees() const {
  std::vector<uint32_t> degrees;
  NX_RETURN_NOT_OK(
      LoadDegrees(env_, dir_, num_vertices(), &degrees, nullptr));
  return degrees;
}

Result<std::vector<uint32_t>> GraphStore::LoadInDegrees() const {
  std::vector<uint32_t> degrees;
  NX_RETURN_NOT_OK(
      LoadDegrees(env_, dir_, num_vertices(), nullptr, &degrees));
  return degrees;
}

uint64_t GraphStore::TotalSubShardBytes(bool transpose) const {
  uint64_t total = 0;
  const auto& table =
      transpose ? manifest_.subshards_transpose : manifest_.subshards;
  for (const auto& meta : table) total += meta.size;
  return total;
}

SubShardCache::SubShardCache(std::shared_ptr<const GraphStore> store,
                             uint64_t budget_bytes)
    : store_(std::move(store)), budget_bytes_(budget_bytes) {}

uint64_t SubShardCache::bytes_cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_cached_;
}

SubShardCache::Counters SubShardCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

bool SubShardCache::Contains(uint32_t i, uint32_t j, bool transpose) const {
  const uint64_t key = Key(i, j, transpose);
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.find(key) != cache_.end();
}

uint64_t SubShardCache::pinned_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t pins = 0;
  for (const Entry& entry : lru_) pins += entry.pins;
  return pins;
}

void SubShardCache::Pin::Release() {
  if (cache_ != nullptr) {
    cache_->Unpin(key_);
    cache_ = nullptr;
  }
}

void SubShardCache::Unpin(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  // A pinned entry cannot be evicted and Clear skips pinned entries, so
  // the entry is present for as long as any pin on it lives.
  if (it != cache_.end() && it->second->pins > 0) --it->second->pins;
}

SubShardCache::Pin SubShardCache::PinLocked(Lru::iterator entry) {
  lru_.splice(lru_.begin(), lru_, entry);
  ++entry->pins;
  return Pin(this, entry->key, entry->blob);
}

bool SubShardCache::MakeRoomLocked(uint64_t bytes) {
  // Walk from the cold end. Entries colder than a victim are pinned and
  // stay pinned while mu_ is held, so each step resumes above the last.
  auto it = lru_.end();
  while (bytes_cached_ + bytes > budget_bytes_) {
    do {
      if (it == lru_.begin()) return false;  // everything left is pinned
      --it;
    } while (it->pins > 0);
    const uint64_t victim_bytes = it->blob->size();
    bytes_cached_ -= victim_bytes;
    counters_.evicted_bytes += victim_bytes;
    ++counters_.evictions;
    cache_.erase(it->key);
    it = lru_.erase(it);
  }
  return true;
}

bool SubShardCache::InsertPinnedLocked(
    uint64_t key, const std::shared_ptr<const std::string>& blob) {
  const uint64_t bytes = blob->size();  // SubShardMeta::size
  if (!MakeRoomLocked(bytes)) return false;
  lru_.push_front(Entry{key, blob, /*pins=*/1});
  cache_.emplace(key, lru_.begin());
  bytes_cached_ += bytes;
  counters_.inserted_bytes += bytes;
  return true;
}

uint64_t SubShardCache::Key(uint32_t i, uint32_t j, bool transpose) const {
  const uint64_t p = store_->num_intervals();
  return ((transpose ? p : 0) + i) * p + j;
}

Result<std::vector<SubShardCache::Pin>> SubShardCache::GetPinnedRow(
    uint32_t i, const std::vector<uint32_t>& js, bool transpose,
    const CancelToken* cancel) {
  // Checked before mu_ (cancelled() may lazily fire deadline callbacks,
  // which must never run under the cache lock). A cancelled call counts
  // its blobs as neither hits nor misses.
  if (cancel != nullptr && cancel->cancelled()) return cancel->ToStatus();
  const uint32_t p = store_->num_intervals();
  if (i >= p || (transpose && !store_->has_transpose())) {
    return Status::InvalidArgument("sub-shard row out of range");
  }
  for (size_t k = 0; k < js.size(); ++k) {
    // Strict ascent also keeps one call from following its own load.
    if (js[k] >= p || (k > 0 && js[k] <= js[k - 1])) {
      return Status::InvalidArgument(
          "sub-shard columns must ascend within range");
    }
  }
  const size_t n = js.size();
  std::vector<Pin> pins(n);
  // The in-flight load each requested blob joins (null for a hit), and
  // whether this call leads it.
  std::vector<std::shared_ptr<InFlight>> flights(n);
  std::vector<uint8_t> leads(n, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t k = 0; k < n; ++k) {
      const uint64_t key = Key(i, js[k], transpose);
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++counters_.hits;
        pins[k] = PinLocked(it->second);
        continue;
      }
      ++counters_.misses;
      auto [fit, inserted] = inflight_.try_emplace(key);
      if (inserted) {
        fit->second = std::make_shared<InFlight>();
        leads[k] = 1;
      }
      flights[k] = fit->second;
    }
  }

  // Lead every run before following anything: a caller waiting on one of
  // our blobs is never held up by our own waits, and a follow cut short by
  // `cancel` cannot leave a led blob unpublished.
  Status status;
  if (n > 0) {
    const auto index = [&](uint32_t j) {
      return static_cast<size_t>(
          std::lower_bound(js.begin(), js.end(), j) - js.begin());
    };
    for (auto [jb, je] :
         RowRuns(store_->manifest(), i, transpose, js.front(), js.back() + 1,
                 [&](uint32_t j) {
                   const size_t k = index(j);
                   return k < n && js[k] == j && leads[k] != 0;
                 })) {
      // A bridged empty blob may be one this call requested but does not
      // lead; it is read across, and keeps the pin or flight it has.
      std::vector<size_t> run;
      for (size_t k = index(jb); k < index(je); ++k) {
        if (leads[k]) run.push_back(k);
      }
      Status read = LeadRun(i, js, run, transpose, flights, &pins);
      if (status.ok()) status = std::move(read);
    }
  }
  for (size_t k = 0; k < n && status.ok(); ++k) {
    if (flights[k] != nullptr && !leads[k]) {
      status = Follow(Key(i, js[k], transpose), flights[k], cancel, &pins[k]);
    }
  }
  if (!status.ok()) return status;
  return pins;
}

Status SubShardCache::LeadRun(
    uint32_t i, const std::vector<uint32_t>& js, const std::vector<size_t>& run,
    bool transpose, const std::vector<std::shared_ptr<InFlight>>& flights,
    std::vector<Pin>* pins) {
  // Disk I/O and checksum verification run without holding mu_; decoding
  // is left to whoever consumes the pins.
  const Manifest& m = store_->manifest();
  const uint32_t j_begin = js[run.front()];
  auto raw = store_->ReadVerifiedRow(i, j_begin, js[run.back()] + 1,
                                     transpose, /*max_rereads=*/1);
  std::vector<std::shared_ptr<const std::string>> loaded(run.size());
  if (raw.ok()) {
    const uint64_t base = m.subshard(i, j_begin, transpose).offset;
    for (size_t r = 0; r < run.size(); ++r) {
      const SubShardMeta& meta = m.subshard(i, js[run[r]], transpose);
      loaded[r] = std::make_shared<const std::string>(
          raw->data() + (meta.offset - base), meta.size);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t r = 0; r < run.size(); ++r) {
      const uint64_t key = Key(i, js[run[r]], transpose);
      inflight_.erase(key);
      const std::shared_ptr<const std::string>& blob = loaded[r];
      if (blob == nullptr) continue;
      // A blob that cannot be cached is handed back as a transient copy.
      (*pins)[run[r]] = InsertPinnedLocked(key, blob) ? Pin(this, key, blob)
                                                      : Pin(nullptr, 0, blob);
    }
  }
  for (size_t r = 0; r < run.size(); ++r) {
    InFlight& flight = *flights[run[r]];
    {
      std::lock_guard<std::mutex> lock(flight.mu);
      flight.status = raw.status();
      flight.blob = loaded[r];
      flight.done = true;
    }
    flight.cv.notify_all();
  }
  return raw.status();
}

Status SubShardCache::Follow(uint64_t key,
                             const std::shared_ptr<InFlight>& flight,
                             const CancelToken* cancel, Pin* pin) {
  // Another caller is already reading this blob; share its load instead of
  // issuing a duplicate read and discarding one copy. A token-bearing
  // follower detaches the moment its token fires — the leader's load
  // continues untouched and still publishes for everyone else.
  uint64_t cb_id = 0;
  if (cancel != nullptr) {
    // Lock-then-notify so the wake cannot slip between a waiter's
    // predicate check and its block. The callback only touches `flight`
    // (kept alive by the capture), so a post-Remove straggler fire is
    // harmless.
    cb_id = cancel->AddCallback([flight] {
      { std::lock_guard<std::mutex> lock(flight->mu); }
      flight->cv.notify_all();
    });
  }
  bool detached = false;
  {
    std::unique_lock<std::mutex> lock(flight->mu);
    for (;;) {
      if (flight->done) break;
      if (cancel != nullptr) {
        // cancelled() may lazily fire the deadline (running callbacks,
        // including ours) — call it with flight->mu released.
        lock.unlock();
        const bool fired = cancel->cancelled();
        lock.lock();
        if (flight->done) break;
        if (fired) {
          detached = true;
          break;
        }
        if (cancel->has_deadline()) {
          flight->cv.wait_until(lock, cancel->deadline());
        } else {
          flight->cv.wait(lock);
        }
      } else {
        flight->cv.wait(lock);
      }
    }
  }
  if (cancel != nullptr) cancel->RemoveCallback(cb_id);
  if (detached) return cancel->ToStatus();
  std::shared_ptr<const std::string> blob;
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    if (!flight->status.ok()) return flight->status;
    blob = flight->blob;
  }
  // Re-pin against whatever the leader left in the map. The entry may
  // already be gone (evicted, or never inserted) — then the shared load is
  // handed over as a transient copy.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  *pin = it == cache_.end() ? Pin(nullptr, 0, std::move(blob))
                            : PinLocked(it->second);
  return Status::OK();
}

void SubShardCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->pins > 0) {
      ++it;
      continue;
    }
    bytes_cached_ -= it->blob->size();
    cache_.erase(it->key);
    it = lru_.erase(it);
  }
}

}  // namespace nxgraph
