#include "src/storage/graph_store.h"

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
  NX_ASSIGN_OR_RETURN(std::vector<SubShard> row,
                      LoadSubShardRow(i, j, j + 1, transpose));
  return std::move(row[0]);
}

Result<std::string> GraphStore::ReadSubShardRowBytes(uint32_t i,
                                                     uint32_t j_begin,
                                                     uint32_t j_end,
                                                     bool transpose) const {
  if (i >= num_intervals() || j_begin > j_end || j_end > num_intervals()) {
    return Status::InvalidArgument("sub-shard row range out of bounds");
  }
  if (transpose && !manifest_.has_transpose) {
    return Status::InvalidArgument("store was built without a transpose");
  }
  if (j_begin == j_end) return std::string();
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
    // interrupted transfer), unlike a decode-level corruption of a
    // full-length blob.
    return Status::MakeRetryable(
        Status::Corruption("sub-shard row truncated on disk"));
  }
  return buf;
}

Result<std::vector<SubShard>> GraphStore::DecodeSubShardRow(
    uint32_t i, uint32_t j_begin, uint32_t j_end, bool transpose,
    const std::string& raw) const {
  if (i >= num_intervals() || j_begin > j_end || j_end > num_intervals()) {
    return Status::InvalidArgument("sub-shard row range out of bounds");
  }
  std::vector<SubShard> row;
  if (j_begin == j_end) return row;
  const SubShardMeta& first = manifest_.subshard(i, j_begin, transpose);
  row.reserve(j_end - j_begin);
  DecodeTallies tallies;
  Status status;
  for (uint32_t j = j_begin; j < j_end; ++j) {
    const SubShardMeta& meta = manifest_.subshard(i, j, transpose);
    if (meta.offset - first.offset + meta.size > raw.size()) {
      status = Status::Corruption("sub-shard row buffer too short");
      break;
    }
    auto ss = SubShard::Decode(raw.data() + (meta.offset - first.offset),
                               meta.size, i, j, /*verify_checksum=*/true,
                               &ThreadScratch(), decode_path(), &tallies);
    if (!ss.ok()) {
      status = ss.status();
      break;
    }
    row.push_back(std::move(*ss));
  }
  CountDecodes(tallies);
  if (!status.ok()) return status;
  return row;
}

template <typename Use>
auto GraphStore::WithReread(uint32_t i, uint32_t j_begin, uint32_t j_end,
                            bool transpose, const std::string& raw,
                            int max_rereads, Use use) const
    -> decltype(use(raw)) {
  auto first = use(raw);
  if (first.ok() || !first.status().IsCorruption()) return first;
  // The raw bytes failed their checksum (or a mangled header failed to
  // decode). Before declaring the store corrupt, read the range again: a
  // transfer-level bit flip lives in the buffer, not on the medium, and
  // vanishes on a fresh read. If every re-read fails, or its fresh bytes
  // fail too, the corruption is real and the ORIGINAL corruption status
  // surfaces (a transient re-read error must not mask what the caller
  // needs to know).
  for (int attempt = 0; attempt < max_rereads; ++attempt) {
    checksum_rereads_.fetch_add(1, std::memory_order_relaxed);
    auto reread = ReadSubShardRowBytes(i, j_begin, j_end, transpose);
    if (!reread.ok()) continue;
    auto retried = use(*reread);
    if (retried.ok()) return retried;
  }
  return first.status();
}

Result<std::vector<SubShard>> GraphStore::DecodeSubShardRowWithReread(
    uint32_t i, uint32_t j_begin, uint32_t j_end, bool transpose,
    const std::string& raw, int max_rereads) const {
  return WithReread(i, j_begin, j_end, transpose, raw, max_rereads,
                    [&](const std::string& bytes) {
                      return DecodeSubShardRow(i, j_begin, j_end, transpose,
                                               bytes);
                    });
}

Result<std::vector<std::string>> GraphStore::ReadVerifiedBlobs(
    uint32_t i, const std::vector<uint32_t>& js, bool transpose) const {
  if (js.empty()) return Status::InvalidArgument("no sub-shard requested");
  for (size_t k = 1; k < js.size(); ++k) {
    if (js[k] <= js[k - 1]) {
      return Status::InvalidArgument("sub-shard columns must ascend");
    }
  }
  const uint32_t j_begin = js.front();
  const uint32_t j_end = js.back() + 1;
  // The read checks the row and the column range.
  NX_ASSIGN_OR_RETURN(std::string raw,
                      ReadSubShardRowBytes(i, j_begin, j_end, transpose));
  const uint64_t base = manifest_.subshard(i, j_begin, transpose).offset;
  return WithReread(
      i, j_begin, j_end, transpose, raw, /*max_rereads=*/1,
      [&](const std::string& bytes) -> Result<std::vector<std::string>> {
        std::vector<std::string> blobs;
        blobs.reserve(js.size());
        for (uint32_t j : js) {
          const SubShardMeta& meta = manifest_.subshard(i, j, transpose);
          const char* data = bytes.data() + (meta.offset - base);
          if (!SubShard::ChecksumMatches(data, meta.size)) {
            return Status::Corruption("sub-shard checksum mismatch");
          }
          blobs.emplace_back(data, meta.size);
        }
        return blobs;
      });
}

Result<SubShard> GraphStore::DecodeVerifiedBlob(uint32_t i, uint32_t j,
                                                const std::string& blob,
                                                DecodeTallies* tallies) const {
  DecodeTallies mine;
  auto ss = SubShard::Decode(blob.data(), blob.size(), i, j,
                             /*verify_checksum=*/false, &ThreadScratch(),
                             decode_path(), &mine);
  CountDecodes(mine);
  tallies->bulk_decode_calls += mine.bulk_decode_calls;
  tallies->decode_nanos += mine.decode_nanos;
  return ss;
}

void GraphStore::CountDecodes(const DecodeTallies& tallies) const {
  bulk_decode_calls_.fetch_add(tallies.bulk_decode_calls,
                               std::memory_order_relaxed);
  decode_nanos_.fetch_add(tallies.decode_nanos, std::memory_order_relaxed);
}

Result<std::vector<SubShard>> GraphStore::LoadSubShardRow(
    uint32_t i, uint32_t j_begin, uint32_t j_end, bool transpose) const {
  NX_ASSIGN_OR_RETURN(std::string raw,
                      ReadSubShardRowBytes(i, j_begin, j_end, transpose));
  return DecodeSubShardRowWithReread(i, j_begin, j_end, transpose, raw);
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

Result<SubShardCache::Pin> SubShardCache::GetPinned(uint32_t i, uint32_t j,
                                                    bool transpose,
                                                    const CancelToken* cancel) {
  NX_ASSIGN_OR_RETURN(std::vector<Pin> pins,
                      GetPinnedRow(i, {j}, transpose, cancel));
  return std::move(pins[0]);
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
  const Manifest& m = store_->manifest();
  Status status;
  for (size_t begin = 0; begin < n;) {
    if (!leads[begin]) {
      ++begin;
      continue;
    }
    size_t end = begin + 1;
    while (end < n && leads[end]) {
      // A run bridges empty blobs and breaks at any other blob it does not
      // lead.
      bool bridge = true;
      for (uint32_t j = js[end - 1] + 1; j < js[end] && bridge; ++j) {
        bridge = m.subshard(i, j, transpose).num_edges == 0;
      }
      if (!bridge) break;
      ++end;
    }
    Status run = LeadRun(i, js, begin, end, transpose, flights, &pins);
    if (status.ok()) status = std::move(run);
    begin = end;
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
    uint32_t i, const std::vector<uint32_t>& js, size_t begin, size_t end,
    bool transpose, const std::vector<std::shared_ptr<InFlight>>& flights,
    std::vector<Pin>* pins) {
  // Disk I/O and checksum verification run without holding mu_; decoding
  // is left to whoever consumes the pins.
  const std::vector<uint32_t> run(js.begin() + begin, js.begin() + end);
  auto blobs = store_->ReadVerifiedBlobs(i, run, transpose);
  std::vector<std::shared_ptr<const std::string>> loaded(end - begin);
  if (blobs.ok()) {
    for (size_t k = 0; k < loaded.size(); ++k) {
      loaded[k] = std::make_shared<const std::string>(std::move((*blobs)[k]));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t k = begin; k < end; ++k) {
      const uint64_t key = Key(i, js[k], transpose);
      inflight_.erase(key);
      const std::shared_ptr<const std::string>& blob = loaded[k - begin];
      if (blob == nullptr) continue;
      // A blob that cannot be cached is handed back as a transient copy.
      (*pins)[k] = InsertPinnedLocked(key, blob) ? Pin(this, key, blob)
                                                 : Pin(nullptr, 0, blob);
    }
  }
  for (size_t k = begin; k < end; ++k) {
    InFlight& flight = *flights[k];
    {
      std::lock_guard<std::mutex> lock(flight.mu);
      flight.status = blobs.status();
      flight.blob = loaded[k - begin];
      flight.done = true;
    }
    flight.cv.notify_all();
  }
  return blobs.status();
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
