// GraphStore: read-side handle to a preprocessed graph directory.
#ifndef NXGRAPH_STORAGE_GRAPH_STORE_H_
#define NXGRAPH_STORAGE_GRAPH_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/io/env.h"
#include "src/prep/manifest.h"
#include "src/storage/subshard.h"
#include "src/util/cancel.h"
#include "src/util/result.h"

namespace nxgraph {

/// \brief Opens the manifest and shard files of a prepared graph and serves
/// sub-shard loads (positional reads of whole blobs — each load is one
/// sequential segment, preserving the streamlined access pattern).
///
/// Thread-safe: loads go through pread-style positional reads.
class GraphStore {
 public:
  /// Opens an existing store directory (fails with NotFound/Corruption).
  static Result<std::shared_ptr<GraphStore>> Open(Env* env,
                                                  const std::string& dir);

  const Manifest& manifest() const { return manifest_; }
  uint64_t num_vertices() const { return manifest_.num_vertices; }
  uint64_t num_edges() const { return manifest_.num_edges; }
  uint32_t num_intervals() const { return manifest_.num_intervals; }
  bool weighted() const { return manifest_.weighted; }
  bool has_transpose() const { return manifest_.has_transpose; }
  Env* env() const { return env_; }
  const std::string& dir() const { return dir_; }

  /// Reads and decodes sub-shard SS_{i.j} (LoadSubShardRow of one blob);
  /// `transpose` selects the reversed graph (requires has_transpose()).
  Result<SubShard> LoadSubShard(uint32_t i, uint32_t j,
                                bool transpose = false) const;

  /// Streams sub-shards SS_{i.j_begin} .. SS_{i.j_end-1} with a single
  /// sequential read (they are contiguous in row-major file order) — the
  /// engines' "streamlined disk access" path. Returns j_end - j_begin
  /// decoded sub-shards (empty ones included). Every blob's checksum is
  /// verified.
  Result<std::vector<SubShard>> LoadSubShardRow(uint32_t i, uint32_t j_begin,
                                                uint32_t j_end,
                                                bool transpose) const;

  /// Raw-read half of LoadSubShardRow: one sequential positional read of
  /// the row's undecoded bytes. Thread-safe; the prefetcher runs this on an
  /// I/O thread and DecodeSubShardRow on the compute pool.
  Result<std::string> ReadSubShardRowBytes(uint32_t i, uint32_t j_begin,
                                           uint32_t j_end,
                                           bool transpose) const;

  /// Decode half of LoadSubShardRow: decodes bytes returned by
  /// ReadSubShardRowBytes for the same range. Pure CPU work, thread-safe.
  Result<std::vector<SubShard>> DecodeSubShardRow(
      uint32_t i, uint32_t j_begin, uint32_t j_end, bool transpose,
      const std::string& raw) const;

  /// DecodeSubShardRow with corruption re-reads: a checksum mismatch (or
  /// other decode Corruption) triggers up to `max_rereads` fresh
  /// ReadSubShardRowBytes + re-decodes before the corruption is declared
  /// real — the defense against in-flight bit flips (bus/DMA/firmware)
  /// that heal on re-read. Each is counted in checksum_rereads(). The
  /// engine's staged prefetch pipeline decodes through this entry point
  /// with max(1, its retry policy's max_attempts - 1).
  Result<std::vector<SubShard>> DecodeSubShardRowWithReread(
      uint32_t i, uint32_t j_begin, uint32_t j_end, bool transpose,
      const std::string& raw, int max_rereads = 1) const;

  /// Reads the blobs SS_{i.js[k]} (`js` nonempty and strictly ascending)
  /// with one sequential read from js.front() through js.back(), and
  /// returns each one's encoded bytes, its checksum verified. Blobs between
  /// the requested columns are read and dropped. A checksum mismatch gets
  /// one fresh read of the whole span (counted in checksum_rereads()); if
  /// the fresh bytes fail too, the first Corruption is returned. Nothing is
  /// decoded.
  Result<std::vector<std::string>> ReadVerifiedBlobs(
      uint32_t i, const std::vector<uint32_t>& js, bool transpose) const;

  /// Decodes one blob ReadVerifiedBlobs returned for SS_{i.j} on the
  /// calling thread, without verifying its checksum again. The decode's
  /// work feeds bulk_decode_calls() and decode_nanos() and is added to
  /// `*tallies`.
  Result<SubShard> DecodeVerifiedBlob(uint32_t i, uint32_t j,
                                      const std::string& blob,
                                      DecodeTallies* tallies) const;

  /// Out-degrees (or in-degrees) for all vertices, indexed by id.
  Result<std::vector<uint32_t>> LoadOutDegrees() const;
  Result<std::vector<uint32_t>> LoadInDegrees() const;

  /// Total bytes of all sub-shard blobs in one direction — the `m * Be`
  /// term of the paper's I/O model.
  uint64_t TotalSubShardBytes(bool transpose = false) const;

  /// Corruption re-reads attempted so far (each one was a decode
  /// Corruption that got a second chance; it may or may not have healed).
  uint64_t checksum_rereads() const {
    return checksum_rereads_.load(std::memory_order_relaxed);
  }

  /// Selects the varint decode implementation for every subsequent decode
  /// through this store (RunOptions::simd_decode). Purely a performance
  /// knob — every path produces bit-identical sub-shards and the identical
  /// accept/reject set — which is why it is settable through the const
  /// handles the engine and cache hold, like the counter atomics below.
  void SetSimdDecode(SimdDecode mode) const {
    decode_path_.store(ResolveDecodePath(mode), std::memory_order_relaxed);
  }
  DecodePath decode_path() const {
    return decode_path_.load(std::memory_order_relaxed);
  }

  /// NXS2 bulk varint stream scans executed so far (three per NXS2 blob;
  /// NXS1 blobs decode without bulk scans).
  uint64_t bulk_decode_calls() const {
    return bulk_decode_calls_.load(std::memory_order_relaxed);
  }
  /// Wall nanoseconds spent inside SubShard::Decode for this store's blobs
  /// (checksum verification included where the decode verifies), summed
  /// across threads.
  uint64_t decode_nanos() const {
    return decode_nanos_.load(std::memory_order_relaxed);
  }

 private:
  GraphStore(Env* env, std::string dir) : env_(env), dir_(std::move(dir)) {}

  /// Runs `use` on `raw`, the bytes ReadSubShardRowBytes returned for row
  /// i's columns [j_begin, j_end). A Corruption gets up to `max_rereads`
  /// fresh reads of the range, each followed by one more `use` and counted
  /// in checksum_rereads(); if every one fails, the first Corruption is
  /// returned.
  template <typename Use>
  auto WithReread(uint32_t i, uint32_t j_begin, uint32_t j_end,
                  bool transpose, const std::string& raw, int max_rereads,
                  Use use) const -> decltype(use(raw));

  /// Folds one decode's tallies into the store's counters.
  void CountDecodes(const DecodeTallies& tallies) const;

  Env* env_;
  std::string dir_;
  Manifest manifest_;
  std::unique_ptr<RandomAccessFile> shards_;
  std::unique_ptr<RandomAccessFile> shards_transpose_;
  mutable std::atomic<uint64_t> checksum_rereads_{0};
  mutable std::atomic<DecodePath> decode_path_{
      ResolveDecodePath(SimdDecode::kAuto)};
  mutable std::atomic<uint64_t> bulk_decode_calls_{0};
  mutable std::atomic<uint64_t> decode_nanos_{0};
};

/// \brief Byte-budgeted cache of encoded sub-shard blobs shared by the
/// queries of one GraphServer ("if there are still memory budget left,
/// sub-shards will also be actively loaded from disk to memory", §III-B1).
/// An engine run holds its own blobs and uses no cache.
///
/// An entry is one blob's encoded bytes, exactly as stored, checksum
/// verified when it was read, and charged at its SubShardMeta::size. A
/// reader decodes the bytes it pins on its own thread
/// (GraphStore::DecodeVerifiedBlob), so the cache holds about 2.5× more
/// of an NXS2 graph per byte than decoded sub-shards would, and the thread
/// that reads a miss does no decode work.
///
/// When an insert does not fit, the least-recently-used UNPINNED entries
/// are evicted to make room. Entries a concurrent query holds a Pin on are
/// never evicted, so one scan-heavy query cannot displace the rows another
/// query is actively reading. If pins leave no room, the load is returned
/// as a transient copy that is not cached.
///
/// Thread-safe. Concurrent misses on the same key share a single disk load
/// (per-key in-flight tracking), and no lock is held during disk I/O.
/// Pins keep their bytes alive regardless of later eviction — eviction
/// only affects cache accounting, never lifetime.
class SubShardCache {
 public:
  /// Monotonic hit/miss/byte counters (relaxed snapshots; exposed as
  /// server-level stats). hits + misses equals the number of blobs
  /// requested through GetPinned / GetPinnedRow: a requested blob served
  /// from the map is a hit, everything else — led load or waiting on
  /// another caller's in-flight load — is a miss.
  /// bytes_cached == inserted_bytes - evicted_bytes at all times (Clear
  /// resets bytes_cached and is not counted as eviction).
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserted_bytes = 0;
    uint64_t evicted_bytes = 0;
    uint64_t evictions = 0;
  };

  /// \brief RAII shared read pin: while alive, the pinned entry cannot be
  /// evicted. Movable, not copyable; destruction (or Release) unpins. A
  /// Pin over a load that could not be cached (over budget, everything
  /// else pinned) still carries the blob as a transient copy — callers
  /// never need to distinguish. Pins must not outlive the cache.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept { *this = std::move(o); }
    Pin& operator=(Pin&& o) noexcept {
      if (this != &o) {
        Release();
        cache_ = o.cache_;
        key_ = o.key_;
        blob_ = std::move(o.blob_);
        o.cache_ = nullptr;
        o.blob_.reset();
      }
      return *this;
    }
    ~Pin() { Release(); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    /// The blob's encoded bytes, checksum included and verified.
    const std::string& operator*() const { return *blob_; }
    const std::shared_ptr<const std::string>& blob() const { return blob_; }
    /// True when this handle actually holds an eviction pin (as opposed to
    /// a transient, uncached copy).
    bool pinned() const { return cache_ != nullptr; }
    /// Drops the pin (idempotent); the bytes stay alive through the
    /// shared_ptr until the handle itself dies.
    void Release();

   private:
    friend class SubShardCache;
    Pin(SubShardCache* cache, uint64_t key,
        std::shared_ptr<const std::string> blob)
        : cache_(cache), key_(key), blob_(std::move(blob)) {}

    SubShardCache* cache_ = nullptr;
    uint64_t key_ = 0;
    std::shared_ptr<const std::string> blob_;
  };

  /// `budget_bytes` bounds the sum of the cached blobs' encoded sizes.
  explicit SubShardCache(std::shared_ptr<const GraphStore> store,
                         uint64_t budget_bytes);

  /// Returns a pin on the blob SS_{i.j}, loading (and caching if budget
  /// allows) on miss; over-budget loads are returned as transient copies.
  /// Concurrent pins on one entry stack; the entry stays evictable again
  /// once every pin is released.
  ///
  /// `cancel` (optional) makes the call cooperative: a token already fired
  /// returns the token's status up front (counted as neither hit nor
  /// miss), and a *follower* blocked on another caller's in-flight load
  /// detaches with the token's status the moment it fires instead of
  /// riding out the leader's read. The leader itself always completes and
  /// publishes its load — other queries waiting on the same blob must
  /// never inherit one tenant's cancellation.
  Result<Pin> GetPinned(uint32_t i, uint32_t j, bool transpose = false,
                        const CancelToken* cancel = nullptr);

  /// GetPinned for the strictly ascending columns `js` of row i: one Pin
  /// per column, in `js` order (GetPinned is its one-blob case). Resident
  /// blobs are pinned at once and blobs another caller is loading are
  /// followed; this call leads every other blob and reads them the way the
  /// engine streams a row — each maximal run of led columns, bridging empty
  /// blobs, with one sequential read (GraphStore::ReadVerifiedBlobs). A run
  /// never covers a nonempty blob this call does not lead, so no blob is
  /// read that a per-blob load would not read. Every led blob is published
  /// (cached if the budget allows, pinned, its waiters woken with the blob
  /// or its run's error) before the call waits on any followed blob, so a
  /// caller waiting on one of its blobs is never held up by this call's own
  /// waits. A failed run — a read error, or a checksum that still fails
  /// after the one re-read — fails the call, caches none of its blobs and
  /// leaves nothing in flight. `cancel` behaves as in GetPinned: it can cut
  /// a follower wait short, never a led read. Columns out of range or out
  /// of order are InvalidArgument, counted nowhere.
  Result<std::vector<Pin>> GetPinnedRow(uint32_t i,
                                        const std::vector<uint32_t>& js,
                                        bool transpose = false,
                                        const CancelToken* cancel = nullptr);

  uint64_t bytes_cached() const;

  /// Snapshot of the hit/miss/insert/evict counters.
  Counters counters() const;

  /// Whether the key is currently resident (test/diagnostic hook).
  bool Contains(uint32_t i, uint32_t j, bool transpose = false) const;

  /// Total outstanding pin count across all entries (test/diagnostic
  /// hook). 0 whenever no Pin handles are alive — a nonzero value with no
  /// live handles means a pin leaked on some early-exit path.
  uint64_t pinned_entries() const;

  /// Drops every UNPINNED entry. Not counted as eviction.
  void Clear();

 private:
  /// One outstanding disk load; waiters block on cv until the leader
  /// publishes the result.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::shared_ptr<const std::string> blob;
  };

  struct Entry {
    uint64_t key = 0;
    std::shared_ptr<const std::string> blob;
    uint32_t pins = 0;
  };
  using Lru = std::list<Entry>;

  // Key: ((transpose * P) + i) * P + j.
  uint64_t Key(uint32_t i, uint32_t j, bool transpose) const;

  /// Reads the run of led columns js[begin, end) of row i (and any empty
  /// blobs between them) with one sequential read, then publishes each led
  /// blob: inserts and pins it into (*pins)[k] and completes flights[k]
  /// with the blob or the run's error. Returns the run's status.
  Status LeadRun(uint32_t i, const std::vector<uint32_t>& js, size_t begin,
                 size_t end, bool transpose,
                 const std::vector<std::shared_ptr<InFlight>>& flights,
                 std::vector<Pin>* pins);

  /// Waits for another caller's in-flight load of `key` and pins what it
  /// published (a transient copy if the entry is no longer resident). A
  /// token that fires detaches the wait with the token's status.
  Status Follow(uint64_t key, const std::shared_ptr<InFlight>& flight,
                const CancelToken* cancel, Pin* pin);

  /// mu_ held. Pins a resident entry and moves it to the warm end of the
  /// LRU list; returns the pin.
  Pin PinLocked(Lru::iterator entry);

  /// mu_ held. True when `bytes` fit within the budget, evicting unpinned
  /// entries from the cold end of the LRU list first.
  bool MakeRoomLocked(uint64_t bytes);

  /// mu_ held. Inserts and pins a blob this caller led the load of (no
  /// other caller can have inserted it); false when there is no room.
  bool InsertPinnedLocked(uint64_t key,
                          const std::shared_ptr<const std::string>& blob);

  void Unpin(uint64_t key);

  std::shared_ptr<const GraphStore> store_;
  uint64_t budget_bytes_;
  uint64_t bytes_cached_ = 0;
  Counters counters_;
  mutable std::mutex mu_;
  /// Resident entries, most recently inserted, hit or followed first.
  Lru lru_;
  std::unordered_map<uint64_t, Lru::iterator> cache_;
  std::unordered_map<uint64_t, std::shared_ptr<InFlight>> inflight_;
};

}  // namespace nxgraph

#endif  // NXGRAPH_STORAGE_GRAPH_STORE_H_
