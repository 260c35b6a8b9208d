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
/// sub-shard reads. Every reader — the engine's prefetch stages, the
/// server's cache, LoadSubShard — reads through one checksum-verified row
/// read (ReadVerifiedRow: a positional read of whole, contiguous blobs,
/// preserving the streamlined access pattern) and decodes the blobs it uses
/// itself (DecodeVerifiedBlob), on its own thread and with its own decode
/// path.
///
/// Thread-safe: reads are pread-style positional reads, and the counters
/// are atomics.
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

  /// Reads and decodes sub-shard SS_{i.j}: ReadVerifiedRow of one blob with
  /// one re-read, then DecodeVerifiedBlob with the CPU's best decode path.
  /// `transpose` selects the reversed graph (requires has_transpose()).
  Result<SubShard> LoadSubShard(uint32_t i, uint32_t j,
                                bool transpose = false) const;

  /// Reads blobs SS_{i.j_begin} .. SS_{i.j_end-1}, contiguous in row-major
  /// file order, with one positional read, and checks every blob's CRC32C,
  /// empty blobs included. A mismatch gets up to `max_rereads` fresh reads
  /// of the span, each counted in checksum_rereads(); if every one fails,
  /// the first Corruption is returned. A read that comes back short is a
  /// retryable Corruption, returned as it is. Returns the span's bytes;
  /// SS_{i.j} lies at its manifest offset minus SS_{i.j_begin}'s. Rows and
  /// columns out of range, an empty span and a transpose the store lacks
  /// are InvalidArgument. The only checksum check of a sub-shard blob.
  Result<std::string> ReadVerifiedRow(uint32_t i, uint32_t j_begin,
                                      uint32_t j_end, bool transpose,
                                      int max_rereads) const;

  /// Decodes SS_{i.j} from `size` bytes at `data` that ReadVerifiedRow
  /// verified, on the calling thread with `path`, without checking the
  /// checksum again. The decode's work feeds bulk_decode_calls() and
  /// decode_nanos(), and is added to `*tallies` when it is non-null.
  Result<SubShard> DecodeVerifiedBlob(uint32_t i, uint32_t j, const char* data,
                                      size_t size, DecodePath path,
                                      DecodeTallies* tallies) const;

  /// Out-degrees (or in-degrees) for all vertices, indexed by id.
  Result<std::vector<uint32_t>> LoadOutDegrees() const;
  Result<std::vector<uint32_t>> LoadInDegrees() const;

  /// Total bytes of all sub-shard blobs in one direction — the `m * Be`
  /// term of the paper's I/O model.
  uint64_t TotalSubShardBytes(bool transpose = false) const;

  /// Re-reads ReadVerifiedRow has made so far (each one followed a
  /// checksum mismatch; it may or may not have healed).
  uint64_t checksum_rereads() const {
    return checksum_rereads_.load(std::memory_order_relaxed);
  }

  /// NXS2 bulk varint stream scans executed so far (three per NXS2 blob;
  /// NXS1 blobs decode without bulk scans).
  uint64_t bulk_decode_calls() const {
    return bulk_decode_calls_.load(std::memory_order_relaxed);
  }
  /// Wall nanoseconds spent inside SubShard::Decode for this store's blobs,
  /// summed across threads. Checksums are checked by ReadVerifiedRow and
  /// are not included.
  uint64_t decode_nanos() const {
    return decode_nanos_.load(std::memory_order_relaxed);
  }

 private:
  GraphStore(Env* env, std::string dir) : env_(env), dir_(std::move(dir)) {}

  /// One positional read of the span ReadVerifiedRow covers, unverified.
  Result<std::string> ReadSubShardRowBytes(uint32_t i, uint32_t j_begin,
                                           uint32_t j_end,
                                           bool transpose) const;

  Env* env_;
  std::string dir_;
  Manifest manifest_;
  std::unique_ptr<RandomAccessFile> shards_;
  std::unique_ptr<RandomAccessFile> shards_transpose_;
  mutable std::atomic<uint64_t> checksum_rereads_{0};
  mutable std::atomic<uint64_t> bulk_decode_calls_{0};
  mutable std::atomic<uint64_t> decode_nanos_{0};
};

/// \brief Byte-budgeted cache of encoded sub-shard blobs shared by the
/// queries of one GraphServer ("if there are still memory budget left,
/// sub-shards will also be actively loaded from disk to memory", §III-B1).
/// An engine run holds its own blobs and uses no cache.
///
/// An entry is one blob's encoded bytes, exactly as stored, checksum
/// verified when it was read (GraphStore::ReadVerifiedRow), and charged at
/// its SubShardMeta::size. A reader decodes the bytes it pins on its own
/// thread (GraphStore::DecodeVerifiedBlob), so the cache holds about 2.5×
/// more of an NXS2 graph per byte than decoded sub-shards would, and the
/// thread that reads a miss does no decode work.
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
  /// requested through GetPinnedRow: a requested blob served
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

  /// Returns one Pin per column of row i's strictly ascending columns `js`,
  /// in `js` order, each on that blob's encoded bytes: loaded (and cached
  /// if the budget allows) on a miss; over-budget loads are returned as
  /// transient copies. Concurrent pins on one entry stack; the entry stays
  /// evictable again once every pin is released.
  ///
  /// Resident blobs are pinned at once and blobs another caller is loading
  /// are followed; this call leads every other blob and reads each of the
  /// manifest's RowRuns over its led columns with one
  /// GraphStore::ReadVerifiedRow (one re-read). A run never covers a
  /// nonempty blob this call does not lead, so no blob is read that a
  /// per-blob load would not read. Every led blob is published (cached if
  /// the budget allows, pinned, its waiters woken with the blob or its
  /// run's error) before the call waits on any followed blob, so a caller
  /// waiting on one of its blobs is never held up by this call's own
  /// waits. A failed run — a read error, or a checksum that still fails
  /// after the re-read — fails the call, caches none of its blobs and
  /// leaves nothing in flight.
  ///
  /// `cancel` (optional) makes the call cooperative: a token already fired
  /// returns the token's status up front (counted as neither hit nor
  /// miss), and a *follower* blocked on another caller's in-flight load
  /// detaches with the token's status the moment it fires instead of
  /// riding out the leader's read. A led read always completes and
  /// publishes — other queries waiting on the same blob must never inherit
  /// one tenant's cancellation. Columns out of range or out of order are
  /// InvalidArgument, counted nowhere.
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

  /// Reads the led columns js[k] of row i, k in `run` (ascending, with
  /// only empty blobs between them), with one verified read, then
  /// publishes each led blob: inserts and pins it into (*pins)[k] and
  /// completes flights[k] with the blob or the run's error. Returns the
  /// run's status.
  Status LeadRun(uint32_t i, const std::vector<uint32_t>& js,
                 const std::vector<size_t>& run, bool transpose,
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
