// Engine run options and statistics.
#ifndef NXGRAPH_ENGINE_OPTIONS_H_
#define NXGRAPH_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/retry.h"
#include "src/util/simd_varint.h"

namespace nxgraph {

/// Which update strategy to run (paper §III-B).
enum class UpdateStrategy {
  kAuto,         ///< pick from the memory budget (the paper's default, MPU
                 ///< auto-degrades to SPU/DPU at the extremes)
  kSinglePhase,  ///< SPU: all intervals ping-pong in memory
  kDoublePhase,  ///< DPU: intervals on disk, hub intermediates
  kMixedPhase,   ///< MPU: Q resident intervals, hubs for the rest
};

/// Scheduler synchronization mechanism (paper §IV intro: callback signal
/// vs destination-interval locks; both are implemented and benchmarked).
/// Read only by cached-mode Phase A (the resident block from memory); a
/// streaming run folds each row run behind one barrier, whatever the mode.
enum class SyncMode {
  kCallback,  ///< per-column completion counters pipeline rows
  kLock,      ///< one mutex per resident destination column, any order
};

/// Which edge direction(s) an iteration processes.
enum class EdgeDirection {
  kForward,    ///< stored direction (updates flow source -> destination)
  kTranspose,  ///< reversed edges (requires a store built with transpose)
  kBoth,       ///< both directions in the same iteration (e.g. WCC)
};

/// \brief The I/O settings the engine and the server share: RunOptions and
/// GraphServer::Options both inherit them.
struct IoOptions {
  /// Requested read-ahead window: how many loads may be in flight ahead of
  /// the consumer. 0 or less disables prefetching entirely (every read is
  /// synchronous); 1 is double buffering, 2 triple buffering, and so on.
  ///
  /// The engine's window covers the out-of-core phases (sub-shard rows,
  /// interval value segments, hub runs), and its effective depth is
  /// budget-arbitrated by ChooseStrategy: the first window slot rides in
  /// the same transient working-set allowance the synchronous loader always
  /// used, and each deeper slot must be funded from the sub-shard cache
  /// leftover (see StrategyDecision::prefetch_buffer_bytes), so prefetch
  /// buffers never silently exceed the paper's memory model. The server
  /// applies the window per query, over the shared cache, and counts it in
  /// loads — runs of one row's sub-shards (QueryContext::max_load_bytes).
  /// Prefetching is on by default.
  int prefetch_depth = 2;

  /// Dedicated I/O threads serving prefetch reads, in addition to the
  /// compute workers: the engine's own pool, or the server's pool shared by
  /// every query. Blob decode runs on the engine's compute pool or on the
  /// query's worker, so these threads do raw reads only. Clamped to >= 1
  /// whenever the effective prefetch depth is > 0; ignored when
  /// prefetching is off. The engine's write-behind drains on its own single
  /// writer thread. The server defaults to 2.
  int io_threads = 1;

  /// Transient-fault handling for every I/O the pipelines issue (prefetch
  /// reads and cache loads, write-behind writes/flushes, checkpoint
  /// commits): retryable failures are retried with deterministic-jitter
  /// backoff before they surface (docs/io-stack.md "Error handling,
  /// retries, and degradation"). Set `retry.max_attempts = 1` to disable
  /// retries; a sub-shard row read that fails its checksum still gets
  /// one fresh read (RunStats::checksum_rereads).
  RetryPolicy retry;

  /// Selective scheduling (docs/storage-format.md "Source summaries"):
  /// consult frontier x per-blob source summary when planning a round,
  /// skipping sub-shards that cannot contribute — not read, and for a query
  /// not charged. Only takes effect for monotone-skippable programs
  /// (Program::kMonotoneSkippable — BFS/SSSP/WCC) on stores whose manifest
  /// carries summaries (v3); results are bit-identical on or off, only
  /// bytes moved change. Defaults on.
  bool selective_scheduling = true;

  /// Which varint decode implementation serves NXS2 blob decodes
  /// (src/util/simd_varint.h). kAuto resolves to the best path the CPU
  /// supports; kForceScalar pins the scalar reference codec (the debugging
  /// escape hatch). Every path yields bit-identical results and identical
  /// Corruption rejection; DecodeCounters::decode_path reports what
  /// actually ran.
  SimdDecode simd_decode = SimdDecode::kAuto;
};

/// \brief Options controlling one engine run.
struct RunOptions : IoOptions {
  UpdateStrategy strategy = UpdateStrategy::kAuto;
  SyncMode sync_mode = SyncMode::kCallback;
  EdgeDirection direction = EdgeDirection::kForward;

  /// Memory budget in bytes for vertex state plus sub-shard cache. 0 means
  /// "unlimited" (everything resident; SPU).
  uint64_t memory_budget_bytes = 0;

  /// Worker threads in addition to the calling thread. 0 = single-threaded.
  int num_threads = 3;

  /// Hard iteration cap; <= 0 means run until all intervals are inactive.
  int max_iterations = 0;

  /// Requested write-behind buffer for the out-of-core writes (Phase B hub
  /// payloads, interval value write-backs): producers serialize payloads on
  /// the compute pool and enqueue owned buffers, the queue drains them as
  /// positional writes, and every phase/iteration boundary ends with a
  /// Drain() barrier — so results are bit-identical to the synchronous
  /// path. 0 disables write-behind entirely (each write blocks its compute
  /// task — the pre-writeback behavior). The queue's one writer thread is
  /// separate from io_threads so slow writes can never starve the prefetch
  /// read window; it issues its writes in elevator order, so the device
  /// sees one sequential stream.
  ///
  /// Like the prefetch window, the effective budget is arbitrated by
  /// ChooseStrategy out of the sub-shard cache leftover (see
  /// StrategyDecision::writeback_buffer_bytes), so write buffers never
  /// silently exceed the paper's memory model; a leftover too small to
  /// hold even one payload falls back to synchronous mode rather than
  /// taking a degenerate window. Write-behind is on by default.
  uint64_t writeback_buffer_bytes = 8ull << 20;

  /// Iteration-boundary checkpointing: every `checkpoint_interval`-th
  /// completed iteration, the engine persists a small CRC-guarded record
  /// (iteration counter, per-interval parity vector, activity bitmap) plus
  /// the resident intervals' values, committed atomically (write-temp +
  /// fsync + rename) after a durability drain — so a killed run restarts
  /// from the last checkpointed iteration instead of iteration 0. A run
  /// started with the same store, strategy and value type automatically
  /// resumes from a valid checkpoint found in the scratch directory;
  /// corrupted or mismatched checkpoints fall back to a fresh start with a
  /// warning. 0 disables checkpointing (and resuming) entirely.
  ///
  /// At interval 1 the checkpoint is nearly free: the interval store's
  /// ping-pong parity already makes every iteration boundary a consistent
  /// on-disk snapshot, so only the record and the resident values are
  /// written. Intervals > 1 additionally copy the non-resident segments
  /// into a side snapshot store at each checkpoint (the live segments are
  /// overwritten by the iterations in between), trading bigger checkpoint
  /// writes for fewer of them.
  int checkpoint_interval = 0;

  /// Directory for engine scratch files (interval store, hubs, checkpoint
  /// record). Empty uses "<store dir>/run". A resumable run must point at
  /// the scratch directory of the interrupted one.
  std::string scratch_dir;

  /// Cooperative cancellation/deadline token (not owned, may be null; must
  /// outlive the run). Observed at every iteration boundary in Run() — a
  /// fired token ends the run with the token's status before the next
  /// iteration starts — and threaded into the prefetch streams and retry
  /// backoffs so a cancelled run stops issuing I/O promptly. Within an
  /// iteration the phases complete normally; checkpoint/writeback state is
  /// never left half-committed.
  const CancelToken* cancel = nullptr;
};

/// \brief Varint decode accounting, shared by RunStats, QueryStats and
/// GraphServer::Stats; each struct says what its copy covers.
struct DecodeCounters {
  /// Varint decode implementation that served the decodes ("scalar" /
  /// "ssse3" / "avx2") — IoOptions::simd_decode after CPUID resolution.
  /// Results are bit-identical across paths.
  std::string decode_path;
  /// NXS2 bulk varint stream scans executed (three per NXS2 blob decode;
  /// 0 on an all-NXS1 store).
  uint64_t bulk_decode_calls = 0;
  /// Wall-clock spent inside SubShard::Decode (parse only: each blob's
  /// checksum is checked by the verified read before it), summed across
  /// decoding threads — the CPU tax the SIMD path exists to shrink.
  double decode_seconds = 0;
};

/// \brief Statistics from one engine run. Its DecodeCounters cover the
/// decodes this run performed, net of any the shared store served before.
struct RunStats : DecodeCounters {
  int iterations = 0;
  double seconds = 0;
  double preprocess_seconds = 0;   ///< engine setup (initial loads)
  uint64_t edges_traversed = 0;    ///< summed over processed sub-shards
  /// Engine-accounted reads: the raw blob, interval value and hub bytes
  /// the phases read (hub and interval checksums included), from manifest
  /// sizes. It equals env_bytes_read on a healthy device with no retries
  /// and no checkpoints; retries, checksum re-reads and checkpoint traffic
  /// show up in env_bytes_read only.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;      ///< engine-accounted disk writes
  /// Bytes MEASURED at the Env layer (every file object's ReadAt/Read and
  /// WriteAt/Append records into its Env's IoStats): a snapshot delta over
  /// the run's effective Env from just after setup to completion. Unlike
  /// the engine-accounted `bytes_read`/`bytes_written` (which count what
  /// the engine *intended* to move, from manifest blob sizes), these are
  /// ground truth for I/O-volume claims — a compressed sub-shard format
  /// shows up here as fewer bytes per iteration without any accounting
  /// change. Runs sharing one Env concurrently (rare outside tests) see
  /// each other's traffic.
  uint64_t env_bytes_read = 0;
  uint64_t env_bytes_written = 0;
  /// Positional calls measured beside those bytes, over the same window:
  /// every ReadAt/Read and WriteAt/Append the run's files made. Each call
  /// is one device access, which a modelled device charges a seek for
  /// when it is not contiguous.
  uint64_t env_read_calls = 0;
  uint64_t env_write_calls = 0;
  uint32_t resident_intervals = 0; ///< Q actually used
  std::string strategy;            ///< "SPU" / "DPU" / "MPU(Q=...)"
  std::vector<double> iteration_seconds;

  // -- phase / I/O overlap accounting (summed over all iterations) --------
  double phase_a_seconds = 0;  ///< A: resident rows x resident columns
  double phase_b_seconds = 0;  ///< B: disk rows (SPU-like + ToHub)
  double phase_c_seconds = 0;  ///< C: disk columns (SPU-like + FromHub)
  double phase_d_seconds = 0;  ///< D: apply + ping-pong swap
  /// Wall-clock time the phase drivers spent blocked waiting for reads —
  /// the I/O latency the prefetch pipeline failed to hide. With
  /// prefetch_depth == 0 this is simply the total synchronous read+decode
  /// time of the out-of-core phases; depth >= 1 should push it towards 0
  /// while phase seconds stay flat (the overlap is the difference).
  double io_wait_seconds = 0;
  /// Wall-clock time compute tasks and phase barriers spent blocked on the
  /// write-behind queue (Push backpressure plus Drain) — the write latency
  /// the pipeline failed to hide. With writeback_buffer_bytes == 0 this is
  /// simply the total synchronous write time of the out-of-core phases.
  double write_wait_seconds = 0;
  uint32_t prefetch_depth = 0;     ///< effective (budget-arbitrated) depth
  /// Effective (budget-arbitrated) write-behind buffer actually used.
  uint64_t writeback_buffer_bytes = 0;
  int io_threads = 0;              ///< dedicated I/O threads actually used

  // -- checkpoint/restart -------------------------------------------------
  /// Iteration the run continued from: 0 for a fresh start, k > 0 when a
  /// valid checkpoint seeded the run at iteration k. `iterations` stays
  /// the LOGICAL total (resumed_from_iteration + iterations executed), so
  /// an interrupted-and-resumed run reports the same count as an
  /// uninterrupted one.
  int resumed_from_iteration = 0;
  int checkpoints_written = 0;     ///< records committed this run
  /// Wall-clock spent writing checkpoints (resident/snapshot segment
  /// writes, the durability drain, and the atomic record commit).
  double checkpoint_seconds = 0;

  // -- transient-fault resilience -----------------------------------------
  /// Retries of transiently-failed I/O operations across every pipeline
  /// (prefetch reads, write-behind writes/flushes, checkpoint commits).
  /// 0 on a healthy device — the retry layer is pure bookkeeping then.
  uint64_t io_retries = 0;
  /// Wall-clock the retry loops spent in backoff waits.
  double retry_wait_seconds = 0;
  /// Fresh reads this run gave sub-shard rows that failed a blob checksum
  /// (GraphStore::ReadVerifiedRow; up to max(1, retry.max_attempts - 1)
  /// per row read); re-reads a shared store made for earlier runs or loads
  /// are not counted.
  uint64_t checksum_rereads = 0;
  /// Write/flush errors suppressed by first-error-wins reporting at
  /// write-behind Drain barriers (each was also logged).
  uint64_t dropped_write_errors = 0;

  // -- selective scheduling -----------------------------------------------
  /// The planner's verdicts (PlanRound, once per iteration) over every
  /// phase's sub-shards: nonempty blobs planned for reading vs dropped
  /// because their source summary intersected no vertex of the frontier.
  /// Blobs of rows the planner passes over (inactive rows of a
  /// monotone-skippable program) and empty blobs count for neither. Both
  /// stay 0 when selective scheduling is off, the program is not
  /// monotone-skippable, or the store has no summaries.
  uint64_t subshards_processed = 0;
  uint64_t subshards_skipped = 0;
  /// Summary filter bytes the manifest carries for this store (both
  /// directions) — the metadata cost that bought the skips.
  uint64_t summary_bytes = 0;
  /// The same verdicts per iteration (parallel to iteration_seconds): tail
  /// iterations of frontier algorithms should show processed collapsing
  /// towards the frontier size while skipped absorbs the rest.
  std::vector<uint64_t> iteration_subshards_processed;
  std::vector<uint64_t> iteration_subshards_skipped;
  /// io_model prediction for a full-activity iteration's read bytes under
  /// the chosen strategy (0 when the model was not consulted) — compare
  /// with env_bytes_read / iterations to see the activity-awareness gap.
  uint64_t model_bytes_per_iteration = 0;

  /// Millions of traversed edges per second (the paper's Fig. 11 metric).
  double Mteps() const {
    return seconds > 0 ? static_cast<double>(edges_traversed) / seconds / 1e6
                       : 0;
  }
};

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_OPTIONS_H_
