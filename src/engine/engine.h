// The NXgraph execution engine: a unified implementation of the paper's
// three update strategies over Destination-Sorted Sub-Shards.
//
//   SPU  == all P intervals memory-resident (Q = P): phases A + D only.
//   DPU  == no resident intervals (Q = 0): phases B (ToHub) + C (FromHub).
//   MPU  == 0 < Q < P: A (resident x resident), B (disk rows: SPU-like into
//           resident columns, ToHub into disk columns), C (disk columns:
//           SPU-like from resident rows, FromHub from disk rows), D (apply
//           resident columns).
//
// Fine-grained parallelism (paper §III-D): within a sub-shard, worker
// threads own disjoint destination-group chunks, so attribute writes need
// no locks or atomics. Across sub-shards of the same destination interval,
// either a per-column completion-callback chain pipelines rows
// (SyncMode::kCallback) or per-(column, block) locks serialize overlapping
// writers (SyncMode::kLock).
#ifndef NXGRAPH_ENGINE_ENGINE_H_
#define NXGRAPH_ENGINE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <concepts>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include "src/engine/checkpoint.h"
#include "src/engine/options.h"
#include "src/engine/strategy.h"
#include "src/engine/traversal.h"
#include "src/engine/vertex_program.h"
#include "src/io/prefetcher.h"
#include "src/io/writeback.h"
#include "src/storage/graph_store.h"
#include "src/storage/hub_file.h"
#include "src/storage/interval_store.h"
#include "src/util/logging.h"
#include "src/util/retry.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace nxgraph {

/// \brief Runs a VertexProgram over a prepared GraphStore.
template <VertexProgram Program>
class Engine {
 public:
  using Value = typename Program::Value;

  Engine(std::shared_ptr<const GraphStore> store, Program program,
         RunOptions options)
      : store_(std::move(store)),
        program_(std::move(program)),
        options_(std::move(options)) {}

  /// Executes the program to termination; final attributes are available
  /// via values() afterwards.
  Result<RunStats> Run();

  /// Final attribute of every vertex, indexed by dense id.
  const std::vector<Value>& values() const { return final_values_; }

 private:
  struct DirectionPlan {
    bool transpose = false;
    const std::vector<uint32_t>* degrees = nullptr;  // per propagating vertex
    HubFile* hubs = nullptr;
  };

  // ---- setup ----
  Status Prepare();
  Status InitValues();

  // ---- checkpoint/restart ----
  // Attempts to seed this run from the scratch directory's checkpoint;
  // returns true on success. Any validation failure (missing/corrupt
  // record, wrong graph/P/Q/value size, unusable value files) logs a
  // warning and returns false — the caller then starts from iteration 0.
  bool TryResume(Env* env, const std::string& scratch);
  // Commits a checkpoint if `completed_iterations` lands on the interval.
  Status MaybeCheckpoint(int completed_iterations);

  // ---- one iteration ----
  // Phases A-D plus the activity-bitmap commit.
  Status RunIteration(int iter);
  Status PhaseResidentRows();                    // A
  Status PhaseDiskRows();                        // B
  Status PhaseDiskColumns();                     // C
  Status PhaseApplyResident();                   // D
  // Reads the final per-vertex values into final_values_.
  Status CollectFinalValues();

  // ---- helpers ----
  void ProcessGroups(const SubShard& ss, const Value* src_vals,
                     VertexId src_base, Value* acc, VertexId dst_base,
                     const std::vector<uint32_t>& degrees, uint32_t gb,
                     uint32_t ge);
  std::vector<std::pair<uint32_t, uint32_t>> ComputeChunks(
      const SubShard& ss) const;
  // Queues ss's destination-group chunks on the compute pool, counted on
  // `wg`; the caller waits on `wg` while ss, src_vals and acc are alive.
  void SubmitChunks(WaitGroup& wg, const SubShard& ss, const Value* src_vals,
                    VertexId src_base, Value* acc, VertexId dst_base,
                    const std::vector<uint32_t>& degrees) {
    for (auto [gb, ge] : ComputeChunks(ss)) {
      wg.Add(1);
      pool_->Submit([this, &wg, &ss, src_vals, src_base, acc, dst_base,
                     &degrees, gb, ge] {
        ProcessGroups(ss, src_vals, src_base, acc, dst_base, degrees, gb, ge);
        wg.Done();
      });
    }
  }
  // Applies interval j in place: acc[k] becomes vertex begin(j) + k's new
  // value from old[k]. Changed vertices join the next frontier, and any
  // change marks j active for the next iteration.
  void ApplyInterval(uint32_t j, Value* acc, const Value* old);

  // ---- planning (one PlanRound per iteration) -----------------------------
  // Runs the shared planner (src/engine/traversal.h) over the whole grid —
  // active rows only for monotone-skippable programs, summary skips when
  // selective scheduling is on — into planned_, and counts its verdicts.
  void PlanIteration();
  // This iteration's verdict for one blob: read it, or leave it (empty,
  // summary-skipped, or in a row the planner passed over).
  bool Planned(uint32_t i, uint32_t j, bool transpose) const {
    return planned_[GridIndex(i, j, transpose)] != 0;
  }
  // Slot of blob (i, j) in the per-(direction, i, j) bitmaps.
  size_t GridIndex(uint32_t i, uint32_t j, bool transpose) const {
    return (transpose ? static_cast<size_t>(p_) * p_ : 0) +
           static_cast<size_t>(i) * p_ + j;
  }

  // Maximal [begin, end) runs over k in [lo, hi) — the one run builder
  // behind the row-run, hub-run and write-group planners. `step(k)` adds k
  // to the open run (kTake), closes it (kBreak), or passes over it
  // (kBridge: k joins a run only when taken items surround it).
  enum class RunStep { kTake, kBreak, kBridge };
  template <typename Step>
  static std::vector<std::pair<uint32_t, uint32_t>> MaximalRuns(uint32_t lo,
                                                                uint32_t hi,
                                                                Step step) {
    std::vector<std::pair<uint32_t, uint32_t>> runs;
    bool open = false;
    uint32_t begin = 0, end = 0;
    for (uint32_t k = lo; k < hi; ++k) {
      switch (step(k)) {
        case RunStep::kTake:
          if (!open) {
            begin = k;
            open = true;
          }
          end = k + 1;
          break;
        case RunStep::kBreak:
          if (open) runs.emplace_back(begin, end);
          open = false;
          break;
        case RunStep::kBridge:
          break;
      }
    }
    if (open) runs.emplace_back(begin, end);
    return runs;
  }

  // Maximal contiguous column ranges of row i worth one sequential read
  // each, within columns [j_begin, j_end): a view over the plan whose runs
  // cover every planned blob not already held, bridge empty blobs (they
  // cost almost no bytes), and break at every other nonempty blob, so its
  // bytes are not read. A row with nothing to read has no runs.
  std::vector<std::pair<uint32_t, uint32_t>> PlanRowRuns(
      uint32_t i, bool transpose, uint32_t j_begin, uint32_t j_end) const {
    const Manifest& m = store_->manifest();
    return MaximalRuns(j_begin, j_end, [&](uint32_t j) {
      if (Planned(i, j, transpose) && !Held(i, j, transpose)) {
        return RunStep::kTake;
      }
      return m.subshard(i, j, transpose).num_edges == 0 ? RunStep::kBridge
                                                         : RunStep::kBreak;
    });
  }

  // Rows [i_begin, i_end) (all >= q_) of disk column j's hubs, as the
  // maximal runs of hubs written this iteration, each one sequential
  // access of the column-major hub file. Phase B writes the hub of every
  // planned disk-block blob (planned blobs are nonempty) and no other: the
  // rest hold stale bytes or none.
  std::vector<std::pair<uint32_t, uint32_t>> WrittenHubRuns(
      const DirectionPlan& dir, uint32_t j, uint32_t i_begin,
      uint32_t i_end) const {
    return MaximalRuns(i_begin, i_end, [&](uint32_t i) {
      return Planned(i, j, dir.transpose) ? RunStep::kTake : RunStep::kBreak;
    });
  }

  // Column j's written hubs as [i_begin, i_end) runs of rows that are each
  // one sequential read, split where they would outgrow the largest raw
  // sub-shard row, so a hub read never holds more than a Phase B row read
  // does.
  std::vector<std::pair<uint32_t, uint32_t>> PlanHubRuns(
      const DirectionPlan& dir, uint32_t j) const {
    std::vector<std::pair<uint32_t, uint32_t>> runs;
    for (auto [ib, ie] : WrittenHubRuns(dir, j, q_, p_)) {
      for (auto run : SplitByBytes(ib, ie, row_cap_, [&](uint32_t i) {
             return RunBytes{dir.hubs->SegmentCapacity(i, j), 0};
           })) {
        runs.push_back(run);
      }
    }
    return runs;
  }
  void RecordError(const Status& s);
  bool HasError();
  // Target edges per destination-chunk task: the fine-grained parallelism
  // grain (paper §III-D: "several thousands of edges").
  static constexpr uint32_t kGrainEdges = 4096;
  // Destinations per FromHub fold range of an interval of `isize`: whole
  // bitmap words, at least kGrainEdges of them, and at most one range per
  // compute thread and the caller, so the prefix popcounts that start the
  // ranges cost at most that many passes over each hub's bitmap.
  size_t FoldGrain(uint32_t isize) const {
    const size_t ranges = static_cast<size_t>(pool_->num_threads()) + 1;
    const size_t grain =
        std::max<size_t>(kGrainEdges, (isize + ranges - 1) / ranges);
    return (grain + 63) / 64 * 64;
  }

  // Rows of the resident block this iteration reads, per direction, with
  // their row runs within columns [j_begin, j_end). Streaming Phase A reads
  // columns [0, q_) and streaming Phase C each column group's; the cached
  // load step reads [0, p_), so Phase C finds its resident-row blobs held
  // as well.
  struct ResidentRow {
    const DirectionPlan* dir;
    uint32_t i;
    std::vector<std::pair<uint32_t, uint32_t>> runs;
  };
  std::vector<ResidentRow> ResidentRowSchedule(uint32_t j_begin,
                                               uint32_t j_end) const {
    std::vector<ResidentRow> rows;
    for (const DirectionPlan& dir : directions_) {
      for (uint32_t i = 0; i < q_; ++i) {
        ResidentRow r{&dir, i, PlanRowRuns(i, dir.transpose, j_begin, j_end)};
        if (!r.runs.empty()) rows.push_back(std::move(r));
      }
    }
    return rows;
  }

  // ---- held blobs (cached mode) -------------------------------------------
  // When the budget holds the decoded graph, every resident-row blob is
  // read once, the first iteration that plans it, and kept in resident_.
  bool Held(uint32_t i, uint32_t j, bool transpose) const {
    return !resident_.empty() && !resident_[GridIndex(i, j, transpose)].empty();
  }
  // Cached Phase A's load step: reads the planned resident-row blobs not yet
  // held, over every column, as row runs, and keeps them.
  Status LoadResidentRows();
  // A held blob, counted as traversed where it is used.
  const SubShard& UseHeld(uint32_t i, uint32_t j, bool transpose) {
    const SubShard& ss = resident_[GridIndex(i, j, transpose)];
    edges_traversed_.fetch_add(ss.num_edges(), std::memory_order_relaxed);
    return ss;
  }

  // ---- prefetch streams ---------------------------------------------------
  // All out-of-core reads (sub-shard row runs, interval value segments, hub
  // column runs) go through typed PrefetchStreams: jobs are pushed for the
  // whole phase schedule up front, at most prefetch_depth_ reads run ahead
  // on io_pool_ (with the retry policy), blob decode rides the compute
  // pool, and the phase driver consumes strictly in push order — so
  // results are bit-identical to the synchronous (depth 0) path.

  using RowStream = PrefetchStream<std::vector<SubShard>>;
  using ValueStream = PrefetchStream<std::vector<Value>>;
  using HubStream = PrefetchStream<HubFile::Run>;

  template <typename T>
  PrefetchStream<T> MakeStream() {
    return PrefetchStream<T>(io_pool_.get(), pool_.get(), prefetch_depth_,
                             options_.retry, &counters_, options_.cancel);
  }

  // Queues one row run — columns [j_begin, j_end) of row i — as one
  // sequential read plus an off-thread decode; the one way the engine reads
  // sub-shards. Every decode verifies each blob's checksum: stream mode
  // re-reads blobs every iteration, and a bit flipped in any of those reads
  // must be caught before its ids index memory.
  void PushRow(RowStream& stream, uint32_t i, uint32_t j_begin,
               uint32_t j_end, bool transpose) {
    uint64_t bytes = 0;
    for (uint32_t j = j_begin; j < j_end; ++j) {
      bytes += store_->manifest().subshard(i, j, transpose).size;
    }
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    std::shared_ptr<const GraphStore> store = store_;
    // A decode corruption gets the retry policy's further attempts as
    // fresh reads (in-flight bit flips heal) before it aborts the run, as
    // hub and interval reads do, and at least one when retries are off.
    const int rereads = std::max(1, options_.retry.max_attempts - 1);
    stream.PushStaged(
        [store, i, j_begin, j_end, transpose]() {
          return store->ReadSubShardRowBytes(i, j_begin, j_end, transpose);
        },
        [store, i, j_begin, j_end, transpose, rereads](std::string&& raw) {
          return store->DecodeSubShardRowWithReread(i, j_begin, j_end,
                                                    transpose, raw, rereads);
        });
  }

  // Consumes the next row run and accounts its traversed edges.
  Result<std::vector<SubShard>> NextRow(RowStream& stream) {
    auto row = stream.Next();
    if (!row.ok()) return row;
    uint64_t edges = 0;
    for (const SubShard& ss : *row) edges += ss.num_edges();
    edges_traversed_.fetch_add(edges, std::memory_order_relaxed);
    return row;
  }

  // Queues one interval-value segment read (raw bytes, no decode stage).
  void PushIntervalValues(ValueStream& stream, uint32_t i) {
    const uint32_t isize = store_->manifest().interval_size(i);
    const int parity = value_parity_[i];
    IntervalStore* istore = interval_store_.get();
    bytes_read_.fetch_add(istore->stored_bytes(i), std::memory_order_relaxed);
    stream.Push([istore, i, parity, isize]() -> Result<std::vector<Value>> {
      std::vector<Value> buf(isize);
      NX_RETURN_NOT_OK(istore->Read(i, parity, buf.data()));
      return buf;
    });
  }

  // ---- I/O backend ----
  // Owns the direct-I/O Env when the run uses one. The reopened store_,
  // the scratch stores and every file object they hold reference it, so it
  // is declared FIRST: members are destroyed in reverse declaration order
  // and no file object may outlive its Env.
  std::unique_ptr<Env> backend_env_;
  IoBackend effective_backend_ = IoBackend::kBuffered;

  // ---- inputs ----
  std::shared_ptr<const GraphStore> store_;
  Program program_;
  RunOptions options_;

  // ---- plan ----
  StrategyDecision decision_;
  uint32_t p_ = 0;  // number of intervals
  uint32_t q_ = 0;  // resident intervals
  size_t prefetch_depth_ = 0;  // effective read-ahead window (0 = sync)
  // Largest raw and decoded sub-shard row: the cap on every grouped disk
  // access (hub read runs, write groups, column groups).
  RunBytes row_cap_;
  // Per disk row i >= q_, its hubs' bytes over every direction: the row's
  // cost in Phase B's write groups.
  std::vector<uint64_t> hub_row_bytes_;
  std::vector<DirectionPlan> directions_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ThreadPool> io_pool_;  // dedicated prefetch I/O threads
  std::unique_ptr<ThreadPool> wb_pool_;  // the dedicated write-behind thread
  std::unique_ptr<IntervalStore> interval_store_;   // non-resident values
  // Snapshot store for checkpoint_interval > 1. Declared (like the stores
  // above) BEFORE writeback_: the queue's destructor drains writes still
  // targeting these files, so it must be destroyed first.
  std::unique_ptr<IntervalStore> ckpt_store_;
  std::unique_ptr<HubFile> hubs_forward_;
  std::unique_ptr<HubFile> hubs_transpose_;
  // Write-behind queue for all out-of-core writes (hub payloads, interval
  // write-backs). Every phase that writes ends with a Drain() barrier, so
  // later reads never race an in-flight write and results stay
  // bit-identical to the synchronous path (budget 0).
  std::unique_ptr<WritebackQueue> writeback_;
  std::vector<uint32_t> out_degrees_;
  std::vector<uint32_t> in_degrees_;

  // ---- checkpoint/restart state ----
  // The record manager plus (ckpt_store_, declared with the other stores
  // above) a side snapshot store for checkpoint_interval > 1: the live
  // interval store's ping-pong only protects ONE iteration of history, so
  // checkpoints further apart must copy the non-resident segments
  // somewhere the intervening iterations never write. Resident intervals
  // always checkpoint into the live store — the engine reads them purely
  // from memory, so their on-disk segments belong to the checkpoint alone
  // and alternate parity per checkpoint.
  std::unique_ptr<CheckpointManager> ckpt_;
  uint64_t fingerprint_ = 0;       // Manifest::Fingerprint of store_

  // Program identity for checkpoint validation: the record must never seed
  // a different algorithm that happens to share the value size (BFS and
  // WCC are both uint32_t). The mangled type name is stable for a given
  // program type; a record written by a differently-compiled binary at
  // worst mismatches and falls back to a fresh start.
  static uint64_t ProgramId() {
    const char* name = typeid(Program).name();
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const char* c = name; *c != '\0'; ++c) {
      h = (h ^ static_cast<uint8_t>(*c)) * 1099511628211ull;
    }
    return h;
  }

  // Parameter fingerprint: programs expose `uint64_t StateFingerprint()
  // const` so a checkpoint is only resumed by a run with the same
  // parameters (SSSP rooted at 7 must not continue a checkpoint rooted at
  // 0). Programs without the hook checkpoint with 0 — their behavior is
  // fully determined by their type.
  static uint64_t ProgramState(const Program& p) {
    if constexpr (requires { { p.StateFingerprint() } -> std::same_as<uint64_t>; }) {
      return p.StateFingerprint();
    } else {
      return 0;
    }
  }
  int ckpt_snapshot_parity_ = 1;   // last snapshot parity written
  int resume_iter_ = 0;            // iteration the run continues from
  bool resumed_ = false;
  int checkpoints_written_ = 0;
  double checkpoint_seconds_ = 0;

  // ---- per-run state ----
  std::vector<std::vector<Value>> old_values_;  // resident ping
  std::vector<std::vector<Value>> acc_values_;  // resident accumulator/pong
  std::vector<uint8_t> active_;
  std::unique_ptr<std::atomic<uint8_t>[]> next_active_;
  std::vector<int> value_parity_;  // parity of latest on-disk values
  std::vector<uint8_t> planned_;  // (direction, i, j) read this iter
  // (direction, i, j) decoded blobs of the resident rows (i < q_), held in
  // cached mode; empty in stream mode. An empty entry is not read yet.
  std::vector<SubShard> resident_;
  // The budget cannot hold the decoded graph: every iteration reads the
  // blobs it plans, and nothing is held.
  bool stream_mode_ = false;

  // Selective scheduling: on when the options ask for it, the program is
  // monotone-skippable, AND the store's manifest carries summaries. The
  // frontier holds the vertices that changed LAST iteration (all-pass
  // before iteration 0 and after a resume) and collects this iteration's
  // changes in the apply loops; it advances at the iteration boundary,
  // alongside active_.
  bool selective_ = false;
  Frontier frontier_;

  std::atomic<uint64_t> edges_traversed_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  uint64_t subshards_processed_ = 0;  // planner verdicts, selective runs only
  uint64_t subshards_skipped_ = 0;

  // Shared tally of retry activity across every pipeline (prefetch
  // streams, write-behind queue, the engine's own retried ops).
  RetryCounters counters_;

  // The store's lifetime counters at setup: Run reports (store − base), so
  // a store shared with earlier runs and loads reports this run's decodes
  // and checksum re-reads only.
  uint64_t decode_calls_base_ = 0;
  uint64_t decode_nanos_base_ = 0;
  uint64_t checksum_rereads_base_ = 0;

  // Accumulated by the (single-threaded) phase drivers.
  double phase_seconds_[4] = {0, 0, 0, 0};  // A, B, C, D
  double io_wait_seconds_ = 0;

  std::mutex error_mu_;
  Status first_error_;

  std::vector<Value> final_values_;
};

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

template <VertexProgram Program>
void Engine<Program>::RecordError(const Status& s) {
  if (s.ok()) return;
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = s;
}

template <VertexProgram Program>
bool Engine<Program>::HasError() {
  std::lock_guard<std::mutex> lock(error_mu_);
  return !first_error_.ok();
}

template <VertexProgram Program>
Status Engine<Program>::Prepare() {
  // The backend selection below may replace store_ with a reopen against
  // the backend Env; this keepalive pins the original store — and with it
  // the Manifest `m` references — for the whole setup. The two stores
  // describe the same on-disk manifest, so reads through `m` stay valid
  // and identical either way.
  const std::shared_ptr<const GraphStore> setup_store = store_;
  const Manifest& m = setup_store->manifest();
  p_ = m.num_intervals;

  const bool use_forward = options_.direction == EdgeDirection::kForward ||
                           options_.direction == EdgeDirection::kBoth;
  const bool use_transpose = options_.direction == EdgeDirection::kTranspose ||
                             options_.direction == EdgeDirection::kBoth;
  if (use_transpose && !store_->has_transpose()) {
    return Status::InvalidArgument(
        "run direction requires a store built with build_transpose");
  }

  // Degrees of the propagating endpoint: out-degrees for forward edges,
  // in-degrees (== transpose out-degrees) for reversed edges.
  uint64_t fixed_overhead = 0;
  if (use_forward) {
    NX_ASSIGN_OR_RETURN(out_degrees_, store_->LoadOutDegrees());
    fixed_overhead += out_degrees_.size() * sizeof(uint32_t);
  }
  if (use_transpose) {
    NX_ASSIGN_OR_RETURN(in_degrees_, store_->LoadInDegrees());
    fixed_overhead += in_degrees_.size() * sizeof(uint32_t);
  }

  decision_ =
      ChooseStrategy(m, sizeof(Value), fixed_overhead, options_);
  q_ = decision_.resident_intervals;
  prefetch_depth_ = decision_.prefetch_depth;
  row_cap_ = RowCap(m, options_.direction);
  hub_row_bytes_.assign(p_, 0);
  for (uint32_t i = q_; i < p_; ++i) {
    hub_row_bytes_[i] =
        HubRowBytes(m, sizeof(Value), options_.direction, q_, i);
  }

  // Select the I/O backend. Direct I/O is a real-device optimization: a
  // store on MemEnv/ThrottledEnv/FaultInjectionEnv keeps its own Env,
  // whose semantics (hermeticity, device model, crash model) O_DIRECT
  // would bypass. On the default Posix Env the store is reopened against
  // the direct Env, so the prefetcher's sub-shard reads, the writeback
  // queue's hub/interval writes and the checkpoint stores below all go
  // through it — engine logic is untouched, exactly the Env-boundary
  // contract from src/io/README.md.
  effective_backend_ = options_.io_backend;
  if (effective_backend_ == IoBackend::kDirect) {
    if (store_->env() != Env::Default() || !DirectIOSupported(store_->dir())) {
      // Off the Posix filesystem, or on one that refuses O_DIRECT outright
      // (tmpfs): every read would take the per-file buffered fallback, so
      // reporting "direct" would be a lie — the per-file fallback is for
      // mixed setups (e.g. scratch on a different filesystem), not for a
      // run that cannot go direct at all.
      effective_backend_ = IoBackend::kBuffered;
    } else {
      backend_env_ = NewDirectIOEnv();
      auto reopened = GraphStore::Open(backend_env_.get(), store_->dir());
      if (reopened.ok()) {
        store_ = std::move(*reopened);
      } else {
        NX_LOG(Warn) << "io_backend direct could not reopen the store ("
                     << reopened.status().ToString()
                     << "); falling back to buffered";
        backend_env_.reset();
        effective_backend_ = IoBackend::kBuffered;
      }
    }
  }

  pool_ = std::make_unique<ThreadPool>(std::max(options_.num_threads, 0));
  if (prefetch_depth_ > 0) {
    io_pool_ = std::make_unique<ThreadPool>(std::max(options_.io_threads, 1));
  }

  // The decode-path knob applies to whichever store the backend selection
  // settled on; the bases make RunStats report this run's decode work and
  // re-reads even on a shared store that served earlier runs.
  store_->SetSimdDecode(options_.simd_decode);
  decode_calls_base_ = store_->bulk_decode_calls();
  decode_nanos_base_ = store_->decode_nanos();
  checksum_rereads_base_ = store_->checksum_rereads();

  active_.assign(p_, 0);
  next_active_ = std::make_unique<std::atomic<uint8_t>[]>(p_);
  value_parity_.assign(p_, 0);
  planned_.assign(2 * static_cast<size_t>(p_) * p_, 0);

  std::string scratch = options_.scratch_dir.empty()
                            ? store_->dir() + "/run"
                            : options_.scratch_dir;
  Env* env = store_->env();
  const bool checkpointing = options_.checkpoint_interval > 0;
  if (q_ < p_ || checkpointing) {
    NX_RETURN_NOT_OK(env->CreateDirs(scratch));
    // The manager exists whenever the scratch directory does, so even a
    // non-checkpointing run can invalidate a stale record below;
    // checkpoint writes stay gated on checkpoint_interval.
    ckpt_ = std::make_unique<CheckpointManager>(env, scratch);
  }
  if (checkpointing) {
    fingerprint_ = m.Fingerprint();
    resumed_ = TryResume(env, scratch);
  }
  if ((q_ < p_ || checkpointing) && !resumed_) {
    // Fresh start: drop any stale record BEFORE truncating the value
    // stores — a crash between the two steps must never leave a record
    // pointing at zeroed data. Done even when checkpointing is off: a
    // non-checkpointing run overwrites the same scratch files, and a
    // leftover record from an earlier run would otherwise validate
    // against data it never described.
    NX_RETURN_NOT_OK(ckpt_->Remove());
    NX_ASSIGN_OR_RETURN(
        interval_store_,
        IntervalStore::Create(env, scratch + "/values.nxi", m,
                              sizeof(Value)));
  }
  if (checkpointing && options_.checkpoint_interval > 1 && q_ < p_ &&
      ckpt_store_ == nullptr) {
    // TryResume leaves the snapshot store open when the record references
    // it; truncating here is safe exactly because it does not.
    NX_ASSIGN_OR_RETURN(
        ckpt_store_,
        IntervalStore::Create(env, scratch + "/values_ckpt.nxi", m,
                              sizeof(Value)));
  }
  if (q_ < p_) {
    if (use_forward) {
      NX_ASSIGN_OR_RETURN(hubs_forward_,
                          HubFile::Create(env, scratch + "/hubs_f.nxh", m, q_,
                                          sizeof(Value),
                                          /*transpose=*/false));
    }
    if (use_transpose) {
      NX_ASSIGN_OR_RETURN(hubs_transpose_,
                          HubFile::Create(env, scratch + "/hubs_t.nxh", m, q_,
                                          sizeof(Value),
                                          /*transpose=*/true));
    }
    // The writer gets its own thread: a slow device write must never
    // occupy a prefetch thread and starve the read window.
    if (decision_.writeback_buffer_bytes > 0) {
      wb_pool_ = std::make_unique<ThreadPool>(1);
    }
    writeback_ = std::make_unique<WritebackQueue>(
        wb_pool_.get(), decision_.writeback_buffer_bytes, options_.retry,
        &counters_);
  }

  directions_.clear();
  if (use_forward) {
    directions_.push_back(
        DirectionPlan{false, &out_degrees_, hubs_forward_.get()});
  }
  if (use_transpose) {
    directions_.push_back(
        DirectionPlan{true, &in_degrees_, hubs_transpose_.get()});
  }

  // If the sub-shard budget cannot hold the decoded graph, switch to
  // streaming: whole-row sequential reads in row-major order (paper:
  // "streamlined disk access pattern"). Otherwise the resident rows' blobs
  // are held once read. Decoded footprints come from the manifest's
  // per-blob counts — with a compressed blob format (NXS2) the encoded
  // file size undercounts what holding the blobs takes.
  uint64_t decoded_bytes = 0;
  if (use_forward) decoded_bytes += m.TotalDecodedSubShardBytes(false);
  if (use_transpose) decoded_bytes += m.TotalDecodedSubShardBytes(true);
  stream_mode_ = decision_.subshard_cache_budget < decoded_bytes;
  resident_.clear();
  if (!stream_mode_) resident_.resize(2 * static_cast<size_t>(p_) * p_);

  selective_ = options_.selective_scheduling && Program::kMonotoneSkippable &&
               m.has_summaries();
  // Conservative until the first apply has run (or, on resume, for the
  // first resumed iteration: it falls back to row-level skipping and the
  // frontier sharpens from the next one).
  if (selective_) frontier_.ResetToAll(m);
  return Status::OK();
}

template <VertexProgram Program>
bool Engine<Program>::TryResume(Env* env, const std::string& scratch) {
  auto record_or = ckpt_->Load();
  if (!record_or.ok()) {
    if (!record_or.status().IsNotFound()) {
      NX_LOG(Warn) << "checkpoint unreadable ("
                   << record_or.status().ToString()
                   << "); starting from iteration 0";
    }
    return false;
  }
  CheckpointState rec = std::move(record_or).value();
  if (rec.graph_fingerprint != fingerprint_ || rec.program_id != ProgramId() ||
      rec.program_state != ProgramState(program_) ||
      rec.direction != static_cast<uint8_t>(options_.direction) ||
      rec.value_bytes != sizeof(Value) || rec.num_intervals != p_ ||
      rec.resident_intervals != q_) {
    NX_LOG(Warn) << "checkpoint does not match this run "
                 << "(graph fingerprint / program / parameters / direction "
                 << "/ P / Q / value size); starting from iteration 0";
    return false;
  }
  if (options_.max_iterations > 0 &&
      rec.iteration > static_cast<uint32_t>(options_.max_iterations)) {
    // The record is past this run's cap: "resuming" would return more
    // iterations than asked for. A fresh capped run is the only answer
    // that matches an uninterrupted one.
    NX_LOG(Warn) << "checkpoint at iteration " << rec.iteration
                 << " is beyond max_iterations = " << options_.max_iterations
                 << "; starting from iteration 0";
    return false;
  }
  auto live = IntervalStore::Open(env, scratch + "/values.nxi",
                                  store_->manifest(), sizeof(Value));
  if (!live.ok()) {
    NX_LOG(Warn) << "checkpoint value store unusable ("
                 << live.status().ToString() << "); starting from iteration 0";
    return false;
  }
  if (rec.has_snapshot) {
    // Checkpoints further apart than one iteration park the non-resident
    // segments in the side snapshot store; restore them into the live
    // store at the recorded parity. A crash mid-copy is harmless — the
    // record stays valid and the next attempt redoes the copy.
    auto snap = IntervalStore::Open(env, scratch + "/values_ckpt.nxi",
                                    store_->manifest(), sizeof(Value));
    if (!snap.ok()) {
      NX_LOG(Warn) << "checkpoint snapshot store unusable ("
                   << snap.status().ToString()
                   << "); starting from iteration 0";
      return false;
    }
    std::vector<char> buf;
    for (uint32_t i = q_; i < p_; ++i) {
      buf.resize((*live)->segment_bytes(i));
      Status s = (*snap)->Read(i, rec.snapshot_parity, buf.data());
      if (s.ok()) s = (*live)->Write(i, rec.value_parity[i], buf.data());
      if (!s.ok()) {
        NX_LOG(Warn) << "checkpoint snapshot restore failed (" << s.ToString()
                     << "); starting from iteration 0";
        return false;
      }
    }
    ckpt_store_ = std::move(*snap);
  }
  interval_store_ = std::move(*live);
  ckpt_snapshot_parity_ = rec.snapshot_parity;
  for (uint32_t i = 0; i < p_; ++i) {
    value_parity_[i] = rec.value_parity[i];
    active_[i] = rec.active[i];
  }
  resume_iter_ = static_cast<int>(rec.iteration);
  NX_LOG(Info) << "resuming from checkpoint at iteration " << resume_iter_;
  return true;
}

template <VertexProgram Program>
Status Engine<Program>::MaybeCheckpoint(int completed_iterations) {
  if (options_.checkpoint_interval <= 0 ||
      completed_iterations % options_.checkpoint_interval != 0) {
    return Status::OK();
  }
  Timer timer;
  // Every direct (non-queued) step of the commit below runs under
  // RunWithRetry: a checkpoint is precisely the work worth re-attempting
  // through a transient glitch. All of the ops are idempotent positional
  // reads/writes (or the manager's write-temp + rename).
  //
  // Resident intervals have no disk copy outside the checkpoint: write the
  // freshly applied values into their opposite parity. The engine never
  // reads resident segments, so the parity the current record points at is
  // untouched until the new record commits.
  for (uint32_t i = 0; i < q_; ++i) {
    const int parity = 1 - value_parity_[i];
    NX_RETURN_NOT_OK(RunWithRetry(options_.retry, &counters_, [&] {
      return interval_store_->Write(writeback_.get(), i, parity,
                                    old_values_[i].data());
    }));
    value_parity_[i] = parity;
  }
  // With checkpoints further apart than the ping-pong history (interval
  // > 1), copy the non-resident segments into the side snapshot store,
  // alternating ITS parity per checkpoint for the same protection.
  bool wrote_snapshot = false;
  int snap_parity = ckpt_snapshot_parity_;
  if (ckpt_store_ != nullptr && options_.checkpoint_interval > 1) {
    snap_parity = 1 - ckpt_snapshot_parity_;
    std::vector<char> buf;
    for (uint32_t i = q_; i < p_; ++i) {
      buf.resize(interval_store_->segment_bytes(i));
      NX_RETURN_NOT_OK(RunWithRetry(options_.retry, &counters_, [&] {
        return interval_store_->Read(i, value_parity_[i], buf.data());
      }));
      NX_RETURN_NOT_OK(RunWithRetry(options_.retry, &counters_, [&] {
        return ckpt_store_->Write(writeback_.get(), i, snap_parity,
                                  buf.data());
      }));
    }
    wrote_snapshot = true;
  }
  // Durability barrier: everything the record will point at must be on the
  // device before the record exists. The queue's Drain lands and flushes
  // the writes pushed through it, but a zero writeback budget records no
  // flush targets (it is the pre-writeback synchronous path) and the
  // resume path's snapshot restore writes directly — so the stores are
  // synced explicitly as well; a redundant fdatasync is cheap. Drain
  // retries internally (per write, through the queue's own policy).
  if (writeback_ != nullptr) NX_RETURN_NOT_OK(writeback_->Drain(/*sync=*/true));
  NX_RETURN_NOT_OK(RunWithRetry(options_.retry, &counters_,
                                [&] { return interval_store_->Sync(); }));
  if (wrote_snapshot) {
    NX_RETURN_NOT_OK(RunWithRetry(options_.retry, &counters_,
                                  [&] { return ckpt_store_->Sync(); }));
  }

  CheckpointState rec;
  rec.graph_fingerprint = fingerprint_;
  rec.program_id = ProgramId();
  rec.program_state = ProgramState(program_);
  rec.direction = static_cast<uint8_t>(options_.direction);
  rec.value_bytes = sizeof(Value);
  rec.num_intervals = p_;
  rec.resident_intervals = q_;
  rec.iteration = static_cast<uint32_t>(completed_iterations);
  rec.has_snapshot = wrote_snapshot ? 1 : 0;
  rec.snapshot_parity = static_cast<uint8_t>(snap_parity);
  rec.value_parity.assign(value_parity_.begin(), value_parity_.end());
  rec.active = active_;
  NX_RETURN_NOT_OK(RunWithRetry(options_.retry, &counters_,
                                [&] { return ckpt_->Write(rec); }));
  ckpt_snapshot_parity_ = snap_parity;
  checkpoint_seconds_ += timer.ElapsedSeconds();
  ++checkpoints_written_;
  return Status::OK();
}

template <VertexProgram Program>
Status Engine<Program>::InitValues() {
  const Manifest& m = store_->manifest();
  const std::vector<uint32_t>& degrees =
      !out_degrees_.empty() ? out_degrees_ : in_degrees_;

  old_values_.assign(p_, {});
  acc_values_.assign(p_, {});
  if (resumed_) {
    // The checkpoint seeded parity and activity; only the resident
    // intervals' values need to come back into memory.
    for (uint32_t i = 0; i < q_; ++i) {
      const uint32_t size = m.interval_size(i);
      old_values_[i].resize(size);
      NX_RETURN_NOT_OK(RunWithRetry(options_.retry, &counters_, [&] {
        return interval_store_->Read(i, value_parity_[i],
                                     old_values_[i].data());
      }));
      acc_values_[i].assign(size, Program::Identity());
    }
    return Status::OK();
  }
  for (uint32_t i = 0; i < p_; ++i) {
    const uint32_t size = m.interval_size(i);
    std::vector<Value> init;
    active_[i] = InitIntervalValues(program_, m, i, degrees, &init) ? 1 : 0;
    if (i < q_) {
      old_values_[i] = std::move(init);
      acc_values_[i].assign(size, Program::Identity());
    } else {
      NX_RETURN_NOT_OK(
          interval_store_->Write(writeback_.get(), i, 0, init.data()));
      bytes_written_.fetch_add(interval_store_->stored_bytes(i),
                               std::memory_order_relaxed);
      value_parity_[i] = 0;
    }
  }
  // Seeded programs (BFS/SSSP point traversals) start with an EXACT
  // frontier — only the seeds differ from the default value — so iteration
  // 0 already skips every blob the seeds cannot reach, instead of paying
  // one all-pass sweep of the seeds' rows. Dense-init programs keep the
  // conservative all-pass filter until the first apply has run.
  if constexpr (SeededProgram<Program>) {
    if (selective_) frontier_.Seed(m, program_.SeedVertices());
  }
  // Ordering barrier: the first iteration's Phase B reads these segments.
  if (writeback_ != nullptr) {
    NX_RETURN_NOT_OK(writeback_->Drain(/*sync=*/false));
  }
  return Status::OK();
}

// Core inner loop: accumulate contributions for destination groups
// [gb, ge) of one sub-shard. Destinations in a chunk are exclusive to the
// calling thread, so `acc` writes are plain stores (no atomics).
template <VertexProgram Program>
void Engine<Program>::ProcessGroups(const SubShard& ss, const Value* src_vals,
                                    VertexId src_base, Value* acc,
                                    VertexId dst_base,
                                    const std::vector<uint32_t>& degrees,
                                    uint32_t gb, uint32_t ge) {
  const bool weighted = !ss.weights.empty();
  for (uint32_t g = gb; g < ge; ++g) {
    const VertexId dst = ss.dsts[g];
    Value a = Program::Identity();
    const uint32_t kb = ss.offsets[g];
    const uint32_t ke = ss.offsets[g + 1];
    for (uint32_t k = kb; k < ke; ++k) {
      const VertexId src = ss.srcs[k];
      EdgeContext edge{src, dst, weighted ? ss.weights[k] : 1.0f,
                       degrees[src]};
      a = Program::Accumulate(a, program_.Gather(edge, src_vals[src - src_base]));
    }
    Value& slot = acc[dst - dst_base];
    slot = Program::Accumulate(slot, a);
  }
}

template <VertexProgram Program>
std::vector<std::pair<uint32_t, uint32_t>> Engine<Program>::ComputeChunks(
    const SubShard& ss) const {
  std::vector<std::pair<uint32_t, uint32_t>> chunks;
  const uint32_t num_groups = ss.num_dsts();
  uint32_t gb = 0;
  while (gb < num_groups) {
    uint32_t ge = gb;
    uint32_t edges = 0;
    while (ge < num_groups && edges < kGrainEdges) {
      edges += ss.offsets[ge + 1] - ss.offsets[ge];
      ++ge;
    }
    chunks.emplace_back(gb, ge);
    gb = ge;
  }
  return chunks;
}

// ---- Phase A: resident rows x resident columns --------------------------

template <VertexProgram Program>
Status Engine<Program>::LoadResidentRows() {
  // PlanRowRuns passes over held blobs, so each blob is read at most once
  // per run, and only if some iteration plans it. Edges are counted where
  // the blobs are used (UseHeld), not here.
  const std::vector<ResidentRow> schedule = ResidentRowSchedule(0, p_);
  RowStream rows = MakeStream<std::vector<SubShard>>();
  for (const ResidentRow& r : schedule) {
    for (auto [jb, je] : r.runs) PushRow(rows, r.i, jb, je, r.dir->transpose);
  }
  for (const ResidentRow& r : schedule) {
    for (auto [jb, je] : r.runs) {
      NX_ASSIGN_OR_RETURN(std::vector<SubShard> row, rows.Next());
      // Bridged empty blobs land as empty entries: still "not read".
      for (uint32_t j = jb; j < je; ++j) {
        resident_[GridIndex(r.i, j, r.dir->transpose)] =
            std::move(row[j - jb]);
      }
    }
  }
  io_wait_seconds_ += rows.io_wait_seconds();
  return Status::OK();
}

template <VertexProgram Program>
Status Engine<Program>::PhaseResidentRows() {
  if (q_ == 0) return Status::OK();
  const Manifest& m = store_->manifest();

  if (stream_mode_) {
    // Streaming schedule: rows load with one sequential read each and are
    // processed with a barrier per row. Within a row every chunk writes a
    // distinct (column, destination-range), so no synchronization beyond
    // the barrier is needed; the disk sees pure forward scans. The whole
    // schedule is pushed up front so the prefetcher keeps iteration i+1's
    // row reads in flight while row i's chunks are still computing.
    // Each row reads as one sequential run per contiguous range of planned
    // blobs.
    const std::vector<ResidentRow> schedule = ResidentRowSchedule(0, q_);
    RowStream rows = MakeStream<std::vector<SubShard>>();
    for (const ResidentRow& r : schedule) {
      for (auto [jb, je] : r.runs) {
        PushRow(rows, r.i, jb, je, r.dir->transpose);
      }
    }
    for (const ResidentRow& r : schedule) {
      const VertexId src_base = m.interval_begin(r.i);
      const Value* src_vals = old_values_[r.i].data();
      for (auto [jb, je] : r.runs) {
        NX_ASSIGN_OR_RETURN(std::vector<SubShard> row, NextRow(rows));
        WaitGroup wg;
        for (uint32_t j = jb; j < je; ++j) {
          if (row[j - jb].empty()) continue;
          SubmitChunks(wg, row[j - jb], src_vals, src_base,
                       acc_values_[j].data(), m.interval_begin(j),
                       *r.dir->degrees);
        }
        wg.Wait();
      }
    }
    io_wait_seconds_ += rows.io_wait_seconds();
    return Status::OK();
  }

  // Cached mode: hold every blob this iteration plans, then schedule the
  // resident block from memory.
  NX_RETURN_NOT_OK(LoadResidentRows());
  if (options_.sync_mode == SyncMode::kCallback) {
    // Per-column chains: rows of one column run in order, the completion
    // callback of the last chunk dispatches the next row; rows of
    // different columns overlap freely (paper: "worker threads for the
    // next sub-shard can be issued before all threads for the current
    // sub-shard are finished"). One chain covers BOTH directions of its
    // column — the forward and transpose sub-shards of a column write
    // overlapping destinations, so they must not run concurrently.
    struct Chain {
      struct RowRef {
        const DirectionPlan* dir;
        uint32_t i;
      };
      Engine* engine;
      uint32_t column;
      std::vector<RowRef> rows;
      std::atomic<size_t> next{0};
      std::atomic<uint32_t> pending{0};
      WaitGroup* wg;

      void Dispatch() {
        Engine* e = engine;
        for (;;) {
          const size_t r = next.load(std::memory_order_relaxed);
          if (r >= rows.size()) break;
          next.store(r + 1, std::memory_order_relaxed);
          const DirectionPlan* dir = rows[r].dir;
          const uint32_t i = rows[r].i;
          const SubShard* ss = &e->UseHeld(i, column, dir->transpose);
          auto chunks = e->ComputeChunks(*ss);
          if (chunks.empty()) continue;
          const Manifest& mf = e->store_->manifest();
          const VertexId src_base = mf.interval_begin(i);
          const VertexId dst_base = mf.interval_begin(column);
          Value* acc = e->acc_values_[column].data();
          const Value* src_vals = e->old_values_[i].data();
          if (chunks.size() == 1) {
            // Common case for small sub-shards: stay on this thread, no
            // queue round-trip or completion counter.
            e->ProcessGroups(*ss, src_vals, src_base, acc, dst_base,
                             *dir->degrees, chunks[0].first,
                             chunks[0].second);
            continue;
          }
          pending.store(static_cast<uint32_t>(chunks.size()),
                        std::memory_order_relaxed);
          for (auto [gb, ge] : chunks) {
            e->pool_->Submit([this, e, dir, ss, src_vals, src_base, acc,
                              dst_base, gb, ge] {
              e->ProcessGroups(*ss, src_vals, src_base, acc, dst_base,
                               *dir->degrees, gb, ge);
              if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                Dispatch();
              }
            });
          }
          return;  // continuation happens in the last chunk's callback
        }
        wg->Done();
      }
    };

    std::vector<std::unique_ptr<Chain>> chains;
    WaitGroup wg;
    for (uint32_t j = 0; j < q_; ++j) {
      auto chain = std::make_unique<Chain>();
      chain->engine = this;
      chain->column = j;
      chain->wg = &wg;
      for (const DirectionPlan& dir : directions_) {
        for (uint32_t i = 0; i < q_; ++i) {
          if (Planned(i, j, dir.transpose)) chain->rows.push_back({&dir, i});
        }
      }
      chains.push_back(std::move(chain));
    }
    wg.Add(static_cast<int>(chains.size()));
    for (auto& chain : chains) {
      Chain* c = chain.get();
      pool_->Submit([c] { c->Dispatch(); });
    }
    wg.Wait();
  } else {
    // Lock mode: all (sub-shard, chunk) tasks are enqueued at once in any
    // order; a mutex per destination interval serializes the conflicting
    // writers ("set a lock on each destination interval when writing",
    // §IV). Different columns proceed fully in parallel.
    std::vector<std::unique_ptr<std::mutex>> column_locks(q_);
    for (auto& lock : column_locks) lock = std::make_unique<std::mutex>();
    WaitGroup wg;
    for (const DirectionPlan& dir : directions_) {
      for (uint32_t i = 0; i < q_; ++i) {
        for (uint32_t j = 0; j < q_; ++j) {
          if (!Planned(i, j, dir.transpose)) continue;
          const SubShard* ss = &UseHeld(i, j, dir.transpose);
          const VertexId dst_base = m.interval_begin(j);
          const VertexId src_base = m.interval_begin(i);
          const Value* src_vals = old_values_[i].data();
          Value* acc = acc_values_[j].data();
          const std::vector<uint32_t>* degrees = dir.degrees;
          std::mutex* lock = column_locks[j].get();
          for (auto [gb, ge] : ComputeChunks(*ss)) {
            wg.Add(1);
            pool_->Submit([this, ss, src_vals, src_base, acc, dst_base,
                           degrees, gb, ge, lock, &wg] {
              {
                std::lock_guard<std::mutex> guard(*lock);
                ProcessGroups(*ss, src_vals, src_base, acc, dst_base,
                              *degrees, gb, ge);
              }
              // Unlock before signaling: wg.Wait() may destroy the locks
              // the moment the count reaches zero.
              wg.Done();
            });
          }
        }
      }
    }
    wg.Wait();
  }
  return Status::OK();
}

// ---- Phase B: disk rows (SPU-like into resident columns, ToHub) ----------

template <VertexProgram Program>
Status Engine<Program>::PhaseDiskRows() {
  if (q_ == p_) return Status::OK();
  const Manifest& m = store_->manifest();

  // Push the whole phase schedule — row i's interval values plus its
  // per-direction sub-shard rows — so reads for row i+1 (and beyond, up to
  // the window depth) are in flight while row i is computing. Each
  // direction's row reads as the runs of its planned blobs; a row where
  // every direction planned nothing is dropped entirely (its source values
  // are not even fetched).
  struct DiskRow {
    uint32_t i;
    // runs[d] = contiguous [begin, end) column ranges for directions_[d].
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> runs;
  };
  std::vector<DiskRow> schedule;
  std::vector<uint8_t> scheduled(p_, 0);
  for (uint32_t i = q_; i < p_; ++i) {
    DiskRow dr{i, {}};
    bool any = false;
    for (const DirectionPlan& dir : directions_) {
      dr.runs.push_back(PlanRowRuns(i, dir.transpose, 0, p_));
      any = any || !dr.runs.back().empty();
    }
    if (any) {
      schedule.push_back(std::move(dr));
      scheduled[i] = 1;
    }
  }
  if (schedule.empty()) return Status::OK();
  ValueStream values = MakeStream<std::vector<Value>>();
  RowStream rows = MakeStream<std::vector<SubShard>>();
  for (const DiskRow& dr : schedule) {
    PushIntervalValues(values, dr.i);
    for (size_t d = 0; d < directions_.size(); ++d) {
      for (auto [jb, je] : dr.runs[d]) {
        PushRow(rows, dr.i, jb, je, directions_[d].transpose);
      }
    }
  }

  // Write groups: runs of consecutive scheduled rows whose hubs (every
  // direction, columns >= q) total at most one raw sub-shard row, the cap
  // hub reads have too; a row the schedule drops ends a group. Each
  // maximal run of a group's written hubs in one (direction, column) is
  // sealed into a buffer of its own, laid out as on disk, and goes out
  // with one write after the group's last row, through the write-behind
  // queue (inline when its budget is 0). The writes are compute-pool
  // tasks, so their device waits overlap each other and the next group's
  // first reads; that group allocates its buffers only once they have
  // returned, so Phase B holds one group's buffers at a time, at most
  // MaxRowBytes. The memory budget does not count them, as it did not
  // count the per-task hub payloads of one write per hub. A row whose hubs
  // alone exceed the cap is a group of its own and is not buffered: each
  // of its ToHub tasks writes its hub as a one-segment run. `writes` is
  // waited on before any return, since its tasks reference this frame.
  std::vector<std::pair<uint32_t, uint32_t>> groups;
  for (auto [ib, ie] : MaximalRuns(q_, p_, [&](uint32_t i) {
         return scheduled[i] ? RunStep::kTake : RunStep::kBreak;
       })) {
    for (auto group : SplitByBytes(ib, ie, row_cap_, [&](uint32_t i) {
           return RunBytes{hub_row_bytes_[i], 0};
         })) {
      groups.push_back(group);
    }
  }

  struct WriteRun {
    size_t d;  // index into directions_
    uint32_t i_begin, i_end, j;
    std::string bytes;  // the run's sealed segments, back to back
  };
  std::vector<WriteRun> write_runs;  // the open group's
  // (direction, column, row - group start): where the open group seals
  // hub (row, column), or null when a ToHub task writes its own.
  std::vector<char*> segments;
  WaitGroup writes;
  struct WaitOnExit {
    WaitGroup& wg;
    ~WaitOnExit() { wg.Wait(); }
  } wait_writes{writes};
  auto open_group = [&](uint32_t gb, uint32_t ge) {
    writes.Wait();
    write_runs.clear();
    segments.assign(directions_.size() * p_ * (ge - gb), nullptr);
    if (hub_row_bytes_[gb] > row_cap_.raw) return;  // over the cap
    for (size_t d = 0; d < directions_.size(); ++d) {
      for (uint32_t j = q_; j < p_; ++j) {
        for (auto [ib, ie] : WrittenHubRuns(directions_[d], j, gb, ge)) {
          write_runs.push_back({d, ib, ie, j,
                                std::string(directions_[d].hubs->RunSpan(
                                                ib, ie, j),
                                            '\0')});
        }
      }
    }
    for (WriteRun& run : write_runs) {
      const HubFile* hubs = directions_[run.d].hubs;
      for (uint32_t i = run.i_begin; i < run.i_end; ++i) {
        segments[(run.d * p_ + run.j) * (ge - gb) + (i - gb)] =
            run.bytes.data() + hubs->RunOffset(run.i_begin, i, run.j);
      }
    }
  };

  const DiskRow* dr = schedule.data();
  for (auto [gb, ge] : groups) {
    bool open = false;
    for (; dr != schedule.data() + schedule.size() && dr->i < ge; ++dr) {
      const uint32_t i = dr->i;
      const VertexId src_base = m.interval_begin(i);
      NX_ASSIGN_OR_RETURN(std::vector<Value> src_buf, values.Next());

      for (size_t d = 0; d < directions_.size(); ++d) {
        const DirectionPlan& dir = directions_[d];
        for (auto [run_begin, run_end] : dr->runs[d]) {
          NX_ASSIGN_OR_RETURN(std::vector<SubShard> row, NextRow(rows));
          WaitGroup wg;
          // SPU-like updates into resident destination columns. Within one
          // row all columns are distinct, so chunks across columns run in
          // parallel.
          for (uint32_t j = run_begin; j < std::min(run_end, q_); ++j) {
            if (row[j - run_begin].empty()) continue;
            SubmitChunks(wg, row[j - run_begin], src_buf.data(), src_base,
                         acc_values_[j].data(), m.interval_begin(j),
                         *dir.degrees);
          }
          if (!open) {
            open_group(gb, ge);
            open = true;
          }
          // ToHub for disk destination columns: pre-accumulate per
          // destination and seal the sub-shard's destinations and partial
          // values into its segment of the write run. Segments are
          // disjoint, so concurrent tasks need no serialization.
          for (uint32_t j = std::max(run_begin, q_); j < run_end; ++j) {
            const SubShard& ss = row[j - run_begin];
            if (ss.empty()) continue;
            const std::vector<uint32_t>* degrees = dir.degrees;
            HubFile* hubs = dir.hubs;
            char* segment = segments[(d * p_ + j) * (ge - gb) + (i - gb)];
            const Value* src_vals = src_buf.data();
            wg.Add(1);
            pool_->Submit([this, &ss, src_vals, src_base, degrees, hubs, i,
                           j, segment, &wg] {
              const bool weighted = !ss.weights.empty();
              std::vector<Value> partials(ss.num_dsts(), Program::Identity());
              for (uint32_t g = 0; g < ss.num_dsts(); ++g) {
                const VertexId dst = ss.dsts[g];
                Value& a = partials[g];
                for (uint32_t k = ss.offsets[g]; k < ss.offsets[g + 1]; ++k) {
                  const VertexId src = ss.srcs[k];
                  EdgeContext edge{src, dst, weighted ? ss.weights[k] : 1.0f,
                                   (*degrees)[src]};
                  a = Program::Accumulate(
                      a, program_.Gather(edge, src_vals[src - src_base]));
                }
              }
              std::string own;  // the hub of a row over the cap
              if (segment == nullptr) own.resize(hubs->SegmentCapacity(i, j));
              Status sealed =
                  hubs->SealHub(i, j, segment != nullptr ? segment : own.data(),
                                ss.dsts, partials.data());
              if (sealed.ok() && segment == nullptr) {
                bytes_written_.fetch_add(own.size(),
                                         std::memory_order_relaxed);
                sealed = hubs->WriteHubRun(writeback_.get(), i, i + 1, j,
                                           std::move(own));
              }
              RecordError(sealed);
              wg.Done();
            });
          }
          wg.Wait();
        }  // runs
      }
      if (HasError()) break;
    }
    if (HasError()) break;
    // The group's write-out: one write per (direction, column, maximal run
    // of written hubs).
    for (WriteRun& run : write_runs) {
      bytes_written_.fetch_add(run.bytes.size(), std::memory_order_relaxed);
      writes.Add(1);
      pool_->Submit([this, &run, &writes] {
        RecordError(directions_[run.d].hubs->WriteHubRun(
            writeback_.get(), run.i_begin, run.i_end, run.j,
            std::move(run.bytes)));
        writes.Done();
      });
    }
  }
  writes.Wait();
  io_wait_seconds_ += values.io_wait_seconds() + rows.io_wait_seconds();
  // Ordering barrier: Phase C reads every hub written above, so all hub
  // payloads must have landed before this phase ends. A failed write
  // surfaces here instead of being dropped; the flush debt is settled by
  // the iteration-boundary drain (hubs are re-written every iteration, so
  // syncing them mid-iteration would buy no durability).
  if (writeback_ != nullptr) RecordError(writeback_->Drain(/*sync=*/false));
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

// ---- Phase C: disk columns (SPU-like from resident rows, FromHub) --------

template <VertexProgram Program>
Status Engine<Program>::PhaseDiskColumns() {
  if (q_ == p_) return Status::OK();
  const Manifest& m = store_->manifest();

  // The plan is fixed for the iteration, so the whole phase schedule is
  // known up front and every read — resident-row sub-shards (stream mode;
  // cached mode holds them since Phase A), hub column runs, and the
  // column's previous values — can be prefetched while earlier columns
  // compute.
  struct DiskColumn {
    uint32_t j;
    // rows[d] = planned resident rows, hub_runs[d] = [i_begin, i_end) hub
    // runs, for directions_[d].
    std::vector<std::vector<uint32_t>> rows;
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> hub_runs;
  };
  std::vector<DiskColumn> columns;
  for (uint32_t j = q_; j < p_; ++j) {
    // With selective scheduling a column with no planned resident-row blob
    // and no hub written by Phase B has nothing to fold: its apply is the
    // identity (Apply(v, Identity, old) == old for monotone programs), so
    // the column's values are neither read nor rewritten.
    DiskColumn col{j, {}, {}};
    bool any_work = !selective_;
    for (const DirectionPlan& dir : directions_) {
      col.rows.emplace_back();
      for (uint32_t i = 0; i < q_; ++i) {
        if (Planned(i, j, dir.transpose)) col.rows.back().push_back(i);
      }
      col.hub_runs.push_back(PlanHubRuns(dir, j));
      any_work = any_work || !col.rows.back().empty() ||
                 !col.hub_runs.back().empty();
    }
    if (any_work) columns.push_back(std::move(col));
  }
  if (columns.empty()) return Status::OK();

  // Column groups (stream mode): runs of consecutive entries of `columns`
  // whose planned resident-row blobs fit one row read, raw and decoded —
  // the two halves of a prefetch slot — so a group holds no more than a
  // Phase B row read does. A group's blobs are read as one row run per
  // (direction, resident row) where the plan allows. The fold takes each
  // run at the column where it starts, so runs are pushed in that order
  // and the window reads the next run while this one computes; each
  // decoded blob is dropped once its column has folded it.
  struct StreamedRun {
    size_t d;  // index into directions_
    uint32_t i, j_begin, j_end;
  };
  struct ColumnGroup {
    size_t end;  // one past the group's last entry of `columns`
    uint32_t j_begin, j_end;
    std::vector<StreamedRun> runs;  // by j_begin, then direction and row
  };
  std::vector<ColumnGroup> groups;
  if (stream_mode_) {
    const auto bytes = [&](uint32_t c) {
      RunBytes b;
      for (size_t d = 0; d < directions_.size(); ++d) {
        for (uint32_t i : columns[c].rows[d]) {
          const SubShardMeta& meta =
              m.subshard(i, columns[c].j, directions_[d].transpose);
          b.raw += meta.size;
          b.decoded += meta.DecodedBytes(m.weighted);
        }
      }
      return b;
    };
    for (auto [cb, ce] : SplitByBytes(
             0, static_cast<uint32_t>(columns.size()), row_cap_, bytes)) {
      ColumnGroup group{ce, columns[cb].j, columns[ce - 1].j + 1, {}};
      for (const ResidentRow& r :
           ResidentRowSchedule(group.j_begin, group.j_end)) {
        const size_t d = static_cast<size_t>(r.dir - directions_.data());
        for (auto [jb, je] : r.runs) group.runs.push_back({d, r.i, jb, je});
      }
      std::stable_sort(group.runs.begin(), group.runs.end(),
                       [](const StreamedRun& a, const StreamedRun& b) {
                         return a.j_begin < b.j_begin;
                       });
      groups.push_back(std::move(group));
    }
  }

  RowStream shards = MakeStream<std::vector<SubShard>>();
  HubStream hubs = MakeStream<HubFile::Run>();
  ValueStream olds = MakeStream<std::vector<Value>>();
  for (const ColumnGroup& group : groups) {
    for (const StreamedRun& r : group.runs) {
      PushRow(shards, r.i, r.j_begin, r.j_end, directions_[r.d].transpose);
    }
  }
  for (const DiskColumn& col : columns) {
    const uint32_t j = col.j;
    for (size_t d = 0; d < directions_.size(); ++d) {
      const DirectionPlan& dir = directions_[d];
      HubFile* hub_file = dir.hubs;
      for (auto [ib, ie] : col.hub_runs[d]) {
        hubs.Push([hub_file, ib, ie, j]() -> Result<HubFile::Run> {
          HubFile::Run run;
          NX_RETURN_NOT_OK(hub_file->ReadHubRun(ib, ie, j, &run));
          return run;
        });
      }
    }
    PushIntervalValues(olds, j);
  }

  std::vector<Value> acc_buf;
  // Stream mode: the current column group's decoded blobs, by (direction,
  // resident row, column - j_begin).
  std::vector<SubShard> streamed;
  const ColumnGroup* group = nullptr;
  size_t next_run = 0;  // the group's next run in the stream
  auto slot = [&](size_t d, uint32_t i, uint32_t j) {
    const size_t width = group->j_end - group->j_begin;
    return (d * q_ + i) * width + (j - group->j_begin);
  };
  for (size_t c = 0; c < columns.size(); ++c) {
    const DiskColumn& col = columns[c];
    const uint32_t j = col.j;
    const uint32_t isize = m.interval_size(j);
    const VertexId dst_base = m.interval_begin(j);
    acc_buf.assign(isize, Program::Identity());
    if (stream_mode_ && (group == nullptr || c == group->end)) {
      group = group == nullptr ? groups.data() : group + 1;
      next_run = 0;
      streamed.assign(
          directions_.size() * q_ * (group->j_end - group->j_begin), {});
    }

    for (size_t d = 0; d < directions_.size(); ++d) {
      const DirectionPlan& dir = directions_[d];
      // SPU-like: resident source rows gather directly from memory. Rows
      // are processed one at a time (their chunks in parallel) because two
      // rows of the same column write overlapping destinations.
      for (uint32_t i : col.rows[d]) {
        // A planned blob not held yet starts the group's next run.
        while (stream_mode_ && streamed[slot(d, i, j)].empty() &&
               next_run < group->runs.size()) {
          const StreamedRun& r = group->runs[next_run++];
          NX_ASSIGN_OR_RETURN(std::vector<SubShard> row, NextRow(shards));
          for (uint32_t k = r.j_begin; k < r.j_end; ++k) {
            streamed[slot(r.d, r.i, k)] = std::move(row[k - r.j_begin]);
          }
        }
        const SubShard& ss = stream_mode_ ? streamed[slot(d, i, j)]
                                          : UseHeld(i, j, dir.transpose);
        WaitGroup wg;
        SubmitChunks(wg, ss, old_values_[i].data(), m.interval_begin(i),
                     acc_buf.data(), dst_base, *dir.degrees);
        wg.Wait();
        if (stream_mode_) streamed[slot(d, i, j)] = SubShard{};
      }
      // FromHub: fold the pre-accumulated partials. Hubs are processed in
      // row order ("threads cannot be overlapped among hubs", §III-D) —
      // runs in ascending i, segments within a run likewise — within each
      // range of the column's destinations; the ranges are disjoint, so
      // they fold in parallel with each destination's order unchanged.
      for (size_t r = 0; r < col.hub_runs[d].size(); ++r) {
        NX_ASSIGN_OR_RETURN(HubFile::Run run, hubs.Next());
        bytes_read_.fetch_add(run.bytes.size(), std::memory_order_relaxed);
        Value* acc = acc_buf.data();
        const auto fold = [acc](uint32_t k, const Value& v) {
          acc[k] = Program::Accumulate(acc[k], v);
        };
        const auto fold_range = [&](size_t lo, size_t hi) {
          for (size_t k = 0; k < run.segments.size(); ++k) {
            HubFile::Fold<Value>(run, k, static_cast<uint32_t>(lo),
                                 static_cast<uint32_t>(hi), fold);
          }
        };
        pool_->ParallelFor(0, isize, FoldGrain(isize), fold_range);
      }
    }

    // Apply + write back the destination interval.
    NX_ASSIGN_OR_RETURN(std::vector<Value> old_buf, olds.Next());
    ApplyInterval(j, acc_buf.data(), old_buf.data());
    NX_RETURN_NOT_OK(interval_store_->Write(writeback_.get(), j,
                                            1 - value_parity_[j],
                                            acc_buf.data()));
    bytes_written_.fetch_add(interval_store_->stored_bytes(j),
                             std::memory_order_relaxed);
    value_parity_[j] = 1 - value_parity_[j];
  }
  io_wait_seconds_ +=
      shards.io_wait_seconds() + hubs.io_wait_seconds() + olds.io_wait_seconds();
  // Iteration barrier, with durability: the next Phase B (and the final
  // value collection) reads the interval segments written above, and the
  // interval store's ping-pong parity makes every iteration boundary a
  // consistent on-disk snapshot — so this is where the accumulated flush
  // debt (hubs included) is settled and flush failures surface.
  if (writeback_ != nullptr) NX_RETURN_NOT_OK(writeback_->Drain());
  return Status::OK();
}

// ---- Phase D: apply + ping-pong swap for resident columns ----------------

template <VertexProgram Program>
Status Engine<Program>::PhaseApplyResident() {
  for (uint32_t j = 0; j < q_; ++j) {
    ApplyInterval(j, acc_values_[j].data(), old_values_[j].data());
    // Ping-pong: the accumulator buffer becomes the new value array and the
    // old array is recycled as the next iteration's accumulator.
    std::swap(old_values_[j], acc_values_[j]);
  }
  return Status::OK();
}

template <VertexProgram Program>
void Engine<Program>::ApplyInterval(uint32_t j, Value* acc, const Value* old) {
  const Manifest& m = store_->manifest();
  const VertexId base = m.interval_begin(j);
  std::atomic<uint8_t> changed{0};
  pool_->ParallelFor(0, m.interval_size(j), 4096, [&](size_t kb, size_t ke) {
    bool local_changed = false;
    for (size_t k = kb; k < ke; ++k) {
      const VertexId v = base + static_cast<VertexId>(k);
      const Value next = program_.Apply(v, acc[k], old[k]);
      if (program_.Changed(old[k], next)) {
        local_changed = true;
        if (selective_) frontier_.AddAtomic(j, v);
      }
      acc[k] = next;
    }
    if (local_changed) changed.store(1, std::memory_order_relaxed);
  });
  if (changed.load(std::memory_order_relaxed)) {
    next_active_[j].store(1, std::memory_order_relaxed);
  }
}

template <VertexProgram Program>
void Engine<Program>::PlanIteration() {
  std::vector<Visit> visits;
  uint64_t charged = 0;
  uint64_t skipped = 0;
  PlanRound(store_->manifest(), active_, Program::kMonotoneSkippable,
            options_.direction != EdgeDirection::kTranspose,
            options_.direction != EdgeDirection::kForward,
            selective_ ? &frontier_ : nullptr, /*budget=*/0, &charged,
            &skipped, &visits);
  std::fill(planned_.begin(), planned_.end(), 0);
  for (const Visit& v : visits) planned_[GridIndex(v.i, v.j, v.transpose)] = 1;
  if (selective_) {
    subshards_processed_ += visits.size();
    subshards_skipped_ += skipped;
  }
}

template <VertexProgram Program>
Status Engine<Program>::RunIteration(int iter) {
  (void)iter;
  for (uint32_t i = 0; i < p_; ++i) {
    next_active_[i].store(0, std::memory_order_relaxed);
  }
  if (selective_) frontier_.BeginRound();
  PlanIteration();
  // Reset resident accumulators (InitializeIteration).
  for (uint32_t j = 0; j < q_; ++j) {
    std::fill(acc_values_[j].begin(), acc_values_[j].end(),
              Program::Identity());
  }
  Timer phase_timer;
  NX_RETURN_NOT_OK(PhaseResidentRows());
  phase_seconds_[0] += phase_timer.ElapsedSeconds();
  phase_timer.Reset();
  NX_RETURN_NOT_OK(PhaseDiskRows());
  phase_seconds_[1] += phase_timer.ElapsedSeconds();
  phase_timer.Reset();
  NX_RETURN_NOT_OK(PhaseDiskColumns());
  phase_seconds_[2] += phase_timer.ElapsedSeconds();
  phase_timer.Reset();
  NX_RETURN_NOT_OK(PhaseApplyResident());
  phase_seconds_[3] += phase_timer.ElapsedSeconds();
  for (uint32_t i = 0; i < p_; ++i) {
    active_[i] = next_active_[i].load(std::memory_order_relaxed);
  }
  // The vertices that changed this iteration become the next iteration's
  // frontier — the per-blob source summaries are intersected against these
  // filters when the next round is planned.
  if (selective_) frontier_.Advance();
  return Status::OK();
}

template <VertexProgram Program>
Result<RunStats> Engine<Program>::Run() {
  RunStats stats;
  Timer total;
  NX_RETURN_NOT_OK(Prepare());
  // Every read/write of the run proper (InitValues onwards) is served by
  // the store's effective Env — scratch stores and hubs are opened against
  // it too — so a snapshot delta of its transfer counters measures the
  // bytes that actually crossed the Env boundary, independent of the
  // engine's own accounting.
  const IoStats::Snapshot env_start = store_->env()->stats()->snapshot();

  NX_RETURN_NOT_OK(InitValues());
  stats.preprocess_seconds = total.ElapsedSeconds();
  stats.strategy = decision_.name;
  stats.resident_intervals = q_;

  Timer loop;
  int iter = resume_iter_;
  uint64_t last_subshards_processed = 0;
  uint64_t last_subshards_skipped = 0;
  for (;;) {
    if (options_.max_iterations > 0 && iter >= options_.max_iterations) break;
    // Iteration boundary is the engine's cancellation checkpoint: the
    // ping-pong state on disk is consistent here, so a cancelled run ends
    // exactly as if max_iterations had been `iter` (and, with periodic
    // checkpoints enabled, stays resumable from the last commit).
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return options_.cancel->ToStatus();
    }
    bool any_active = false;
    for (uint32_t i = 0; i < p_ && !any_active; ++i) {
      any_active = active_[i] != 0;
    }
    if (!any_active) break;
    Timer iter_timer;
    NX_RETURN_NOT_OK(RunIteration(iter));
    // Iteration boundary: the ping-pong snapshot on disk is consistent and
    // the activity bitmap final — commit a checkpoint if one is due.
    NX_RETURN_NOT_OK(MaybeCheckpoint(iter + 1));
    stats.iteration_seconds.push_back(iter_timer.ElapsedSeconds());
    stats.iteration_subshards_processed.push_back(subshards_processed_ -
                                                  last_subshards_processed);
    stats.iteration_subshards_skipped.push_back(subshards_skipped_ -
                                                last_subshards_skipped);
    last_subshards_processed = subshards_processed_;
    last_subshards_skipped = subshards_skipped_;
    ++iter;
  }
  stats.iterations = iter;
  stats.seconds = loop.ElapsedSeconds();
  stats.edges_traversed = edges_traversed_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  const IoStats::Snapshot env_end = store_->env()->stats()->snapshot();
  stats.env_bytes_read = env_end.bytes_read - env_start.bytes_read;
  stats.env_bytes_written = env_end.bytes_written - env_start.bytes_written;
  stats.env_read_calls = env_end.read_ops - env_start.read_ops;
  stats.env_write_calls = env_end.write_ops - env_start.write_ops;
  stats.phase_a_seconds = phase_seconds_[0];
  stats.phase_b_seconds = phase_seconds_[1];
  stats.phase_c_seconds = phase_seconds_[2];
  stats.phase_d_seconds = phase_seconds_[3];
  stats.io_wait_seconds = io_wait_seconds_;
  stats.write_wait_seconds =
      writeback_ != nullptr ? writeback_->write_wait_seconds() : 0;
  stats.prefetch_depth = static_cast<uint32_t>(prefetch_depth_);
  stats.writeback_buffer_bytes = decision_.writeback_buffer_bytes;
  stats.io_threads = io_pool_ != nullptr ? io_pool_->num_threads() : 0;
  stats.io_backend = IoBackendName(effective_backend_);
  stats.resumed_from_iteration = resume_iter_;
  stats.checkpoints_written = checkpoints_written_;
  stats.checkpoint_seconds = checkpoint_seconds_;
  stats.subshards_processed = subshards_processed_;
  stats.subshards_skipped = subshards_skipped_;
  stats.summary_bytes = store_->manifest().TotalSummaryBytes();
  stats.model_bytes_per_iteration = decision_.model_bytes_per_iteration;

  NX_RETURN_NOT_OK(CollectFinalValues());

  // Resilience tallies last: the collection above may retry too.
  stats.io_retries = counters_.io_retries.load(std::memory_order_relaxed);
  stats.retry_wait_seconds =
      static_cast<double>(
          counters_.retry_wait_micros.load(std::memory_order_relaxed)) /
      1e6;
  stats.checksum_rereads = store_->checksum_rereads() - checksum_rereads_base_;
  stats.dropped_write_errors =
      counters_.dropped_write_errors.load(std::memory_order_relaxed);
  stats.decode_path = DecodePathName(store_->decode_path());
  stats.bulk_decode_calls = store_->bulk_decode_calls() - decode_calls_base_;
  stats.decode_seconds =
      static_cast<double>(store_->decode_nanos() - decode_nanos_base_) / 1e9;
  return stats;
}

template <VertexProgram Program>
Status Engine<Program>::CollectFinalValues() {
  final_values_.resize(store_->num_vertices());
  const Manifest& m = store_->manifest();
  std::vector<Value> buf;
  for (uint32_t i = 0; i < p_; ++i) {
    const VertexId base = m.interval_begin(i);
    const uint32_t isize = m.interval_size(i);
    if (i < q_) {
      std::copy(old_values_[i].begin(), old_values_[i].end(),
                final_values_.begin() + base);
    } else {
      buf.resize(isize);
      NX_RETURN_NOT_OK(RunWithRetry(options_.retry, &counters_, [&] {
        return interval_store_->Read(i, value_parity_[i], buf.data());
      }));
      std::copy(buf.begin(), buf.end(), final_values_.begin() + base);
    }
  }
  return Status::OK();
}

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_ENGINE_H_
