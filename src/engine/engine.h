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
// cached-mode Phase A either pipelines rows through a per-column
// completion-callback chain (SyncMode::kCallback) or serializes
// overlapping writers with one mutex per resident destination column
// (SyncMode::kLock). A streaming run folds each row run behind one
// barrier, whatever the mode.
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
#include "src/engine/iteration_plan.h"
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
  Status RunIteration();
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

  // ---- planning (one PlanRound and one plan per iteration) ----------------
  // Runs the shared planner (src/engine/traversal.h) over the whole grid —
  // active rows only for monotone-skippable programs, summary skips when
  // selective scheduling is on — into planned_, and counts its verdicts.
  void PlanIteration();
  // This iteration's verdict for one blob: read it, or leave it (empty,
  // summary-skipped, or in a row the planner passed over).
  bool Planned(uint32_t i, uint32_t j, bool transpose) const {
    return planned_[PlanGridIndex(p_, i, j, transpose)] != 0;
  }
  // The direction whose shard and hub files have this transpose flag.
  size_t DirectionIndex(bool transpose) const {
    return transpose && directions_.size() == 2 ? 1 : 0;
  }
  // The hub file slots [begin, end) a planned hub run covers.
  static std::pair<size_t, size_t> HubSlots(const HubFile& hubs,
                                            const PlannedAccess& run) {
    return {hubs.Slot(run.i_begin, run.j_begin),
            hubs.Slot(run.i_end - 1, run.j_end - 1) + 1};
  }
  void RecordError(const Status& s);
  bool HasError();
  // Target edges per destination-chunk task: the fine-grained parallelism
  // grain (paper §III-D: "several thousands of edges").
  static constexpr uint32_t kGrainEdges = 4096;
  // Destinations per FromHub fold range of `isize` destinations: whole
  // bitmap words, at least kGrainEdges of them, and at most one range per
  // compute thread and the caller, so the prefix popcounts that start the
  // ranges cost at most that many passes over each hub's bitmap.
  size_t FoldGrain(uint32_t isize) const {
    const size_t ranges = static_cast<size_t>(pool_->num_threads()) + 1;
    const size_t grain =
        std::max<size_t>(kGrainEdges, (isize + ranges - 1) / ranges);
    return (grain + 63) / 64 * 64;
  }

  // ---- held blobs (cached mode) -------------------------------------------
  // When the budget holds the decoded graph, every resident-row blob is
  // read once, the first iteration that plans it, and kept in resident_.
  // Cached Phase A's load step: reads the plan's load runs and keeps their
  // blobs.
  Status LoadResidentRows();
  // A held blob, counted as traversed where it is used.
  const SubShard& UseHeld(uint32_t i, uint32_t j, bool transpose) {
    const SubShard& ss = resident_[PlanGridIndex(p_, i, j, transpose)];
    edges_traversed_.fetch_add(ss.num_edges(), std::memory_order_relaxed);
    return ss;
  }

  // ---- prefetch streams ---------------------------------------------------
  // All out-of-core reads (sub-shard row runs, interval value segments, hub
  // runs) go through typed PrefetchStreams: jobs are pushed for the
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
  // checksum-verified read on the I/O pool plus a decode of each of its
  // blobs on the compute pool; the one way the engine reads sub-shards.
  // Stream mode re-reads blobs every iteration, and a bit flipped in any of
  // those reads is caught before its ids index memory: a mismatch gets the
  // retry policy's further attempts as fresh reads (in-flight bit flips
  // heal), as hub and interval reads do, and at least one when retries are
  // off.
  void PushRow(RowStream& stream, const PlannedAccess& run) {
    std::shared_ptr<const GraphStore> store = store_;
    const int rereads = std::max(1, options_.retry.max_attempts - 1);
    const DecodePath path = decode_path_;
    stream.PushStaged(
        [store, run, rereads]() {
          return store->ReadVerifiedRow(run.i_begin, run.j_begin, run.j_end,
                                        run.transpose, rereads);
        },
        [store, run, path](
            std::string&& raw) -> Result<std::vector<SubShard>> {
          const Manifest& m = store->manifest();
          const uint64_t base =
              m.subshard(run.i_begin, run.j_begin, run.transpose).offset;
          std::vector<SubShard> row;
          row.reserve(run.j_end - run.j_begin);
          for (uint32_t j = run.j_begin; j < run.j_end; ++j) {
            const SubShardMeta& meta =
                m.subshard(run.i_begin, j, run.transpose);
            NX_ASSIGN_OR_RETURN(
                SubShard ss,
                store->DecodeVerifiedBlob(run.i_begin, j,
                                          raw.data() + (meta.offset - base),
                                          meta.size, path, nullptr));
            row.push_back(std::move(ss));
          }
          return row;
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
  void PushIntervalValues(ValueStream& stream, const PlannedAccess& segment) {
    const uint32_t i = segment.i_begin;
    const uint32_t isize = store_->manifest().interval_size(i);
    const int parity = value_parity_[i];
    IntervalStore* istore = interval_store_.get();
    stream.Push([istore, i, parity, isize]() -> Result<std::vector<Value>> {
      std::vector<Value> buf(isize);
      NX_RETURN_NOT_OK(istore->Read(i, parity, buf.data()));
      return buf;
    });
  }

  // ---- inputs ----
  std::shared_ptr<const GraphStore> store_;
  Program program_;
  RunOptions options_;

  // ---- plan ----
  StrategyDecision decision_;
  uint32_t p_ = 0;  // number of intervals
  uint32_t q_ = 0;  // resident intervals
  size_t prefetch_depth_ = 0;  // effective read-ahead window (0 = sync)
  DecodePath decode_path_ = DecodePath::kScalar;  // options_.simd_decode
  PlanConfig plan_config_;
  std::vector<DirectionPlan> directions_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ThreadPool> io_pool_;  // dedicated prefetch I/O threads
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
  std::vector<uint8_t> held_;  // (direction, i, j): resident_ entry nonempty
  // The budget cannot hold the decoded graph: every iteration reads the
  // blobs it plans, and nothing is held.
  bool stream_mode_ = false;
  // This iteration's device accesses, built right after PlanIteration.
  IterationPlan plan_;

  // Selective scheduling: on when the options ask for it, the program is
  // monotone-skippable, AND the store's manifest carries summaries. The
  // frontier holds the vertices that changed LAST iteration (all-pass
  // before iteration 0 and after a resume) and collects this iteration's
  // changes in the apply loops; it advances at the iteration boundary,
  // alongside active_.
  bool selective_ = false;
  Frontier frontier_;

  std::atomic<uint64_t> edges_traversed_{0};
  // The plans' bytes, and the setup writes of the disk intervals' values.
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
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
  const Manifest& m = store_->manifest();
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
  // If the sub-shard budget cannot hold the decoded graph, stream: every
  // iteration reads what it plans (paper: "streamlined disk access
  // pattern"). Otherwise the resident rows' blobs are held once read.
  stream_mode_ = decision_.stream_mode;
  selective_ = options_.selective_scheduling && Program::kMonotoneSkippable &&
               m.has_summaries();
  plan_config_ = PlanConfig{q_, sizeof(Value), options_.direction, stream_mode_,
                            selective_};

  pool_ = std::make_unique<ThreadPool>(std::max(options_.num_threads, 0));
  if (prefetch_depth_ > 0) {
    io_pool_ = std::make_unique<ThreadPool>(std::max(options_.io_threads, 1));
  }

  // The bases make RunStats report this run's decode work and re-reads
  // even on a shared store that served earlier runs.
  decode_path_ = ResolveDecodePath(options_.simd_decode);
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
    // Laid out in the order the iteration plan's phases touch the hubs.
    const HubLayout layout = PlanHubLayout(m, plan_config_);
    if (use_forward) {
      NX_ASSIGN_OR_RETURN(hubs_forward_,
                          HubFile::Create(env, scratch + "/hubs_f.nxh", m,
                                          layout, sizeof(Value),
                                          /*transpose=*/false));
    }
    if (use_transpose) {
      NX_ASSIGN_OR_RETURN(hubs_transpose_,
                          HubFile::Create(env, scratch + "/hubs_t.nxh", m,
                                          layout, sizeof(Value),
                                          /*transpose=*/true));
    }
    writeback_ = std::make_unique<WritebackQueue>(
        decision_.writeback_buffer_bytes, options_.retry, &counters_);
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

  resident_.clear();
  held_.clear();
  if (!stream_mode_) {
    resident_.resize(2 * static_cast<size_t>(p_) * p_);
    held_.assign(resident_.size(), 0);
  }

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
      bytes_written_ += interval_store_->stored_bytes(i);
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
  for (uint32_t g = gb; g < ge; ++g) {
    Value& slot = acc[ss.dsts[g] - dst_base];
    slot = Program::Accumulate(
        slot, GatherGroup(program_, ss, g, src_vals, src_base, degrees));
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
  // Load runs pass over held blobs, so each blob is read at most once per
  // run, and only if some iteration plans it. Edges are counted where the
  // blobs are used (UseHeld), not here.
  RowStream rows = MakeStream<std::vector<SubShard>>();
  for (const PlannedAccess& run : plan_.phase_a) PushRow(rows, run);
  for (const PlannedAccess& run : plan_.phase_a) {
    NX_ASSIGN_OR_RETURN(std::vector<SubShard> row, rows.Next());
    // Bridged empty blobs land as empty entries: still "not read".
    for (uint32_t j = run.j_begin; j < run.j_end; ++j) {
      const size_t slot = PlanGridIndex(p_, run.i_begin, j, run.transpose);
      resident_[slot] = std::move(row[j - run.j_begin]);
      held_[slot] = resident_[slot].empty() ? 0 : 1;
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
    // Streaming schedule: row runs load with one sequential read each and
    // are processed with a barrier per run. Within a run every chunk
    // writes a distinct (column, destination-range), so no synchronization
    // beyond the barrier is needed; the disk sees pure forward scans. The
    // whole schedule is pushed up front so the prefetcher keeps the next
    // runs' reads in flight while this one's chunks are still computing.
    RowStream rows = MakeStream<std::vector<SubShard>>();
    for (const PlannedAccess& run : plan_.phase_a) PushRow(rows, run);
    for (const PlannedAccess& run : plan_.phase_a) {
      const DirectionPlan& dir = directions_[DirectionIndex(run.transpose)];
      const VertexId src_base = m.interval_begin(run.i_begin);
      const Value* src_vals = old_values_[run.i_begin].data();
      NX_ASSIGN_OR_RETURN(std::vector<SubShard> row, NextRow(rows));
      WaitGroup wg;
      for (uint32_t j = run.j_begin; j < run.j_end; ++j) {
        if (row[j - run.j_begin].empty()) continue;
        SubmitChunks(wg, row[j - run.j_begin], src_vals, src_base,
                     acc_values_[j].data(), m.interval_begin(j), *dir.degrees);
      }
      wg.Wait();
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
  if (plan_.phase_b.empty()) return Status::OK();
  const Manifest& m = store_->manifest();

  // Push the whole phase schedule — each row's interval values plus its
  // row runs — so reads for the next rows (up to the window depth) are in
  // flight while this one is computing.
  ValueStream values = MakeStream<std::vector<Value>>();
  RowStream rows = MakeStream<std::vector<SubShard>>();
  for (const IterationPlan::WriteGroup& group : plan_.phase_b) {
    for (const IterationPlan::DiskRow& row : group.rows) {
      PushIntervalValues(values, row.values);
      for (const PlannedAccess& run : row.runs) PushRow(rows, run);
    }
  }

  // A write group seals each hub into its write run's buffer, laid out as
  // on disk, and writes each run — a tile, or the written runs of one —
  // with one call after its last row, through the write-behind queue
  // (inline when its budget is 0). The writes are compute-pool tasks, so
  // their device waits overlap each other and the next group's first
  // reads; that group allocates its buffers only once they have returned,
  // so Phase B holds one group's buffers at a time: at most the larger of
  // one raw row (RowCap) and one row's hubs, which the memory budget does
  // not count. `writes` is waited on before any return, since its tasks
  // reference this frame.
  std::vector<std::string> buffers;  // the open group's, by its writes
  // (direction, column, row - group start): where the open group seals
  // hub (row, column).
  std::vector<char*> segments;
  WaitGroup writes;
  struct WaitOnExit {
    WaitGroup& wg;
    ~WaitOnExit() { wg.Wait(); }
  } wait_writes{writes};
  uint32_t gb = 0, width = 0;  // the open group's first row and row count
  auto open_group = [&](const IterationPlan::WriteGroup& group) {
    writes.Wait();
    gb = group.rows.front().values.i_begin;
    width = group.rows.back().values.i_begin + 1 - gb;
    buffers.clear();
    segments.assign(directions_.size() * p_ * width, nullptr);
    for (const PlannedAccess& w : group.writes) {
      buffers.emplace_back(w.length, '\0');
    }
    for (size_t k = 0; k < group.writes.size(); ++k) {
      const size_t d = DirectionIndex(group.writes[k].transpose);
      const HubFile& hubs = *directions_[d].hubs;
      const auto [b, e] = HubSlots(hubs, group.writes[k]);
      for (size_t slot = b; slot < e; ++slot) {
        const auto [i, j] = hubs.Hub(slot);
        segments[(d * p_ + j) * width + (i - gb)] =
            buffers[k].data() + hubs.RunOffset(b, slot);
      }
    }
  };

  for (const IterationPlan::WriteGroup& group : plan_.phase_b) {
    bool open = false;
    for (const IterationPlan::DiskRow& dr : group.rows) {
      const uint32_t i = dr.values.i_begin;
      const VertexId src_base = m.interval_begin(i);
      NX_ASSIGN_OR_RETURN(std::vector<Value> src_buf, values.Next());

      for (const PlannedAccess& run : dr.runs) {
        const size_t d = DirectionIndex(run.transpose);
        const DirectionPlan& dir = directions_[d];
        NX_ASSIGN_OR_RETURN(std::vector<SubShard> row, NextRow(rows));
        WaitGroup wg;
        // SPU-like updates into resident destination columns. Within one
        // row all columns are distinct, so chunks across columns run in
        // parallel.
        for (uint32_t j = run.j_begin; j < std::min(run.j_end, q_); ++j) {
          if (row[j - run.j_begin].empty()) continue;
          SubmitChunks(wg, row[j - run.j_begin], src_buf.data(), src_base,
                       acc_values_[j].data(), m.interval_begin(j),
                       *dir.degrees);
        }
        if (!open) {
          open_group(group);
          open = true;
        }
        // ToHub for disk destination columns: pre-accumulate per
        // destination and seal the sub-shard's destinations and partial
        // values into its segment of the write run. Segments are
        // disjoint, so concurrent tasks need no serialization.
        for (uint32_t j = std::max(run.j_begin, q_); j < run.j_end; ++j) {
          const SubShard& ss = row[j - run.j_begin];
          if (ss.empty()) continue;
          const std::vector<uint32_t>* degrees = dir.degrees;
          HubFile* hubs = dir.hubs;
          char* segment = segments[(d * p_ + j) * width + (i - gb)];
          const Value* src_vals = src_buf.data();
          wg.Add(1);
          pool_->Submit([this, &ss, src_vals, src_base, degrees, hubs, i, j,
                         segment, &wg] {
            std::vector<Value> partials(ss.num_dsts());
            for (uint32_t g = 0; g < ss.num_dsts(); ++g) {
              partials[g] =
                  GatherGroup(program_, ss, g, src_vals, src_base, *degrees);
            }
            RecordError(hubs->SealHub(i, j, segment, ss.dsts, partials.data()));
            wg.Done();
          });
        }
        wg.Wait();
      }
      if (HasError()) break;
    }
    if (HasError()) break;
    // The group's write-out: one write per (direction, tile, maximal run
    // of written hubs).
    for (size_t k = 0; k < group.writes.size(); ++k) {
      const PlannedAccess& w = group.writes[k];
      HubFile* hubs = directions_[DirectionIndex(w.transpose)].hubs;
      const auto [b, e] = HubSlots(*hubs, w);
      std::string* bytes = &buffers[k];
      writes.Add(1);
      pool_->Submit([this, hubs, b, e, bytes, &writes] {
        RecordError(
            hubs->WriteHubRun(writeback_.get(), b, e, std::move(*bytes)));
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
  if (plan_.phase_c.empty()) return Status::OK();
  const Manifest& m = store_->manifest();

  // The plan is fixed for the iteration, so every read — resident-row row
  // runs (stream mode; cached mode holds them since Phase A), hub runs, and
  // the columns' previous values — is pushed up front and prefetched while
  // earlier groups compute.
  RowStream shards = MakeStream<std::vector<SubShard>>();
  HubStream hubs = MakeStream<HubFile::Run>();
  ValueStream olds = MakeStream<std::vector<Value>>();
  for (const IterationPlan::ColumnGroup& group : plan_.phase_c) {
    for (size_t d = 0; d < directions_.size(); ++d) {
      const IterationPlan::ColumnGroup::Direction& cd = group.directions[d];
      for (const PlannedAccess& run : cd.row_runs) PushRow(shards, run);
      HubFile* hub_file = directions_[d].hubs;
      for (const PlannedAccess& h : cd.hub_reads) {
        const auto [b, e] = HubSlots(*hub_file, h);
        hubs.Push([hub_file, b, e]() -> Result<HubFile::Run> {
          HubFile::Run run;
          NX_RETURN_NOT_OK(hub_file->ReadHubRun(b, e, &run));
          return run;
        });
      }
    }
    for (const IterationPlan::DiskColumn& col : group.columns) {
      PushIntervalValues(olds, col.old_values);
    }
  }

  // The group's accumulators, one per column, back to back: destination v
  // accumulates at acc_buf[v - base]. With the resident run in hand they
  // stay within one decoded row (PlanHubLayout's column-group rule).
  std::vector<Value> acc_buf;
  for (const IterationPlan::ColumnGroup& group : plan_.phase_c) {
    const VertexId base = m.interval_begin(group.j_begin);
    const uint32_t span = m.interval_begin(group.j_end) - base;
    acc_buf.assign(span, Program::Identity());
    const auto acc = [&](uint32_t j) {
      return acc_buf.data() + (m.interval_begin(j) - base);
    };

    for (size_t d = 0; d < directions_.size(); ++d) {
      const DirectionPlan& dir = directions_[d];
      const IterationPlan::ColumnGroup::Direction& cd = group.directions[d];
      // SPU-like: resident source rows gather directly from memory, one
      // run (stream mode) or held row (cached mode) at a time with every
      // blob's chunks in parallel, since two rows of one column write
      // overlapping destinations.
      for (const PlannedAccess& run : cd.row_runs) {
        NX_ASSIGN_OR_RETURN(std::vector<SubShard> row, NextRow(shards));
        WaitGroup wg;
        for (uint32_t j = run.j_begin; j < run.j_end; ++j) {
          if (row[j - run.j_begin].empty()) continue;
          SubmitChunks(wg, row[j - run.j_begin],
                       old_values_[run.i_begin].data(),
                       m.interval_begin(run.i_begin), acc(j),
                       m.interval_begin(j), *dir.degrees);
        }
        wg.Wait();
      }
      for (uint32_t i : cd.rows) {
        WaitGroup wg;
        for (uint32_t j = group.j_begin; j < group.j_end; ++j) {
          if (!Planned(i, j, dir.transpose)) continue;
          SubmitChunks(wg, UseHeld(i, j, dir.transpose), old_values_[i].data(),
                       m.interval_begin(i), acc(j), m.interval_begin(j),
                       *dir.degrees);
        }
        wg.Wait();
      }
      // FromHub: fold the pre-accumulated partials run by run in file
      // order, which takes each column's hubs in ascending i ("threads
      // cannot be overlapped among hubs", §III-D). Each range of the
      // group's destinations folds every segment that reaches into it; the
      // ranges are disjoint, so they fold in parallel with each
      // destination's order unchanged.
      for (size_t r = 0; r < cd.hub_reads.size(); ++r) {
        NX_ASSIGN_OR_RETURN(HubFile::Run hub_run, hubs.Next());
        const auto fold_range = [&](size_t lo, size_t hi) {
          for (size_t k = 0; k < hub_run.segments.size(); ++k) {
            const HubFile::Run::Segment& seg = hub_run.segments[k];
            const size_t first = seg.column_begin - base;
            if (first >= hi || first + seg.column_size <= lo) continue;
            Value* col = acc_buf.data() + first;
            HubFile::Fold<Value>(
                hub_run, k, static_cast<uint32_t>(lo > first ? lo - first : 0),
                static_cast<uint32_t>(hi - first),
                [col](uint32_t x, const Value& v) {
                  col[x] = Program::Accumulate(col[x], v);
                });
          }
        };
        pool_->ParallelFor(0, span, FoldGrain(span), fold_range);
      }
    }

    // Apply + write back each destination interval with work.
    for (const IterationPlan::DiskColumn& col : group.columns) {
      const uint32_t j = col.j;
      NX_ASSIGN_OR_RETURN(std::vector<Value> old_buf, olds.Next());
      ApplyInterval(j, acc(j), old_buf.data());
      NX_RETURN_NOT_OK(interval_store_->Write(writeback_.get(), j,
                                              1 - value_parity_[j], acc(j)));
      value_parity_[j] = 1 - value_parity_[j];
    }
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
  for (const Visit& v : visits) {
    planned_[PlanGridIndex(p_, v.i, v.j, v.transpose)] = 1;
  }
  if (selective_) {
    subshards_processed_ += visits.size();
    subshards_skipped_ += skipped;
  }
}

template <VertexProgram Program>
Status Engine<Program>::RunIteration() {
  for (uint32_t i = 0; i < p_; ++i) {
    next_active_[i].store(0, std::memory_order_relaxed);
  }
  if (selective_) frontier_.BeginRound();
  PlanIteration();
  plan_ = BuildIterationPlan(store_->manifest(), plan_config_, planned_, held_,
                             value_parity_);
  for (const PlannedAccess& a : plan_.Accesses()) {
    (a.write ? bytes_written_ : bytes_read_) += a.length;
  }
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
  // the store's Env — scratch stores and hubs are opened against it too —
  // so a snapshot delta of its transfer counters measures the bytes that
  // actually crossed the Env boundary, independent of the engine's own
  // accounting.
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
    NX_RETURN_NOT_OK(RunIteration());
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
  stats.bytes_read = bytes_read_;
  stats.bytes_written = bytes_written_;
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
  stats.decode_path = DecodePathName(decode_path_);
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
