// Checkpoint/restart records for the engine's iteration-boundary snapshots.
//
// The interval store's ping-pong parity plus the write-behind queue's
// Drain(sync=true) barrier make every iteration boundary a consistent
// on-disk snapshot; what was missing is a durable record of *which*
// snapshot is current. A CheckpointState captures exactly that: the
// iteration counter, the per-interval parity vector, the per-interval
// activity bitmap (the engine's convergence state), and — when the
// checkpoint interval is longer than one iteration — which parity of the
// side snapshot store holds the non-resident values.
//
// Commit protocol (see src/io/README.md for the full walk-through):
//   1. value data lands and is made durable (writeback Drain(sync=true),
//      or IntervalStore::Sync when no queue exists),
//   2. the record is written atomically and durably
//      (WriteStringToFileDurable: write-temp + Sync + rename).
// A crash at any point leaves either the previous record (whose data the
// next iterations never overwrite — the parity argument in the engine) or
// the new one, never a torn mixture; a corrupted or mismatched record is
// detected by CRC/fingerprint and demoted to a fresh iteration-0 start.
#ifndef NXGRAPH_ENGINE_CHECKPOINT_H_
#define NXGRAPH_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/io/env.h"
#include "src/util/result.h"

namespace nxgraph {

inline constexpr char kCheckpointFileName[] = "checkpoint.nxc";
inline constexpr uint32_t kCheckpointMagic = 0x3143584Eu;  // "NXC1"
// Version 2: the interval value file is parity-major. A version-1 record
// describes a file of the same size whose segments lie elsewhere, so it
// would pass IntervalStore::Open's size check and every segment's CRC32C
// while reading another interval's values; it is refused instead.
inline constexpr uint32_t kCheckpointVersion = 2;

/// \brief Everything needed to continue a run at an iteration boundary.
struct CheckpointState {
  /// Manifest::Fingerprint() of the store the run executed against.
  uint64_t graph_fingerprint = 0;
  /// Identity of the vertex program (hash of its type name): BFS depths
  /// must never seed a WCC run just because both use 4-byte values.
  uint64_t program_id = 0;
  /// Parameter fingerprint of the program instance (Engine picks it up
  /// from an optional `uint64_t StateFingerprint() const` on the program):
  /// an SSSP run rooted at 7 must not resume an SSSP checkpoint rooted
  /// at 0. 0 for programs without the hook.
  uint64_t program_state = 0;
  /// EdgeDirection the run processed; a kBoth WCC checkpoint must not
  /// seed a kForward rerun.
  uint8_t direction = 0;
  /// sizeof(Program::Value) — a checkpoint from a different value type
  /// must not be resumed.
  uint32_t value_bytes = 0;
  uint32_t num_intervals = 0;       ///< P
  uint32_t resident_intervals = 0;  ///< Q the run was planned with
  /// Completed iterations; the resumed run continues at this index.
  uint32_t iteration = 0;
  /// True when non-resident values live in the side snapshot store
  /// (checkpoint_interval > 1) rather than the live interval store.
  uint8_t has_snapshot = 0;
  /// Parity of the snapshot store segments this checkpoint wrote.
  uint8_t snapshot_parity = 0;
  /// Per-interval parity of the latest durable segment in the live
  /// interval store (for resident intervals: the segment the checkpoint
  /// itself wrote).
  std::vector<uint8_t> value_parity;
  /// Per-interval activity bitmap entering iteration `iteration`.
  std::vector<uint8_t> active;

  /// Serializes to the CRC-guarded on-disk representation.
  std::string Encode() const;

  /// Parses and validates a record blob (magic, version, CRC, sizes).
  static Result<CheckpointState> Decode(const std::string& data);
};

/// \brief Owns the checkpoint record file of one run directory.
class CheckpointManager {
 public:
  CheckpointManager(Env* env, std::string scratch_dir);

  const std::string& path() const { return path_; }

  /// Commits `state` atomically and durably (write-temp + fsync + rename).
  /// Must only be called after the data the record points at is durable.
  Status Write(const CheckpointState& state);

  /// Loads and validates the current record. NotFound when no checkpoint
  /// exists (or only a removal tombstone does); Corruption when the
  /// record fails its CRC or shape checks.
  Result<CheckpointState> Load() const;

  /// Invalidates a stale record (fresh starts call this BEFORE truncating
  /// the value stores, so a crash between the two steps can never leave a
  /// record pointing at truncated data). Implemented as an atomic durable
  /// overwrite with an empty tombstone rather than an unlink: a plain
  /// unlink's durability would need a directory fsync in Env::RemoveFile,
  /// taxing every hot-path removal for this one rare call.
  Status Remove();

 private:
  Env* env_;
  std::string path_;
};

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_CHECKPOINT_H_
