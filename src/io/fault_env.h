// FaultInjectionEnv: a crash-simulation Env wrapper (RocksDB's
// FaultInjectionTestEnv idiom) powering the checkpoint/restart crash-matrix
// tests.
//
// All operations pass through to the base Env — which plays the role of the
// page cache plus the live filesystem — while this wrapper separately
// tracks, per path, the content that was durable at the last durability
// barrier (WritableFile::Sync, RandomWriteFile::Flush): the state that
// would survive a power cut. It builds that view from the writes it
// forwards: each file's Appends, WriteAts and Truncates since its last
// barrier are kept, and the barrier applies them to the durable content,
// so a barrier reads nothing back through the base Env. Metadata
// operations (create, truncate-on-open, rename, remove) are modelled as
// journaled — durable once they return — matching the contract documented
// on Env; file *contents* are only as durable as their last sync, so
// renaming a never-synced temp file loses the data in a crash exactly as
// env.h warns.
//
// Two controls drive crash tests:
//
//  - SetKillSwitch(n): the first `n` mutating operations (Append, WriteAt,
//    Truncate, Flush, Sync, Rename, Remove) succeed; the (n+1)-th applies
//    only a torn prefix (for data writes) and fails with IOError, and every
//    later mutating op fails too — from the disk's point of view the
//    process is dead. Reads keep succeeding so the dying run can flail the
//    way a real process does between its last completed write and exit.
//  - CrashAndRecover(): rewinds every tracked file on the base Env to the
//    durable view — synced content only. A file created but never synced
//    comes back EMPTY (its creation is journaled metadata, its content is
//    not); a name whose last rename carried never-synced content comes
//    back missing (the journaled rename points at an inode whose data was
//    lost). The kill switch is disarmed so the next incarnation of the
//    workload can reopen the "disk" and resume.
#ifndef NXGRAPH_IO_FAULT_ENV_H_
#define NXGRAPH_IO_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/io/env.h"
#include "src/util/macros.h"

namespace nxgraph {

/// \brief Env decorator injecting crash points between durability barriers.
///
/// `base` is not owned and must outlive this Env and every file object it
/// creates. Thread-safe: the engine's write-behind pool may mutate files
/// concurrently with the driver thread.
///
/// Files that already exist on `base` before wrapping (e.g. a graph store
/// built directly on a MemEnv) are never touched by CrashAndRecover —
/// they model data synced long before the crash window under test.
class FaultInjectionEnv : public EnvWrapper {
 public:
  explicit FaultInjectionEnv(Env* base) : EnvWrapper(base) {}

  // ---- crash controls -----------------------------------------------------

  /// Arms the kill switch: `n` more mutating ops succeed, the next one
  /// tears and fails, and the env stays dead until CrashAndRecover().
  void SetKillSwitch(uint64_t n);

  /// True once an armed kill switch has fired (or Kill() was called).
  bool dead() const;

  /// Description of the operation the kill switch fired on, e.g.
  /// "WriteAt(g/run/hubs_f.nxh)" — lets the crash matrix assert coverage
  /// of every crash-point class. Empty until dead().
  std::string killed_op() const;

  /// Mutating operations observed so far (survives CrashAndRecover);
  /// used to size a crash-matrix sweep from a clean reference run.
  uint64_t mutation_count() const;

  /// Restores every tracked path on the base Env to its durable content
  /// (paths without a durable entry — removed files, rename targets that
  /// carried never-synced data — are removed; created-but-never-synced
  /// files come back empty), then disarms the kill switch. The base Env
  /// then looks exactly like a disk after power loss plus journal replay.
  Status CrashAndRecover();

  /// Marks the current content of every tracked file durable, as if the
  /// whole filesystem had been synced. Useful to establish a known-good
  /// baseline state before arming the kill switch.
  Status SyncAllTracked();

  // ---- Env interface: the mutating calls; reads and lookups forward -----

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override;
  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveDirRecursively(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

 private:
  friend class FaultWritableFile;
  friend class FaultRandomWriteFile;

  /// Outcome of the kill-switch check for one mutating op.
  enum class Verdict {
    kProceed,  ///< apply the op normally
    kTear,     ///< this op fires the switch: apply a torn prefix, then fail
    kDead,     ///< env already dead: fail without applying anything
  };
  Verdict CheckMutation(const std::string& desc);

  /// One data write that reached the base file, as it landed there: a torn
  /// write is the prefix that was applied.
  struct PendingWrite {
    enum class Kind : uint8_t { kAppend, kWriteAt, kTruncate };
    Kind kind = Kind::kAppend;
    uint64_t offset = 0;  ///< WriteAt's offset; Truncate's size
    std::string data;     ///< Append's and WriteAt's bytes
  };

  /// Keeps a write to `path` until its next barrier.
  void RecordWrite(const std::string& path, PendingWrite write);

  /// The durability barrier of `path`: applies its pending writes, in
  /// order, to its durable content. Requires mu_.
  void MarkDurableLocked(const std::string& path);
  void MarkDurable(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    MarkDurableLocked(path);
  }

  static Status DeadError() {
    return Status::IOError("fault injection: crashed");
  }

  mutable std::mutex mu_;
  /// Path -> content that survives a crash. Absent == file lost entirely.
  std::map<std::string, std::string> durable_;
  /// Path -> the writes it received since its last barrier, in order.
  std::map<std::string, std::vector<PendingWrite>> pending_;
  /// Every path this env opened for writing or renamed — the recovery set.
  std::set<std::string> tracked_;
  int64_t kill_after_ = -1;  // mutations left before death; -1 == disarmed
  bool dead_ = false;
  uint64_t mutations_ = 0;
  std::string killed_op_;
};

}  // namespace nxgraph

#endif  // NXGRAPH_IO_FAULT_ENV_H_
