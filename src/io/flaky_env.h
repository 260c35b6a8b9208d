// FlakyEnv: a transient-fault-injection Env wrapper — the sibling of
// FaultInjectionEnv (fault_env.h). Where FaultInjectionEnv models the
// *permanent* failure mode (a crash: the process dies, durability is all
// that matters), FlakyEnv models the *transient* one: an operation fails,
// returns short, or hands back flipped bits — and the very same operation,
// retried, succeeds. It is the test and bench substrate for the retry /
// degradation layer (src/util/retry.h, docs/io-stack.md "Error handling").
//
// Faults are injected ONLY on the positional hot-path ops — ReadAt,
// WriteAt, RandomWriteFile::Flush — because those are the ops the
// pipelines (prefetcher, writeback, checkpoint commits, store re-reads)
// wrap in retry loops. Sequential streams, append files and metadata pass
// through untouched: store open/build paths are deliberately not retried,
// and injecting there would just abort a harness before the code under
// test runs.
//
// Fault model per op (checked in this order, at most one fires):
//   1. scripted faults: ScheduleFault(op_kind, n, fault) fires on the n-th
//      (1-based) op of that kind — exact, for unit tests;
//   2. probabilistic faults: independent per-op draws from deterministic
//      Xoshiro256 streams under `rates` — for soak tests and benches.
// All injected errors are *transient*: an error op performs no base I/O
// (as if the syscall failed), a short read returns a truncated prefix of
// real data, and a bit-flip corrupts only the caller's buffer, never the
// base file — so every fault heals on re-read/re-write by construction.
//
// Determinism: one PRNG stream and one op counter per op kind, under a
// mutex. The read stream is seeded with `rates.seed` and the write and
// flush streams with seeds derived from it, so the n-th read's draw depends
// only on the reads before it, never on how writes and flushes interleave
// with them (and likewise for each kind): a run whose reads come in a fixed
// order gets the same read faults whatever its writer threads do. Within
// one kind, concurrent callers get a deterministic fault *set* only insofar
// as their op order is deterministic (single-threaded unit tests assert
// exact schedules; multi-threaded soaks assert invariants and totals).
#ifndef NXGRAPH_IO_FLAKY_ENV_H_
#define NXGRAPH_IO_FLAKY_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/io/env.h"
#include "src/util/random.h"

namespace nxgraph {

/// \brief Per-op fault probabilities for FlakyEnv, all in [0, 1].
struct FlakyFaultRates {
  double read_error = 0.0;   ///< ReadAt fails with a transient IOError
  double write_error = 0.0;  ///< WriteAt fails with a transient IOError
  double flush_error = 0.0;  ///< RandomWriteFile::Flush fails transiently
  double short_read = 0.0;   ///< ReadAt returns a truncated prefix
  double bit_flip = 0.0;     ///< ReadAt flips one bit in the output buffer
  uint64_t seed = 0x666c616bULL;  ///< PRNG seed ("flak")
};

/// \brief Env decorator injecting healing transient faults on the
/// positional I/O paths. `base` is not owned and must outlive this Env and
/// every file object it creates. Thread-safe.
class FlakyEnv : public EnvWrapper {
 public:
  enum class OpKind : uint8_t { kRead = 0, kWrite = 1, kFlush = 2 };
  enum class FaultKind : uint8_t {
    kTransientError = 0,
    kShortRead = 1,
    kBitFlip = 2,
  };

  explicit FlakyEnv(Env* base, FlakyFaultRates rates = {});

  /// Scripted injection: the `nth` (1-based) op of kind `op` fails with
  /// `fault` (kShortRead/kBitFlip are only meaningful for kRead).
  /// Scripted faults take precedence over probabilistic draws.
  void ScheduleFault(OpKind op, uint64_t nth, FaultKind fault);

  // ---- observability ------------------------------------------------------
  uint64_t injected_errors() const { return injected_errors_.load(); }
  uint64_t injected_short_reads() const {
    return injected_short_reads_.load();
  }
  uint64_t injected_bit_flips() const { return injected_bit_flips_.load(); }
  uint64_t injected_faults() const {
    return injected_errors() + injected_short_reads() + injected_bit_flips();
  }
  /// Positional ops of `op` observed so far (injected or clean).
  uint64_t op_count(OpKind op) const { return op_counts_[Idx(op)].load(); }

  // ---- Env interface ------------------------------------------------------
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override;
  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override;

 private:
  friend class FlakyRandomAccessFile;
  friend class FlakyRandomWriteFile;

  /// What one positional op should do, decided under mu_.
  struct Injection {
    bool fault = false;
    FaultKind kind = FaultKind::kTransientError;
    /// Raw 64-bit draw for fault shaping (short-read length, flipped bit).
    uint64_t shape = 0;
  };

  static constexpr size_t Idx(OpKind op) { return static_cast<size_t>(op); }

  /// Advances the op counter for `op`, consults the scripted schedule then
  /// the probabilistic rates, and bumps the matching injected_* counter.
  Injection Decide(OpKind op);

  const FlakyFaultRates rates_;

  std::mutex mu_;
  Xoshiro256 rngs_[3];  // by OpKind, under mu_
  std::map<std::pair<uint8_t, uint64_t>, FaultKind> scripted_;  // under mu_

  std::atomic<uint64_t> op_counts_[3]{};
  std::atomic<uint64_t> injected_errors_{0};
  std::atomic<uint64_t> injected_short_reads_{0};
  std::atomic<uint64_t> injected_bit_flips_{0};
};

}  // namespace nxgraph

#endif  // NXGRAPH_IO_FLAKY_ENV_H_
