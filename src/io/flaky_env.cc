#include "src/io/flaky_env.h"

#include <algorithm>
#include <cstring>

namespace nxgraph {

namespace {

Status InjectedError(const char* op) {
  return Status::TransientIOError(std::string("flaky: injected transient ") +
                                  op + " error");
}

// The seed of `op`'s stream: `seed` itself for reads, a hash of it for
// writes and flushes.
uint64_t StreamSeed(uint64_t seed, FlakyEnv::OpKind op) {
  if (op == FlakyEnv::OpKind::kRead) return seed;
  return SplitMix64(seed ^ (0xa0761d6478bd642fULL * static_cast<uint64_t>(op)))
      .Next();
}

}  // namespace

/// Positional reader: consults the env for a fault decision per ReadAt.
class FlakyRandomAccessFile : public RandomAccessFile {
 public:
  FlakyRandomAccessFile(std::unique_ptr<RandomAccessFile> base, FlakyEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status ReadAt(uint64_t offset, size_t n, void* buf,
                size_t* bytes_read) const override {
    const FlakyEnv::Injection inj = env_->Decide(FlakyEnv::OpKind::kRead);
    if (inj.fault && inj.kind == FlakyEnv::FaultKind::kTransientError) {
      // As if the syscall failed: no base I/O happened.
      return InjectedError("read");
    }
    NX_RETURN_NOT_OK(base_->ReadAt(offset, n, buf, bytes_read));
    if (!inj.fault || *bytes_read == 0) return Status::OK();
    if (inj.kind == FlakyEnv::FaultKind::kShortRead) {
      // Truncate to a strict prefix of what actually landed (at least one
      // byte short, possibly zero bytes). The data delivered is real —
      // only the length lies, exactly like an interrupted pread.
      *bytes_read = inj.shape % *bytes_read;
    } else if (inj.kind == FlakyEnv::FaultKind::kBitFlip) {
      // Corrupt one bit in the caller's buffer only; the base file is
      // untouched, so a re-read returns clean data (a heal-on-reread
      // fault, the kind checksum re-reads exist for).
      const uint64_t bit = inj.shape % (*bytes_read * 8);
      static_cast<char*>(buf)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
    return Status::OK();
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  FlakyEnv* env_;
};

/// Positional writer: faultable WriteAt/Flush; Truncate/Close pass through.
class FlakyRandomWriteFile : public RandomWriteFile {
 public:
  FlakyRandomWriteFile(std::unique_ptr<RandomWriteFile> base, FlakyEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    const FlakyEnv::Injection inj = env_->Decide(FlakyEnv::OpKind::kWrite);
    if (inj.fault) return InjectedError("write");
    return base_->WriteAt(offset, data, n);
  }

  Status Flush() override {
    const FlakyEnv::Injection inj = env_->Decide(FlakyEnv::OpKind::kFlush);
    if (inj.fault) return InjectedError("flush");
    return base_->Flush();
  }

  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomWriteFile> base_;
  FlakyEnv* env_;
};

FlakyEnv::FlakyEnv(Env* base, FlakyFaultRates rates)
    : EnvWrapper(base),
      rates_(rates),
      rngs_{Xoshiro256(StreamSeed(rates.seed, OpKind::kRead)),
            Xoshiro256(StreamSeed(rates.seed, OpKind::kWrite)),
            Xoshiro256(StreamSeed(rates.seed, OpKind::kFlush))} {}

void FlakyEnv::ScheduleFault(OpKind op, uint64_t nth, FaultKind fault) {
  std::lock_guard<std::mutex> lock(mu_);
  scripted_[{static_cast<uint8_t>(op), nth}] = fault;
}

FlakyEnv::Injection FlakyEnv::Decide(OpKind op) {
  Injection inj;
  std::lock_guard<std::mutex> lock(mu_);
  Xoshiro256& rng = rngs_[Idx(op)];
  const uint64_t nth = op_counts_[Idx(op)].fetch_add(1) + 1;
  const auto it = scripted_.find({static_cast<uint8_t>(op), nth});
  if (it != scripted_.end()) {
    inj.fault = true;
    inj.kind = it->second;
    inj.shape = rng.Next();
    scripted_.erase(it);
  } else {
    // One probability draw per op; the shaping draw only happens for ops
    // that fault.
    const double p = rng.NextDouble();
    double threshold = 0.0;
    switch (op) {
      case OpKind::kRead: {
        // Stack the read fault kinds on one draw: [0, err) -> error,
        // [err, err+short) -> short read, [.., +flip) -> bit flip.
        if (p < (threshold += rates_.read_error)) {
          inj.fault = true;
          inj.kind = FaultKind::kTransientError;
        } else if (p < (threshold += rates_.short_read)) {
          inj.fault = true;
          inj.kind = FaultKind::kShortRead;
        } else if (p < (threshold += rates_.bit_flip)) {
          inj.fault = true;
          inj.kind = FaultKind::kBitFlip;
        }
        break;
      }
      case OpKind::kWrite:
        inj.fault = p < rates_.write_error;
        break;
      case OpKind::kFlush:
        inj.fault = p < rates_.flush_error;
        break;
    }
    if (inj.fault) inj.shape = rng.Next();
  }
  if (inj.fault) {
    switch (inj.kind) {
      case FaultKind::kTransientError:
        injected_errors_.fetch_add(1);
        break;
      case FaultKind::kShortRead:
        injected_short_reads_.fetch_add(1);
        break;
      case FaultKind::kBitFlip:
        injected_bit_flips_.fetch_add(1);
        break;
    }
  }
  return inj;
}

Status FlakyEnv::NewRandomAccessFile(const std::string& path,
                                     std::unique_ptr<RandomAccessFile>* out) {
  std::unique_ptr<RandomAccessFile> file;
  NX_RETURN_NOT_OK(base_->NewRandomAccessFile(path, &file));
  *out = std::make_unique<FlakyRandomAccessFile>(std::move(file), this);
  return Status::OK();
}

Status FlakyEnv::NewRandomWriteFile(const std::string& path,
                                    std::unique_ptr<RandomWriteFile>* out) {
  std::unique_ptr<RandomWriteFile> file;
  NX_RETURN_NOT_OK(base_->NewRandomWriteFile(path, &file));
  *out = std::make_unique<FlakyRandomWriteFile>(std::move(file), this);
  return Status::OK();
}

}  // namespace nxgraph
