// ThrottledEnv: decorates another Env so that reads and writes pay the
// bandwidth and seek costs of a modelled device. Transfers are recorded in
// the throttled Env's OWN IoStats (as well as the base Env's, via the
// wrapped base file objects), so a run served by this Env reports honest
// RunStats::env_bytes_read/env_bytes_written. Used to reproduce the
// paper's SSD-vs-HDD comparison (Table V) regardless of the real backing
// device: sequential streams pay pure bandwidth, positional accesses to
// non-adjacent offsets additionally pay one seek.
#include <chrono>
#include <mutex>
#include <thread>

#include "src/io/env.h"

namespace nxgraph {
namespace {

class Throttler {
 public:
  explicit Throttler(DeviceProfile profile) : profile_(profile) {}

  void ChargeBytes(uint64_t n) {
    Sleep(static_cast<double>(n) / profile_.bandwidth_bytes_per_sec);
  }
  void ChargeSeek() { Sleep(profile_.seek_latency_sec); }

 private:
  static void Sleep(double seconds) {
    if (seconds <= 0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }

  DeviceProfile profile_;
};

class ThrottledSequentialFile : public SequentialFile {
 public:
  ThrottledSequentialFile(std::unique_ptr<SequentialFile> base, Throttler* t,
                          IoStats* stats)
      : base_(std::move(base)), throttler_(t), stats_(stats) {}

  Status Read(size_t n, void* buf, size_t* bytes_read) override {
    Status s = base_->Read(n, buf, bytes_read);
    if (s.ok()) {
      stats_->RecordRead(*bytes_read);
      throttler_->ChargeBytes(*bytes_read);
    }
    return s;
  }
  Status Skip(uint64_t n) override {
    throttler_->ChargeSeek();
    return base_->Skip(n);
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  Throttler* throttler_;
  IoStats* stats_;
};

class ThrottledRandomAccessFile : public RandomAccessFile {
 public:
  ThrottledRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                            Throttler* t, IoStats* stats)
      : base_(std::move(base)), throttler_(t), stats_(stats) {}

  Status ReadAt(uint64_t offset, size_t n, void* buf,
                size_t* bytes_read) const override {
    Status s = base_->ReadAt(offset, n, buf, bytes_read);
    if (!s.ok()) return s;
    stats_->RecordRead(*bytes_read);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (offset != next_expected_offset_) throttler_->ChargeSeek();
      next_expected_offset_ = offset + *bytes_read;
    }
    throttler_->ChargeBytes(*bytes_read);
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  Throttler* throttler_;
  IoStats* stats_;
  mutable std::mutex mu_;
  mutable uint64_t next_expected_offset_ = 0;
};

class ThrottledWritableFile : public WritableFile {
 public:
  ThrottledWritableFile(std::unique_ptr<WritableFile> base, Throttler* t,
                        IoStats* stats)
      : base_(std::move(base)), throttler_(t), stats_(stats) {}

  Status Append(const void* data, size_t n) override {
    throttler_->ChargeBytes(n);
    Status s = base_->Append(data, n);
    if (s.ok()) stats_->RecordWrite(n);
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    // Durability sync forces the device's write cache out; charge a seek,
    // matching RandomWriteFile::Flush's model.
    throttler_->ChargeSeek();
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  Throttler* throttler_;
  IoStats* stats_;
};

class ThrottledRandomWriteFile : public RandomWriteFile {
 public:
  ThrottledRandomWriteFile(std::unique_ptr<RandomWriteFile> base, Throttler* t,
                           IoStats* stats)
      : base_(std::move(base)), throttler_(t), stats_(stats) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    Status s = base_->WriteAt(offset, data, n);
    if (!s.ok()) return s;
    stats_->RecordWrite(n);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (offset != next_expected_offset_) throttler_->ChargeSeek();
      next_expected_offset_ = offset + n;
    }
    throttler_->ChargeBytes(n);
    return s;
  }
  Status Flush() override {
    // A durability flush forces the device's write cache out: model it as
    // one seek, and reset the head position so the next positional write
    // pays its own seek like the first write after open does.
    {
      std::lock_guard<std::mutex> lock(mu_);
      next_expected_offset_ = ~0ull;
    }
    throttler_->ChargeSeek();
    return base_->Flush();
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomWriteFile> base_;
  Throttler* throttler_;
  IoStats* stats_;
  std::mutex mu_;
  uint64_t next_expected_offset_ = 0;
};

class ThrottledEnv : public EnvWrapper {
 public:
  ThrottledEnv(Env* base, DeviceProfile profile)
      : EnvWrapper(base), throttler_(profile) {}

  // Its files record into its own counters (and, through the base files,
  // into the base's): a run on this Env reports only its own transfers.
  IoStats* stats() override { return &stats_; }

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    std::unique_ptr<SequentialFile> f;
    NX_RETURN_NOT_OK(base_->NewSequentialFile(path, &f));
    throttler_.ChargeSeek();  // open positions the head
    *out = std::make_unique<ThrottledSequentialFile>(std::move(f), &throttler_,
                                                     stats());
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    std::unique_ptr<RandomAccessFile> f;
    NX_RETURN_NOT_OK(base_->NewRandomAccessFile(path, &f));
    *out = std::make_unique<ThrottledRandomAccessFile>(std::move(f),
                                                       &throttler_, stats());
    return Status::OK();
  }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    std::unique_ptr<WritableFile> f;
    NX_RETURN_NOT_OK(base_->NewWritableFile(path, &f));
    throttler_.ChargeSeek();
    *out = std::make_unique<ThrottledWritableFile>(std::move(f), &throttler_,
                                                   stats());
    return Status::OK();
  }

  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override {
    std::unique_ptr<RandomWriteFile> f;
    NX_RETURN_NOT_OK(base_->NewRandomWriteFile(path, &f));
    *out = std::make_unique<ThrottledRandomWriteFile>(std::move(f),
                                                      &throttler_, stats());
    return Status::OK();
  }

 private:
  Throttler throttler_;
};

}  // namespace

std::unique_ptr<Env> NewThrottledEnv(Env* base, DeviceProfile profile) {
  return std::make_unique<ThrottledEnv>(base, profile);
}

}  // namespace nxgraph
