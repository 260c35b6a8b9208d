#include "perfbench/trace_env.h"

#include <cstdio>
#include <string_view>

#include "src/prep/manifest.h"

namespace nxbench {

using nxgraph::Env;
using nxgraph::RandomAccessFile;
using nxgraph::RandomWriteFile;
using nxgraph::Result;
using nxgraph::SequentialFile;
using nxgraph::Status;
using nxgraph::WritableFile;
using Kind = TracingEnv::Kind;

const char* FileClassName(FileClass c) {
  switch (c) {
    case FileClass::kForwardShards:
      return "forward_shards";
    case FileClass::kTransposeShards:
      return "transpose_shards";
    case FileClass::kHubs:
      return "hubs";
    case FileClass::kIntervals:
      return "intervals";
    case FileClass::kOther:
      return "other";
  }
  return "other";
}

FileClass ClassifyPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string_view base =
      std::string_view(path).substr(slash == std::string::npos ? 0 : slash + 1);
  if (base == nxgraph::kSubShardsFileName) return FileClass::kForwardShards;
  if (base == nxgraph::kSubShardsTransposeFileName) {
    return FileClass::kTransposeShards;
  }
  if (base.ends_with(".nxh")) return FileClass::kHubs;
  if (base.ends_with(".nxi")) return FileClass::kIntervals;
  return FileClass::kOther;
}

// ---- SpanRecorder ----------------------------------------------------------

SpanRecorder::SpanRecorder(size_t max_spans)
    : epoch_(std::chrono::steady_clock::now()), max_spans_(max_spans) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint32_t SpanRecorder::ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

void SpanRecorder::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < max_spans_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write trace " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t k = 0; k < all.size(); ++k) {
    const Span& s = all[k];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                 s.name, s.cat, s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    if (std::string_view(s.cat) == "io") {
      std::fprintf(f,
                   ",\"args\":{\"file\":\"%s\",\"offset\":%llu,"
                   "\"bytes\":%llu}",
                   FileClassName(s.file_class),
                   static_cast<unsigned long long>(s.offset),
                   static_cast<unsigned long long>(s.bytes));
    }
    std::fputs(k + 1 < all.size() ? "},\n" : "}\n", f);
  }
  std::fputs("]}\n", f);
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return Status::IOError("short write to trace " + path);
  }
  return Status::OK();
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  span_.name = name;
  span_.cat = "api";
  span_.tid = ThreadId();
  span_.start_ns = recorder_ != nullptr ? recorder_->NowNs() : 0;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end_ns = recorder_->NowNs();
  recorder_->Add(span_);
}

double SpanRecorder::Scope::Seconds() const {
  if (recorder_ == nullptr) return 0;
  return static_cast<double>(recorder_->NowNs() - span_.start_ns) / 1e9;
}

// ---- IoCounters ------------------------------------------------------------

IoCounters::Snapshot IoCounters::snapshot() const {
  Snapshot s;
  s.read_calls = read_calls.load(std::memory_order_relaxed);
  s.read_bytes = read_bytes.load(std::memory_order_relaxed);
  s.write_calls = write_calls.load(std::memory_order_relaxed);
  s.write_bytes = write_bytes.load(std::memory_order_relaxed);
  s.seeks = seeks.load(std::memory_order_relaxed);
  s.syncs = syncs.load(std::memory_order_relaxed);
  s.read_busy_ns = read_busy_ns.load(std::memory_order_relaxed);
  s.write_busy_ns = write_busy_ns.load(std::memory_order_relaxed);
  for (int c = 0; c < kNumFileClasses; ++c) {
    s.class_read_bytes[c] = class_read_bytes[c].load(std::memory_order_relaxed);
    s.class_write_bytes[c] =
        class_write_bytes[c].load(std::memory_order_relaxed);
  }
  return s;
}

IoCounters::Snapshot IoCounters::Snapshot::operator-(
    const Snapshot& base) const {
  Snapshot d;
  d.read_calls = read_calls - base.read_calls;
  d.read_bytes = read_bytes - base.read_bytes;
  d.write_calls = write_calls - base.write_calls;
  d.write_bytes = write_bytes - base.write_bytes;
  d.seeks = seeks - base.seeks;
  d.syncs = syncs - base.syncs;
  d.read_busy_ns = read_busy_ns - base.read_busy_ns;
  d.write_busy_ns = write_busy_ns - base.write_busy_ns;
  for (int c = 0; c < kNumFileClasses; ++c) {
    d.class_read_bytes[c] = class_read_bytes[c] - base.class_read_bytes[c];
    d.class_write_bytes[c] = class_write_bytes[c] - base.class_write_bytes[c];
  }
  return d;
}

// ---- file wrappers ---------------------------------------------------------

namespace {

/// ThrottledEnv's head-position rule for one positional file.
class HeadPosition {
 public:
  /// Returns whether an access at `offset` seeks, then moves the head past
  /// `bytes`.
  bool Access(uint64_t offset, uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    const bool seek = offset != next_;
    next_ = offset + bytes;
    return seek;
  }
  /// A durability flush leaves the head nowhere, so the next access seeks.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    next_ = ~0ull;
  }

 private:
  std::mutex mu_;
  uint64_t next_ = 0;
};

class TracedSequentialFile : public SequentialFile {
 public:
  TracedSequentialFile(std::unique_ptr<SequentialFile> base, TracingEnv* env,
                       FileClass c)
      : base_(std::move(base)), env_(env), class_(c) {}

  Status Read(size_t n, void* buf, size_t* bytes_read) override {
    const int64_t start = env_->BeginAccess();
    Status s = base_->Read(n, buf, bytes_read);
    if (!s.ok()) return s;
    env_->stats()->RecordRead(*bytes_read);
    env_->EndAccess({"Read", Kind::kRead, class_, pos_, *bytes_read, start});
    pos_ += *bytes_read;
    return s;
  }
  Status Skip(uint64_t n) override {
    env_->CountSeek();
    pos_ += n;
    return base_->Skip(n);
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  TracingEnv* env_;
  FileClass class_;
  uint64_t pos_ = 0;
};

class TracedRandomAccessFile : public RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                         TracingEnv* env, FileClass c)
      : base_(std::move(base)), env_(env), class_(c) {}

  Status ReadAt(uint64_t offset, size_t n, void* buf,
                size_t* bytes_read) const override {
    const int64_t start = env_->BeginAccess();
    Status s = base_->ReadAt(offset, n, buf, bytes_read);
    if (!s.ok()) return s;
    env_->stats()->RecordRead(*bytes_read);
    if (head_.Access(offset, *bytes_read)) env_->CountSeek();
    env_->EndAccess({"ReadAt", Kind::kRead, class_, offset, *bytes_read, start});
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  TracingEnv* env_;
  FileClass class_;
  mutable HeadPosition head_;
};

class TracedWritableFile : public WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<WritableFile> base, TracingEnv* env,
                     FileClass c)
      : base_(std::move(base)), env_(env), class_(c) {}

  Status Append(const void* data, size_t n) override {
    const int64_t start = env_->BeginAccess();
    Status s = base_->Append(data, n);
    if (!s.ok()) return s;
    env_->stats()->RecordWrite(n);
    env_->EndAccess({"Append", Kind::kWrite, class_, pos_, n, start});
    pos_ += n;
    return s;
  }
  Status Flush() override {
    const int64_t start = env_->BeginAccess();
    Status s = base_->Flush();
    env_->EndAccess({"Flush", Kind::kBarrier, class_, pos_, 0, start});
    return s;
  }
  Status Sync() override {
    const int64_t start = env_->BeginAccess();
    env_->CountSeek();
    env_->CountSync();
    Status s = base_->Sync();
    env_->EndAccess({"Sync", Kind::kBarrier, class_, pos_, 0, start});
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  TracingEnv* env_;
  FileClass class_;
  uint64_t pos_ = 0;
};

class TracedRandomWriteFile : public RandomWriteFile {
 public:
  TracedRandomWriteFile(std::unique_ptr<RandomWriteFile> base, TracingEnv* env,
                        FileClass c)
      : base_(std::move(base)), env_(env), class_(c) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    const int64_t start = env_->BeginAccess();
    Status s = base_->WriteAt(offset, data, n);
    if (!s.ok()) return s;
    env_->stats()->RecordWrite(n);
    if (head_.Access(offset, n)) env_->CountSeek();
    env_->EndAccess({"WriteAt", Kind::kWrite, class_, offset, n, start});
    return s;
  }
  Status Flush() override {
    const int64_t start = env_->BeginAccess();
    head_.Reset();
    env_->CountSeek();
    env_->CountSync();
    Status s = base_->Flush();
    env_->EndAccess({"Flush", Kind::kBarrier, class_, 0, 0, start});
    return s;
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomWriteFile> base_;
  TracingEnv* env_;
  FileClass class_;
  HeadPosition head_;
};

}  // namespace

// ---- TracingEnv ------------------------------------------------------------

TracingEnv::TracingEnv(Env* base, SpanRecorder* recorder, IoCounters* counters)
    : base_(base), recorder_(recorder), counters_(counters) {}

int64_t TracingEnv::BeginAccess() const {
  return recording() ? recorder_->NowNs() : 0;
}

void TracingEnv::EndAccess(const Access& a) {
  // start_ns is 0 when recording was off as the access began.
  if (!recording() || a.start_ns == 0) return;
  const int64_t end = recorder_->NowNs();
  const uint64_t busy = static_cast<uint64_t>(end - a.start_ns);
  const int c = static_cast<int>(a.file_class);
  switch (a.kind) {
    case Kind::kRead:
      counters_->read_calls.fetch_add(1, std::memory_order_relaxed);
      counters_->read_bytes.fetch_add(a.bytes, std::memory_order_relaxed);
      counters_->read_busy_ns.fetch_add(busy, std::memory_order_relaxed);
      counters_->class_read_bytes[c].fetch_add(a.bytes,
                                               std::memory_order_relaxed);
      break;
    case Kind::kWrite:
      counters_->write_calls.fetch_add(1, std::memory_order_relaxed);
      counters_->write_bytes.fetch_add(a.bytes, std::memory_order_relaxed);
      counters_->class_write_bytes[c].fetch_add(a.bytes,
                                                std::memory_order_relaxed);
      [[fallthrough]];
    case Kind::kBarrier:
      counters_->write_busy_ns.fetch_add(busy, std::memory_order_relaxed);
      break;
  }
  Span span;
  span.name = a.name;
  span.cat = "io";
  span.file_class = a.file_class;
  span.offset = a.offset;
  span.bytes = a.bytes;
  span.tid = SpanRecorder::ThreadId();
  span.start_ns = a.start_ns;
  span.end_ns = end;
  recorder_->Add(span);
}

void TracingEnv::CountSeek() {
  if (recording()) counters_->seeks.fetch_add(1, std::memory_order_relaxed);
}

void TracingEnv::CountSync() {
  if (recording()) counters_->syncs.fetch_add(1, std::memory_order_relaxed);
}

Status TracingEnv::NewSequentialFile(const std::string& path,
                                     std::unique_ptr<SequentialFile>* out) {
  std::unique_ptr<SequentialFile> f;
  NX_RETURN_NOT_OK(base_->NewSequentialFile(path, &f));
  CountSeek();  // ThrottledEnv charges the open as a head positioning
  *out = std::make_unique<TracedSequentialFile>(std::move(f), this,
                                                ClassifyPath(path));
  return Status::OK();
}

Status TracingEnv::NewRandomAccessFile(const std::string& path,
                                       std::unique_ptr<RandomAccessFile>* out) {
  std::unique_ptr<RandomAccessFile> f;
  NX_RETURN_NOT_OK(base_->NewRandomAccessFile(path, &f));
  *out = std::make_unique<TracedRandomAccessFile>(std::move(f), this,
                                                  ClassifyPath(path));
  return Status::OK();
}

Status TracingEnv::NewWritableFile(const std::string& path,
                                   std::unique_ptr<WritableFile>* out) {
  std::unique_ptr<WritableFile> f;
  NX_RETURN_NOT_OK(base_->NewWritableFile(path, &f));
  CountSeek();
  *out = std::make_unique<TracedWritableFile>(std::move(f), this,
                                              ClassifyPath(path));
  return Status::OK();
}

Status TracingEnv::NewRandomWriteFile(const std::string& path,
                                      std::unique_ptr<RandomWriteFile>* out) {
  std::unique_ptr<RandomWriteFile> f;
  NX_RETURN_NOT_OK(base_->NewRandomWriteFile(path, &f));
  *out = std::make_unique<TracedRandomWriteFile>(std::move(f), this,
                                                 ClassifyPath(path));
  return Status::OK();
}

bool TracingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}
Result<uint64_t> TracingEnv::GetFileSize(const std::string& path) {
  return base_->GetFileSize(path);
}
Status TracingEnv::CreateDirs(const std::string& path) {
  return base_->CreateDirs(path);
}
Status TracingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}
Status TracingEnv::RemoveDirRecursively(const std::string& path) {
  return base_->RemoveDirRecursively(path);
}
Status TracingEnv::RenameFile(const std::string& from, const std::string& to) {
  return base_->RenameFile(from, to);
}
Status TracingEnv::ListDir(const std::string& path,
                           std::vector<std::string>* names) {
  return base_->ListDir(path, names);
}

}  // namespace nxbench
