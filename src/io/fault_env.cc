#include "src/io/fault_env.h"

#include <utility>

namespace nxgraph {

namespace {

// Reads the live (base) content of `path`; missing files read as absent.
Result<std::string> ReadBase(Env* base, const std::string& path) {
  std::string data;
  NX_RETURN_NOT_OK(ReadFileToString(base, path, &data));
  return data;
}

std::string Bytes(const void* data, size_t n) {
  return std::string(static_cast<const char*>(data), n);
}

}  // namespace

// ---- file wrappers ---------------------------------------------------------

class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string path,
                    std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(const void* data, size_t n) override {
    switch (env_->CheckMutation("Append(" + path_ + ")")) {
      case FaultInjectionEnv::Verdict::kDead:
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kTear:
        // The process died mid-write: a prefix reaches the page cache.
        if (n > 1 && base_->Append(data, n / 2).ok()) {
          Record(Bytes(data, n / 2));
          base_->Flush();
        }
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kProceed:
        break;
    }
    NX_RETURN_NOT_OK(base_->Append(data, n));
    Record(Bytes(data, n));
    return Status::OK();
  }

  Status Flush() override {
    // Push-to-page-cache only; the base Env already sees every Append, so
    // this neither counts as a crash point nor changes the durable view.
    return base_->Flush();
  }

  Status Sync() override {
    switch (env_->CheckMutation("Sync(" + path_ + ")")) {
      case FaultInjectionEnv::Verdict::kDead:
      case FaultInjectionEnv::Verdict::kTear:
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kProceed:
        break;
    }
    NX_RETURN_NOT_OK(base_->Flush());
    NX_RETURN_NOT_OK(base_->Sync());
    env_->MarkDurable(path_);
    return Status::OK();
  }

  Status Close() override { return base_->Close(); }

 private:
  void Record(std::string bytes) {
    env_->RecordWrite(path_, {FaultInjectionEnv::PendingWrite::Kind::kAppend,
                              0, std::move(bytes)});
  }

  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

class FaultRandomWriteFile : public RandomWriteFile {
 public:
  FaultRandomWriteFile(FaultInjectionEnv* env, std::string path,
                       std::unique_ptr<RandomWriteFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    switch (env_->CheckMutation("WriteAt(" + path_ + ")")) {
      case FaultInjectionEnv::Verdict::kDead:
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kTear:
        if (n > 1 && base_->WriteAt(offset, data, n / 2).ok()) {
          Record(Kind::kWriteAt, offset, Bytes(data, n / 2));
        }
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kProceed:
        break;
    }
    NX_RETURN_NOT_OK(base_->WriteAt(offset, data, n));
    Record(Kind::kWriteAt, offset, Bytes(data, n));
    return Status::OK();
  }

  // RandomWriteFile::Flush is the durability barrier (fdatasync), so it is
  // both a crash point and the moment the file's content becomes durable.
  Status Flush() override {
    switch (env_->CheckMutation("Flush(" + path_ + ")")) {
      case FaultInjectionEnv::Verdict::kDead:
      case FaultInjectionEnv::Verdict::kTear:
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kProceed:
        break;
    }
    NX_RETURN_NOT_OK(base_->Flush());
    env_->MarkDurable(path_);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    switch (env_->CheckMutation("Truncate(" + path_ + ")")) {
      case FaultInjectionEnv::Verdict::kDead:
      case FaultInjectionEnv::Verdict::kTear:
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kProceed:
        break;
    }
    NX_RETURN_NOT_OK(base_->Truncate(size));
    Record(Kind::kTruncate, size, {});
    return Status::OK();
  }

  Status Close() override { return base_->Close(); }

 private:
  using Kind = FaultInjectionEnv::PendingWrite::Kind;
  void Record(Kind kind, uint64_t offset, std::string bytes) {
    env_->RecordWrite(path_, {kind, offset, std::move(bytes)});
  }

  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<RandomWriteFile> base_;
};

// ---- crash controls --------------------------------------------------------

void FaultInjectionEnv::SetKillSwitch(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  kill_after_ = static_cast<int64_t>(n);
  dead_ = false;
  killed_op_.clear();
}

bool FaultInjectionEnv::dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

std::string FaultInjectionEnv::killed_op() const {
  std::lock_guard<std::mutex> lock(mu_);
  return killed_op_;
}

uint64_t FaultInjectionEnv::mutation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mutations_;
}

FaultInjectionEnv::Verdict FaultInjectionEnv::CheckMutation(
    const std::string& desc) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Verdict::kDead;
  ++mutations_;
  if (kill_after_ < 0) return Verdict::kProceed;
  if (kill_after_ == 0) {
    dead_ = true;
    killed_op_ = desc;
    return Verdict::kTear;
  }
  --kill_after_;
  return Verdict::kProceed;
}

void FaultInjectionEnv::RecordWrite(const std::string& path,
                                    PendingWrite write) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[path].push_back(std::move(write));
}

void FaultInjectionEnv::MarkDurableLocked(const std::string& path) {
  auto it = pending_.find(path);
  if (it == pending_.end()) return;
  std::string& content = durable_[path];
  for (const PendingWrite& w : it->second) {
    switch (w.kind) {
      case PendingWrite::Kind::kAppend:
        content += w.data;
        break;
      case PendingWrite::Kind::kWriteAt:
        if (content.size() < w.offset + w.data.size()) {
          content.resize(w.offset + w.data.size());
        }
        content.replace(w.offset, w.data.size(), w.data);
        break;
      case PendingWrite::Kind::kTruncate:
        content.resize(w.offset);
        break;
    }
  }
  pending_.erase(it);
}

Status FaultInjectionEnv::CrashAndRecover() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& path : tracked_) {
    auto it = durable_.find(path);
    if (it == durable_.end()) {
      NX_RETURN_NOT_OK(base_->RemoveFile(path));
      continue;
    }
    std::unique_ptr<WritableFile> f;
    NX_RETURN_NOT_OK(base_->NewWritableFile(path, &f));
    NX_RETURN_NOT_OK(f->Append(it->second.data(), it->second.size()));
    NX_RETURN_NOT_OK(f->Close());
  }
  pending_.clear();
  dead_ = false;
  kill_after_ = -1;
  return Status::OK();
}

Status FaultInjectionEnv::SyncAllTracked() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& path : tracked_) MarkDurableLocked(path);
  return Status::OK();
}

// ---- Env interface ---------------------------------------------------------

Status FaultInjectionEnv::NewWritableFile(const std::string& path,
                                          std::unique_ptr<WritableFile>* out) {
  // Creation-with-truncation is a journaled metadata op: durable once it
  // returns, and also a crash point of its own.
  switch (CheckMutation("Create(" + path + ")")) {
    case Verdict::kDead:
    case Verdict::kTear:
      return DeadError();
    case Verdict::kProceed:
      break;
  }
  std::unique_ptr<WritableFile> base_file;
  NX_RETURN_NOT_OK(base_->NewWritableFile(path, &base_file));
  {
    std::lock_guard<std::mutex> lock(mu_);
    tracked_.insert(path);
    durable_[path].clear();
    pending_.erase(path);
  }
  *out = std::make_unique<FaultWritableFile>(this, path, std::move(base_file));
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomWriteFile(
    const std::string& path, std::unique_ptr<RandomWriteFile>* out) {
  std::unique_ptr<RandomWriteFile> base_file;
  NX_RETURN_NOT_OK(base_->NewRandomWriteFile(path, &base_file));
  {
    // Opening without truncation mutates nothing; an existing untracked
    // file's current content models data synced before the crash window.
    std::lock_guard<std::mutex> lock(mu_);
    if (tracked_.insert(path).second && durable_.find(path) == durable_.end()) {
      auto content = ReadBase(base_, path);
      durable_[path] = content.ok() ? std::move(*content) : std::string();
    }
  }
  *out =
      std::make_unique<FaultRandomWriteFile>(this, path, std::move(base_file));
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  switch (CheckMutation("Remove(" + path + ")")) {
    case Verdict::kDead:
    case Verdict::kTear:
      return DeadError();
    case Verdict::kProceed:
      break;
  }
  NX_RETURN_NOT_OK(base_->RemoveFile(path));
  std::lock_guard<std::mutex> lock(mu_);
  durable_.erase(path);
  pending_.erase(path);
  tracked_.insert(path);  // recovery must keep it gone
  return Status::OK();
}

Status FaultInjectionEnv::RemoveDirRecursively(const std::string& path) {
  // Test-harness cleanup, not part of any commit protocol: applied to both
  // views without arming a crash point.
  NX_RETURN_NOT_OK(base_->RemoveDirRecursively(path));
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = durable_.begin(); it != durable_.end();) {
    it = it->first.rfind(prefix, 0) == 0 ? durable_.erase(it) : std::next(it);
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    it = it->first.rfind(prefix, 0) == 0 ? pending_.erase(it) : std::next(it);
  }
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    it = it->rfind(prefix, 0) == 0 ? tracked_.erase(it) : std::next(it);
  }
  return Status::OK();
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  switch (CheckMutation("Rename(" + from + " -> " + to + ")")) {
    case Verdict::kDead:
    case Verdict::kTear:
      // Rename is atomic: it either fully happened or not at all. The
      // crash strikes before the journal commit, so it did not.
      return DeadError();
    case Verdict::kProceed:
      break;
  }
  NX_RETURN_NOT_OK(base_->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  tracked_.insert(from);
  tracked_.insert(to);
  // The writes not yet durable travel with the inode.
  auto writes = pending_.find(from);
  if (writes != pending_.end()) {
    pending_[to] = std::move(writes->second);
    pending_.erase(from);
  } else {
    pending_.erase(to);
  }
  auto it = durable_.find(from);
  if (it != durable_.end()) {
    // The journaled rename carries the synced content to the new name.
    durable_[to] = std::move(it->second);
    durable_.erase(it);
  } else {
    // `to` now references an inode whose content was never synced: after
    // a crash the name is lost along with the data.
    durable_.erase(to);
  }
  return Status::OK();
}

}  // namespace nxgraph
