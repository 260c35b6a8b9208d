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
        if (n > 1) {
          base_->Append(data, n / 2);
          base_->Flush();
        }
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kProceed:
        return base_->Append(data, n);
    }
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
    return env_->MarkDurable(path_);
  }

  Status Close() override { return base_->Close(); }

 private:
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
        if (n > 1) base_->WriteAt(offset, data, n / 2);
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kProceed:
        return base_->WriteAt(offset, data, n);
    }
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
    return env_->MarkDurable(path_);
  }

  Status Truncate(uint64_t size) override {
    switch (env_->CheckMutation("Truncate(" + path_ + ")")) {
      case FaultInjectionEnv::Verdict::kDead:
      case FaultInjectionEnv::Verdict::kTear:
        return FaultInjectionEnv::DeadError();
      case FaultInjectionEnv::Verdict::kProceed:
        return base_->Truncate(size);
    }
    return Status::OK();
  }

  Status Close() override { return base_->Close(); }

 private:
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

Status FaultInjectionEnv::MarkDurable(const std::string& path) {
  NX_ASSIGN_OR_RETURN(std::string content, ReadBase(base_, path));
  std::lock_guard<std::mutex> lock(mu_);
  durable_[path] = std::move(content);
  return Status::OK();
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
  dead_ = false;
  kill_after_ = -1;
  return Status::OK();
}

Status FaultInjectionEnv::SyncAllTracked() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& path : tracked_) {
    auto content = ReadBase(base_, path);
    if (content.ok()) {
      durable_[path] = std::move(*content);
    } else if (content.status().IsNotFound()) {
      durable_.erase(path);
    } else {
      return content.status();
    }
  }
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
