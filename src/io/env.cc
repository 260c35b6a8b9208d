#include "src/io/env.h"

#include <cstdlib>

#include "src/io/io_backend.h"

namespace nxgraph {

Status ReadFileToString(Env* env, const std::string& path, std::string* out) {
  out->clear();
  std::unique_ptr<SequentialFile> file;
  NX_RETURN_NOT_OK(env->NewSequentialFile(path, &file));
  char buf[1 << 16];
  for (;;) {
    size_t n = 0;
    NX_RETURN_NOT_OK(file->Read(sizeof(buf), buf, &n));
    if (n == 0) break;
    out->append(buf, n);
    if (n < sizeof(buf)) break;
  }
  return Status::OK();
}

namespace {

Status WriteTempAndRename(Env* env, const std::string& path,
                          const std::string& contents, bool durable) {
  const std::string tmp = path + ".tmp";
  std::unique_ptr<WritableFile> file;
  NX_RETURN_NOT_OK(env->NewWritableFile(tmp, &file));
  NX_RETURN_NOT_OK(file->Append(contents));
  if (durable) NX_RETURN_NOT_OK(file->Sync());
  NX_RETURN_NOT_OK(file->Close());
  return env->RenameFile(tmp, path);
}

}  // namespace

Status WriteStringToFile(Env* env, const std::string& path,
                         const std::string& contents) {
  return WriteTempAndRename(env, path, contents, /*durable=*/false);
}

Status WriteStringToFileDurable(Env* env, const std::string& path,
                                const std::string& contents) {
  return WriteTempAndRename(env, path, contents, /*durable=*/true);
}

bool ParseIoBackend(const std::string& name, IoBackend* out) {
  if (name == "buffered") {
    *out = IoBackend::kBuffered;
  } else if (name == "direct") {
    *out = IoBackend::kDirect;
  } else {
    return false;
  }
  return true;
}

IoBackend DefaultIoBackend() {
  static const IoBackend backend = [] {
    IoBackend b = IoBackend::kBuffered;
    const char* name = std::getenv("NXGRAPH_IO_BACKEND");
    if (name != nullptr) (void)ParseIoBackend(name, &b);
    return b;
  }();
  return backend;
}

}  // namespace nxgraph
