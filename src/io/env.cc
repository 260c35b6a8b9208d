#include "src/io/env.h"

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

}  // namespace nxgraph
