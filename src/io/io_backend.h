// I/O backend selection for the real-filesystem Envs. Kept in its own tiny
// header so the engine layer (RunOptions) can name a backend without pulling
// in the full Env interface.
#ifndef NXGRAPH_IO_IO_BACKEND_H_
#define NXGRAPH_IO_IO_BACKEND_H_

namespace nxgraph {

/// Which Env implementation serves the streamed-update phases' disk access.
/// Both present the identical Env contract (see docs/io-stack.md), so engine
/// results are bit-identical across backends; they differ only in how
/// ReadAt/WriteAt reach the device:
enum class IoBackend {
  kBuffered,  ///< PosixEnv: pread/pwrite through the kernel page cache.
  kDirect,    ///< DirectIOEnv: O_DIRECT, page cache bypassed, user-space
              ///< aligned buffering (per-file buffered fallback when the
              ///< filesystem refuses O_DIRECT).
};

inline const char* IoBackendName(IoBackend b) {
  switch (b) {
    case IoBackend::kBuffered:
      return "buffered";
    case IoBackend::kDirect:
      return "direct";
  }
  return "?";
}

}  // namespace nxgraph

#endif  // NXGRAPH_IO_IO_BACKEND_H_
