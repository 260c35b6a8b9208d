// Bulk LEB128 varint decoding with an SSSE3/AVX2 shuffle-table fast path.
//
// The scalar codec in src/util/varint.h is strict and bijective: it rejects
// truncation, overflow past the output width, and overlong zero-padded
// encodings. Everything here preserves that contract exactly — for any byte
// range, BulkGetVarint32/64 succeeds iff the scalar decoder succeeds, returns
// the same past-the-end pointer, and produces the same values. A corrupt blob
// must surface as Status::Corruption from the sub-shard decoder no matter
// which path decoded it, so the SIMD kernels validate overlong encodings
// in-register and defer every code they cannot prove valid (>= 3-byte codes,
// window-straddling codes, short tails) to the scalar decoder.
//
// Dispatch is resolved once per process from CPUID (BestHardwareDecodePath)
// and can be pinned to scalar per run via RunOptions::simd_decode. Hardware
// without SSSE3 decodes scalar.
#ifndef NXGRAPH_UTIL_SIMD_VARINT_H_
#define NXGRAPH_UTIL_SIMD_VARINT_H_

#include <cstddef>
#include <cstdint>

namespace nxgraph {

/// User-facing decode-path knob (RunOptions::simd_decode,
/// GraphServer::Options::simd_decode).
///  - kAuto: best path the CPU supports.
///  - kForceScalar: always the scalar reference codec.
enum class SimdDecode { kAuto = 0, kForceScalar = 1 };

/// Concrete decode implementation, ordered by capability.
enum class DecodePath { kScalar = 0, kSsse3 = 1, kAvx2 = 2 };

/// "scalar" / "ssse3" / "avx2" — stable names for stats and logs.
const char* DecodePathName(DecodePath path);

/// Best path this CPU supports, from CPUID, cached after the first call.
DecodePath BestHardwareDecodePath();

/// True when `path` can execute on this CPU (kScalar always can).
bool DecodePathSupported(DecodePath path);

/// Maps the user knob to a concrete path (see SimdDecode for the rules).
/// Cached CPUID lookup; cheap to call per decode.
DecodePath ResolveDecodePath(SimdDecode mode);

/// Decodes exactly `n` varint32 values from [p, limit) into out[0..n).
/// Returns the position past the last value, or nullptr on any malformed
/// varint (truncated, overlong, or overflowing 32 bits) — the same
/// accept/reject set, final position, and values as GetVarint32Array for
/// every input. On failure the contents of `out` are unspecified.
const char* BulkGetVarint32(const char* p, const char* limit, uint32_t* out,
                            size_t n, DecodePath path);

/// Varint64 counterpart of BulkGetVarint32, same contract.
const char* BulkGetVarint64(const char* p, const char* limit, uint64_t* out,
                            size_t n, DecodePath path);

/// Convenience overloads using the resolved auto path.
inline const char* BulkGetVarint32(const char* p, const char* limit,
                                   uint32_t* out, size_t n) {
  return BulkGetVarint32(p, limit, out, n,
                         ResolveDecodePath(SimdDecode::kAuto));
}
inline const char* BulkGetVarint64(const char* p, const char* limit,
                                   uint64_t* out, size_t n) {
  return BulkGetVarint64(p, limit, out, n,
                         ResolveDecodePath(SimdDecode::kAuto));
}

/// Delta reconstruction for the NXS2 streams: writes the running sum
///   out[0] = deltas[0];  out[k] = out[k-1] + deltas[k] + bias   (k >= 1)
/// in 32-bit wraparound arithmetic and returns the exact 64-bit value of the
/// final sum, deltas[0] + sum(deltas[1..n-1]) + (n-1)*bias (0 when n == 0).
/// Because the sums are monotone, the caller's single end-of-range
/// `> UINT32_MAX` check on the returned value detects any intermediate
/// overflow, exactly like the scalar reconstruction loops it replaces; when
/// the returned value exceeds UINT32_MAX the out[] contents are about to be
/// rejected and are unspecified-but-deterministic (32-bit wraps). `out` may
/// not alias `deltas`. bias=1 reconstructs the strictly-ascending dst
/// stream, bias=0 the counts prefix sums and per-group src streams.
uint64_t DeltaPrefixSumU32(const uint32_t* deltas, size_t n, uint32_t bias,
                           uint32_t* out, DecodePath path);

}  // namespace nxgraph

#endif  // NXGRAPH_UTIL_SIMD_VARINT_H_
