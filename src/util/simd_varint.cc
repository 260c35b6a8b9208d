// SIMD bulk LEB128 decode (see simd_varint.h for the contract).
//
// Kernel shape (masked-VByte style): load 8 stream bytes, movemask the
// continuation bits into an 8-bit window signature, and look up a
// precomputed entry telling how to shuffle those bytes into fixed lanes.
// Windows of 1–2 byte codes gather (low, high) byte pairs: one pshufb, an
// AND stripping the continuation bits, and one pmaddubsw combining each
// pair as lo + 128*hi — up to eight varints per iteration with no
// data-dependent branches. Windows containing a 3-byte code gather up to
// four codes into u32 lanes instead: the same pshufb + pmaddubsw produce
// (b0 + 128*b1, b2) 16-bit halves, and a pmaddwd merges them as
// half0 + half1 << 14. Strictness is preserved in-register: each multi-byte
// lane must decode to at least the minimum value for its width (128 for
// 2-byte codes, 2^14 for 3-byte), or the whole bulk call fails exactly like
// the scalar codec would on the overlong encoding. Codes of 4+ bytes, codes
// straddling the 8-byte window, and short tails all go through the scalar
// reference decoder, so the accept/reject set is identical by construction.
#include "src/util/simd_varint.h"

#include <cstring>

#include "src/util/varint.h"

#if defined(__x86_64__) || defined(__amd64__)
#define NX_SIMD_X86 1
#include <immintrin.h>
#endif

namespace nxgraph {
namespace {

// ---- scalar reference paths ------------------------------------------------

const char* ScalarBulk32(const char* p, const char* limit, uint32_t* out,
                         size_t n) {
  return GetVarint32Array(p, limit, n, out);
}

const char* ScalarBulk64(const char* p, const char* limit, uint64_t* out,
                         size_t n) {
  for (size_t k = 0; k < n; ++k) {
    if (p < limit && static_cast<uint8_t>(*p) < 0x80) {
      out[k] = static_cast<uint8_t>(*p++);
      continue;
    }
    p = GetVarint64(p, limit, &out[k]);
    if (p == nullptr) return nullptr;
  }
  return p;
}

uint64_t ScalarDeltaPrefixSum(const uint32_t* deltas, size_t n, uint32_t bias,
                              uint32_t* out) {
  if (n == 0) return 0;
  uint32_t acc = deltas[0];
  uint64_t total = deltas[0];
  out[0] = acc;
  for (size_t k = 1; k < n; ++k) {
    acc += deltas[k] + bias;  // 32-bit wraparound, matching the SIMD lanes
    total += deltas[k];
    out[k] = acc;
  }
  return total + static_cast<uint64_t>(bias) * (n - 1);
}

#ifdef NX_SIMD_X86

// ---- shuffle window table --------------------------------------------------

// One entry per 8-bit continuation signature (bit b set <=> stream byte b
// has its high bit set, i.e. is a non-final byte). Two lane schemes share
// the entry:
//
// - The u16 scheme (shuf/min/consumed/count) covers windows whose leading
//   codes are all 1–2 bytes: a pshufb control gathering each code into a
//   (low, high) byte pair (0x80 lanes shuffle in zero) and the minimum
//   legal decoded value per lane (128 for 2-byte codes — anything smaller
//   is an overlong encoding the strict codec rejects).
// - The u32 scheme (shuf32/min32/consumed32/count32) covers windows whose
//   leading codes are 1–3 bytes with at least one 3-byte code: up to four
//   codes gathered into 32-bit lanes (bytes b0,b1,b2 at lane offsets
//   0,1,2; offset 3 zeroed), with per-lane minima of 0 / 128 / 2^14.
//
// Exactly one scheme is active per entry — whichever consumes more stream
// bytes per window. Both counts == 0 marks windows whose *first* code is
// >= 4 bytes or straddles the window; those fall back to one scalar decode.
struct alignas(16) WindowEntry {
  uint8_t shuf[16];
  alignas(16) uint16_t min[8];
  alignas(16) uint8_t shuf32[16];
  alignas(16) uint32_t min32[4];
  uint8_t consumed;
  uint8_t count;
  uint8_t consumed32;
  uint8_t count32;
};

struct WindowTable {
  WindowEntry entries[256];
  WindowTable() {
    for (int mask = 0; mask < 256; ++mask) {
      WindowEntry& e = entries[mask];
      std::memset(e.shuf, 0x80, sizeof(e.shuf));
      std::memset(e.min, 0, sizeof(e.min));
      std::memset(e.shuf32, 0x80, sizeof(e.shuf32));
      std::memset(e.min32, 0, sizeof(e.min32));
      e.consumed = 0;
      e.count = 0;
      e.consumed32 = 0;
      e.count32 = 0;
      int pos = 0;
      for (int lane = 0; lane < 8 && pos < 8; ++lane) {
        if ((mask >> pos) & 1) {
          if (pos + 1 >= 8) break;          // code straddles the window
          if ((mask >> (pos + 1)) & 1) break;  // 3+ byte code: u32 scheme
          e.shuf[2 * lane] = static_cast<uint8_t>(pos);
          e.shuf[2 * lane + 1] = static_cast<uint8_t>(pos + 1);
          e.min[lane] = 128;
          pos += 2;
        } else {
          e.shuf[2 * lane] = static_cast<uint8_t>(pos);
          pos += 1;
        }
        e.consumed = static_cast<uint8_t>(pos);
        e.count = static_cast<uint8_t>(lane + 1);
      }
      bool saw_triple = false;
      pos = 0;
      for (int lane = 0; lane < 4 && pos < 8; ++lane) {
        int len = 1;
        while (len < 4 && pos + len - 1 < 8 && ((mask >> (pos + len - 1)) & 1))
          ++len;
        if (len == 4) break;       // 4+ byte code: scalar decodes it
        if (pos + len > 8) break;  // code straddles the window
        for (int b = 0; b < len; ++b)
          e.shuf32[4 * lane + b] = static_cast<uint8_t>(pos + b);
        e.min32[lane] = len == 1 ? 0 : (len == 2 ? 128u : (1u << 14));
        if (len == 3) saw_triple = true;
        pos += len;
        e.consumed32 = static_cast<uint8_t>(pos);
        e.count32 = static_cast<uint8_t>(lane + 1);
      }
      // Keep exactly one scheme per entry: the u32 scheme only where it
      // makes strictly more byte progress than the u16 scheme (it decodes
      // at most half as many codes per window, so on 1-2 byte windows the
      // u16 scheme always wins).
      if (!saw_triple || e.consumed >= e.consumed32) {
        std::memset(e.shuf32, 0x80, sizeof(e.shuf32));
        std::memset(e.min32, 0, sizeof(e.min32));
        e.consumed32 = 0;
        e.count32 = 0;
      } else {
        std::memset(e.shuf, 0x80, sizeof(e.shuf));
        std::memset(e.min, 0, sizeof(e.min));
        e.consumed = 0;
        e.count = 0;
      }
    }
  }
};

const WindowEntry* Windows() {
  static const WindowTable table;
  return table.entries;
}

// Decodes one 8-byte window in-register. Returns the 8 values as u16 lanes
// in *vals; false when a 2-byte lane is overlong (caller must fail the bulk
// call). Lanes >= e.count decode to 0 and always validate.
__attribute__((target("ssse3"))) inline bool DecodeWindowSsse3(
    const char* p, const WindowEntry& e, __m128i* vals) {
  const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  const __m128i gathered = _mm_shuffle_epi8(
      bytes, _mm_load_si128(reinterpret_cast<const __m128i*>(e.shuf)));
  const __m128i payload = _mm_and_si128(gathered, _mm_set1_epi8(0x7F));
  // pmaddubsw: first operand unsigned (the {1, 128} multipliers), second
  // signed (payload bytes are <= 0x7F, so sign-safe): lane = lo + 128*hi.
  const __m128i v =
      _mm_maddubs_epi16(_mm_set1_epi16(int16_t(0x8001)), payload);
  const __m128i mins =
      _mm_load_si128(reinterpret_cast<const __m128i*>(e.min));
  // subs_epu16(min, v) is nonzero exactly where v < min (overlong lane).
  const __m128i deficit = _mm_subs_epu16(mins, v);
  if (_mm_movemask_epi8(_mm_cmpeq_epi16(deficit, _mm_setzero_si128())) !=
      0xFFFF) {
    return false;
  }
  *vals = v;
  return true;
}

// Decodes one 8-byte window whose leading codes are 1–3 bytes into four
// u32 lanes. Returns false when a multi-byte lane is overlong (caller must
// fail the bulk call). Lanes >= e.count32 decode to 0 and always validate.
__attribute__((target("ssse3"))) inline bool DecodeWindow32Ssse3(
    const char* p, const WindowEntry& e, __m128i* vals) {
  const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  const __m128i gathered = _mm_shuffle_epi8(
      bytes, _mm_load_si128(reinterpret_cast<const __m128i*>(e.shuf32)));
  const __m128i payload = _mm_and_si128(gathered, _mm_set1_epi8(0x7F));
  // Per 32-bit lane holding payload bytes (b0, b1, b2, 0):
  // pmaddubsw -> 16-bit halves (b0 + 128*b1, b2); pmaddwd merges them as
  // half0 + half1 << 14 = b0 | b1 << 7 | b2 << 14 (max 2^21 - 1, so the
  // signed multiply-add never overflows).
  const __m128i halves =
      _mm_maddubs_epi16(_mm_set1_epi16(int16_t(0x8001)), payload);
  const __m128i v =
      _mm_madd_epi16(halves, _mm_set1_epi32(int32_t((1 << 14) << 16 | 1)));
  const __m128i mins =
      _mm_load_si128(reinterpret_cast<const __m128i*>(e.min32));
  // All lanes are < 2^22, so the signed comparison is exact.
  if (_mm_movemask_epi8(_mm_cmplt_epi32(v, mins)) != 0) return false;
  *vals = v;
  return true;
}

__attribute__((target("ssse3"))) const char* BulkSsse3U32(const char* p,
                                                          const char* limit,
                                                          uint32_t* out,
                                                          size_t n) {
  const WindowEntry* windows = Windows();
  const __m128i zero = _mm_setzero_si128();
  size_t k = 0;
  while (k < n) {
    // All-final fast path: 16 single-byte values in one load.
    if (limit - p >= 16 && n - k >= 16) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      if (_mm_movemask_epi8(v) == 0) {
        const __m128i lo = _mm_unpacklo_epi8(v, zero);
        const __m128i hi = _mm_unpackhi_epi8(v, zero);
        __m128i* o = reinterpret_cast<__m128i*>(out + k);
        _mm_storeu_si128(o + 0, _mm_unpacklo_epi16(lo, zero));
        _mm_storeu_si128(o + 1, _mm_unpackhi_epi16(lo, zero));
        _mm_storeu_si128(o + 2, _mm_unpacklo_epi16(hi, zero));
        _mm_storeu_si128(o + 3, _mm_unpackhi_epi16(hi, zero));
        p += 16;
        k += 16;
        continue;
      }
    }
    if (limit - p < 8 || n - k < 8) break;  // scalar tail
    const uint32_t mask =
        _mm_movemask_epi8(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))) &
        0xFF;
    const WindowEntry& e = windows[mask];
    if (e.count != 0) {
      __m128i vals;
      if (!DecodeWindowSsse3(p, e, &vals)) return nullptr;
      // Store all 8 widened lanes (in-bounds: n - k >= 8); lanes past
      // e.count are zeros the next iteration or the tail overwrites.
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k),
                       _mm_unpacklo_epi16(vals, zero));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k + 4),
                       _mm_unpackhi_epi16(vals, zero));
      p += e.consumed;
      k += e.count;
    } else if (e.count32 != 0) {
      // Window leads with a 3-byte code: four u32 lanes per iteration.
      __m128i vals;
      if (!DecodeWindow32Ssse3(p, e, &vals)) return nullptr;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k), vals);
      p += e.consumed32;
      k += e.count32;
    } else {
      // Window leads with a 4+ byte or straddling code: scalar-decode it
      // (full strictness — overflow, overlong, truncation) and re-window.
      p = GetVarint32(p, limit, &out[k]);
      if (p == nullptr) return nullptr;
      ++k;
    }
  }
  return ScalarBulk32(p, limit, out + k, n - k);
}

__attribute__((target("avx2"))) const char* BulkAvx2U32(const char* p,
                                                        const char* limit,
                                                        uint32_t* out,
                                                        size_t n) {
  const WindowEntry* windows = Windows();
  const __m128i zero = _mm_setzero_si128();
  size_t k = 0;
  while (k < n) {
    // All-final fast path: 32 single-byte values per load, widened with
    // vpmovzxbd straight to u32 lanes.
    if (limit - p >= 32 && n - k >= 32) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      if (_mm256_movemask_epi8(v) == 0) {
        for (int g = 0; g < 4; ++g) {
          const __m128i b = _mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(p + 8 * g));
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k + 8 * g),
                              _mm256_cvtepu8_epi32(b));
        }
        p += 32;
        k += 32;
        continue;
      }
    }
    if (limit - p < 8 || n - k < 8) break;
    const uint32_t mask =
        _mm_movemask_epi8(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))) &
        0xFF;
    const WindowEntry& e = windows[mask];
    if (e.count != 0) {
      __m128i vals;
      if (!DecodeWindowSsse3(p, e, &vals)) return nullptr;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k),
                       _mm_unpacklo_epi16(vals, zero));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k + 4),
                       _mm_unpackhi_epi16(vals, zero));
      p += e.consumed;
      k += e.count;
    } else if (e.count32 != 0) {
      __m128i vals;
      if (!DecodeWindow32Ssse3(p, e, &vals)) return nullptr;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k), vals);
      p += e.consumed32;
      k += e.count32;
    } else {
      p = GetVarint32(p, limit, &out[k]);
      if (p == nullptr) return nullptr;
      ++k;
    }
  }
  return ScalarBulk32(p, limit, out + k, n - k);
}

__attribute__((target("ssse3"))) const char* BulkSsse3U64(const char* p,
                                                          const char* limit,
                                                          uint64_t* out,
                                                          size_t n) {
  const WindowEntry* windows = Windows();
  const __m128i zero = _mm_setzero_si128();
  size_t k = 0;
  while (k < n) {
    if (limit - p >= 16 && n - k >= 16) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      if (_mm_movemask_epi8(v) == 0) {
        const __m128i u16s[2] = {_mm_unpacklo_epi8(v, zero),
                                 _mm_unpackhi_epi8(v, zero)};
        __m128i* o = reinterpret_cast<__m128i*>(out + k);
        for (int h = 0; h < 2; ++h) {
          const __m128i u32lo = _mm_unpacklo_epi16(u16s[h], zero);
          const __m128i u32hi = _mm_unpackhi_epi16(u16s[h], zero);
          _mm_storeu_si128(o++, _mm_unpacklo_epi32(u32lo, zero));
          _mm_storeu_si128(o++, _mm_unpackhi_epi32(u32lo, zero));
          _mm_storeu_si128(o++, _mm_unpacklo_epi32(u32hi, zero));
          _mm_storeu_si128(o++, _mm_unpackhi_epi32(u32hi, zero));
        }
        p += 16;
        k += 16;
        continue;
      }
    }
    if (limit - p < 8 || n - k < 8) break;
    const uint32_t mask =
        _mm_movemask_epi8(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))) &
        0xFF;
    const WindowEntry& e = windows[mask];
    if (e.count != 0) {
      __m128i vals;
      if (!DecodeWindowSsse3(p, e, &vals)) return nullptr;
      const __m128i u32lo = _mm_unpacklo_epi16(vals, zero);
      const __m128i u32hi = _mm_unpackhi_epi16(vals, zero);
      __m128i* o = reinterpret_cast<__m128i*>(out + k);
      _mm_storeu_si128(o + 0, _mm_unpacklo_epi32(u32lo, zero));
      _mm_storeu_si128(o + 1, _mm_unpackhi_epi32(u32lo, zero));
      _mm_storeu_si128(o + 2, _mm_unpacklo_epi32(u32hi, zero));
      _mm_storeu_si128(o + 3, _mm_unpackhi_epi32(u32hi, zero));
      p += e.consumed;
      k += e.count;
    } else if (e.count32 != 0) {
      __m128i vals;
      if (!DecodeWindow32Ssse3(p, e, &vals)) return nullptr;
      __m128i* o = reinterpret_cast<__m128i*>(out + k);
      _mm_storeu_si128(o + 0, _mm_unpacklo_epi32(vals, zero));
      _mm_storeu_si128(o + 1, _mm_unpackhi_epi32(vals, zero));
      p += e.consumed32;
      k += e.count32;
    } else {
      p = GetVarint64(p, limit, &out[k]);
      if (p == nullptr) return nullptr;
      ++k;
    }
  }
  return ScalarBulk64(p, limit, out + k, n - k);
}

// SSE2 (x86-64 baseline, no dispatch needed) in-register prefix sum over
// blocks of four deltas, carrying the last lane across blocks. The u32
// lanes wrap exactly like the scalar loop; the exact 64-bit total is
// accumulated from the raw deltas separately so the caller's overflow
// check sees the true sum even when the lanes wrapped.
uint64_t Sse2DeltaPrefixSum(const uint32_t* deltas, size_t n, uint32_t bias,
                            uint32_t* out) {
  if (n == 0) return 0;
  out[0] = deltas[0];
  const __m128i zero = _mm_setzero_si128();
  const __m128i vbias = _mm_set1_epi32(static_cast<int>(bias));
  __m128i carry = _mm_set1_epi32(static_cast<int>(deltas[0]));
  __m128i total2 = _mm_setzero_si128();
  size_t k = 1;
  for (; n - k >= 4; k += 4) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(deltas + k));
    total2 = _mm_add_epi64(total2, _mm_add_epi64(_mm_unpacklo_epi32(d, zero),
                                                 _mm_unpackhi_epi32(d, zero)));
    __m128i x = _mm_add_epi32(d, vbias);
    x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
    x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
    x = _mm_add_epi32(x, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k), x);
    carry = _mm_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
  }
  alignas(16) uint64_t halves[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(halves), total2);
  uint64_t total = static_cast<uint64_t>(deltas[0]) + halves[0] + halves[1];
  uint32_t acc = out[k - 1];
  for (; k < n; ++k) {
    acc += deltas[k] + bias;
    total += deltas[k];
    out[k] = acc;
  }
  return total + static_cast<uint64_t>(bias) * (n - 1);
}

#endif  // NX_SIMD_X86

}  // namespace

const char* DecodePathName(DecodePath path) {
  switch (path) {
    case DecodePath::kAvx2:
      return "avx2";
    case DecodePath::kSsse3:
      return "ssse3";
    case DecodePath::kScalar:
    default:
      return "scalar";
  }
}

DecodePath BestHardwareDecodePath() {
#ifdef NX_SIMD_X86
  static const DecodePath best = [] {
    if (__builtin_cpu_supports("avx2")) return DecodePath::kAvx2;
    if (__builtin_cpu_supports("ssse3")) return DecodePath::kSsse3;
    return DecodePath::kScalar;
  }();
  return best;
#else
  return DecodePath::kScalar;
#endif
}

bool DecodePathSupported(DecodePath path) {
  return static_cast<int>(path) <= static_cast<int>(BestHardwareDecodePath());
}

DecodePath ResolveDecodePath(SimdDecode mode) {
  return mode == SimdDecode::kForceScalar ? DecodePath::kScalar
                                          : BestHardwareDecodePath();
}

const char* BulkGetVarint32(const char* p, const char* limit, uint32_t* out,
                            size_t n, DecodePath path) {
#ifdef NX_SIMD_X86
  if (path == DecodePath::kAvx2) return BulkAvx2U32(p, limit, out, n);
  if (path == DecodePath::kSsse3) return BulkSsse3U32(p, limit, out, n);
#else
  (void)path;
#endif
  return ScalarBulk32(p, limit, out, n);
}

const char* BulkGetVarint64(const char* p, const char* limit, uint64_t* out,
                            size_t n, DecodePath path) {
#ifdef NX_SIMD_X86
  if (path != DecodePath::kScalar) return BulkSsse3U64(p, limit, out, n);
#else
  (void)path;
#endif
  return ScalarBulk64(p, limit, out, n);
}

uint64_t DeltaPrefixSumU32(const uint32_t* deltas, size_t n, uint32_t bias,
                           uint32_t* out, DecodePath path) {
#ifdef NX_SIMD_X86
  if (path != DecodePath::kScalar) {
    return Sse2DeltaPrefixSum(deltas, n, bias, out);
  }
#else
  (void)path;
#endif
  return ScalarDeltaPrefixSum(deltas, n, bias, out);
}

}  // namespace nxgraph
