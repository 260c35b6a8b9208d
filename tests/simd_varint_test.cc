// Differential fuzz + property tests for the bulk varint decoder
// (src/util/simd_varint.h): every supported decode path must agree with the
// strict scalar codec on values, consumed lengths, and the accept/reject
// set — including adversarial streams (truncated, overlong, overflowing,
// max-width, lane-boundary-straddling). All streams are decoded out of
// exactly-sized heap buffers so the ASan CI job catches any out-of-bounds
// window load.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/random.h"
#include "src/util/simd_varint.h"
#include "src/util/varint.h"

namespace nxgraph {
namespace {

// Fixed fuzz seed, overridable for reproduction; every failure message
// carries the seed and case index.
constexpr uint64_t kFuzzSeed = 0x5eed51bdull;

std::vector<DecodePath> SupportedPaths() {
  std::vector<DecodePath> paths = {DecodePath::kScalar};
  if (DecodePathSupported(DecodePath::kSsse3)) {
    paths.push_back(DecodePath::kSsse3);
  }
  if (DecodePathSupported(DecodePath::kAvx2)) {
    paths.push_back(DecodePath::kAvx2);
  }
  return paths;
}

// Decodes `n` varint32s with the original one-value-at-a-time codec — the
// contract every bulk path must reproduce bit-for-bit.
const char* ReferenceDecode32(const char* p, const char* limit, uint32_t* out,
                              size_t n) {
  for (size_t k = 0; k < n; ++k) {
    p = GetVarint32(p, limit, &out[k]);
    if (p == nullptr) return nullptr;
  }
  return p;
}

const char* ReferenceDecode64(const char* p, const char* limit, uint64_t* out,
                              size_t n) {
  for (size_t k = 0; k < n; ++k) {
    p = GetVarint64(p, limit, &out[k]);
    if (p == nullptr) return nullptr;
  }
  return p;
}

// Largest m <= n such that decoding m values from the stream succeeds — the
// observable "error position" of a malformed stream. Scalar and SIMD must
// agree on it.
template <typename T, typename Decode>
size_t MaxDecodablePrefix(const char* p, const char* limit, size_t n,
                          Decode decode) {
  std::vector<T> scratch(n + 1);
  size_t best = 0;
  for (size_t m = 0; m <= n; ++m) {
    if (decode(p, limit, scratch.data(), m) != nullptr) best = m;
  }
  return best;
}

// Checks that every supported path decodes `bytes` exactly like the
// reference codec: same accept/reject, same end position, same values; on
// reject, the same maximal decodable prefix. The stream is copied into an
// exactly-sized heap buffer so ASan flags any read past `limit`.
void ExpectAllPathsAgree32(const std::string& bytes, size_t n,
                           const std::string& trace) {
  std::vector<char> buf(bytes.begin(), bytes.end());
  const char* p = buf.data();
  const char* limit = p + buf.size();

  std::vector<uint32_t> want(n + 1, 0xDEADBEEF);
  const char* want_end = ReferenceDecode32(p, limit, want.data(), n);

  for (DecodePath path : SupportedPaths()) {
    SCOPED_TRACE(trace + " path=" + DecodePathName(path));
    std::vector<uint32_t> got(n + 1, 0xABAD1DEA);
    const char* got_end = BulkGetVarint32(p, limit, got.data(), n, path);
    if (want_end == nullptr) {
      EXPECT_EQ(got_end, nullptr);
      const size_t want_prefix = MaxDecodablePrefix<uint32_t>(
          p, limit, n, [](const char* q, const char* l, uint32_t* o, size_t m) {
            return ReferenceDecode32(q, l, o, m);
          });
      const size_t got_prefix = MaxDecodablePrefix<uint32_t>(
          p, limit, n,
          [path](const char* q, const char* l, uint32_t* o, size_t m) {
            return BulkGetVarint32(q, l, o, m, path);
          });
      EXPECT_EQ(got_prefix, want_prefix);
    } else {
      ASSERT_NE(got_end, nullptr);
      EXPECT_EQ(got_end - p, want_end - p) << "consumed length";
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ(got[k], want[k]) << "value index " << k;
      }
    }
  }
}

void ExpectAllPathsAgree64(const std::string& bytes, size_t n,
                           const std::string& trace) {
  std::vector<char> buf(bytes.begin(), bytes.end());
  const char* p = buf.data();
  const char* limit = p + buf.size();

  std::vector<uint64_t> want(n + 1, 0xDEADBEEF);
  const char* want_end = ReferenceDecode64(p, limit, want.data(), n);

  for (DecodePath path : SupportedPaths()) {
    SCOPED_TRACE(trace + " path=" + DecodePathName(path));
    std::vector<uint64_t> got(n + 1, 0xABAD1DEA);
    const char* got_end = BulkGetVarint64(p, limit, got.data(), n, path);
    if (want_end == nullptr) {
      EXPECT_EQ(got_end, nullptr);
      const size_t want_prefix = MaxDecodablePrefix<uint64_t>(
          p, limit, n, [](const char* q, const char* l, uint64_t* o, size_t m) {
            return ReferenceDecode64(q, l, o, m);
          });
      const size_t got_prefix = MaxDecodablePrefix<uint64_t>(
          p, limit, n,
          [path](const char* q, const char* l, uint64_t* o, size_t m) {
            return BulkGetVarint64(q, l, o, m, path);
          });
      EXPECT_EQ(got_prefix, want_prefix);
    } else {
      ASSERT_NE(got_end, nullptr);
      EXPECT_EQ(got_end - p, want_end - p) << "consumed length";
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ(got[k], want[k]) << "value index " << k;
      }
    }
  }
}

// Random value whose encoded byte width is uniform over the widths, not the
// value range — otherwise almost every uniform draw is max-width and the
// short-code fast paths go untested.
uint32_t RandomWidthValue32(Xoshiro256& rng) {
  const int bits = 1 + static_cast<int>(rng.NextBounded(32));
  return static_cast<uint32_t>(rng.Next() & ((bits == 32)
                                                 ? 0xFFFFFFFFull
                                                 : ((1ull << bits) - 1)));
}

uint64_t RandomWidthValue64(Xoshiro256& rng) {
  const int bits = 1 + static_cast<int>(rng.NextBounded(64));
  return bits == 64 ? rng.Next() : (rng.Next() & ((1ull << bits) - 1));
}

TEST(SimdVarintTest, DispatchBasics) {
  EXPECT_STREQ(DecodePathName(DecodePath::kScalar), "scalar");
  EXPECT_STREQ(DecodePathName(DecodePath::kSsse3), "ssse3");
  EXPECT_STREQ(DecodePathName(DecodePath::kAvx2), "avx2");

  EXPECT_TRUE(DecodePathSupported(DecodePath::kScalar));
  EXPECT_TRUE(DecodePathSupported(BestHardwareDecodePath()));
  EXPECT_EQ(ResolveDecodePath(SimdDecode::kForceScalar), DecodePath::kScalar);
  EXPECT_EQ(ResolveDecodePath(SimdDecode::kAuto), BestHardwareDecodePath());
}

TEST(SimdVarintTest, EmptyAndZeroCount) {
  const std::string bytes = "\x01\x02";
  for (DecodePath path : SupportedPaths()) {
    // The out buffer must hold n values even on failure: the decoder may
    // write every value it reached before detecting the truncation.
    uint32_t sink32[3] = {0, 0, 0};
    uint64_t sink64 = 0;
    // n = 0 consumes nothing and cannot fail, even on an empty range.
    EXPECT_EQ(BulkGetVarint32(bytes.data(), bytes.data(), sink32, 0, path),
              bytes.data());
    EXPECT_EQ(BulkGetVarint64(bytes.data(), bytes.data(), &sink64, 0, path),
              bytes.data());
    // n > available values is a truncation.
    EXPECT_EQ(BulkGetVarint32(bytes.data(), bytes.data() + 2, sink32, 3, path),
              nullptr);
  }
}

TEST(SimdVarintTest, AdversarialStreams32) {
  // Each case: raw bytes + the value count to request.
  struct Case {
    const char* name;
    std::string bytes;
    size_t n;
  };
  const std::vector<Case> cases = {
      {"truncated-lone-continuation", "\x80", 1},
      {"truncated-two-continuations", "\xFF\xFF", 1},
      {"truncated-four-continuations", "\xFF\xFF\xFF\xFF", 1},
      {"truncated-mid-stream", std::string("\x05\xAC\x02\x80", 4), 3},
      {"overlong-zero", std::string("\x80\x00", 2), 1},
      {"overlong-value", std::string("\xFF\x80\x00", 3), 1},
      {"overlong-deep", std::string("\x80\x80\x80\x80\x00", 5), 1},
      {"overlong-after-valid-run",
       std::string("\x01\x02\x03\x04\x05\x06\x07\x80\x00", 9), 8},
      {"overflow-five-byte", std::string("\xFF\xFF\xFF\xFF\x1F", 5), 1},
      {"overflow-big-final", std::string("\xFF\xFF\xFF\xFF\x7F", 5), 1},
      {"six-byte-code", std::string("\xFF\xFF\xFF\xFF\xFF\x0F", 6), 1},
      {"max-width-ok", std::string("\xFF\xFF\xFF\xFF\x0F", 5), 1},
      {"max-width-run",
       std::string("\xFF\xFF\xFF\xFF\x0F\xFF\xFF\xFF\xFF\x0F", 10), 2},
      {"empty-nonzero-n", std::string(), 1},
  };
  for (const Case& c : cases) {
    ExpectAllPathsAgree32(c.bytes, c.n, std::string("case=") + c.name);
  }
}

TEST(SimdVarintTest, AdversarialStreams64) {
  const std::string nine_ff(9, '\xFF');
  struct Case {
    const char* name;
    std::string bytes;
    size_t n;
  };
  const std::vector<Case> cases = {
      {"truncated-lone-continuation", "\x80", 1},
      {"truncated-nine-continuations", nine_ff, 1},
      {"overlong-zero", std::string("\x80\x00", 2), 1},
      {"overlong-deep", std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00",
                                    10), 1},
      {"overflow-tenth-byte", nine_ff + std::string("\x02", 1), 1},
      {"eleven-byte-code", nine_ff + std::string("\xFF\x01", 2), 1},
      {"max-width-ok", nine_ff + std::string("\x01", 1), 1},
      {"max-width-run", nine_ff + "\x01" + nine_ff + "\x01", 2},
      {"truncated-mid-stream", std::string("\x05\xAC\x02\x80", 4), 3},
  };
  for (const Case& c : cases) {
    ExpectAllPathsAgree64(c.bytes, c.n, std::string("case=") + c.name);
  }
}

// Multi-byte codes placed to straddle every 8/16/32-byte window offset a
// SIMD kernel could load at: `lead` single-byte values, then a code of each
// encoded width, then a single-byte tail.
TEST(SimdVarintTest, LaneBoundaryStraddles32) {
  const uint32_t widths[] = {0x45u, 0x1234u, 0x123456u, 0x12345678u,
                             0xFFFFFFFFu};
  for (size_t lead = 0; lead <= 40; ++lead) {
    for (uint32_t wide : widths) {
      std::string bytes;
      size_t n = 0;
      for (size_t k = 0; k < lead; ++k, ++n) {
        PutVarint32(&bytes, static_cast<uint32_t>(k & 0x7F));
      }
      PutVarint32(&bytes, wide);
      ++n;
      for (size_t k = 0; k < 3; ++k, ++n) PutVarint32(&bytes, 7);
      ExpectAllPathsAgree32(
          bytes, n,
          "lead=" + std::to_string(lead) + " wide=" + std::to_string(wide));
    }
  }
}

TEST(SimdVarintTest, LaneBoundaryStraddles64) {
  const uint64_t widths[] = {0x45ull, 0x1234ull, 0x12345678ull,
                             0x123456789ABCDEFull, ~0ull};
  for (size_t lead = 0; lead <= 24; ++lead) {
    for (uint64_t wide : widths) {
      std::string bytes;
      size_t n = 0;
      for (size_t k = 0; k < lead; ++k, ++n) {
        PutVarint64(&bytes, static_cast<uint64_t>(k & 0x7F));
      }
      PutVarint64(&bytes, wide);
      ++n;
      for (size_t k = 0; k < 3; ++k, ++n) PutVarint64(&bytes, 9);
      ExpectAllPathsAgree64(
          bytes, n,
          "lead=" + std::to_string(lead) + " wide=" + std::to_string(wide));
    }
  }
}

// Long all-single-byte streams exercise the 16/32-value fast paths across
// every length remainder.
TEST(SimdVarintTest, AllSingleByteLengthSweep) {
  for (size_t n = 0; n <= 100; ++n) {
    std::string bytes;
    for (size_t k = 0; k < n; ++k) {
      PutVarint32(&bytes, static_cast<uint32_t>((k * 37) & 0x7F));
    }
    ExpectAllPathsAgree32(bytes, n, "single32 n=" + std::to_string(n));
    ExpectAllPathsAgree64(bytes, n, "single64 n=" + std::to_string(n));
  }
}

TEST(SimdVarintTest, DifferentialFuzzVarint32) {
  Xoshiro256 rng(kFuzzSeed);
  for (int iter = 0; iter < 300; ++iter) {
    const std::string trace =
        "seed=" + std::to_string(kFuzzSeed) + " iter=" + std::to_string(iter);
    const size_t n = rng.NextBounded(120);
    std::string bytes;
    for (size_t k = 0; k < n; ++k) PutVarint32(&bytes, RandomWidthValue32(rng));

    ExpectAllPathsAgree32(bytes, n, trace + " valid");

    if (!bytes.empty()) {
      // Truncate at a random point: strictly fewer decodable values.
      std::string trunc = bytes.substr(0, rng.NextBounded(bytes.size()));
      ExpectAllPathsAgree32(trunc, n, trace + " truncated");
      // Flip one random byte: may stay valid (both must agree either way).
      std::string flipped = bytes;
      flipped[rng.NextBounded(flipped.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
      ExpectAllPathsAgree32(flipped, n, trace + " bitflip");
      // Force a continuation run off the end.
      std::string runaway = bytes;
      runaway.back() |= '\x80';
      ExpectAllPathsAgree32(runaway, n, trace + " runaway");
    }
  }
}

TEST(SimdVarintTest, DifferentialFuzzVarint64) {
  Xoshiro256 rng(kFuzzSeed ^ 0x64646464ull);
  for (int iter = 0; iter < 300; ++iter) {
    const std::string trace = "seed=" + std::to_string(kFuzzSeed ^ 0x64646464ull) +
                              " iter=" + std::to_string(iter);
    const size_t n = rng.NextBounded(80);
    std::string bytes;
    for (size_t k = 0; k < n; ++k) PutVarint64(&bytes, RandomWidthValue64(rng));

    ExpectAllPathsAgree64(bytes, n, trace + " valid");

    if (!bytes.empty()) {
      std::string trunc = bytes.substr(0, rng.NextBounded(bytes.size()));
      ExpectAllPathsAgree64(trunc, n, trace + " truncated");
      std::string flipped = bytes;
      flipped[rng.NextBounded(flipped.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
      ExpectAllPathsAgree64(flipped, n, trace + " bitflip");
      std::string runaway = bytes;
      runaway.back() |= '\x80';
      ExpectAllPathsAgree64(runaway, n, trace + " runaway");
    }
  }
}

// Round-trip property: Encode -> BulkDecode -> re-Encode is byte-identical
// and value-identical under every path, for several value distributions.
TEST(SimdVarintTest, RoundTripProperty) {
  Xoshiro256 rng(kFuzzSeed ^ 0x0707ull);
  const int kDistributions = 4;
  for (int dist = 0; dist < kDistributions; ++dist) {
    for (int iter = 0; iter < 40; ++iter) {
      const std::string trace = "dist=" + std::to_string(dist) +
                                " iter=" + std::to_string(iter) +
                                " seed=" + std::to_string(kFuzzSeed ^ 0x0707ull);
      const size_t n = 1 + rng.NextBounded(200);
      std::vector<uint32_t> vals32(n);
      std::vector<uint64_t> vals64(n);
      for (size_t k = 0; k < n; ++k) {
        switch (dist) {
          case 0:  // uniform over widths
            vals32[k] = RandomWidthValue32(rng);
            vals64[k] = RandomWidthValue64(rng);
            break;
          case 1:  // zipf-ish: mostly tiny, occasionally huge
            vals32[k] = static_cast<uint32_t>(
                rng.Next() >> (33 + rng.NextBounded(31)) << rng.NextBounded(4));
            vals64[k] = rng.Next() >> rng.NextBounded(64);
            break;
          case 2:  // all zero (shortest codes, overlong bait)
            vals32[k] = 0;
            vals64[k] = 0;
            break;
          default:  // all max (widest codes)
            vals32[k] = 0xFFFFFFFFu;
            vals64[k] = ~0ull;
            break;
        }
      }
      std::string enc32, enc64;
      for (size_t k = 0; k < n; ++k) {
        PutVarint32(&enc32, vals32[k]);
        PutVarint64(&enc64, vals64[k]);
      }
      for (DecodePath path : SupportedPaths()) {
        SCOPED_TRACE(trace + " path=" + DecodePathName(path));
        std::vector<uint32_t> dec32(n);
        std::vector<uint64_t> dec64(n);
        const char* end32 = BulkGetVarint32(
            enc32.data(), enc32.data() + enc32.size(), dec32.data(), n, path);
        const char* end64 = BulkGetVarint64(
            enc64.data(), enc64.data() + enc64.size(), dec64.data(), n, path);
        ASSERT_EQ(end32, enc32.data() + enc32.size());
        ASSERT_EQ(end64, enc64.data() + enc64.size());
        EXPECT_EQ(dec32, vals32);
        EXPECT_EQ(dec64, vals64);
        std::string re32, re64;
        for (size_t k = 0; k < n; ++k) {
          PutVarint32(&re32, dec32[k]);
          PutVarint64(&re64, dec64[k]);
        }
        EXPECT_EQ(re32, enc32) << "re-encode not byte-identical";
        EXPECT_EQ(re64, enc64) << "re-encode not byte-identical";
      }
    }
  }
}

TEST(SimdVarintTest, Varint64SizeMatchesEncoding) {
  Xoshiro256 rng(kFuzzSeed ^ 0xBEEFull);
  std::vector<uint64_t> probes = {0, 1, 127, 128, 16383, 16384, ~0ull};
  for (int i = 0; i < 200; ++i) probes.push_back(RandomWidthValue64(rng));
  for (uint64_t v : probes) {
    std::string enc;
    PutVarint64(&enc, v);
    EXPECT_EQ(Varint64Size(v), enc.size()) << "value " << v;
  }
  std::vector<uint32_t> probes32 = {0, 1, 127, 128, 0xFFFFFFFFu};
  for (uint32_t v : probes32) {
    std::string enc;
    PutVarint32(&enc, v);
    EXPECT_EQ(Varint32Size(v), enc.size()) << "value " << v;
  }
}

// DeltaPrefixSumU32: all paths produce identical outputs AND identical exact
// 64-bit totals — including wrap-around cases where the total exceeds
// UINT32_MAX and the caller is about to reject.
TEST(SimdVarintTest, DeltaPrefixSumDifferential) {
  Xoshiro256 rng(kFuzzSeed ^ 0xD17Aull);
  const std::vector<size_t> sizes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100};
  for (uint32_t bias = 0; bias <= 1; ++bias) {
    for (size_t n : sizes) {
      for (int flavor = 0; flavor < 3; ++flavor) {
        std::vector<uint32_t> deltas(n);
        for (size_t k = 0; k < n; ++k) {
          switch (flavor) {
            case 0:  // small: realistic in-range streams
              deltas[k] = static_cast<uint32_t>(rng.NextBounded(1000));
              break;
            case 1:  // huge: guaranteed overflow for n >= 2
              deltas[k] = 0xFFFFFFFFu - static_cast<uint32_t>(rng.NextBounded(3));
              break;
            default:  // mixed widths
              deltas[k] = RandomWidthValue32(rng);
              break;
          }
        }
        std::vector<uint32_t> want(n, 0);
        const uint64_t want_total = DeltaPrefixSumU32(
            deltas.data(), n, bias, want.data(), DecodePath::kScalar);

        // The scalar result must match the definition exactly.
        uint64_t exact = 0;
        uint32_t running = 0;
        for (size_t k = 0; k < n; ++k) {
          running = k == 0 ? deltas[0] : running + deltas[k] + bias;
          exact += deltas[k];
          if (k > 0) exact += bias;
          ASSERT_EQ(want[k], running) << "k=" << k;
        }
        ASSERT_EQ(want_total, exact);

        for (DecodePath path : SupportedPaths()) {
          SCOPED_TRACE(std::string("path=") + DecodePathName(path) +
                       " bias=" + std::to_string(bias) +
                       " n=" + std::to_string(n) +
                       " flavor=" + std::to_string(flavor));
          std::vector<uint32_t> got(n, 0x5A5A5A5A);
          const uint64_t got_total =
              DeltaPrefixSumU32(deltas.data(), n, bias, got.data(), path);
          EXPECT_EQ(got_total, want_total);
          EXPECT_EQ(got, want);
        }
      }
    }
  }
}

}  // namespace
}  // namespace nxgraph
