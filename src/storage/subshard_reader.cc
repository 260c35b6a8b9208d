// SubShard blob encode/decode: the raw fixed-width NXS1 format and the
// delta-varint NXS2 format. Byte layouts are specified in
// docs/storage-format.md; both decode to the exact same in-memory SubShard.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "src/storage/subshard.h"
#include "src/util/crc32c.h"
#include "src/util/serialize.h"
#include "src/util/simd_varint.h"
#include "src/util/varint.h"

namespace nxgraph {

namespace {
constexpr uint32_t kSubShardMagicV1 = 0x3153584Eu;  // "NXS1"
constexpr uint32_t kSubShardMagicV2 = 0x3253584Eu;  // "NXS2"
constexpr uint32_t kFlagWeighted = 1u << 0;

// ---- NXS1: raw fixed-width arrays -----------------------------------------

std::string EncodeNxs1(const SubShard& ss) {
  std::string out;
  EncodeFixed<uint32_t>(&out, kSubShardMagicV1);
  EncodeFixed<uint32_t>(&out, ss.weights.empty() ? 0 : kFlagWeighted);
  EncodeFixed<uint32_t>(&out, static_cast<uint32_t>(ss.dsts.size()));
  EncodeFixed<uint64_t>(&out, ss.srcs.size());
  auto append_array = [&out](const void* data, size_t bytes) {
    out.append(static_cast<const char*>(data), bytes);
  };
  append_array(ss.dsts.data(), ss.dsts.size() * sizeof(VertexId));
  // Offsets are stored as per-destination counts; prefix sums are
  // reconstructed on load. Counts compress better and cannot be internally
  // inconsistent.
  for (size_t k = 0; k < ss.dsts.size(); ++k) {
    EncodeFixed<uint32_t>(&out, ss.offsets[k + 1] - ss.offsets[k]);
  }
  append_array(ss.srcs.data(), ss.srcs.size() * sizeof(VertexId));
  if (!ss.weights.empty()) {
    append_array(ss.weights.data(), ss.weights.size() * sizeof(float));
  }
  return out;
}

Result<SubShard> DecodeNxs1(const char* data, size_t size) {
  if (size < 20) return Status::Corruption("sub-shard blob too short");
  SliceReader r(data, size);
  uint32_t magic = 0, flags = 0, num_dsts = 0;
  uint64_t num_edges = 0;
  r.Read(&magic);
  r.Read(&flags);
  r.Read(&num_dsts);
  r.Read(&num_edges);
  // Every destination costs 8 body bytes (dsts + counts) and every edge at
  // least 4 (srcs), so counts beyond those bounds are corrupt — checked
  // before any resize so a corrupt header (reachable with verify_checksum
  // off) fails as Corruption instead of attempting a huge allocation.
  if (num_dsts > r.remaining() / 8 || num_edges > r.remaining() / 4) {
    return Status::Corruption("sub-shard header counts exceed blob size");
  }
  SubShard ss;
  ss.dsts.resize(num_dsts);
  if (!r.ReadBytes(ss.dsts.data(), num_dsts * sizeof(VertexId))) {
    return Status::Corruption("sub-shard dsts truncated");
  }
  ss.offsets.resize(num_dsts + 1);
  ss.offsets[0] = 0;
  for (uint32_t k = 0; k < num_dsts; ++k) {
    uint32_t count = 0;
    if (!r.Read(&count)) return Status::Corruption("sub-shard counts truncated");
    ss.offsets[k + 1] = ss.offsets[k] + count;
  }
  if (ss.offsets[num_dsts] != num_edges) {
    return Status::Corruption("sub-shard count/edge mismatch");
  }
  ss.srcs.resize(num_edges);
  if (!r.ReadBytes(ss.srcs.data(), num_edges * sizeof(VertexId))) {
    return Status::Corruption("sub-shard srcs truncated");
  }
  if (flags & kFlagWeighted) {
    ss.weights.resize(num_edges);
    if (!r.ReadBytes(ss.weights.data(), num_edges * sizeof(float))) {
      return Status::Corruption("sub-shard weights truncated");
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("sub-shard trailing bytes");
  }
  return ss;
}

// ---- NXS2: delta-varint streams -------------------------------------------
//
// The SubShard invariants make the arrays near-ideal varint material:
// `dsts` is strictly ascending (delta - 1 per entry), per-destination
// counts are small, and `srcs` is ascending within each destination group
// (group-leading absolute value, then deltas). Weights stay raw floats —
// they do not compress. Streams are kept separate (all dst deltas, then
// all counts, then all src values) so each decode stage is one bulk varint
// scan into scratch followed by a tight reconstruction loop.

std::string EncodeNxs2(const SubShard& ss) {
  std::string out;
  const uint32_t num_dsts = static_cast<uint32_t>(ss.dsts.size());
  // Exact sizing pass: Varint32Size/Varint64Size are a few cycles per value
  // and encode runs at build time, so one extra scan buys a single
  // allocation instead of a worst-case-guess reserve that either wastes
  // memory or reallocates mid-append.
  size_t need = 8 + Varint32Size(num_dsts) + Varint64Size(ss.srcs.size());
  for (uint32_t k = 0; k < num_dsts; ++k) {
    need += Varint32Size(k == 0 ? ss.dsts[0]
                                : ss.dsts[k] - ss.dsts[k - 1] - 1);
    need += Varint32Size(ss.offsets[k + 1] - ss.offsets[k]);
  }
  for (uint32_t g = 0; g < num_dsts; ++g) {
    for (uint32_t k = ss.offsets[g]; k < ss.offsets[g + 1]; ++k) {
      need += Varint32Size(k == ss.offsets[g] ? ss.srcs[k]
                                              : ss.srcs[k] - ss.srcs[k - 1]);
    }
  }
  need += ss.weights.size() * sizeof(float);
  out.reserve(need);
  EncodeFixed<uint32_t>(&out, kSubShardMagicV2);
  EncodeFixed<uint32_t>(&out, ss.weights.empty() ? 0 : kFlagWeighted);
  PutVarint32(&out, num_dsts);
  PutVarint64(&out, ss.srcs.size());
  for (uint32_t k = 0; k < num_dsts; ++k) {
    PutVarint32(&out, k == 0 ? ss.dsts[0] : ss.dsts[k] - ss.dsts[k - 1] - 1);
  }
  for (uint32_t k = 0; k < num_dsts; ++k) {
    PutVarint32(&out, ss.offsets[k + 1] - ss.offsets[k]);
  }
  for (uint32_t g = 0; g < num_dsts; ++g) {
    for (uint32_t k = ss.offsets[g]; k < ss.offsets[g + 1]; ++k) {
      PutVarint32(&out,
                  k == ss.offsets[g] ? ss.srcs[k] : ss.srcs[k] - ss.srcs[k - 1]);
    }
  }
  if (!ss.weights.empty()) {
    out.append(reinterpret_cast<const char*>(ss.weights.data()),
               ss.weights.size() * sizeof(float));
  }
  assert(out.size() == need);  // the sizing pass is exact: no reallocation
  return out;
}

Result<SubShard> DecodeNxs2(const char* data, size_t size,
                            SubShardDecodeScratch* scratch, DecodePath path,
                            DecodeTallies* tallies) {
  const char* p = data + 8;  // past magic + flags
  const char* limit = data + size;
  const uint32_t flags = DecodeFixed<uint32_t>(data + 4);
  uint32_t num_dsts = 0;
  uint64_t num_edges = 0;
  if ((p = GetVarint32(p, limit, &num_dsts)) == nullptr ||
      (p = GetVarint64(p, limit, &num_edges)) == nullptr) {
    return Status::Corruption("sub-shard header varint malformed");
  }
  // Every destination and edge costs at least one stream byte, so counts
  // beyond the body size are corrupt — checked before any resize so a
  // corrupt header (reachable with verify_checksum off) cannot trigger a
  // huge allocation.
  const size_t body = static_cast<size_t>(limit - p);
  if (num_dsts > body || num_edges > body) {
    return Status::Corruption("sub-shard header counts exceed blob size");
  }

  SubShardDecodeScratch local;
  if (scratch == nullptr) scratch = &local;
  // One resize sized from the header's value counts covers all three
  // stream scans; nothing below may grow the staging buffer.
  scratch->u32.resize(std::max<size_t>(num_dsts, num_edges));
  uint32_t* stage = scratch->u32.data();
  DecodeTallies unused;
  if (tallies == nullptr) tallies = &unused;

  SubShard ss;
  ss.dsts.resize(num_dsts);
  ss.offsets.resize(num_dsts + 1);
  ss.srcs.resize(num_edges);

  // dsts: leading absolute value, then (delta - 1) per entry — strict
  // ascent is guaranteed by construction, so reconstruction needs no
  // per-element comparison; only the final accumulator can overflow 32
  // bits, and monotonicity makes the single end check on the exact 64-bit
  // sum returned by DeltaPrefixSumU32 sufficient.
  if ((p = BulkGetVarint32(p, limit, stage, num_dsts, path)) == nullptr) {
    return Status::Corruption("sub-shard dsts truncated");
  }
  ++tallies->bulk_decode_calls;
  if (DeltaPrefixSumU32(stage, num_dsts, 1, ss.dsts.data(), path) >
      UINT32_MAX) {
    return Status::Corruption("sub-shard dsts overflow");
  }

  // Per-destination counts -> offsets prefix sums.
  if ((p = BulkGetVarint32(p, limit, stage, num_dsts, path)) == nullptr) {
    return Status::Corruption("sub-shard counts truncated");
  }
  ++tallies->bulk_decode_calls;
  ss.offsets[0] = 0;
  if (DeltaPrefixSumU32(stage, num_dsts, 0, ss.offsets.data() + 1, path) !=
      num_edges) {
    return Status::Corruption("sub-shard count/edge mismatch");
  }

  // srcs: per group, a leading absolute value followed by deltas (ascending
  // within the group, so deltas are >= 0 and per-group monotone).
  if ((p = BulkGetVarint32(p, limit, stage, num_edges, path)) == nullptr) {
    return Status::Corruption("sub-shard srcs truncated");
  }
  ++tallies->bulk_decode_calls;
  // Destination groups average only a handful of edges, so per-group kernel
  // dispatch would dominate: small groups run a fused inline loop instead,
  // with exactly the arithmetic DeltaPrefixSumU32 specifies (u32 wraparound
  // outputs, exact u64 group total) — outputs and corruption outcomes stay
  // bit-identical across decode paths by construction.
  for (uint32_t g = 0; g < num_dsts; ++g) {
    const uint32_t kb = ss.offsets[g];
    const uint32_t ke = ss.offsets[g + 1];
    if (kb == ke) continue;
    uint64_t group_total;
    if (ke - kb >= 16) {
      group_total = DeltaPrefixSumU32(stage + kb, ke - kb, 0,
                                      ss.srcs.data() + kb, path);
    } else {
      uint32_t acc = stage[kb];
      group_total = acc;
      ss.srcs[kb] = acc;
      for (uint32_t k = kb + 1; k < ke; ++k) {
        acc += stage[k];
        group_total += stage[k];
        ss.srcs[k] = acc;
      }
    }
    if (group_total > UINT32_MAX) {
      return Status::Corruption("sub-shard srcs overflow");
    }
  }
  assert(scratch->u32.data() == stage);  // header-sized; never reallocated

  if (flags & kFlagWeighted) {
    ss.weights.resize(num_edges);
    const size_t weight_bytes = num_edges * sizeof(float);
    if (static_cast<size_t>(limit - p) < weight_bytes) {
      return Status::Corruption("sub-shard weights truncated");
    }
    std::memcpy(ss.weights.data(), p, weight_bytes);
    p += weight_bytes;
  }
  if (p != limit) {
    return Status::Corruption("sub-shard trailing bytes");
  }
  return ss;
}

}  // namespace

std::string SubShard::Encode(SubShardFormat format) const {
  std::string out = format == SubShardFormat::kNxs2 ? EncodeNxs2(*this)
                                                    : EncodeNxs1(*this);
  EncodeFixed<uint32_t>(&out, crc32c::Value(out.data(), out.size()));
  return out;
}

bool SubShard::ChecksumMatches(const char* data, size_t size) {
  return size >= 4 && DecodeFixed<uint32_t>(data + size - 4) ==
                          crc32c::Value(data, size - 4);
}

Result<SubShard> SubShard::Decode(const char* data, size_t size,
                                  uint32_t src_interval,
                                  uint32_t dst_interval,
                                  bool verify_checksum,
                                  SubShardDecodeScratch* scratch,
                                  DecodePath path, DecodeTallies* tallies) {
  const auto start = std::chrono::steady_clock::now();
  // Smallest valid blob: NXS2 magic + flags + two single-byte varints +
  // CRC. The magic is only trusted after the size (and optionally the
  // checksum) admit the blob.
  if (size < 14) return Status::Corruption("sub-shard blob too short");
  if (verify_checksum && !ChecksumMatches(data, size)) {
    return Status::Corruption("sub-shard checksum mismatch");
  }
  const uint32_t magic = DecodeFixed<uint32_t>(data);
  Result<SubShard> decoded =
      magic == kSubShardMagicV1 ? DecodeNxs1(data, size - 4)
      : magic == kSubShardMagicV2
          ? DecodeNxs2(data, size - 4, scratch, path, tallies)
          : Status::Corruption("bad sub-shard magic");
  if (tallies != nullptr) {
    tallies->decode_nanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  if (!decoded.ok()) return decoded;
  decoded->src_interval = src_interval;
  decoded->dst_interval = dst_interval;
  return decoded;
}

uint32_t SubShard::LowerBoundDst(VertexId v) const {
  return static_cast<uint32_t>(
      std::lower_bound(dsts.begin(), dsts.end(), v) - dsts.begin());
}

}  // namespace nxgraph
