// Per-blob source-vertex summaries (manifest v3).
//
// Every sub-shard SS_{i.j} stores a tiny filter over its SOURCE vertices —
// an exact bitmap when interval i is small enough, a 2-probe bloom filter
// above that threshold. The engine and the serving planner keep a frontier
// filter per interval in the SAME layout, so "can this blob contribute this
// iteration?" is a word-wise AND across a few dozen bytes, answered before
// any read is enqueued.
//
// Conservativeness: both sides insert a vertex with the same probe
// positions (identical layout, identical hash), so an active vertex that is
// a source of the blob sets the same bits in both filters and the AND test
// can never miss it. Bloom collisions only ever produce false *positives*
// (a useless read), never a skipped contribution — which is why consulting
// summaries is bit-identical for monotone-skippable programs.
#ifndef NXGRAPH_PREP_SOURCE_SUMMARY_H_
#define NXGRAPH_PREP_SOURCE_SUMMARY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/types.h"

namespace nxgraph {

/// Filter flavor of one blob summary / frontier filter.
enum class SummaryKind : uint8_t {
  kNone = 0,    ///< no filter — always treated as "may intersect"
  kBitmap = 1,  ///< exact bitmap, bit v - base per source vertex
  kBloom = 2,   ///< fixed-size 2-probe bloom over source ids
};

/// \brief Store-wide summary sizing, persisted in the v3 manifest header so
/// every reader derives the exact same per-interval layout the sharder
/// wrote. Both fields 0 means the store carries no summaries (v1/v2
/// manifests, or summaries disabled at build time).
struct SummaryParams {
  /// Intervals with at most this many vertices get an exact bitmap
  /// (interval_size bits); larger intervals fall back to the bloom filter.
  uint32_t bitmap_max_bits = 4096;
  /// Bloom filter size in bits for intervals above the bitmap threshold.
  uint32_t bloom_bits = 512;

  bool enabled() const { return bitmap_max_bits != 0 || bloom_bits != 0; }
};

/// \brief Shape of the filter shared by every blob whose SOURCE interval is
/// i, and by interval i's frontier filter. Purely derived from
/// SummaryParams + the interval bounds — never persisted per blob.
struct SummaryLayout {
  SummaryKind kind = SummaryKind::kNone;
  VertexId base = 0;   ///< interval_begin(i); bitmap bit 0 is this vertex
  uint32_t bits = 0;   ///< filter width in bits (0 for kNone)

  size_t words() const { return (static_cast<size_t>(bits) + 63) / 64; }
};

inline SummaryLayout MakeSummaryLayout(const SummaryParams& p,
                                       VertexId interval_begin,
                                       uint32_t interval_size) {
  SummaryLayout l;
  l.base = interval_begin;
  if (!p.enabled() || interval_size == 0) return l;
  if (p.bitmap_max_bits != 0 && interval_size <= p.bitmap_max_bits) {
    l.kind = SummaryKind::kBitmap;
    l.bits = interval_size;
  } else if (p.bloom_bits != 0) {
    l.kind = SummaryKind::kBloom;
    l.bits = p.bloom_bits;
  }
  return l;
}

/// splitmix64 finalizer — both bloom probes come from one invocation.
inline uint64_t SummaryMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline void SummarySetBit(uint64_t* words, uint32_t bit) {
  words[bit >> 6] |= 1ull << (bit & 63);
}

/// Thread-safe variant for the engine's apply loops, where a ParallelFor
/// over one interval inserts changed vertices concurrently.
inline void SummarySetBitAtomic(uint64_t* words, uint32_t bit) {
  std::atomic_ref<uint64_t>(words[bit >> 6])
      .fetch_or(1ull << (bit & 63), std::memory_order_relaxed);
}

template <bool kAtomic = false>
inline void SummaryAddVertex(const SummaryLayout& l, VertexId v,
                             uint64_t* words) {
  switch (l.kind) {
    case SummaryKind::kNone:
      return;
    case SummaryKind::kBitmap:
      if constexpr (kAtomic) {
        SummarySetBitAtomic(words, v - l.base);
      } else {
        SummarySetBit(words, v - l.base);
      }
      return;
    case SummaryKind::kBloom: {
      const uint64_t h = SummaryMix(v);
      const uint32_t b1 = static_cast<uint32_t>(h) % l.bits;
      const uint32_t b2 = static_cast<uint32_t>(h >> 32) % l.bits;
      if constexpr (kAtomic) {
        SummarySetBitAtomic(words, b1);
        SummarySetBitAtomic(words, b2);
      } else {
        SummarySetBit(words, b1);
        SummarySetBit(words, b2);
      }
      return;
    }
  }
}

/// Word-wise AND test between a blob summary and a frontier filter of the
/// same layout. Empty filters (kNone / absent summaries) must be handled by
/// the caller as "true" — this helper assumes both sides have `nwords`
/// valid words.
inline bool SummaryMayIntersect(const uint64_t* a, const uint64_t* b,
                                size_t nwords) {
  for (size_t k = 0; k < nwords; ++k) {
    if ((a[k] & b[k]) != 0) return true;
  }
  return false;
}

/// \brief One interval's frontier filter: the set of sources that changed
/// last iteration, in the same layout as that interval's blob summaries.
/// `all` is the conservative pass-everything state (iteration 0, resume,
/// non-seeded InitValues, or summaries absent).
struct FrontierFilter {
  SummaryLayout layout;
  bool all = true;
  std::vector<uint64_t> words;

  void ResetToEmpty() {
    all = false;
    words.assign(layout.words(), 0);
  }
  void ResetToAll() {
    all = true;
    words.assign(layout.words(), 0);
  }
  void Add(VertexId v) { SummaryAddVertex(layout, v, words.data()); }
  void AddAtomic(VertexId v) {
    SummaryAddVertex<true>(layout, v, words.data());
  }

  /// May any vertex in this frontier be a source of a blob carrying
  /// `summary` (same layout)? Conservatively true when either side has no
  /// filter material.
  bool MayIntersect(const std::vector<uint64_t>& summary) const {
    if (all) return true;
    if (layout.kind == SummaryKind::kNone) return true;
    if (summary.size() < layout.words()) return true;  // absent/foreign
    return SummaryMayIntersect(words.data(), summary.data(), layout.words());
  }
};

}  // namespace nxgraph

#endif  // NXGRAPH_PREP_SOURCE_SUMMARY_H_
