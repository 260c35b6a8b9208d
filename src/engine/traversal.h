// Round state shared by Engine::Run and the serving layer's query runner:
// root-seeded initialization, the one round planner with its blob-skip
// rule, and the frontier it consults.
#ifndef NXGRAPH_ENGINE_TRAVERSAL_H_
#define NXGRAPH_ENGINE_TRAVERSAL_H_

#include <cstdint>
#include <vector>

#include "src/engine/vertex_program.h"
#include "src/graph/types.h"
#include "src/prep/manifest.h"

namespace nxgraph {

/// A VertexProgram whose initial state is a constant default everywhere
/// except a small explicit seed set (BFS and SSSP: kInfinity everywhere,
/// 0 at the root). The contract:
///
///   Value DefaultValue() const;
///     Init(v, d) == DefaultValue() for every v not in SeedVertices(),
///     regardless of d.
///
///   std::vector<VertexId> SeedVertices() const;
///     The vertices whose Init differs from the default — exactly the
///     initially active set (InitiallyActive(v) iff v is a seed).
///
/// Seeded initialization lets a point query activate only the intervals
/// containing seeds in O(|seeds|) instead of paying a full O(V) InitValues
/// scan, and lets per-query scratch state materialize intervals lazily
/// (fill with DefaultValue on first touch).
template <typename P>
concept SeededProgram = VertexProgram<P> && requires(const P p) {
  { p.DefaultValue() } -> std::same_as<typename P::Value>;
  { p.SeedVertices() } -> std::same_as<std::vector<VertexId>>;
};

/// Fills `values` with interval i's initial attributes and returns whether
/// any vertex activates the interval. For a SeededProgram this is a bulk
/// default-fill plus O(|seeds|) point writes; otherwise it is the dense
/// per-vertex Init/InitiallyActive scan. `degrees` is indexed by global
/// vertex id (out-degrees, or in-degrees for transpose-only stores).
template <VertexProgram Program>
bool InitIntervalValues(const Program& program, const Manifest& m, uint32_t i,
                        const std::vector<uint32_t>& degrees,
                        std::vector<typename Program::Value>* values) {
  const VertexId begin = m.interval_begin(i);
  const uint32_t size = m.interval_size(i);
  if constexpr (SeededProgram<Program>) {
    values->assign(size, program.DefaultValue());
    bool any_active = false;
    for (VertexId v : program.SeedVertices()) {
      if (v < begin || v >= begin + size) continue;
      (*values)[v - begin] = program.Init(v, degrees[v]);
      any_active = true;
    }
    return any_active;
  } else {
    values->resize(size);
    bool any_active = false;
    for (uint32_t k = 0; k < size; ++k) {
      const VertexId v = begin + k;
      (*values)[k] = program.Init(v, degrees[v]);
      any_active = any_active || program.InitiallyActive(v);
    }
    return any_active;
  }
}

/// Initial per-interval activity bitmap (1 = active before iteration 0)
/// without materializing any values: O(|seeds|) for a SeededProgram,
/// O(V) dense scan otherwise.
template <VertexProgram Program>
std::vector<uint8_t> InitialActivity(const Program& program,
                                     const Manifest& m) {
  std::vector<uint8_t> active(m.num_intervals, 0);
  if constexpr (SeededProgram<Program>) {
    for (VertexId v : program.SeedVertices()) {
      active[m.IntervalOf(v)] = 1;
    }
  } else {
    for (uint32_t i = 0; i < m.num_intervals; ++i) {
      const VertexId begin = m.interval_begin(i);
      const VertexId end = begin + m.interval_size(i);
      for (VertexId v = begin; v < end && !active[i]; ++v) {
        if (program.InitiallyActive(v)) active[i] = 1;
      }
    }
  }
  return active;
}

/// \brief The frontier filters of one run, one per interval in that
/// interval's summary layout: the vertices that changed in the last applied
/// round (`current`, what planning consults), and the set this round's
/// apply is collecting (`next`). The filters are conservative — a vertex
/// that changed always passes — so planning against them skips only blobs
/// that contribute Identity to a monotone-skippable program.
class Frontier {
 public:
  /// All-pass over m's layouts: the state of a dense-init program before
  /// its first apply, and of a resumed run (a checkpoint keeps per-interval
  /// activity, not per-vertex changes).
  void ResetToAll(const Manifest& m) {
    current_.assign(m.num_intervals, {});
    next_.assign(m.num_intervals, {});
    for (uint32_t i = 0; i < m.num_intervals; ++i) {
      current_[i].layout = next_[i].layout = m.summary_layout(i);
      current_[i].ResetToAll();
      next_[i].ResetToEmpty();
    }
  }

  /// Narrows a reset frontier to exactly `seeds`: a SeededProgram's
  /// starting frontier (only the seeds differ from the default value), so
  /// round 1 already skips every blob the seeds cannot contribute to.
  void Seed(const Manifest& m, const std::vector<VertexId>& seeds) {
    for (FrontierFilter& f : current_) f.ResetToEmpty();
    for (VertexId v : seeds) current_[m.IntervalOf(v)].Add(v);
  }

  /// Starts collecting a round's changes. The frontier planning consults
  /// stays as it is until Advance, so a failed round can be re-planned.
  void BeginRound() {
    for (FrontierFilter& f : next_) f.ResetToEmpty();
  }

  /// Records that v, in interval i, changed this round. AddAtomic is for
  /// apply loops that insert into one interval concurrently.
  void Add(uint32_t i, VertexId v) { next_[i].Add(v); }
  void AddAtomic(uint32_t i, VertexId v) { next_[i].AddAtomic(v); }

  /// This round's changes become the frontier the next round plans against.
  void Advance() { current_.swap(next_); }

  bool MayIntersect(uint32_t i, const std::vector<uint64_t>& summary) const {
    return current_[i].MayIntersect(summary);
  }

 private:
  std::vector<FrontierFilter> current_;
  std::vector<FrontierFilter> next_;
};

/// What planning does with one blob this round.
enum class BlobPlan : uint8_t {
  kEmpty,  ///< no edges: never read, never counted
  kSkip,   ///< its source summary misses the frontier
  kRead,
};

/// The one blob-skip rule, applied by PlanRound. An empty blob is never
/// read. With a frontier (selective scheduling on), a nonempty blob whose
/// source summary cannot intersect interval i's frontier is skipped; a null
/// frontier plans summary-blind.
inline BlobPlan PlanBlob(const Manifest& m, uint32_t i, uint32_t j,
                         bool transpose, const Frontier* frontier) {
  const SubShardMeta& meta = m.subshard(i, j, transpose);
  if (meta.num_edges == 0) return BlobPlan::kEmpty;
  if (frontier != nullptr && !frontier->MayIntersect(i, meta.summary)) {
    return BlobPlan::kSkip;
  }
  return BlobPlan::kRead;
}

/// One planned sub-shard visit of a propagation round.
struct Visit {
  bool transpose;
  uint32_t i;
  uint32_t j;
};

/// The one round planner, behind Engine::RunIteration and the server's
/// RunRounds. Plans one round's visits in the fixed deterministic order
/// (direction, then i ascending, then j ascending), charging each non-empty
/// sub-shard's encoded size against the byte budget (0 = unlimited).
/// Charging is independent of cache residency, so the plan — including the
/// truncation point — depends only on the query. Returns false (and stops
/// planning) once the budget cannot fund the next sub-shard; in particular
/// a first sub-shard larger than the whole budget deterministically yields
/// an empty plan (a point query then returns its root-only partial result).
///
/// Rows iterate the manifest's per-row nonempty-column index instead of
/// rescanning all P² slots; with `skip_inactive`, rows whose `active` entry
/// is 0 plan nothing. When `frontier` is non-null (selective scheduling), a
/// blob whose source summary cannot intersect the frontier is dropped
/// BEFORE the budget check — skipped blobs are neither charged nor visited,
/// and an unreachable oversized blob cannot truncate the query. Each skip
/// increments *skipped. The skip rule is PlanBlob's.
inline bool PlanRound(const Manifest& m, const std::vector<uint8_t>& active,
                      bool skip_inactive, bool use_forward, bool use_transpose,
                      const Frontier* frontier, uint64_t budget,
                      uint64_t* charged, uint64_t* skipped,
                      std::vector<Visit>* visits) {
  visits->clear();
  for (int dir = 0; dir < 2; ++dir) {
    const bool transpose = dir == 1;
    if (transpose ? !use_transpose : !use_forward) continue;
    for (uint32_t i = 0; i < m.num_intervals; ++i) {
      if (skip_inactive && !active[i]) continue;
      // Plans the blob at (i, j); returns false when the budget ran out.
      auto plan_one = [&](uint32_t j) {
        const BlobPlan plan = PlanBlob(m, i, j, transpose, frontier);
        if (plan == BlobPlan::kSkip) ++*skipped;
        if (plan != BlobPlan::kRead) return true;
        const uint64_t size = m.subshard(i, j, transpose).size;
        if (budget > 0 && *charged + size > budget) return false;
        *charged += size;
        visits->push_back({transpose, i, j});
        return true;
      };
      const std::vector<uint32_t>* cols = m.NonEmptyColumns(i, transpose);
      if (cols != nullptr) {
        for (uint32_t j : *cols) {
          if (!plan_one(j)) return false;
        }
      } else {
        for (uint32_t j = 0; j < m.num_intervals; ++j) {
          if (!plan_one(j)) return false;
        }
      }
    }
  }
  return true;
}

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_TRAVERSAL_H_
