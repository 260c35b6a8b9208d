// The vertex-program abstraction implemented by graph algorithms and
// executed by the SPU/DPU/MPU engines (paper §II-B update scheme).
#ifndef NXGRAPH_ENGINE_VERTEX_PROGRAM_H_
#define NXGRAPH_ENGINE_VERTEX_PROGRAM_H_

#include <concepts>
#include <type_traits>
#include <vector>

#include "src/graph/types.h"

namespace nxgraph {

/// \brief Per-edge context handed to Program::Gather.
struct EdgeContext {
  VertexId src;
  VertexId dst;
  float weight;             ///< 1.0 for unweighted graphs
  uint32_t src_out_degree;  ///< out-degree of the source vertex
};

/// The value destination group g of a sub-shard contributes: Identity
/// accumulated with the Gather of each of the group's edges, in edge
/// order, where source s has value src_vals[s - src_base] and degree
/// degrees[s]. Every path folds a group with this loop, so a group's value
/// — and every floating-point result built from it — does not depend on
/// the path.
template <typename Program, typename Shard>
typename Program::Value GatherGroup(const Program& program, const Shard& ss,
                                    uint32_t g,
                                    const typename Program::Value* src_vals,
                                    VertexId src_base,
                                    const std::vector<uint32_t>& degrees) {
  const bool weighted = !ss.weights.empty();
  const VertexId dst = ss.dsts[g];
  typename Program::Value a = Program::Identity();
  for (uint32_t k = ss.offsets[g]; k < ss.offsets[g + 1]; ++k) {
    const VertexId src = ss.srcs[k];
    const EdgeContext edge{src, dst, weighted ? ss.weights[k] : 1.0f,
                           degrees[src]};
    a = Program::Accumulate(a, program.Gather(edge, src_vals[src - src_base]));
  }
  return a;
}

/// A graph algorithm is a copyable value type modelling this concept:
///
///   using Value = <trivially copyable attribute type>;
///
///   Value Init(VertexId v, uint32_t out_degree) const;
///     Initial attribute (paper: the Initialize(I) input step).
///
///   static Value Identity();
///     Neutral element of Accumulate: Accumulate(Identity(), x) == x.
///
///   Value Gather(const EdgeContext& e, const Value& src_value) const;
///     Contribution propagated from source to destination along one edge.
///
///   static Value Accumulate(const Value& a, const Value& b);
///     Associative, commutative combine of contributions. Must be valid to
///     pre-accumulate partial sums (this is exactly what hubs store).
///
///   Value Apply(VertexId v, const Value& acc, const Value& old_value) const;
///     New attribute from the accumulated contributions and the previous
///     iteration's attribute (synchronous / Jacobi consistency).
///
///   bool Changed(const Value& old_value, const Value& new_value) const;
///     Whether this vertex "was updated" — drives interval activity and
///     termination (paper: intervals with no updated vertex go inactive).
///
///   bool InitiallyActive(VertexId v) const;
///     Whether this vertex activates its interval before iteration 0
///     (paper: BFS starts with only the root's interval active).
///
///   static constexpr bool kMonotoneSkippable;
///     True when Apply(v, Identity(), old) == old and contributions from
///     unchanged sources can never change the destination (min/max-style
///     propagation: BFS, WCC, SCC, SSSP). Enables skipping sub-shards whose
///     source interval is inactive. PageRank-style programs must set false:
///     every iteration needs all contributions.
template <typename P>
concept VertexProgram = requires(const P p, VertexId v, uint32_t deg,
                                 const typename P::Value& value,
                                 const EdgeContext& edge) {
  requires std::is_trivially_copyable_v<typename P::Value>;
  { p.Init(v, deg) } -> std::same_as<typename P::Value>;
  { P::Identity() } -> std::same_as<typename P::Value>;
  { p.Gather(edge, value) } -> std::same_as<typename P::Value>;
  { P::Accumulate(value, value) } -> std::same_as<typename P::Value>;
  { p.Apply(v, value, value) } -> std::same_as<typename P::Value>;
  { p.Changed(value, value) } -> std::same_as<bool>;
  { p.InitiallyActive(v) } -> std::same_as<bool>;
  { P::kMonotoneSkippable } -> std::convertible_to<bool>;
};

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_VERTEX_PROGRAM_H_
