// Shared helpers for the NXgraph test suite.
#ifndef NXGRAPH_TESTS_TEST_UTIL_H_
#define NXGRAPH_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include "src/core/nxgraph.h"
#include "src/util/random.h"

namespace nxgraph {
namespace testing {

/// Deterministic random multigraph in a (possibly sparse) index space.
inline EdgeList RandomGraph(uint64_t num_vertices, uint64_t num_edges,
                            uint64_t seed, bool weighted = false,
                            uint64_t index_stride = 1) {
  Xoshiro256 rng(seed);
  EdgeList edges;
  for (uint64_t e = 0; e < num_edges; ++e) {
    const VertexIndex src = rng.NextBounded(num_vertices) * index_stride;
    const VertexIndex dst = rng.NextBounded(num_vertices) * index_stride;
    if (weighted) {
      edges.AddWeighted(src, dst,
                        static_cast<float>(rng.NextDouble()) + 0.01f);
    } else {
      edges.Add(src, dst);
    }
  }
  return edges;
}

/// Builds a store for `edges` in a fresh MemEnv; returns {env, store}.
struct MemStore {
  std::unique_ptr<Env> env;
  std::shared_ptr<GraphStore> store;
};

/// `summary` defaults to BuildOptions' (summaries unless NXGRAPH_SELECTIVE
/// turns them off).
inline MemStore BuildMemStore(const EdgeList& edges, uint32_t num_intervals,
                              bool transpose = true,
                              SubShardFormat format = DefaultSubShardFormat(),
                              SummaryParams summary = BuildOptions{}.summary) {
  MemStore ms;
  ms.env = NewMemEnv();
  BuildOptions options;
  options.num_intervals = num_intervals;
  options.build_transpose = transpose;
  options.subshard_format = format;
  options.summary = summary;
  options.env = ms.env.get();
  auto store = BuildGraphStore(edges, "g", options);
  NX_CHECK(store.ok()) << store.status().ToString();
  ms.store = *store;
  return ms;
}

}  // namespace testing
}  // namespace nxgraph

#endif  // NXGRAPH_TESTS_TEST_UTIL_H_
