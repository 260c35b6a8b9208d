// NXgraph public API: single include for library users.
//
// Typical usage:
//
//   #include "src/core/nxgraph.h"
//
//   auto edges = nxgraph::GenerateRmat({.scale = 18, .edge_factor = 16});
//   auto store = nxgraph::BuildGraphStore(edges, "/tmp/g").value();
//   auto pr = nxgraph::RunPageRank(store, {}, {}).value();
//
// See README.md for a walkthrough and DESIGN.md for architecture.
#ifndef NXGRAPH_CORE_NXGRAPH_H_
#define NXGRAPH_CORE_NXGRAPH_H_

#include <memory>
#include <string>

#include "src/algos/bfs.h"
#include "src/algos/hits.h"
#include "src/algos/pagerank.h"
#include "src/algos/scc.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/engine/engine.h"
#include "src/engine/io_model.h"
#include "src/engine/options.h"
#include "src/graph/datasets.h"
#include "src/graph/edge_list.h"
#include "src/graph/generators.h"
#include "src/graph/text_loader.h"
#include "src/io/env.h"
#include "src/storage/graph_store.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace nxgraph {

/// \brief Preprocessing configuration for BuildGraphStore.
struct BuildOptions {
  /// Number of intervals P (paper Fig. 7: 12-48 all work well).
  uint32_t num_intervals = 16;
  /// Build the transposed sub-shards as well (needed by WCC / SCC).
  bool build_transpose = true;
  /// Drop duplicate (src, dst) pairs during sharding.
  bool dedup = false;
  /// Sub-shard blob encoding (see docs/storage-format.md): NXS2
  /// delta-varint by default, NXS1 for the raw fixed-width layout. Stores
  /// of either format open identically.
  SubShardFormat subshard_format = SubShardFormat::kNxs2;
  /// Per-blob source-summary sizing for selective scheduling (manifest v3,
  /// see docs/storage-format.md). Summaries by default; {0, 0} writes a
  /// summary-free store (still manifest v3).
  SummaryParams summary;
  /// Filesystem to build into; nullptr == Env::Default().
  Env* env = nullptr;
};

/// Runs the full preprocessing pipeline (degreeing + sharding) on an edge
/// list and opens the resulting store.
Result<std::shared_ptr<GraphStore>> BuildGraphStore(
    const EdgeList& edges, const std::string& dir,
    const BuildOptions& options = {});

/// Same, reading a text edge list ("src dst [weight]" lines) from
/// `edge_path`.
Result<std::shared_ptr<GraphStore>> BuildGraphStoreFromTextFile(
    const std::string& edge_path, const std::string& dir,
    const BuildOptions& options = {});

/// Opens a previously built store.
Result<std::shared_ptr<GraphStore>> OpenGraphStore(const std::string& dir,
                                                   Env* env = nullptr);

}  // namespace nxgraph

#endif  // NXGRAPH_CORE_NXGRAPH_H_
