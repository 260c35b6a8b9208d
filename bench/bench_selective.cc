// Selective scheduling benchmark: per-blob source summaries (manifest v3)
// vs summary-blind planning on frontier algorithms (BFS / SSSP / WCC).
//
// The graph is a long inter-interval chain buried in random background
// edges: every (i, j) sub-shard is non-empty, but once the wavefront
// passes, each active row holds exactly one vertex that still matters. A
// summary-blind run re-reads the whole row every iteration; the summary
// AND-test drops everything but the one blob the frontier can reach. The
// per-iteration (processed, skipped) trajectory from the selective run is
// the exact planning ledger: processed + skipped is what the blind run
// reads, so the tail-iteration reduction factor needs no counter support
// from the off run. selective_test gates the same figure (>= 10x, with
// bit-identical values) on smaller graphs.
#include "bench/bench_common.h"
#include "src/util/byte_size.h"

namespace nxgraph {
namespace {

// Chain head of each interval linked head-to-head; all other vertices get
// random background out-edges that never target a chain head, so the chain
// stays the only live frontier once the background converges.
EdgeList ChainGraph(uint32_t p, uint32_t interval_size, bool weighted) {
  const uint64_t n = static_cast<uint64_t>(p) * interval_size;
  EdgeList edges;
  auto add = [&](VertexIndex src, VertexIndex dst, float w) {
    if (weighted) {
      edges.AddWeighted(src, dst, w);
    } else {
      edges.Add(src, dst);
    }
  };
  for (uint32_t i = 0; i + 1 < p; ++i) {
    add(i * interval_size, (i + 1) * interval_size, 1.0f + 0.25f * i);
  }
  Xoshiro256 rng(42);
  for (uint64_t v = 0; v < n; ++v) {
    if (v % interval_size == 0) continue;
    for (int e = 0; e < 8; ++e) {
      uint64_t dst = rng.NextBounded(n);
      if (dst % interval_size == 0) ++dst;
      if (dst >= n) dst = 1;
      add(v, dst, 0.5f + 0.1f * e);
    }
  }
  return edges;
}

std::shared_ptr<GraphStore> GetChainStore(uint32_t p, uint32_t interval_size,
                                          bool weighted) {
  const std::string dir = "/tmp/nxgraph_bench/selective_p" +
                          std::to_string(p) + "_s" +
                          std::to_string(interval_size) +
                          (weighted ? "_w" : "");
  if (Env::Default()->FileExists(dir + "/" + kManifestFileName)) {
    auto store = OpenGraphStore(dir);
    if (store.ok() && (*store)->manifest().has_summaries()) return *store;
  }
  BuildOptions options;
  options.num_intervals = p;
  options.build_transpose = true;
  options.summary = SummaryParams{};  // summaries on regardless of env
  auto store = BuildGraphStore(ChainGraph(p, interval_size, weighted), dir,
                               options);
  NX_CHECK(store.ok()) << store.status().ToString();
  return *store;
}

RunOptions StreamOptions(bool selective, EdgeDirection direction) {
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;  // every blob is out-of-core
  opt.direction = direction;
  opt.num_threads = 3;
  opt.selective_scheduling = selective;
  return opt;
}

struct AlgoResult {
  RunStats on;
  RunStats off;
  bool parity = false;
  double tail_reduction = 0;  // (processed + skipped) / processed, tail 25%
};

// Tail window: the last quarter of the iterations that planned any stream
// I/O — where the frontier has collapsed and skipping pays the most.
double TailReduction(const RunStats& on) {
  const auto& proc = on.iteration_subshards_processed;
  const auto& skip = on.iteration_subshards_skipped;
  size_t active = 0;
  for (size_t k = 0; k < proc.size(); ++k) {
    if (proc[k] + skip[k] > 0) active = k + 1;
  }
  if (active == 0) return 0;
  const size_t begin = active - std::max<size_t>(active / 4, 1);
  uint64_t read = 0, planned = 0;
  for (size_t k = begin; k < active; ++k) {
    read += proc[k];
    planned += proc[k] + skip[k];
  }
  return read > 0 ? static_cast<double>(planned) / static_cast<double>(read)
                  : 0;
}

template <typename Program>
AlgoResult RunBoth(std::shared_ptr<GraphStore> store, Program program,
                   EdgeDirection direction) {
  AlgoResult r;
  Engine<Program> off(store, program, StreamOptions(false, direction));
  auto off_stats = off.Run();
  NX_CHECK(off_stats.ok()) << off_stats.status().ToString();
  r.off = *off_stats;

  Engine<Program> on(store, program, StreamOptions(true, direction));
  auto on_stats = on.Run();
  NX_CHECK(on_stats.ok()) << on_stats.status().ToString();
  r.on = *on_stats;

  r.parity = on.values() == off.values();
  r.tail_reduction = TailReduction(r.on);
  return r;
}

}  // namespace
}  // namespace nxgraph

int main(int argc, char** argv) {
  using namespace nxgraph;
  const bool full = bench::FullMode(argc, argv);

  const uint32_t p = 32;
  const uint32_t interval_size = full ? 2048 : 512;

  auto store = GetChainStore(p, interval_size, /*weighted=*/false);
  auto wstore = GetChainStore(p, interval_size, /*weighted=*/true);

  std::printf(
      "\n=== Selective scheduling: summary-aware vs blind planning "
      "(chain graph, n=%llu, m=%llu, P=%u, DPU stream) ===\n\n",
      static_cast<unsigned long long>(store->num_vertices()),
      static_cast<unsigned long long>(store->num_edges()), p);
  std::printf("summary metadata: %s across both directions\n\n",
              FormatByteSize(store->manifest().TotalSummaryBytes()).c_str());

  BfsProgram bfs;
  bfs.root = 0;
  SsspProgram sssp;
  sssp.root = 0;
  AlgoResult results[3];
  results[0] = RunBoth(store, bfs, EdgeDirection::kForward);
  results[1] = RunBoth(wstore, sssp, EdgeDirection::kForward);
  results[2] = RunBoth(store, WccProgram{}, EdgeDirection::kBoth);
  const char* names[3] = {"BFS", "SSSP", "WCC"};

  bench::Table table({"Algo", "Iter", "Blobs read", "Blobs skipped",
                      "Tail reduction", "Bytes read (on)", "Bytes read (off)",
                      "Parity"});
  for (int a = 0; a < 3; ++a) {
    const AlgoResult& r = results[a];
    table.AddRow({names[a], std::to_string(r.on.iterations),
                  std::to_string(r.on.subshards_processed),
                  std::to_string(r.on.subshards_skipped),
                  bench::Fmt(r.tail_reduction, 1) + "x",
                  FormatByteSize(r.on.bytes_read),
                  FormatByteSize(r.off.bytes_read),
                  r.parity ? "ok" : "MISMATCH"});
  }
  table.Print();

  // Per-iteration trajectory: processed collapses towards the frontier
  // size while processed + skipped stays at the blind run's read count.
  std::printf("\n--- BFS per-iteration planning (selective run) ---\n");
  bench::Table traj({"Iteration", "Blobs read", "Blobs skipped"});
  const auto& proc = results[0].on.iteration_subshards_processed;
  const auto& skip = results[0].on.iteration_subshards_skipped;
  for (size_t k = 0; k < proc.size(); ++k) {
    traj.AddRow({std::to_string(k), std::to_string(proc[k]),
                 std::to_string(skip[k])});
  }
  traj.Print();
  return 0;
}
