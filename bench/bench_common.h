// Shared infrastructure for the experiment harnesses (one binary per paper
// table/figure). Each binary prints the paper-style table/series.
//
// Sizing: graphs are the synthetic stand-ins of DESIGN.md §3, scaled to
// laptop size. Set NXGRAPH_FULL=1 (or pass --full) for sizes closer to the
// paper's; default "quick" sizes keep every binary in tens of seconds.
#ifndef NXGRAPH_BENCH_BENCH_COMMON_H_
#define NXGRAPH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/algos/programs.h"
#include "src/baselines/graphchi_like.h"
#include "src/baselines/turbograph_like.h"
#include "src/baselines/xstream_like.h"
#include "src/core/nxgraph.h"

namespace nxgraph {
namespace bench {

inline bool FullMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  const char* env = std::getenv("NXGRAPH_FULL");
  return env != nullptr && env[0] == '1';
}

/// Quick-mode scale divisors per dataset (paper scale / divisor).
inline uint64_t Divisor(const std::string& dataset, bool full) {
  uint64_t d = 512;
  if (dataset == "live-journal-sim") d = 128;
  if (dataset == "twitter-sim") d = 512;
  if (dataset == "yahoo-web-sim") d = 2048;
  if (dataset.rfind("delaunay", 0) == 0) d = 64;
  return full ? std::max<uint64_t>(d / 8, 1) : d;
}

/// Builds (or reuses a previously built) store for a registered dataset.
/// Stores are cached under /tmp/nxgraph_bench so repeated binaries skip
/// preprocessing.
inline std::shared_ptr<GraphStore> GetStore(const std::string& dataset,
                                            uint32_t p, bool full,
                                            bool transpose = true) {
  const uint64_t divisor = Divisor(dataset, full);
  const std::string dir = "/tmp/nxgraph_bench/" + dataset + "_p" +
                          std::to_string(p) + "_d" + std::to_string(divisor) +
                          (transpose ? "_t" : "");
  Env* env = Env::Default();
  if (env->FileExists(dir + "/manifest.nxm")) {
    auto store = OpenGraphStore(dir);
    if (store.ok()) return *store;
  }
  auto edges = MakeDataset(dataset, divisor);
  NX_CHECK(edges.ok()) << edges.status().ToString();
  BuildOptions options;
  options.num_intervals = p;
  options.build_transpose = transpose;
  auto store = BuildGraphStore(*edges, dir, options);
  NX_CHECK(store.ok()) << store.status().ToString();
  return *store;
}

/// Builds (or reuses) a forward-only store of `dataset` written in a
/// specific sub-shard format, cached under /tmp/nxgraph_bench like
/// GetStore. The single home of the format-store path scheme, shared by
/// bench_format and bench_table2_iomodel.
inline std::shared_ptr<GraphStore> GetFormatStore(const std::string& dataset,
                                                  uint32_t p,
                                                  uint64_t divisor,
                                                  SubShardFormat format) {
  const std::string dir = "/tmp/nxgraph_bench/fmt_" + dataset + "_p" +
                          std::to_string(p) + "_d" + std::to_string(divisor) +
                          "_" + SubShardFormatName(format);
  if (Env::Default()->FileExists(dir + "/" + kManifestFileName)) {
    auto store = OpenGraphStore(dir);
    if (store.ok()) return *store;
  }
  auto edges = MakeDataset(dataset, divisor);
  NX_CHECK(edges.ok()) << edges.status().ToString();
  BuildOptions options;
  options.num_intervals = p;
  options.build_transpose = false;
  options.subshard_format = format;
  auto store = BuildGraphStore(*edges, dir, options);
  NX_CHECK(store.ok()) << store.status().ToString();
  return *store;
}

/// Engines compared across the experiments.
enum class EngineKind {
  kNxCallback,
  kNxLock,
  kGraphChiLike,
  kTurboGraphLike,
  kXStreamLike,
};

inline const char* EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNxCallback:
      return "NXgraph(callback)";
    case EngineKind::kNxLock:
      return "NXgraph(lock)";
    case EngineKind::kGraphChiLike:
      return "GraphChi-like";
    case EngineKind::kTurboGraphLike:
      return "TurboGraph-like";
    case EngineKind::kXStreamLike:
      return "X-Stream-like";
  }
  return "?";
}

/// Runs `iterations` of PageRank with the given engine; returns stats.
inline RunStats RunPageRankWith(EngineKind kind,
                                std::shared_ptr<GraphStore> store,
                                RunOptions opt, int iterations = 10) {
  PageRankProgram program;
  program.num_vertices = store->num_vertices();
  opt.max_iterations = iterations;
  opt.direction = EdgeDirection::kForward;
  auto run = [&](auto&& engine) {
    auto stats = engine.Run();
    NX_CHECK(stats.ok()) << stats.status().ToString();
    return *stats;
  };
  switch (kind) {
    case EngineKind::kNxCallback:
      opt.sync_mode = SyncMode::kCallback;
      return run(Engine<PageRankProgram>(store, program, opt));
    case EngineKind::kNxLock:
      opt.sync_mode = SyncMode::kLock;
      return run(Engine<PageRankProgram>(store, program, opt));
    case EngineKind::kGraphChiLike:
      return run(GraphChiLikeEngine<PageRankProgram>(store, program, opt));
    case EngineKind::kTurboGraphLike:
      return run(TurboGraphLikeEngine<PageRankProgram>(store, program, opt));
    case EngineKind::kXStreamLike:
      return run(XStreamLikeEngine<PageRankProgram>(store, program, opt));
  }
  return {};
}

/// Runs BFS from vertex 0 (the paper sets the root to the first vertex).
inline RunStats RunBfsWith(EngineKind kind, std::shared_ptr<GraphStore> store,
                           RunOptions opt) {
  BfsProgram program;
  program.root = 0;
  opt.direction = EdgeDirection::kForward;
  auto run = [&](auto&& engine) {
    auto stats = engine.Run();
    NX_CHECK(stats.ok()) << stats.status().ToString();
    return *stats;
  };
  switch (kind) {
    case EngineKind::kNxCallback:
      opt.sync_mode = SyncMode::kCallback;
      return run(Engine<BfsProgram>(store, program, opt));
    case EngineKind::kNxLock:
      opt.sync_mode = SyncMode::kLock;
      return run(Engine<BfsProgram>(store, program, opt));
    case EngineKind::kGraphChiLike:
      return run(GraphChiLikeEngine<BfsProgram>(store, program, opt));
    case EngineKind::kTurboGraphLike:
      return run(TurboGraphLikeEngine<BfsProgram>(store, program, opt));
    case EngineKind::kXStreamLike:
      return run(XStreamLikeEngine<BfsProgram>(store, program, opt));
  }
  return {};
}

/// Runs WCC (NXgraph engines and GraphChi-like support both directions;
/// the other baselines are forward-only and are not called here).
inline RunStats RunWccWith(EngineKind kind, std::shared_ptr<GraphStore> store,
                           RunOptions opt) {
  WccProgram program;
  opt.direction = EdgeDirection::kBoth;
  auto run = [&](auto&& engine) {
    auto stats = engine.Run();
    NX_CHECK(stats.ok()) << stats.status().ToString();
    return *stats;
  };
  switch (kind) {
    case EngineKind::kNxCallback:
      opt.sync_mode = SyncMode::kCallback;
      return run(Engine<WccProgram>(store, program, opt));
    case EngineKind::kNxLock:
      opt.sync_mode = SyncMode::kLock;
      return run(Engine<WccProgram>(store, program, opt));
    case EngineKind::kGraphChiLike:
      return run(GraphChiLikeEngine<WccProgram>(store, program, opt));
    default:
      NX_CHECK(false) << "WCC unsupported for " << EngineName(kind);
  }
  return {};
}

/// Runs the full multi-round SCC (NXgraph engines only).
inline RunStats RunSccWith(EngineKind kind, std::shared_ptr<GraphStore> store,
                           RunOptions opt) {
  opt.sync_mode =
      kind == EngineKind::kNxLock ? SyncMode::kLock : SyncMode::kCallback;
  auto result = RunScc(store, opt);
  NX_CHECK(result.ok()) << result.status().ToString();
  return result->stats;
}

/// Simple fixed-width table printer for the paper-style summaries.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < headers_.size(); ++c) {
        std::printf(" %-*s |", static_cast<int>(widths[c]),
                    c < row.size() ? row[c].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace bench
}  // namespace nxgraph

#endif  // NXGRAPH_BENCH_BENCH_COMMON_H_
