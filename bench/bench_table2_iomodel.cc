// Table II: closed-form read/write volume per iteration for every update
// strategy, evaluated at the paper's dataset scales. Also micro-benchmarks
// the model evaluation itself via google-benchmark.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/engine/io_model.h"
#include "src/util/byte_size.h"

namespace nxgraph {
namespace {

struct DatasetParams {
  const char* name;
  double n;
  double m;
};

// Paper-scale graphs (Table III).
constexpr DatasetParams kDatasets[] = {
    {"Live-journal", 4.85e6, 6.90e7},
    {"Twitter", 4.17e7, 1.47e9},
    {"Yahoo-web", 7.20e8, 6.64e9},
};

IoModelParams Params(const DatasetParams& d, double budget_fraction) {
  IoModelParams p;
  p.n = d.n;
  p.m = d.m;
  p.Ba = 8;   // PageRank attribute (double)
  p.Bv = 4;   // vertex id
  p.Be = 4;   // compressed edge
  p.d = 15;   // paper's Yahoo-web estimate
  p.P = 16;
  p.BM = budget_fraction * 2 * d.n * p.Ba;
  return p;
}

void BM_ModelEvaluation(benchmark::State& state) {
  IoModelParams p = Params(kDatasets[2], 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpuIoCost(p));
    benchmark::DoNotOptimize(DpuIoCost(p));
    benchmark::DoNotOptimize(MpuIoCost(p));
    benchmark::DoNotOptimize(TurboGraphLikeIoCost(p));
  }
}
BENCHMARK(BM_ModelEvaluation);

}  // namespace
}  // namespace nxgraph

int main(int argc, char** argv) {
  using namespace nxgraph;
  using bench::Fmt;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf(
      "\n=== Table II: per-iteration I/O by update strategy "
      "(PageRank attributes, paper-scale graphs) ===\n");
  for (const auto& dataset : kDatasets) {
    std::printf("\n--- %s (n=%.3g, m=%.3g), budget = 50%% of 2nBa ---\n",
                dataset.name, dataset.n, dataset.m);
    IoModelParams p = Params(dataset, 0.5);
    bench::Table table({"Strategy", "Bread", "Bwrite", "Total"});
    const struct {
      const char* name;
      IoCost cost;
    } rows[] = {
        {"TurboGraph-like", TurboGraphLikeIoCost(p)},
        {"SPU", SpuIoCost(p)},
        {"DPU", DpuIoCost(p)},
        {"MPU", MpuIoCost(p)},
    };
    for (const auto& row : rows) {
      table.AddRow({row.name,
                    FormatByteSize(static_cast<uint64_t>(row.cost.read_bytes)),
                    FormatByteSize(static_cast<uint64_t>(row.cost.write_bytes)),
                    FormatByteSize(static_cast<uint64_t>(row.cost.total()))});
    }
    table.Print();
  }
  std::printf(
      "\nShape check (paper §III): SPU < MPU < DPU on total I/O, and MPU < "
      "TurboGraph-like at every budget.\n");

  // ---- measured Be and Bv from a real store (MakeIoModelParams) ------------
  // The tables above assume the paper's Be = 4 bytes/edge and Bv = 4 bytes
  // per hub entry. Building the RMAT bench graph in both sub-shard formats
  // and deriving Be from the actual manifest blob sizes, and Bv from the
  // hub file's destination sets, shows what the model predicts for THIS
  // code's stores — the m*Be term scales with the format's compression.
  std::printf(
      "\n=== Table II at MEASURED bytes/edge (RMAT live-journal-sim, "
      "quick scale, budget = 50%% of 2nBa) ===\n");
  bench::Table measured(
      {"Format", "Be (bytes/edge)", "Bv (bytes/entry)", "d", "DPU Bread",
       "MPU total"});
  for (SubShardFormat f : {SubShardFormat::kNxs1, SubShardFormat::kNxs2}) {
    // The graph and shape of sharder_test's NXS2-vs-NXS1 size gate.
    std::shared_ptr<GraphStore> store =
        bench::GetFormatStore("live-journal-sim", 16, 1024, f);
    IoModelParams p = MakeIoModelParams(
        store->manifest(), 8,
        static_cast<uint64_t>(store->num_vertices()) * 8);  // 50% of 2nBa
    measured.AddRow({SubShardFormatName(f), Fmt(p.Be), Fmt(p.Bv), Fmt(p.d, 1),
                     FormatByteSize(static_cast<uint64_t>(DpuIoCost(p).read_bytes)),
                     FormatByteSize(static_cast<uint64_t>(MpuIoCost(p).total()))});
  }
  measured.Print();
  return 0;
}
