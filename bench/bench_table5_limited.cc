// Table V (Exp 8): 1 iteration of PageRank under limited resources — a
// small memory budget on modelled SSD and HDD devices (ThrottledEnv; see
// DESIGN.md §3). Engines: NXgraph (auto strategy), GridGraph/TurboGraph-
// like, and X-Stream-like. VENUS is unavailable (the paper could not
// obtain it either and compared against its published numbers).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace nxgraph {
namespace {

struct Row {
  std::string device;
  std::string engine;
  double seconds;
};
std::vector<Row> g_rows;

}  // namespace
}  // namespace nxgraph

int main(int argc, char** argv) {
  using namespace nxgraph;
  const bool full = bench::FullMode(argc, argv);

  // Build the shared store once on the unthrottled Env, then re-open it
  // through each device model so only the measured runs pay device costs.
  auto base_store = bench::GetStore("twitter-sim", 16, full);
  const std::string dir = base_store->dir();
  // The paper's Table V setting: Twitter's vertex state fits the 8 GB
  // machine (SPU applies) but the edges do not all fit, so sub-shards
  // stream from disk. Budget = full vertex state + half the shard bytes.
  const uint64_t budget = 2 * base_store->num_vertices() * sizeof(double) +
                          base_store->num_vertices() * 4 +
                          base_store->TotalSubShardBytes(false) / 2;

  struct Device {
    const char* name;
    DeviceProfile profile;
  };
  const Device devices[] = {
      {"SSD", DeviceProfile::Ssd()},
      {"HDD", DeviceProfile::Hdd()},
  };
  const bench::EngineKind engines[] = {bench::EngineKind::kNxCallback,
                                       bench::EngineKind::kTurboGraphLike,
                                       bench::EngineKind::kXStreamLike};

  // Keep the throttled envs alive for the duration of the runs.
  static std::vector<std::unique_ptr<Env>> throttled_envs;

  for (const Device& device : devices) {
    throttled_envs.push_back(NewThrottledEnv(Env::Default(), device.profile));
    Env* env = throttled_envs.back().get();
    for (auto kind : engines) {
      std::string name =
          std::string(device.name) + "/" + bench::EngineName(kind);
      const char* device_name = device.name;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [=](benchmark::State& st) {
            auto store = OpenGraphStore(dir, env);
            NX_CHECK(store.ok()) << store.status().ToString();
            RunOptions opt;
            opt.num_threads = 4;
            opt.memory_budget_bytes = budget;
            opt.scratch_dir = dir + "/run_" + device_name;
            RunStats stats;
            for (auto _ : st) {
              stats = bench::RunPageRankWith(kind, *store, opt, 1);
            }
            st.counters["GB_read"] =
                static_cast<double>(stats.bytes_read) / 1e9;
            g_rows.push_back(
                Row{device_name, bench::EngineName(kind), stats.seconds});
          })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf("\n=== Table V: 1 iteration of PageRank, limited resources "
              "(twitter-sim, budget = vertex state + half the sub-shards, "
              "modelled devices) ===\n\n");
  bench::Table table({"Device", "System", "Time(s)", "Slowdown vs NXgraph"});
  const auto seconds_of = [](const std::string& device,
                             const std::string& engine) {
    for (const auto& r : g_rows) {
      if (r.device == device && r.engine == engine) return r.seconds;
    }
    return 0.0;
  };
  for (const Device& device : devices) {
    const double nx_seconds = seconds_of(
        device.name, bench::EngineName(bench::EngineKind::kNxCallback));
    for (const auto& r : g_rows) {
      if (r.device != device.name) continue;
      table.AddRow({r.device, r.engine, bench::Fmt(r.seconds),
                    bench::Fmt(nx_seconds > 0 ? r.seconds / nx_seconds : 0)});
    }
  }
  table.Print();

  // What this run measured: the fastest system per device, and each
  // system's HDD / SSD time with the one that slows most.
  for (const Device& device : devices) {
    std::string fastest;
    double best = 0;
    for (auto kind : engines) {
      const double s = seconds_of(device.name, bench::EngineName(kind));
      if (fastest.empty() || s < best) {
        fastest = bench::EngineName(kind);
        best = s;
      }
    }
    std::printf("\nFastest on %s (measured): %s.", device.name,
                fastest.c_str());
  }
  std::string slows_most;
  double worst = 0;
  std::printf("\nHDD / SSD time (measured):");
  for (auto kind : engines) {
    const std::string engine = bench::EngineName(kind);
    const double ssd = seconds_of("SSD", engine);
    const double ratio = ssd > 0 ? seconds_of("HDD", engine) / ssd : 0;
    std::printf(" %s %sx;", engine.c_str(), bench::Fmt(ratio).c_str());
    if (slows_most.empty() || ratio > worst) {
      slows_most = engine;
      worst = ratio;
    }
  }
  std::printf(" %s slows most on HDD.\n", slows_most.c_str());
  std::printf(
      "\nPaper Table V context (measured on the authors' hardware): NXgraph "
      "7.13s vs GridGraph 26.91s and X-Stream 88.95s on SSD; NXgraph 12.55s "
      "vs VENUS 95.48s, GridGraph 24.11s, X-Stream 81.70s on HDD. HDD / SSD "
      "there: NXgraph 1.76x, GridGraph 0.90x, X-Stream 0.92x.\n");
  return 0;
}
