// Closed-loop serving benchmark: N client threads issue a mixed query
// stream (full BFS, 2-hop neighborhoods, SSSP, budget-capped probes, and a
// periodic PageRank analytics job) against one long-lived GraphServer and
// wait for each answer before sending the next. Reports throughput (QPS),
// latency percentiles (p50/p95/p99), and shared-cache hit rate per
// scenario; `--json` (or `--smoke`) writes BENCH_serving.json.
//
//   ./bench_serving            # default scenarios
//   ./bench_serving --full     # larger graph, longer streams
//   ./bench_serving --json     # also write BENCH_serving.json
//   ./bench_serving --smoke    # tiny CI gate: asserts sane serving behavior
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/algos/programs.h"
#include "src/server/graph_server.h"

namespace nxgraph {
namespace {

bool SmokeMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

// GetStore with an explicit divisor so --smoke can shrink the graph
// (bench::GetStore hardwires the dataset's default divisor). Same cache
// scheme, "serving_" prefix.
std::shared_ptr<GraphStore> GetServingStore(const std::string& dataset,
                                            uint32_t p, uint64_t divisor) {
  const std::string dir = "/tmp/nxgraph_bench/serving_" + dataset + "_p" +
                          std::to_string(p) + "_d" + std::to_string(divisor);
  if (Env::Default()->FileExists(dir + "/" + kManifestFileName)) {
    auto store = OpenGraphStore(dir);
    if (store.ok()) return *store;
  }
  auto edges = MakeDataset(dataset, divisor);
  NX_CHECK(edges.ok()) << edges.status().ToString();
  BuildOptions options;
  options.num_intervals = p;
  options.build_transpose = true;
  auto store = BuildGraphStore(*edges, dir, options);
  NX_CHECK(store.ok()) << store.status().ToString();
  return *store;
}

struct Scenario {
  std::string name;
  int clients;
  int workers;
  uint64_t cache_budget;       // bytes; UINT64_MAX = everything resident
  int queries_per_client;
  uint64_t probe_budget;       // io_byte_budget for every 8th query
  /// Fraction of the stream each client cancels mid-flight (0 = none).
  /// Cancelled queries measure cancel-to-release latency: Cancel(id) to
  /// the future settling (pins released, worker freed).
  double cancel_fraction = 0;
};

/// Cancel-to-release samples across all clients of one scenario.
struct CancelLatencies {
  std::mutex mu;
  std::vector<double> ms;
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu);
    ms.push_back(v);
  }
};

struct ScenarioResult {
  GraphServer::Stats stats;
  double wall_seconds = 0;
  double qps = 0;  // completed / wall, measured around the run only
  uint64_t cancels_issued = 0;
  double p95_cancel_ms = 0;  // 0 when the scenario cancels nothing
};

// One client's closed loop: submit, wait, repeat. Query k of the stream is
// BFS (k%4==0), a 2-hop neighborhood (1), SSSP (2), or a budget-capped BFS
// probe (3); client 0 additionally interleaves a 3-iteration PageRank job
// every 16 queries, so analytics and point lookups share the cache.
void ClientLoop(GraphServer& server, int client_id, const Scenario& sc,
                CancelLatencies* cancels) {
  const uint32_t num_vertices =
      static_cast<uint32_t>(server.store().num_vertices());
  uint64_t rng = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(client_id + 1);
  // Every cancel_period-th query is cancelled mid-flight (period 5 at the
  // 20% default fraction).
  const int cancel_period =
      sc.cancel_fraction > 0 ? static_cast<int>(1.0 / sc.cancel_fraction) : 0;
  for (int k = 0; k < sc.queries_per_client; ++k) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    PointQuery q;
    q.root = static_cast<VertexId>((rng >> 33) % num_vertices);
    switch (k % 4) {
      case 0:
        q.kind = QueryKind::kBfs;
        break;
      case 1:
        q.kind = QueryKind::kKHop;
        q.limits.max_hops = 2;
        break;
      case 2:
        q.kind = QueryKind::kSssp;
        q.limits.max_hops = 8;  // round cap; unit weights on bench graphs
        break;
      default:
        q.kind = QueryKind::kBfs;
        q.limits.io_byte_budget = sc.probe_budget;
        break;
    }
    auto f = server.Submit(q);
    if (cancel_period > 0 && k % cancel_period == cancel_period - 1) {
      // Let the query get going, then cancel and time the release: from
      // Cancel(id) to the future settling. Queries that finish before the
      // cancel lands contribute (correctly) near-zero samples.
      std::this_thread::sleep_for(std::chrono::microseconds((rng >> 40) % 500));
      const auto t0 = std::chrono::steady_clock::now();
      server.Cancel(f.id());
      f.Wait();
      cancels->Add(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
      continue;
    }
    f.Wait();
    if (client_id == 0 && k % 16 == 15) {
      PageRankProgram pr;
      pr.num_vertices = server.store().num_vertices();
      BatchQuery spec;
      spec.max_iterations = 3;
      auto bf = server.SubmitBatch(pr, spec);
      bf.Wait();
    }
  }
}

ScenarioResult RunScenario(const std::string& dir, const Scenario& sc) {
  GraphServer::Options opts;
  opts.cache_budget_bytes = sc.cache_budget;
  opts.num_workers = sc.workers;
  opts.io_threads = 2;
  opts.prefetch_depth = 2;
  auto server = GraphServer::Open(Env::Default(), dir, opts);
  NX_CHECK(server.ok()) << server.status().ToString();

  CancelLatencies cancels;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(sc.clients);
  for (int c = 0; c < sc.clients; ++c) {
    clients.emplace_back([&, c] { ClientLoop(**server, c, sc, &cancels); });
  }
  for (auto& t : clients) t.join();

  ScenarioResult r;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.stats = (*server)->stats();
  r.qps = r.wall_seconds > 0
              ? static_cast<double>(r.stats.completed) / r.wall_seconds
              : 0;
  r.cancels_issued = cancels.ms.size();
  if (!cancels.ms.empty()) {
    std::sort(cancels.ms.begin(), cancels.ms.end());
    const size_t idx = static_cast<size_t>(0.95 * (cancels.ms.size() - 1));
    r.p95_cancel_ms = cancels.ms[idx];
  }
  NX_CHECK((*server)->cache()->pinned_entries() == 0)
      << "scenario '" << sc.name << "' leaked cache pins";
  return r;
}

// Cold-load time of the largest sub-shard in row 0, through a fresh
// cache — the natural unit for the cancel-to-release gate, since a
// cancelled query releases at the next sub-shard boundary and so may have
// to ride out one in-flight load first.
double MeasureSubShardLoadMs(const std::string& dir) {
  auto store = OpenGraphStore(dir);
  NX_CHECK(store.ok()) << store.status().ToString();
  const Manifest& m = (*store)->manifest();
  uint32_t widest = 0;
  for (uint32_t j = 1; j < m.num_intervals; ++j) {
    if (m.subshard(0, j).size > m.subshard(0, widest).size) widest = j;
  }
  SubShardCache cache(*store, UINT64_MAX);
  const auto t0 = std::chrono::steady_clock::now();
  NX_CHECK(cache.Get(0, widest).ok());
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string CacheLabel(uint64_t budget) {
  if (budget == UINT64_MAX) return "unlimited";
  return bench::Fmt(static_cast<double>(budget) / (1024.0 * 1024.0), 1) + " MiB";
}

}  // namespace
}  // namespace nxgraph

int main(int argc, char** argv) {
  using namespace nxgraph;
  const bool smoke = SmokeMode(argc, argv);
  const bool full = bench::FullMode(argc, argv);
  const bool json = bench::JsonMode(argc, argv) || smoke;

  const uint64_t divisor =
      smoke ? 2048 : bench::Divisor("live-journal-sim", full);
  const uint32_t p = smoke ? 8 : 32;
  auto store = GetServingStore("live-journal-sim", p, divisor);
  const auto& m = store->manifest();
  const uint64_t store_bytes =
      m.TotalDecodedSubShardBytes(false) + m.TotalDecodedSubShardBytes(true);
  const std::string dir = store->dir();
  store.reset();  // the server owns its own handle

  std::printf(
      "=== Closed-loop serving: mixed BFS / 2-hop / SSSP / capped probes + "
      "PageRank (live-journal-sim/%llu, P=%u, %.1f MiB decoded) ===\n\n",
      static_cast<unsigned long long>(divisor), p,
      static_cast<double>(store_bytes) / (1024.0 * 1024.0));

  const double subshard_load_ms = MeasureSubShardLoadMs(dir);
  std::printf("one cold sub-shard load: %.3f ms\n\n", subshard_load_ms);

  const int qpc = smoke ? 8 : (full ? 96 : 32);
  std::vector<Scenario> scenarios;
  if (smoke) {
    scenarios.push_back(
        {"smoke", 4, 2, UINT64_MAX, qpc, store_bytes / 8 + 1});
    scenarios.push_back({"smoke, 20% cancels", 4, 2, UINT64_MAX,
                         qpc * 4, store_bytes / 8 + 1, 0.2});
  } else {
    scenarios.push_back({"serial", 1, 1, UINT64_MAX, qpc, store_bytes / 8 + 1});
    scenarios.push_back(
        {"8 clients, warm cache", 8, 4, UINT64_MAX, qpc, store_bytes / 8 + 1});
    scenarios.push_back({"8 clients, cache = store/4", 8, 4,
                         store_bytes / 4 + 1, qpc, store_bytes / 8 + 1});
    scenarios.push_back({"8 clients, 20% cancels", 8, 4, store_bytes / 4 + 1,
                         qpc, store_bytes / 8 + 1, 0.2});
  }

  bench::Table table({"Scenario", "Clients", "Workers", "Cache", "Completed",
                      "Truncated", "Cancelled", "Wall (s)", "QPS", "p50 (ms)",
                      "p95 (ms)", "p99 (ms)", "p95 cancel (ms)",
                      "Cache hit rate"});
  std::vector<ScenarioResult> results;
  for (const Scenario& sc : scenarios) {
    ScenarioResult r = RunScenario(dir, sc);
    results.push_back(r);
    table.AddRow({sc.name, std::to_string(sc.clients),
                  std::to_string(sc.workers), CacheLabel(sc.cache_budget),
                  std::to_string(r.stats.completed),
                  std::to_string(r.stats.truncated),
                  std::to_string(r.stats.cancelled), bench::Fmt(r.wall_seconds, 3),
                  bench::Fmt(r.qps, 1), bench::Fmt(r.stats.p50_ms, 2),
                  bench::Fmt(r.stats.p95_ms, 2), bench::Fmt(r.stats.p99_ms, 2),
                  bench::Fmt(r.p95_cancel_ms, 2),
                  bench::Fmt(r.stats.cache_hit_rate, 3)});
  }
  table.Print();
  if (json) table.WriteJson("serving");

  if (smoke) {
    // CI gate: every submitted query must finish (no failures, no rejects
    // at this queue depth), capped probes must truncate rather than hang,
    // and the shared cache must actually be shared (hits > 0).
    const ScenarioResult& r = results[0];
    NX_CHECK(r.stats.failed == 0) << r.stats.failed << " queries failed";
    NX_CHECK(r.stats.rejected == 0) << r.stats.rejected << " rejected";
    NX_CHECK(r.stats.completed == r.stats.submitted)
        << r.stats.completed << " of " << r.stats.submitted << " completed";
    NX_CHECK(r.stats.truncated > 0) << "capped probes never truncated";
    NX_CHECK(r.stats.cache.hits > 0) << "shared cache saw no hits";
    NX_CHECK(r.stats.p50_ms <= r.stats.p99_ms) << "percentiles out of order";

    // Cancellation gate: mid-flight cancels release their worker and pins
    // within one sub-shard load (a cancelled query's longest non-
    // interruptible wait), with a floor for scheduler jitter on tiny
    // smoke stores. Every query still terminates (completed or
    // cancelled), and nothing errors out.
    const ScenarioResult& c = results[1];
    NX_CHECK(c.cancels_issued > 0) << "cancel scenario issued no cancels";
    NX_CHECK(c.stats.failed == 0) << c.stats.failed << " queries failed";
    NX_CHECK(c.stats.completed + c.stats.cancelled == c.stats.submitted)
        << "queries neither completed nor cancelled";
    const double gate_ms = subshard_load_ms > 50.0 ? subshard_load_ms : 50.0;
    NX_CHECK(c.p95_cancel_ms <= gate_ms)
        << "p95 cancel-to-release " << c.p95_cancel_ms << " ms exceeds "
        << gate_ms << " ms (one sub-shard load, 50 ms floor)";
    std::printf(
        "\nsmoke OK: %llu queries served, hit rate %.3f; %llu cancels, "
        "p95 cancel-to-release %.2f ms (gate %.2f ms)\n",
        static_cast<unsigned long long>(r.stats.completed),
        r.stats.cache_hit_rate,
        static_cast<unsigned long long>(c.cancels_issued), c.p95_cancel_ms,
        gate_ms);
  }
  return 0;
}
