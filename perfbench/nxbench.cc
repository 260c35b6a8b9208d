// Benchmark program: runs one workload on a seeded live-journal-sim R-MAT
// graph and prints its metrics, the last stdout line being one JSON object.
// perfbench/README.md describes the workloads and metrics and why they were
// sized as they are.
//
//   nxbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the timed phase
// twice, traced and then untraced on a store or server opened below the
// tracer, and prints the per-layer metrics, including what the tracing cost
// (the differences in run_s and in CPU time between the two passes).
// Exits non-zero, printing no metrics, when a correctness check fails.
// --work-dir must not exist or be empty; it is deleted at exit.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_support.h"
#include "perfbench/trace_env.h"
#include "src/algos/programs.h"
#include "src/algos/reference.h"
#include "src/core/nxgraph.h"
#include "src/prep/degreer.h"
#include "src/prep/sharder.h"
#include "src/server/graph_server.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace nxbench {
namespace {

using nxgraph::BatchQuery;
using nxgraph::BuildOptions;
using nxgraph::DeviceProfile;
using nxgraph::EdgeList;
using nxgraph::Env;
using nxgraph::GraphServer;
using nxgraph::GraphStore;
using nxgraph::PageRankProgram;
using nxgraph::PointQuery;
using nxgraph::QueryKind;
using nxgraph::RunOptions;
using nxgraph::RunStats;
using nxgraph::Status;
using nxgraph::Timer;
using Clock = std::chrono::steady_clock;

// ---- fixed settings (README.md says why each has its value) ---------------

constexpr char kDataset[] = "live-journal-sim";
constexpr uint64_t kScaleDivisor = 64;
constexpr uint32_t kIntervals = 16;
constexpr int kSetupRepeats = 3;
constexpr double kDamping = 0.85;

/// Engine workload: RunPageRank calls of a fixed iteration count; a run
/// makes kEngineCallsPer10s * seconds / 10 calls (at least one). 100
/// iterations per call leave ten samples beyond each call's p90.
constexpr int kEngineIterations = 100;
constexpr int kEngineCallsPer10s = 1;
/// Engine worker threads beyond the calling thread. MPU mostly waits on the
/// modelled device, so two workers keep the host's four vCPUs unsaturated.
constexpr int kEngineThreads = 2;

/// Serving workload: an open-loop schedule of point queries at a fixed
/// rate, every kTwoHopEvery-th one a 2-hop query and the rest 1-hop, and a
/// stats() scrape every kScrapePeriodS. The schedule is cut into rounds of
/// kRoundS; the middle round of every kRoundsPerBatch gets one 3-iteration
/// PageRank batch. The point queries sent while a batch runs wait behind
/// it; with a batch in every round they made up about 9 % of all queries
/// and moved p90 by up to a quarter between runs. One batch per four rounds
/// keeps them well below 10 % and in one round, which the median over
/// rounds leaves out.
constexpr double kQueryRate = 50;
constexpr int kTwoHopEvery = 5;
constexpr double kRoundS = 2.5;
constexpr int kRoundsPerBatch = 4;
constexpr int kBatchIterations = 3;
constexpr double kScrapePeriodS = 0.1;
constexpr int kServerWorkers = 2;
/// Cache budget = decoded forward sub-shard bytes / kCacheDivisor.
constexpr uint64_t kCacheDivisor = 4;
/// Point answers checked against ReferenceBfs per run.
constexpr int kGateQueries = 8;

constexpr size_t kMaxSpans = size_t{1} << 20;

enum class Workload { kMpuSsd, kServeSsd };

struct Args {
  Workload workload = Workload::kMpuSsd;
  std::string workload_name;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload_name = value;
      have_workload = true;
      if (value == "pagerank-mpu-ssd") {
        args->workload = Workload::kMpuSsd;
      } else if (value == "serve-mixed-ssd") {
        args->workload = Workload::kServeSsd;
      } else {
        return false;
      }
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         !args->work_dir.empty();
}

// ---- metrics and output ----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Short(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

/// Every per-layer metric with its unit, in BENCHMARK.json order. Counts,
/// bytes and times are per op where the unit says /op.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"prep.degree_s", "s"},
    {"prep.shard_s", "s"},
    {"prep.open_s", "s"},
    {"prep.write_bytes_per_edge", "B/edge"},
    {"io.read_calls", "count/op"},
    {"io.read_bytes", "B/op"},
    {"io.write_calls", "count/op"},
    {"io.write_bytes", "B/op"},
    {"io.seeks", "count/op"},
    {"io.syncs", "count/op"},
    {"io.read_busy_ms", "ms/op"},
    {"io.write_busy_ms", "ms/op"},
    {"io.shard_read_bytes", "B/op"},
    {"io.hub_bytes", "B/op"},
    {"io.interval_bytes", "B/op"},
    {"io.model_ratio", "ratio"},
    {"engine.phase_a_ms", "ms/op"},
    {"engine.phase_b_ms", "ms/op"},
    {"engine.phase_c_ms", "ms/op"},
    {"engine.phase_d_ms", "ms/op"},
    {"engine.io_wait_ms", "ms/op"},
    {"engine.write_wait_ms", "ms/op"},
    {"engine.prepare_ms_per_run", "ms"},
    {"engine.first_iter_ms", "ms"},
    {"engine.edges", "count/op"},
    {"engine.unexplained_share", "ratio"},
    {"storage.decode_ms", "ms/op"},
    {"storage.decode_calls", "count/op"},
    {"storage.cache_hit_rate", "ratio"},
    {"storage.evicted_bytes", "B/op"},
    {"server.queue_ms_p50", "ms"},
    {"server.queue_ms_p90", "ms"},
    {"server.submit_us_p90", "us"},
    {"server.stats_call_ms_max", "ms"},
    {"server.run_ms_p50", "ms"},
    {"server.run_ms_p90", "ms"},
    {"server.completion_ms_p50", "ms"},
    {"server.subshards_per_query", "count/op"},
    {"server.skip_ratio", "ratio"},
    {"server.bytes_charged_per_query", "B/op"},
    {"server.batch_ms_p50", "ms"},
    {"proc.vol_ctx_switches", "count/op"},
    {"proc.invol_ctx_switches", "count/op"},
    {"host.steal_share", "ratio"},
    {"loadgen.late_ms_p90", "ms"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_cpu_s", "s"},
    {"trace.spans", "count"},
};

/// The per-layer metrics of a traced run. A layer the workload does not
/// run keeps 0, so every traced run prints the whole list.
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics_.push_back({name, 0, unit});
    }
  }
  void Set(const std::string& name, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    NX_CHECK(false) << "unknown per-layer metric " << name;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Writes the trace (traced runs), prints a human-readable table, then the
/// result as the last stdout line.
void Finish(const Args& args, const SpanRecorder& recorder, uint64_t attempted,
            uint64_t failed, const std::vector<Metric>& metrics) {
  if (args.trace && !args.trace_out.empty()) {
    Status s = recorder.WriteChromeTrace(args.trace_out);
    std::printf("trace: %s (%s)\n", args.trace_out.c_str(),
                s.ok() ? "written" : s.ToString().c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t k = 0; k < metrics.size(); ++k) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[k].value) ? metrics[k].value : 0.0);
    json += (k ? ", \"" : "\"") + metrics[k].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The lines an untraced run prints besides its metrics: the error rate,
/// which the result carries as `attempted` and `failed` because a metric of
/// a healthy run would be 0, and the noise diagnostics of the timed phase.
void PrintRunNotes(uint64_t attempted, uint64_t failed, const ProcSample& begin,
                   const ProcSample& end) {
  std::printf("  error_rate %.6f (%llu of %llu ops failed, rejected or shed)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  noise: host.steal_share %.4f, involuntary switches %lld, "
              "voluntary switches %lld\n",
              StealShare(begin, end),
              static_cast<long long>(end.involuntary_switches -
                                     begin.involuntary_switches),
              static_cast<long long>(end.voluntary_switches -
                                     begin.voluntary_switches));
}

// ---- shared run state ------------------------------------------------------

/// The Envs of one run. The device is modelled by a ThrottledEnv; a traced
/// run puts a TracingEnv above it.
struct Envs {
  Envs(const Args& args, SpanRecorder* recorder, IoCounters* io)
      : throttled(nxgraph::NewThrottledEnv(Env::Default(),
                                           DeviceProfile::Ssd())) {
    run = throttled.get();
    if (args.trace) {
      tracing = std::make_unique<TracingEnv>(run, recorder, io);
      tracing->set_recording(false);
      run = tracing.get();
    }
  }
  /// Starts or stops recording spans; a no-op in untraced runs.
  void Record(bool on) {
    if (tracing != nullptr) tracing->set_recording(on);
  }

  std::unique_ptr<Env> throttled;
  std::unique_ptr<TracingEnv> tracing;
  Env* run = nullptr;  ///< what the store or server is opened on
};

struct SetupResult {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  std::string dir;  ///< the store the timed phase uses
  std::vector<double> setup_s, degree_s, shard_s, open_s;
  uint64_t build_write_bytes = 0;  ///< last build, through Env::Default()
  uint64_t store_bytes = 0;        ///< files the last build left in `dir`

  void PrintGraph(const Args& args) const {
    std::printf("%s seed=%llu graph n=%llu m=%llu P=%u\n",
                args.workload_name.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(num_vertices),
                static_cast<unsigned long long>(num_edges), kIntervals);
  }
  double StoreBytesPerEdge() const {
    return Ratio(static_cast<double>(store_bytes),
                 static_cast<double>(num_edges));
  }
  void SetPrepMetrics(LayerMetrics* m) const {
    m->Set("prep.degree_s", Median(degree_s));
    m->Set("prep.shard_s", Median(shard_s));
    m->Set("prep.open_s", Median(open_s));
    m->Set("prep.write_bytes_per_edge",
           Ratio(static_cast<double>(build_write_bytes),
                 static_cast<double>(num_edges)));
  }
};

/// Opens the store or server of a fresh build on the run Env and warms it.
/// `built` is the handle the build itself opened on Env::Default().
using OpenFn =
    std::function<Status(const std::string& dir, const GraphStore& built)>;

/// Generates the graph, then builds its store kSetupRepeats times, each into
/// a fresh directory, timing build + `open`. Before each repeat `close`
/// drops the previous handle and its directory is deleted, untimed; the
/// last repeat's handle stays open. The edge list is freed on return, before
/// any timed phase.
Status Setup(const Args& args, SpanRecorder* recorder, const OpenFn& open,
             const std::function<void()>& close, SetupResult* out) {
  NX_ASSIGN_OR_RETURN(EdgeList edges,
                      nxgraph::MakeDataset(kDataset, kScaleDivisor, args.seed));
  out->num_edges = edges.num_edges();
  Env* fs = Env::Default();
  BuildOptions build;
  build.num_intervals = kIntervals;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    close();
    if (!out->dir.empty()) std::filesystem::remove_all(out->dir);
    out->dir = args.work_dir + "/store" + std::to_string(rep);
    std::filesystem::remove_all(out->dir);
    const uint64_t written_before = fs->stats()->snapshot().bytes_written;
    Timer timer;
    std::shared_ptr<GraphStore> built;
    if (!args.trace) {
      NX_ASSIGN_OR_RETURN(built,
                          nxgraph::BuildGraphStore(edges, out->dir, build));
    } else {
      // The three calls BuildGraphStore makes, each under its own span.
      std::optional<nxgraph::DegreeResult> degrees;
      {
        SpanRecorder::Scope span(recorder, "RunDegreer");
        NX_ASSIGN_OR_RETURN(degrees, nxgraph::RunDegreer(fs, edges, out->dir));
        out->degree_s.push_back(span.Seconds());
      }
      {
        SpanRecorder::Scope span(recorder, "RunSharder");
        nxgraph::SharderOptions sharder;
        sharder.num_intervals = build.num_intervals;
        sharder.build_transpose = build.build_transpose;
        sharder.dedup = build.dedup;
        sharder.format = build.subshard_format;
        sharder.summary = build.summary;
        NX_RETURN_NOT_OK(
            nxgraph::RunSharder(fs, out->dir, *degrees, sharder).status());
        out->shard_s.push_back(span.Seconds());
      }
      {
        SpanRecorder::Scope span(recorder, "GraphStore::Open");
        NX_ASSIGN_OR_RETURN(built, GraphStore::Open(fs, out->dir));
        out->open_s.push_back(span.Seconds());
      }
    }
    out->num_vertices = built->num_vertices();
    out->build_write_bytes =
        fs->stats()->snapshot().bytes_written - written_before;
    out->store_bytes = DirectoryBytes(out->dir);
    NX_RETURN_NOT_OK(open(out->dir, *built));
    out->setup_s.push_back(timer.ElapsedSeconds());
  }
  return Status::OK();
}

/// The reference graph of the store in `dir`, read on the real filesystem
/// outside any timed phase; fails unless it holds every generated edge.
nxgraph::Result<nxgraph::ReferenceGraph> LoadCheckedGraph(
    const std::string& dir, uint64_t num_edges) {
  NX_ASSIGN_OR_RETURN(std::shared_ptr<GraphStore> store,
                      GraphStore::Open(Env::Default(), dir));
  NX_ASSIGN_OR_RETURN(nxgraph::ReferenceGraph graph,
                      nxgraph::LoadReferenceGraph(*store));
  if (graph.edges.size() != num_edges) {
    return Status::Corruption("store holds " +
                              std::to_string(graph.edges.size()) + " of " +
                              std::to_string(num_edges) + " edges");
  }
  return graph;
}

/// Per-op I/O metrics from the tracing Env's counters over a timed phase.
void SetIoMetrics(const IoCounters::Snapshot& d, double ops, LayerMetrics* m) {
  auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), ops); };
  auto cls = [](FileClass c) { return static_cast<int>(c); };
  m->Set("io.read_calls", per_op(d.read_calls));
  m->Set("io.read_bytes", per_op(d.read_bytes));
  m->Set("io.write_calls", per_op(d.write_calls));
  m->Set("io.write_bytes", per_op(d.write_bytes));
  m->Set("io.seeks", per_op(d.seeks));
  m->Set("io.syncs", per_op(d.syncs));
  m->Set("io.read_busy_ms", per_op(d.read_busy_ns) / 1e6);
  m->Set("io.write_busy_ms", per_op(d.write_busy_ns) / 1e6);
  m->Set("io.shard_read_bytes",
         per_op(d.class_read_bytes[cls(FileClass::kForwardShards)] +
                d.class_read_bytes[cls(FileClass::kTransposeShards)]));
  m->Set("io.hub_bytes", per_op(d.class_read_bytes[cls(FileClass::kHubs)] +
                                d.class_write_bytes[cls(FileClass::kHubs)]));
  m->Set("io.interval_bytes",
         per_op(d.class_read_bytes[cls(FileClass::kIntervals)] +
                d.class_write_bytes[cls(FileClass::kIntervals)]));
}

/// The tracing overhead: traced minus untraced run_s and process CPU
/// seconds of the timed phase. Prints both passes' figures.
template <typename Pass>
void SetOverheadMetrics(const Pass& traced, double traced_run_s,
                        const Pass& plain, double plain_run_s,
                        LayerMetrics* m) {
  const double traced_cpu_s =
      traced.proc_end.cpu_seconds - traced.proc_begin.cpu_seconds;
  const double plain_cpu_s =
      plain.proc_end.cpu_seconds - plain.proc_begin.cpu_seconds;
  std::printf("  traced pass: run_s %.4f cpu_s %.4f; untraced pass: run_s %.4f "
              "cpu_s %.4f\n",
              traced_run_s, traced_cpu_s, plain_run_s, plain_cpu_s);
  m->Set("trace.overhead_s", traced_run_s - plain_run_s);
  m->Set("trace.overhead_cpu_s", traced_cpu_s - plain_cpu_s);
}

void SetProcMetrics(const ProcSample& begin, const ProcSample& end, double ops,
                    LayerMetrics* m) {
  m->Set("proc.vol_ctx_switches",
         Ratio(static_cast<double>(end.voluntary_switches -
                                   begin.voluntary_switches),
               ops));
  m->Set("proc.invol_ctx_switches",
         Ratio(static_cast<double>(end.involuntary_switches -
                                   begin.involuntary_switches),
               ops));
  m->Set("host.steal_share", StealShare(begin, end));
}

/// One round of a timed phase: a RunPageRank call on the engine workload,
/// one kRoundS of the schedule on the serving workload. Wall-clock
/// metrics are reported as the median over a run's rounds, so a burst of
/// host load that hits a minority of rounds does not move them.
struct Round {
  double wall_s = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double throughput_per_s = 0;  ///< engine rounds only
  double cpu_s_per_op = 0;
  double device_bytes_per_op = 0;
  double peak_rss_mib = 0;
};

/// Marks the start of a round: samples the process and the run Env and
/// resets the RSS high-water mark, so peak_rss_mib covers the round only.
struct RoundStart {
  explicit RoundStart(Env* env) : proc(SampleProc()), env_bytes(EnvBytes(env)) {
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "warning: cannot reset the RSS high-water mark\n");
    }
  }
  static uint64_t EnvBytes(Env* env) {
    const auto s = env->stats()->snapshot();
    return s.bytes_read + s.bytes_written;
  }
  /// Fills the CPU, device-byte and RSS fields of `round` for `ops` ops.
  void Finish(Env* env, double ops, Round* round) const {
    round->cpu_s_per_op =
        Ratio(SampleProc().cpu_seconds - proc.cpu_seconds, ops);
    round->device_bytes_per_op =
        Ratio(static_cast<double>(EnvBytes(env) - env_bytes), ops);
    round->peak_rss_mib = PeakRssMib();
  }
  ProcSample proc;
  uint64_t env_bytes;
};

double MedianOf(const std::vector<Round>& rounds, double Round::*field) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(r.*field);
  return Median(v);
}

/// The end-to-end metrics, in BENCHMARK.json order.
std::vector<Metric> EndToEnd(const SetupResult& setup, double run_s,
                             double throughput_per_s,
                             const std::vector<Round>& rounds) {
  return {
      {"setup_s", Median(setup.setup_s), "s"},
      {"run_s", run_s, "s"},
      {"latency_p50_ms", MedianOf(rounds, &Round::p50_ms), "ms"},
      {"latency_p90_ms", MedianOf(rounds, &Round::p90_ms), "ms"},
      {"throughput_per_s", throughput_per_s, "1/s"},
      {"cpu_s_per_op", MedianOf(rounds, &Round::cpu_s_per_op), "s"},
      {"device_bytes_per_op", MedianOf(rounds, &Round::device_bytes_per_op),
       "B"},
      {"peak_rss_mib", MedianOf(rounds, &Round::peak_rss_mib), "MiB"},
      {"store_bytes_per_edge", setup.StoreBytesPerEdge(), "B/edge"},
  };
}

// ---- engine workload -------------------------------------------------------

struct EnginePass {
  std::vector<Round> rounds;  ///< one per successful call
  std::vector<double> prepare_s;  ///< RunStats::preprocess_seconds per call
  std::vector<double> first_iter_s;
  double iteration_s = 0;  ///< summed RunStats::iteration_seconds
  RunStats sum;            ///< counters summed over the calls
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> ranks;  ///< last successful call
  std::string strategy;
  uint64_t model_bytes_per_iteration = 0;
  ProcSample proc_begin, proc_end;
  IoCounters::Snapshot io;
};

EnginePass RunEnginePass(SpanRecorder* recorder, IoCounters* io, Env* env,
                         const std::shared_ptr<GraphStore>& store,
                         const RunOptions& options, int calls) {
  EnginePass p;
  nxgraph::PageRankOptions pr;
  pr.damping = kDamping;
  pr.iterations = options.max_iterations;
  const auto io_begin = io->snapshot();
  p.proc_begin = SampleProc();
  for (int c = 0; c < calls; ++c) {
    p.attempted += static_cast<uint64_t>(options.max_iterations);
    malloc_trim(0);  // return what earlier calls freed, for peak_rss_mib
    const RoundStart start(env);
    Timer timer;
    SpanRecorder::Scope span(recorder, "RunPageRank");
    auto r = nxgraph::RunPageRank(store, pr, options);
    const double wall = timer.ElapsedSeconds();
    if (!r.ok()) {
      std::fprintf(stderr, "RunPageRank failed: %s\n",
                   r.status().ToString().c_str());
      p.failed += static_cast<uint64_t>(options.max_iterations);
      continue;
    }
    const RunStats& s = r->stats;
    Round round;
    round.wall_s = wall;
    std::vector<double> ms;
    for (double t : s.iteration_seconds) {
      ms.push_back(t * 1e3);
      p.iteration_s += t;
    }
    round.p50_ms = Percentile(ms, 0.5);
    round.p90_ms = Percentile(ms, 0.9);
    round.throughput_per_s =
        Ratio(static_cast<double>(s.edges_traversed), s.seconds);
    start.Finish(env, s.iterations, &round);
    p.rounds.push_back(round);
    p.prepare_s.push_back(s.preprocess_seconds);
    if (!s.iteration_seconds.empty()) {
      p.first_iter_s.push_back(s.iteration_seconds.front());
    }
    p.sum.iterations += s.iterations;
    p.sum.edges_traversed += s.edges_traversed;
    p.sum.env_bytes_read += s.env_bytes_read;
    p.sum.phase_a_seconds += s.phase_a_seconds;
    p.sum.phase_b_seconds += s.phase_b_seconds;
    p.sum.phase_c_seconds += s.phase_c_seconds;
    p.sum.phase_d_seconds += s.phase_d_seconds;
    p.sum.io_wait_seconds += s.io_wait_seconds;
    p.sum.write_wait_seconds += s.write_wait_seconds;
    p.sum.decode_seconds += s.decode_seconds;
    p.sum.bulk_decode_calls += s.bulk_decode_calls;
    p.strategy = s.strategy;
    p.model_bytes_per_iteration = s.model_bytes_per_iteration;
    p.ranks = std::move(r->ranks);
  }
  p.proc_end = SampleProc();
  p.io = io->snapshot() - io_begin;
  return p;
}

/// Read bytes of a steady iteration ÷ the io_model prediction: a call of
/// `pass`'s length minus a 1-iteration call, which pay the same set-up,
/// first iteration and final collection.
double ModelRatio(const EnginePass& pass,
                  const std::shared_ptr<GraphStore>& store,
                  RunOptions options) {
  const int iterations = options.max_iterations;
  options.max_iterations = 1;
  nxgraph::PageRankOptions pr;
  pr.damping = kDamping;
  pr.iterations = 1;
  auto first = nxgraph::RunPageRank(store, pr, options);
  if (!first.ok() || iterations < 2 || pass.rounds.empty()) return 0;
  const double per_call = static_cast<double>(pass.sum.env_bytes_read) /
                          static_cast<double>(pass.rounds.size());
  const double steady =
      (per_call - static_cast<double>(first->stats.env_bytes_read)) /
      (iterations - 1);
  return Ratio(steady, static_cast<double>(pass.model_bytes_per_iteration));
}

int RunEngineWorkload(const Args& args) {
  SpanRecorder recorder(kMaxSpans);
  SpanRecorder* api = args.trace ? &recorder : nullptr;
  IoCounters io;
  Envs envs(args, &recorder, &io);

  SetupResult setup;
  std::shared_ptr<GraphStore> store;
  Status s = Setup(
      args, &recorder,
      [&](const std::string& dir, const GraphStore&) -> Status {
        SpanRecorder::Scope span(api, "GraphStore::Open");
        NX_ASSIGN_OR_RETURN(store, GraphStore::Open(envs.run, dir));
        return Status::OK();
      },
      [&] { store.reset(); }, &setup);
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 1;
  }

  RunOptions options;
  options.num_threads = kEngineThreads;
  options.io_threads = 1;
  options.max_iterations = kEngineIterations;
  // Half the ping-pong vertex state (2 * n * 8 B), so ChooseStrategy keeps
  // about half the intervals resident: MPU.
  options.memory_budget_bytes = store->num_vertices() * sizeof(double);
  const int calls = std::max(1, kEngineCallsPer10s * args.seconds / 10);

  envs.Record(true);
  EnginePass pass = RunEnginePass(api, &io, envs.run, store, options, calls);
  envs.Record(false);
  LayerMetrics layers;
  if (args.trace) {
    layers.Set("io.model_ratio", ModelRatio(pass, store, options));
    // The untraced pass opens its own handle below the tracer, so the
    // difference includes the wrapper's cost even when it records nothing.
    store.reset();
    auto untraced = GraphStore::Open(envs.throttled.get(), setup.dir);
    if (!untraced.ok()) {
      std::fprintf(stderr, "untraced open failed: %s\n",
                   untraced.status().ToString().c_str());
      return 1;
    }
    IoCounters unused;
    EnginePass plain = RunEnginePass(nullptr, &unused, envs.throttled.get(),
                                     *untraced, options, calls);
    SetOverheadMetrics(pass, MedianOf(pass.rounds, &Round::wall_s), plain,
                       MedianOf(plain.rounds, &Round::wall_s), &layers);
  }
  store.reset();

  // Correctness gate, outside the timed phase: the last ranks against the
  // single-threaded reference on the same store.
  auto graph = LoadCheckedGraph(setup.dir, setup.num_edges);
  std::string why = graph.ok() ? "" : graph.status().ToString();
  if (graph.ok()) {
    const double err = MaxRankRelativeError(
        pass.ranks,
        nxgraph::ReferencePageRank(*graph, kDamping, kEngineIterations));
    if (pass.ranks.empty() || err > kRankTolerance) {
      why = "rank error " + Short(err) + " against ReferencePageRank";
    }
  }
  if (!why.empty()) {
    std::fprintf(stderr, "correctness check failed: %s\n", why.c_str());
    return 2;
  }

  setup.PrintGraph(args);
  std::printf("  strategy=%s calls=%zu latency samples=%d per call\n",
              pass.strategy.c_str(), pass.rounds.size(), kEngineIterations);
  if (!args.trace) {
    PrintRunNotes(pass.attempted, pass.failed, pass.proc_begin, pass.proc_end);
    Finish(args, recorder, pass.attempted, pass.failed,
           EndToEnd(setup, MedianOf(pass.rounds, &Round::wall_s),
                    MedianOf(pass.rounds, &Round::throughput_per_s),
                    pass.rounds));
    return 0;
  }
  const double ops = static_cast<double>(pass.attempted);
  const RunStats& sum = pass.sum;
  const double phases = sum.phase_a_seconds + sum.phase_b_seconds +
                        sum.phase_c_seconds + sum.phase_d_seconds;
  setup.SetPrepMetrics(&layers);
  SetIoMetrics(pass.io, ops, &layers);
  layers.Set("engine.phase_a_ms", Ratio(sum.phase_a_seconds * 1e3, ops));
  layers.Set("engine.phase_b_ms", Ratio(sum.phase_b_seconds * 1e3, ops));
  layers.Set("engine.phase_c_ms", Ratio(sum.phase_c_seconds * 1e3, ops));
  layers.Set("engine.phase_d_ms", Ratio(sum.phase_d_seconds * 1e3, ops));
  layers.Set("engine.io_wait_ms", Ratio(sum.io_wait_seconds * 1e3, ops));
  layers.Set("engine.write_wait_ms", Ratio(sum.write_wait_seconds * 1e3, ops));
  layers.Set("engine.prepare_ms_per_run", Median(pass.prepare_s) * 1e3);
  layers.Set("engine.first_iter_ms", Median(pass.first_iter_s) * 1e3);
  layers.Set("engine.edges",
             Ratio(static_cast<double>(sum.edges_traversed), ops));
  layers.Set("engine.unexplained_share",
             Ratio(pass.iteration_s - phases, pass.iteration_s));
  layers.Set("storage.decode_ms", Ratio(sum.decode_seconds * 1e3, ops));
  layers.Set("storage.decode_calls",
             Ratio(static_cast<double>(sum.bulk_decode_calls), ops));
  SetProcMetrics(pass.proc_begin, pass.proc_end, ops, &layers);
  layers.Set("trace.spans", static_cast<double>(recorder.size()));
  Finish(args, recorder, pass.attempted, pass.failed, layers.metrics());
  return 0;
}

// ---- serving workload ------------------------------------------------------

/// One point query's outcome, as the collector saw it.
struct PointRecord {
  double due_s = 0;  ///< schedule offset
  double latency_ms = 0;
  double queue_ms = 0;
  double run_ms = 0;
  bool ok = false;
  uint64_t visited = 0;
  uint64_t skipped = 0;
  uint64_t charged = 0;
};

/// A k-hop answer kept for the correctness gate.
struct Sampled {
  nxgraph::VertexId root = 0;
  uint32_t k = 0;
  std::vector<nxgraph::VertexId> vertices;
  std::vector<uint32_t> hops;
};

/// Waits for point-query futures in submission order on its own thread, so
/// results are dropped as they arrive instead of piling up. Latencies come
/// from each query's own timestamps (lateness + queue + run), so waiting in
/// order never delays what is measured.
class Collector {
 public:
  struct Item {
    size_t index = 0;
    nxgraph::QueryFuture<nxgraph::PointResult> future;
    double due_s = 0;
    double late_ms = 0;
    bool keep = false;
    nxgraph::VertexId root = 0;
    uint32_t k = 0;
  };

  explicit Collector(size_t expected) : records_(expected) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Item item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// Waits for every pushed query; records are complete afterwards.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<PointRecord>& records() const { return records_; }
  std::vector<Sampled>& sampled() { return sampled_; }

 private:
  void Loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      const auto& out = item.future.Wait();
      PointRecord& r = records_[item.index];
      const nxgraph::QueryStats& st = out.result.stats;
      r.due_s = item.due_s;
      r.ok = out.status.ok();
      r.queue_ms = st.queue_seconds * 1e3;
      r.run_ms = st.run_seconds * 1e3;
      r.latency_ms =
          OpenLoopLatencyMs(item.late_ms, st.queue_seconds, st.run_seconds);
      r.visited = st.subshards_visited;
      r.skipped = st.subshards_skipped;
      r.charged = st.bytes_charged;
      if (item.keep && r.ok) {
        sampled_.push_back(
            {item.root, item.k, out.result.vertices, out.result.hops});
      }
    }
  }

  std::vector<PointRecord> records_;
  std::vector<Sampled> sampled_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool closed_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

struct ServePass {
  std::vector<Round> rounds;  ///< one per kRoundS of the schedule
  std::vector<PointRecord> points;
  std::vector<Sampled> sampled;
  std::vector<double> batch_ms;
  std::vector<double> batch_due_end_s;  ///< due + latency of each batch
  std::vector<double> last_batch_ranks;
  uint64_t batches_failed = 0;
  std::vector<double> late_ms;        ///< every generator event
  std::vector<double> submit_us;      ///< Submit() call durations
  std::vector<double> stats_call_ms;  ///< stats() call durations
  ProcSample proc_begin, proc_end;
  IoCounters::Snapshot io;
  nxgraph::SubShardCache::Counters cache_delta;
  double decode_ms = 0;
  uint64_t decode_calls = 0;

  uint64_t failed() const {
    uint64_t f = 0;
    for (const PointRecord& r : points) f += !r.ok;
    return f;
  }
  /// First scheduled send to last completion, seconds.
  double RunSeconds() const {
    double end = 0;
    for (const PointRecord& r : points) {
      end = std::max(end, r.due_s + r.latency_ms / 1e3);
    }
    for (double e : batch_due_end_s) end = std::max(end, e);
    return end;
  }
};

struct Event {
  enum Kind { kRound, kPoint, kBatch, kScrape } kind = kPoint;
  double at_s = 0;
  PointQuery query;
};

/// Draws query roots with probability proportional to out-degree (the
/// source of a uniformly random edge), so a 1-hop query always has edges to
/// follow and every query of one kind does a similar amount of work.
class RootSampler {
 public:
  explicit RootSampler(const std::vector<uint32_t>& out_degrees) {
    uint64_t sum = 0;
    for (uint32_t d : out_degrees) cumulative_.push_back(sum += d);
  }
  nxgraph::VertexId Sample(nxgraph::Xoshiro256* rng) const {
    const uint64_t edge = rng->NextBounded(cumulative_.back());
    return static_cast<nxgraph::VertexId>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), edge) -
        cumulative_.begin());
  }

 private:
  std::vector<uint64_t> cumulative_;
};

/// Rounds of the serving schedule, at least one.
int ServeRounds(int seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kRoundS)));
}

/// The seeded open-loop schedule, in time order: point queries at a fixed
/// rate with seeded roots; a batch in the middle of round kRoundsPerBatch / 2
/// of every kRoundsPerBatch (of the last round in a shorter schedule, so
/// there is always one); a stats() scrape every kScrapePeriodS; and a kRound
/// mark at every round boundary, the last one closing the final round.
std::vector<Event> MakeSchedule(uint64_t seed, int seconds,
                                const RootSampler& roots) {
  std::vector<Event> events;
  const int rounds = ServeRounds(seconds);
  const double length = rounds * kRoundS;
  nxgraph::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const int points = static_cast<int>(std::lround(kQueryRate * length));
  for (int i = 0; i < points; ++i) {
    Event e;
    e.kind = Event::kPoint;
    e.at_s = i / kQueryRate;
    e.query.kind = QueryKind::kKHop;
    e.query.root = roots.Sample(&rng);
    e.query.limits.max_hops = (i % kTwoHopEvery == kTwoHopEvery - 1) ? 2 : 1;
    events.push_back(e);
  }
  const int batch_round = std::min(kRoundsPerBatch / 2, rounds - 1);
  for (int r = 0; r <= rounds; ++r) {
    events.push_back({Event::kRound, r * kRoundS, {}});
    if (r < rounds && r % kRoundsPerBatch == batch_round) {
      events.push_back({Event::kBatch, (r + 0.5) * kRoundS, {}});
    }
  }
  for (int k = 1; k * kScrapePeriodS < length; ++k) {
    events.push_back({Event::kScrape, k * kScrapePeriodS, {}});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_s < b.at_s ||
                            (a.at_s == b.at_s && a.kind < b.kind);
                   });
  return events;
}

/// Opens a GraphServer on `env` with a cache of `cache_budget` bytes and
/// warms it with one 2-hop query from a seeded root.
nxgraph::Result<std::unique_ptr<GraphServer>> OpenWarmServer(
    SpanRecorder* recorder, Env* env, const std::string& dir,
    uint64_t cache_budget, const RootSampler& roots, uint64_t seed) {
  GraphServer::Options options;
  options.cache_budget_bytes = cache_budget;
  options.num_workers = kServerWorkers;
  options.io_threads = 1;
  std::unique_ptr<GraphServer> server;
  {
    SpanRecorder::Scope span(recorder, "GraphServer::Open");
    NX_ASSIGN_OR_RETURN(server, GraphServer::Open(env, dir, options));
  }
  nxgraph::Xoshiro256 warm_rng(seed + 7);
  PointQuery warm;
  warm.kind = QueryKind::kKHop;
  warm.root = roots.Sample(&warm_rng);
  warm.limits.max_hops = 2;
  NX_RETURN_NOT_OK(server->Submit(warm).Wait().status);
  return server;
}

/// Sends `events` on schedule from the calling thread, the only sender.
ServePass RunServePass(SpanRecorder* recorder, IoCounters* io, Env* env,
                       uint64_t seed, GraphServer* server,
                       const std::vector<Event>& events) {
  ServePass p;
  size_t num_points = 0;
  for (const Event& e : events) num_points += e.kind == Event::kPoint;

  // A seeded sample of point queries whose answers the gate checks.
  std::vector<uint8_t> keep(num_points, 0);
  nxgraph::Xoshiro256 pick(seed ^ 0x5bd1e995ull);
  for (int k = 0; k < kGateQueries && num_points > 0; ++k) {
    keep[pick.NextBounded(num_points)] = 1;
  }

  PageRankProgram batch_program;
  batch_program.num_vertices = server->store().num_vertices();
  batch_program.damping = kDamping;
  BatchQuery batch_spec;
  batch_spec.max_iterations = kBatchIterations;
  struct PendingBatch {
    nxgraph::QueryFuture<nxgraph::BatchResult<double>> future;
    double due_s;
    double late_ms;
  };
  std::vector<PendingBatch> batches;

  malloc_trim(0);
  const auto io_begin = io->snapshot();
  const auto cache_begin = server->cache()->counters();
  const uint64_t decode_ns_begin = server->store().decode_nanos();
  const uint64_t decode_calls_begin = server->store().bulk_decode_calls();
  p.proc_begin = SampleProc();

  Collector collector(num_points);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  size_t point_index = 0;
  size_t round_first_point = 0;
  std::optional<RoundStart> round;
  for (const Event& e : events) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(e.at_s));
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const double late_ms = LatenessMs(due, sent);
    p.late_ms.push_back(late_ms);
    switch (e.kind) {
      case Event::kRound:
        if (round.has_value()) {
          p.rounds.emplace_back();
          round->Finish(env,
                        static_cast<double>(point_index - round_first_point),
                        &p.rounds.back());
        }
        round.emplace(env);
        round_first_point = point_index;
        break;
      case Event::kPoint: {
        Collector::Item item;
        {
          SpanRecorder::Scope span(recorder, "Submit");
          item.future = server->Submit(e.query);
        }
        p.submit_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - sent)
                .count());
        item.index = point_index;
        item.due_s = e.at_s;
        item.late_ms = late_ms;
        item.keep = keep[point_index] != 0;
        item.root = e.query.root;
        item.k = static_cast<uint32_t>(e.query.limits.max_hops);
        collector.Push(std::move(item));
        ++point_index;
        break;
      }
      case Event::kBatch: {
        SpanRecorder::Scope span(recorder, "SubmitBatch");
        batches.push_back(
            {server->SubmitBatch(batch_program, batch_spec), e.at_s, late_ms});
        break;
      }
      case Event::kScrape: {
        SpanRecorder::Scope span(recorder, "stats");
        (void)server->stats();
        p.stats_call_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count());
        break;
      }
    }
  }
  collector.Finish();
  for (PendingBatch& b : batches) {
    const auto& out = b.future.Wait();
    if (!out.status.ok()) {
      ++p.batches_failed;
      continue;
    }
    const double ms = OpenLoopLatencyMs(
        b.late_ms, out.result.stats.queue_seconds, out.result.stats.run_seconds);
    p.batch_ms.push_back(ms);
    p.batch_due_end_s.push_back(b.due_s + ms / 1e3);
    p.last_batch_ranks = out.result.values;
  }
  p.proc_end = SampleProc();
  p.io = io->snapshot() - io_begin;
  const auto cache_end = server->cache()->counters();
  p.cache_delta.hits = cache_end.hits - cache_begin.hits;
  p.cache_delta.misses = cache_end.misses - cache_begin.misses;
  p.cache_delta.evicted_bytes =
      cache_end.evicted_bytes - cache_begin.evicted_bytes;
  p.decode_ms =
      static_cast<double>(server->store().decode_nanos() - decode_ns_begin) /
      1e6;
  p.decode_calls = server->store().bulk_decode_calls() - decode_calls_begin;
  p.points = collector.records();
  p.sampled = std::move(collector.sampled());
  // A query's latency belongs to the round it was due in.
  std::vector<std::vector<double>> latency(p.rounds.size());
  for (const PointRecord& r : p.points) {
    const size_t k = static_cast<size_t>(r.due_s / kRoundS);
    if (r.ok && k < latency.size()) latency[k].push_back(r.latency_ms);
  }
  for (size_t k = 0; k < p.rounds.size(); ++k) {
    p.rounds[k].p50_ms = Percentile(latency[k], 0.5);
    p.rounds[k].p90_ms = Percentile(latency[k], 0.9);
  }
  return p;
}

/// Checks the sampled k-hop answers against ReferenceBfs and the last batch
/// against ReferencePageRank; returns why they differ, or "".
std::string CheckServeAnswers(const SetupResult& setup, const ServePass& pass) {
  auto graph = LoadCheckedGraph(setup.dir, setup.num_edges);
  if (!graph.ok()) return graph.status().ToString();
  if (pass.sampled.empty()) return "no sampled point query completed";
  for (const Sampled& s : pass.sampled) {
    if (!KHopMatches(s.vertices, s.hops, nxgraph::ReferenceBfs(*graph, s.root),
                     s.k)) {
      return "k-hop answer from root " + std::to_string(s.root) +
             " differs from ReferenceBfs";
    }
  }
  const double err = MaxRankRelativeError(
      pass.last_batch_ranks,
      nxgraph::ReferencePageRank(*graph, kDamping, kBatchIterations));
  if (pass.batches_failed > 0 || err > kRankTolerance) {
    return "batch PageRank failed or differs from ReferencePageRank (error " +
           Short(err) + ")";
  }
  return "";
}

int RunServeWorkload(const Args& args) {
  SpanRecorder recorder(kMaxSpans);
  SpanRecorder* api = args.trace ? &recorder : nullptr;
  IoCounters io;
  Envs envs(args, &recorder, &io);

  SetupResult setup;
  std::unique_ptr<GraphServer> server;
  std::optional<RootSampler> roots;
  uint64_t cache_budget = 0;
  Status s = Setup(
      args, &recorder,
      [&](const std::string& dir, const GraphStore& built) -> Status {
        cache_budget =
            built.manifest().TotalDecodedSubShardBytes() / kCacheDivisor;
        NX_ASSIGN_OR_RETURN(std::vector<uint32_t> out_degrees,
                            built.LoadOutDegrees());
        roots.emplace(out_degrees);
        NX_ASSIGN_OR_RETURN(server,
                            OpenWarmServer(api, envs.run, dir, cache_budget,
                                           *roots, args.seed));
        return Status::OK();
      },
      [&] { server.reset(); }, &setup);
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const std::vector<Event> events =
      MakeSchedule(args.seed, args.seconds, *roots);
  envs.Record(true);
  ServePass pass =
      RunServePass(api, &io, envs.run, args.seed, server.get(), events);
  envs.Record(false);
  const uint64_t lifetime_queries = server->stats().submitted;
  server.reset();
  LayerMetrics layers;
  if (args.trace) {
    // The untraced pass runs on a fresh server opened below the tracer, so
    // the difference includes the wrapper's cost even when it records
    // nothing, and both passes start with the same lifetime query count.
    auto untraced = OpenWarmServer(nullptr, envs.throttled.get(), setup.dir,
                                   cache_budget, *roots, args.seed);
    if (!untraced.ok()) {
      std::fprintf(stderr, "untraced open failed: %s\n",
                   untraced.status().ToString().c_str());
      return 1;
    }
    IoCounters unused;
    ServePass plain = RunServePass(nullptr, &unused, envs.throttled.get(),
                                   args.seed, untraced->get(), events);
    // The schedule fixes run_s, so its difference shows only a change in
    // the last query's tail; the CPU time shows what tracing costs here.
    SetOverheadMetrics(pass, pass.RunSeconds(), plain, plain.RunSeconds(),
                       &layers);
  }

  // Correctness gate, outside the timed phase.
  const std::string why = CheckServeAnswers(setup, pass);
  if (!why.empty()) {
    std::fprintf(stderr, "correctness check failed: %s\n", why.c_str());
    return 2;
  }

  const uint64_t attempted = pass.points.size();
  const uint64_t failed = pass.failed();
  setup.PrintGraph(args);
  std::printf("  cache=%llu B (1/%llu of decoded) point queries=%llu "
              "batches=%zu scrapes=%zu lifetime queries=%llu\n",
              static_cast<unsigned long long>(cache_budget),
              static_cast<unsigned long long>(kCacheDivisor),
              static_cast<unsigned long long>(attempted), pass.batch_ms.size(),
              pass.stats_call_ms.size(),
              static_cast<unsigned long long>(lifetime_queries));
  const double completed = static_cast<double>(attempted - failed);
  if (!args.trace) {
    PrintRunNotes(attempted, failed, pass.proc_begin, pass.proc_end);
    Finish(args, recorder, attempted, failed,
           EndToEnd(setup, pass.RunSeconds(),
                    Ratio(completed, pass.RunSeconds()), pass.rounds));
    return 0;
  }

  const double ops = static_cast<double>(attempted);
  std::vector<double> queue, run, completion;
  double visited = 0, skipped = 0, charged = 0;
  for (const PointRecord& r : pass.points) {
    if (!r.ok) continue;
    queue.push_back(r.queue_ms);
    run.push_back(r.run_ms);
    completion.push_back(r.queue_ms + r.run_ms);
    visited += static_cast<double>(r.visited);
    skipped += static_cast<double>(r.skipped);
    charged += static_cast<double>(r.charged);
  }
  setup.SetPrepMetrics(&layers);
  SetIoMetrics(pass.io, ops, &layers);
  layers.Set("storage.decode_ms", Ratio(pass.decode_ms, ops));
  layers.Set("storage.decode_calls",
             Ratio(static_cast<double>(pass.decode_calls), ops));
  layers.Set("storage.cache_hit_rate",
             Ratio(static_cast<double>(pass.cache_delta.hits),
                   static_cast<double>(pass.cache_delta.hits +
                                       pass.cache_delta.misses)));
  layers.Set("storage.evicted_bytes",
             Ratio(static_cast<double>(pass.cache_delta.evicted_bytes), ops));
  layers.Set("server.queue_ms_p50", Percentile(queue, 0.5));
  layers.Set("server.queue_ms_p90", Percentile(queue, 0.9));
  layers.Set("server.submit_us_p90", Percentile(pass.submit_us, 0.9));
  layers.Set("server.stats_call_ms_max", Percentile(pass.stats_call_ms, 1.0));
  layers.Set("server.run_ms_p50", Percentile(run, 0.5));
  layers.Set("server.run_ms_p90", Percentile(run, 0.9));
  layers.Set("server.completion_ms_p50", Percentile(completion, 0.5));
  layers.Set("server.subshards_per_query", Ratio(visited, completed));
  layers.Set("server.skip_ratio", Ratio(skipped, visited + skipped));
  layers.Set("server.bytes_charged_per_query", Ratio(charged, completed));
  layers.Set("server.batch_ms_p50", Median(pass.batch_ms));
  SetProcMetrics(pass.proc_begin, pass.proc_end, ops, &layers);
  layers.Set("loadgen.late_ms_p90", Percentile(pass.late_ms, 0.9));
  layers.Set("trace.spans", static_cast<double>(recorder.size()));
  Finish(args, recorder, attempted, failed, layers.metrics());
  return 0;
}

}  // namespace
}  // namespace nxbench

int main(int argc, char** argv) {
  nxbench::Args args;
  if (!nxbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nxbench --workload pagerank-mpu-ssd|serve-mixed-ssd "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--trace-out FILE]\n");
    return 64;
  }
  // The work directory is deleted at exit, so it must hold nothing else.
  std::error_code ec;
  if (std::filesystem::exists(args.work_dir, ec) &&
      !std::filesystem::is_empty(args.work_dir, ec)) {
    std::fprintf(stderr, "--work-dir %s exists and is not empty\n",
                 args.work_dir.c_str());
    return 64;
  }
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 1;
  }
  const int rc = args.workload == nxbench::Workload::kServeSsd
                     ? nxbench::RunServeWorkload(args)
                     : nxbench::RunEngineWorkload(args);
  std::filesystem::remove_all(args.work_dir, ec);
  return rc;
}
