// Sub-shard format benchmark: NXS1 (raw fixed-width) vs NXS2 (delta-varint)
// on the R-MAT bench graph. Reports store size and bytes per edge, decode
// throughput over rows read with GraphStore::ReadVerifiedRow (the CRC is
// checked there, outside the decode timer), and out-of-core PageRank on a
// throttled-SSD Env (device model) plus the direct backend (real device) —
// with RunStats::env_bytes_read proving the byte reduction is measured at
// the Env layer, not inferred. sharder_test gates the size reduction
// (NXS2 >= 1.8x smaller on live-journal-sim at divisor 1024, P = 16).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/util/byte_size.h"
#include "src/util/varint.h"
#include "src/util/timer.h"

namespace nxgraph {
namespace {

struct FormatStore {
  std::shared_ptr<GraphStore> store;
  uint64_t shard_bytes = 0;  // subshards.nxs
};

FormatStore BuildFormatStore(SubShardFormat format, uint32_t p,
                             uint64_t divisor) {
  FormatStore fs;
  fs.store = bench::GetFormatStore("live-journal-sim", p, divisor, format);
  fs.shard_bytes = fs.store->TotalSubShardBytes(false);
  return fs;
}

// Every row of the store as ReadVerifiedRow returns it: its blobs' bytes,
// checksums checked.
std::vector<std::string> ReadRows(const GraphStore& store) {
  const uint32_t p = store.num_intervals();
  std::vector<std::string> raws(p);
  for (uint32_t i = 0; i < p; ++i) {
    auto raw = store.ReadVerifiedRow(i, 0, p, false, /*max_rereads=*/1);
    NX_CHECK(raw.ok());
    raws[i] = std::move(*raw);
  }
  return raws;
}

// Decodes row i's blobs from `raw` with `path`, as the engine's decode
// stage does.
std::vector<SubShard> DecodeRow(const GraphStore& store, uint32_t i,
                                const std::string& raw, DecodePath path) {
  const Manifest& m = store.manifest();
  const uint64_t base = m.subshard(i, 0).offset;
  std::vector<SubShard> row;
  for (uint32_t j = 0; j < store.num_intervals(); ++j) {
    const SubShardMeta& meta = m.subshard(i, j);
    auto ss = store.DecodeVerifiedBlob(i, j, raw.data() + (meta.offset - base),
                                       meta.size, path, nullptr);
    NX_CHECK(ss.ok());
    row.push_back(std::move(*ss));
  }
  return row;
}

// Decode seconds over the whole store with `path`, rows read (and their
// checksums checked) beforehand: the CPU price of the format, isolated
// from the disk and from the CRC.
double MeasureDecodeSeconds(const GraphStore& store, int reps,
                            DecodePath path = ResolveDecodePath(
                                SimdDecode::kAuto)) {
  const std::vector<std::string> raws = ReadRows(store);
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (uint32_t i = 0; i < raws.size(); ++i) {
      benchmark::DoNotOptimize(DecodeRow(store, i, raws[i], path));
    }
  }
  return timer.ElapsedSeconds() / reps;
}

// The exact varint bytes BulkGetVarint32 sees while decoding the store —
// every blob's dst-delta, count, and src-delta streams concatenated — and
// the value count, for measuring the bulk kernel without the surrounding
// reconstruction/validation work.
struct BulkStreams {
  std::string bytes;
  size_t values = 0;
};

BulkStreams ExtractBulkStreams(const GraphStore& store) {
  BulkStreams bs;
  const std::vector<std::string> raws = ReadRows(store);
  for (uint32_t i = 0; i < raws.size(); ++i) {
    for (const SubShard& ss :
         DecodeRow(store, i, raws[i], ResolveDecodePath(SimdDecode::kAuto))) {
      for (uint32_t g = 0; g < ss.num_dsts(); ++g) {
        PutVarint32(&bs.bytes, g == 0 ? ss.dsts[0]
                                      : ss.dsts[g] - ss.dsts[g - 1] - 1);
      }
      for (uint32_t g = 0; g < ss.num_dsts(); ++g) {
        PutVarint32(&bs.bytes, ss.offsets[g + 1] - ss.offsets[g]);
      }
      for (uint32_t g = 0; g < ss.num_dsts(); ++g) {
        for (uint32_t k = ss.offsets[g]; k < ss.offsets[g + 1]; ++k) {
          PutVarint32(&bs.bytes, k == ss.offsets[g]
                                     ? ss.srcs[k]
                                     : ss.srcs[k] - ss.srcs[k - 1]);
        }
      }
      bs.values += 2 * ss.num_dsts() + ss.num_edges();
    }
  }
  return bs;
}

double MeasureBulkKernelSeconds(const BulkStreams& bs, int reps,
                                DecodePath path) {
  std::vector<uint32_t> out(bs.values);
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    const char* end =
        BulkGetVarint32(bs.bytes.data(), bs.bytes.data() + bs.bytes.size(),
                        out.data(), bs.values, path);
    NX_CHECK(end == bs.bytes.data() + bs.bytes.size());
    benchmark::DoNotOptimize(out.data());
  }
  return timer.ElapsedSeconds() / reps;
}

// Scalar-vs-SIMD decode throughput over the NXS2 store (encoded MB/s and
// edge rate).
void PrintDecodePathTable(const GraphStore& s2, uint64_t shard_bytes,
                          double edges, int reps) {
  const DecodePath best = ResolveDecodePath(SimdDecode::kAuto);
  const double scalar_s = MeasureDecodeSeconds(s2, reps, DecodePath::kScalar);
  const double simd_s = MeasureDecodeSeconds(s2, reps, best);
  const double mb = static_cast<double>(shard_bytes) / (1024.0 * 1024.0);
  std::printf("\n--- NXS2 decode path: scalar vs %s (whole store) ---\n",
              DecodePathName(best));
  bench::Table t({"Path", "Decode (s)", "MB/s", "Edges/s (M)", "Speedup"});
  t.AddRow({"scalar", bench::Fmt(scalar_s, 3), bench::Fmt(mb / scalar_s, 1),
            bench::Fmt(edges / scalar_s / 1e6, 1), "1.00x"});
  t.AddRow({DecodePathName(best), bench::Fmt(simd_s, 3),
            bench::Fmt(mb / simd_s, 1), bench::Fmt(edges / simd_s / 1e6, 1),
            bench::Fmt(scalar_s / simd_s) + "x"});
  t.Print();

  // The bulk kernel alone (BulkGetVarint32 over the store's concatenated
  // varint streams) — the whole-store rows above additionally carry the
  // path-independent reconstruction and allocation work (not the CRC, which
  // the verified read checks before decoding).
  const BulkStreams bs = ExtractBulkStreams(s2);
  const int kreps = 10 * reps;
  const double kscalar =
      MeasureBulkKernelSeconds(bs, kreps, DecodePath::kScalar);
  const double ksimd = MeasureBulkKernelSeconds(bs, kreps, best);
  const double smb = static_cast<double>(bs.bytes.size()) / (1024.0 * 1024.0);
  std::printf("\n--- NXS2 bulk varint kernel (%zu values, %.1f MiB) ---\n",
              bs.values, smb);
  bench::Table k({"Path", "Decode (s)", "MB/s", "Mvals/s", "Speedup"});
  k.AddRow({"scalar", bench::Fmt(kscalar, 3), bench::Fmt(smb / kscalar, 1),
            bench::Fmt(static_cast<double>(bs.values) / kscalar / 1e6, 1),
            "1.00x"});
  k.AddRow({DecodePathName(best), bench::Fmt(ksimd, 3),
            bench::Fmt(smb / ksimd, 1),
            bench::Fmt(static_cast<double>(bs.values) / ksimd / 1e6, 1),
            bench::Fmt(kscalar / ksimd) + "x"});
  k.Print();
}

// Stream-mode budget: state + degrees + a sliver, so every iteration
// re-reads the shard file through the prefetch pipeline.
uint64_t StreamBudget(const GraphStore& store) {
  return 2 * store.num_vertices() * sizeof(double) +
         store.num_vertices() * 4 + 64 * 1024;
}

RunStats RunStreamPageRank(std::shared_ptr<GraphStore> store,
                           int iterations) {
  PageRankProgram program;
  program.num_vertices = store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kSinglePhase;
  opt.memory_budget_bytes = StreamBudget(*store);
  opt.max_iterations = iterations;
  opt.num_threads = 3;
  opt.prefetch_depth = 2;
  opt.io_threads = 1;
  Engine<PageRankProgram> engine(store, program, opt);
  auto stats = engine.Run();
  NX_CHECK(stats.ok()) << stats.status().ToString();
  return *stats;
}

}  // namespace
}  // namespace nxgraph

int main(int argc, char** argv) {
  using namespace nxgraph;
  const bool full = bench::FullMode(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // The RMAT bench graph (live-journal-sim parameters).
  const uint64_t divisor = bench::Divisor("live-journal-sim", full);
  const uint32_t p = 32;

  FormatStore s1 = BuildFormatStore(SubShardFormat::kNxs1, p, divisor);
  FormatStore s2 = BuildFormatStore(SubShardFormat::kNxs2, p, divisor);
  const double m = static_cast<double>(s1.store->num_edges());
  const double ratio = static_cast<double>(s1.shard_bytes) /
                       static_cast<double>(s2.shard_bytes);

  std::printf(
      "\n=== Sub-shard format: NXS1 vs NXS2 (RMAT live-journal-sim, "
      "n=%llu, m=%llu, P=%u, unweighted) ===\n\n",
      static_cast<unsigned long long>(s1.store->num_vertices()),
      static_cast<unsigned long long>(s1.store->num_edges()), p);
  bench::Table sizes({"Format", "Store bytes", "Bytes/edge", "vs NXS1"});
  sizes.AddRow({"NXS1", FormatByteSize(s1.shard_bytes),
                bench::Fmt(s1.shard_bytes / m), "1.00x"});
  sizes.AddRow({"NXS2", FormatByteSize(s2.shard_bytes),
                bench::Fmt(s2.shard_bytes / m), bench::Fmt(ratio) + "x"});
  sizes.Print();

  // ---- decode cost (pure CPU, shard file pre-read and verified) ----------
  const int reps = full ? 10 : 3;
  const double dec1 = MeasureDecodeSeconds(*s1.store, reps);
  const double dec2 = MeasureDecodeSeconds(*s2.store, reps);
  std::printf(
      "\n--- Decode cost (whole store, rows pre-read and CRC-checked; the "
      "CRC is not timed) ---\n");
  bench::Table decode({"Format", "Decode (s)", "Edges/s (M)"});
  decode.AddRow({"NXS1", bench::Fmt(dec1, 3), bench::Fmt(m / dec1 / 1e6, 1)});
  decode.AddRow({"NXS2", bench::Fmt(dec2, 3), bench::Fmt(m / dec2 / 1e6, 1)});
  decode.Print();
  PrintDecodePathTable(*s2.store, s2.shard_bytes, m, reps);

  // ---- throttled-SSD stream PageRank (device model) ----------------------
  const int iterations = full ? 10 : 5;
  auto env = NewThrottledEnv(Env::Default(), DeviceProfile::Ssd());
  std::printf(
      "\n--- Stream-mode PageRank, throttled SSD model (%d iterations) "
      "---\n",
      iterations);
  bench::Table throttled({"Format", "Wall (s)", "I/O wait (s)",
                          "Env bytes read", "Bytes read/iter", "MTEPS"});
  for (const auto* fs : {&s1, &s2}) {
    auto reopened = OpenGraphStore(fs->store->dir(), env.get());
    NX_CHECK(reopened.ok());
    RunStats r = RunStreamPageRank(*reopened, iterations);
    throttled.AddRow(
        {fs == &s1 ? "NXS1" : "NXS2", bench::Fmt(r.seconds, 3),
         bench::Fmt(r.io_wait_seconds, 3), FormatByteSize(r.env_bytes_read),
         FormatByteSize(r.env_bytes_read / iterations),
         bench::Fmt(r.Mteps(), 1)});
  }
  throttled.Print();

  // ---- direct I/O (real device, page cache bypassed) ---------------------
  // The store and the run's scratch files go through DirectIOEnv, which
  // falls back to buffered I/O per file where the filesystem refuses
  // O_DIRECT.
  std::printf("\n--- Stream-mode PageRank, direct I/O Env ---\n");
  auto direct_env = NewDirectIOEnv();
  bench::Table direct({"Format", "Backend (eff)", "Wall (s)", "I/O wait (s)",
                       "Env bytes read", "MTEPS"});
  for (const auto* fs : {&s1, &s2}) {
    auto reopened = OpenGraphStore(fs->store->dir(), direct_env.get());
    NX_CHECK(reopened.ok()) << reopened.status().ToString();
    RunStats r = RunStreamPageRank(*reopened, iterations);
    direct.AddRow({fs == &s1 ? "NXS1" : "NXS2",
                   DirectIOSupported(fs->store->dir()) ? "direct" : "buffered",
                   bench::Fmt(r.seconds, 3), bench::Fmt(r.io_wait_seconds, 3),
                   FormatByteSize(r.env_bytes_read), bench::Fmt(r.Mteps(), 1)});
  }
  direct.Print();
  std::printf(
      "\nShape check: the NXS2 store is >= 1.8x smaller and env_bytes_read "
      "drops by the same factor on the shard traffic. Wall time follows "
      "the bytes whenever the device is the bottleneck (the throttled "
      "model, spinning disks, busy/slow SSDs); decode costs extra CPU, so "
      "on a fast device with few cores (where the off-thread decode split "
      "cannot hide it) NXS1 can still win wall-clock — the classic "
      "compression tradeoff, now measurable per run via env_bytes_read. "
      "The decode tables time the decode alone: each blob's CRC is checked "
      "by the verified row read, outside the timer, so they read lower than "
      "tables that timed the CRC inside the decode.\n");
  return 0;
}
