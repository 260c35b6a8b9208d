// I/O backend tests: DirectIOEnv alignment edge cases (unaligned logical
// offsets/lengths, short reads at EOF, O_DIRECT-refused fallback, page-cache
// coherency with buffered readers) and the engine parity matrix — PageRank
// and WCC results must be bit-identical whether the caller opens a
// real-disk store on Env::Default() or on a DirectIOEnv.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "src/algos/programs.h"
#include "src/engine/engine.h"
#include "src/io/env.h"
#include "src/io/posix_base.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

class IoBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/nxgraph_io_backend_XXXXXX";
    root_ = mkdtemp(tmpl);
    ASSERT_FALSE(root_.empty());
  }
  void TearDown() override {
    ASSERT_TRUE(Env::Default()->RemoveDirRecursively(root_).ok());
  }

  std::string Path(const std::string& name) const { return root_ + "/" + name; }

  std::string root_;
};

// ---- DirectIOEnv ----------------------------------------------------------

// Writes patterned data at deliberately hostile offsets/lengths through the
// direct Env, then reads every range back through BOTH the direct Env and
// the buffered one: logical offsets/lengths must be preserved exactly, and
// the two views must agree (page-cache coherency across the O_DIRECT and
// buffered fds).
TEST_F(IoBackendTest, DirectUnalignedOffsetsAndLengthsRoundTrip) {
  if (!DirectIOSupported(root_)) GTEST_SKIP() << "no O_DIRECT on /tmp";
  auto direct = NewDirectIOEnv();
  const uint64_t a = kDirectIOAlignment;

  // (offset, length) pairs covering: inside one block, head-only, tail-only,
  // block-spanning unaligned both ends, fully aligned, and > one staging
  // chunk would need (kept modest for test speed).
  const std::vector<std::pair<uint64_t, size_t>> ranges = {
      {3, 17},               // inside the first block
      {a - 7, 14},           // straddles one boundary
      {2 * a, a},            // fully aligned
      {2 * a + 1, 3 * a},    // unaligned head, aligned-size middle
      {7 * a - 3, 2 * a + 9},  // unaligned both ends
      {16 * a + 123, 64 * 1024 + 7},  // multi-block with odd padding
  };

  // Golden model in memory.
  uint64_t file_size = 0;
  for (const auto& [off, len] : ranges) {
    file_size = std::max(file_size, off + len);
  }
  std::string golden(file_size, '\0');
  Xoshiro256 rng(7);
  {
    std::unique_ptr<RandomWriteFile> w;
    ASSERT_TRUE(direct->NewRandomWriteFile(Path("data"), &w).ok());
    for (const auto& [off, len] : ranges) {
      std::string payload(len, '\0');
      for (char& c : payload) {
        c = static_cast<char>('a' + rng.NextBounded(26));
      }
      std::memcpy(golden.data() + off, payload.data(), len);
      ASSERT_TRUE(w->WriteAt(off, payload.data(), payload.size()).ok());
    }
    ASSERT_TRUE(w->Flush().ok());
    ASSERT_TRUE(w->Close().ok());
  }

  for (Env* env : {direct.get(), Env::Default()}) {
    std::unique_ptr<RandomAccessFile> r;
    ASSERT_TRUE(env->NewRandomAccessFile(Path("data"), &r).ok());
    for (const auto& [off, len] : ranges) {
      std::string got(len, '\0');
      size_t n = 0;
      ASSERT_TRUE(r->ReadAt(off, len, got.data(), &n).ok());
      ASSERT_EQ(n, len) << "offset " << off;
      EXPECT_EQ(got, golden.substr(off, len)) << "offset " << off;
    }
    // Whole-file read at offset 0 agrees with the golden model, including
    // the zero gaps between the written ranges.
    std::string all(file_size, 'x');
    size_t n = 0;
    ASSERT_TRUE(r->ReadAt(0, all.size(), all.data(), &n).ok());
    ASSERT_EQ(n, file_size);
    EXPECT_EQ(all, golden);
  }
}

TEST_F(IoBackendTest, DirectShortReadsAtEof) {
  if (!DirectIOSupported(root_)) GTEST_SKIP() << "no O_DIRECT on /tmp";
  auto direct = NewDirectIOEnv();
  const uint64_t a = kDirectIOAlignment;
  // Unaligned file size: the last block is partial on the device.
  const size_t size = 2 * a + 1808;
  {
    std::unique_ptr<RandomWriteFile> w;
    ASSERT_TRUE(direct->NewRandomWriteFile(Path("eof"), &w).ok());
    std::string payload(size, 'e');
    ASSERT_TRUE(w->WriteAt(0, payload.data(), payload.size()).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(direct->NewRandomAccessFile(Path("eof"), &r).ok());
  char buf[4 * 4096];
  size_t n = 0;
  // Read crossing EOF: clamped to the real size, like the buffered contract.
  ASSERT_TRUE(r->ReadAt(2 * a, sizeof(buf), buf, &n).ok());
  EXPECT_EQ(n, 1808u);
  // Read entirely past EOF: zero bytes.
  ASSERT_TRUE(r->ReadAt(size + 12345, 64, buf, &n).ok());
  EXPECT_EQ(n, 0u);
  // Last byte exactly.
  ASSERT_TRUE(r->ReadAt(size - 1, 64, buf, &n).ok());
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(buf[0], 'e');
  // Zero-length read.
  ASSERT_TRUE(r->ReadAt(0, 0, buf, &n).ok());
  EXPECT_EQ(n, 0u);
}

// Disjoint writes that share an alignment block go through the buffered
// byte-granular path, so concurrent writers cannot lose each other's bytes
// to a read-modify-write race.
TEST_F(IoBackendTest, DirectConcurrentDisjointWritesSharingBlocks) {
  if (!DirectIOSupported(root_)) GTEST_SKIP() << "no O_DIRECT on /tmp";
  auto direct = NewDirectIOEnv();
  std::unique_ptr<RandomWriteFile> w;
  ASSERT_TRUE(direct->NewRandomWriteFile(Path("conc"), &w).ok());
  constexpr int kWriters = 8;
  constexpr size_t kChunk = 1500;  // never block-aligned
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      std::string payload(kChunk, static_cast<char>('A' + t));
      ASSERT_TRUE(
          w->WriteAt(static_cast<uint64_t>(t) * kChunk, payload.data(), kChunk)
              .ok());
    });
  }
  for (auto& th : writers) th.join();
  ASSERT_TRUE(w->Flush().ok());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(direct->NewRandomAccessFile(Path("conc"), &r).ok());
  std::string all(kWriters * kChunk, '\0');
  size_t n = 0;
  ASSERT_TRUE(r->ReadAt(0, all.size(), all.data(), &n).ok());
  ASSERT_EQ(n, all.size());
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(all.substr(static_cast<size_t>(t) * kChunk, kChunk),
              std::string(kChunk, static_cast<char>('A' + t)))
        << "writer " << t;
  }
}

// A filesystem that refuses O_DIRECT (tmpfs) must degrade per file to
// buffered I/O, transparently.
TEST(IoBackendFallbackTest, DirectRefusedFallsBackToBufferedPerFile) {
  Env* base = Env::Default();
  if (!base->FileExists("/dev/shm")) GTEST_SKIP() << "no /dev/shm";
  if (DirectIOSupported("/dev/shm")) {
    GTEST_SKIP() << "/dev/shm unexpectedly supports O_DIRECT";
  }
  const std::string dir = "/dev/shm/nxgraph_io_backend_test";
  ASSERT_TRUE(base->CreateDirs(dir).ok());
  auto direct = NewDirectIOEnv();
  const std::string path = dir + "/fallback";
  {
    std::unique_ptr<RandomWriteFile> w;
    ASSERT_TRUE(direct->NewRandomWriteFile(path, &w).ok());
    std::string payload(10000, 'f');
    ASSERT_TRUE(w->WriteAt(3, payload.data(), payload.size()).ok());
    ASSERT_TRUE(w->Flush().ok());
    ASSERT_TRUE(w->Close().ok());
  }
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(direct->NewRandomAccessFile(path, &r).ok());
  std::string got(10000, '\0');
  size_t n = 0;
  ASSERT_TRUE(r->ReadAt(3, got.size(), got.data(), &n).ok());
  EXPECT_EQ(n, got.size());
  EXPECT_EQ(got, std::string(10000, 'f'));
  ASSERT_TRUE(base->RemoveDirRecursively(dir).ok());
}

// Deterministic refusal coverage (modern tmpfs accepts O_DIRECT, so the
// natural refusal vehicle is kernel-dependent): every open refuses, every
// file degrades to buffered, and the data is byte-identical to the direct
// path's.
TEST_F(IoBackendTest, ForcedRefusalFallsBackAndStaysCorrect) {
  auto refusing = internal::NewDirectIOEnvRefusingODirectForTest();
  {
    std::unique_ptr<RandomWriteFile> w;
    ASSERT_TRUE(refusing->NewRandomWriteFile(Path("ref"), &w).ok());
    std::string payload(50000, 'r');
    ASSERT_TRUE(w->WriteAt(7, payload.data(), payload.size()).ok());
    ASSERT_TRUE(w->Flush().ok());
    ASSERT_TRUE(w->Close().ok());
  }
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(refusing->NewRandomAccessFile(Path("ref"), &r).ok());
  std::string got(50000, '\0');
  size_t n = 0;
  ASSERT_TRUE(r->ReadAt(7, got.size(), got.data(), &n).ok());
  EXPECT_EQ(n, got.size());
  EXPECT_EQ(got, std::string(50000, 'r'));
  // Missing files still report NotFound, not a fallback attempt.
  std::unique_ptr<RandomAccessFile> missing;
  EXPECT_TRUE(
      refusing->NewRandomAccessFile(Path("nope"), &missing).IsNotFound());
}

// The buffered base paths (append + the write-temp/Sync/rename commit) must
// behave identically on the direct Env — the checkpoint protocol runs
// through them unchanged.
TEST_F(IoBackendTest, DirectEnvServesDurableCommitProtocol) {
  auto direct = NewDirectIOEnv();
  ASSERT_TRUE(
      WriteStringToFileDurable(direct.get(), Path("rec"), "record v1").ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(direct.get(), Path("rec"), &contents).ok());
  EXPECT_EQ(contents, "record v1");
  ASSERT_TRUE(
      WriteStringToFileDurable(direct.get(), Path("rec"), "record v2").ok());
  ASSERT_TRUE(ReadFileToString(Env::Default(), Path("rec"), &contents).ok());
  EXPECT_EQ(contents, "record v2");
}

// ---- engine parity matrix -------------------------------------------------

// Engine results must be bit-identical across the Env the caller opens the
// store on (the acceptance bar for backends: they change timing, never
// bytes). A store opened on a DirectIOEnv sends its scratch files through
// it too.
class IoBackendEngineTest : public IoBackendTest {
 protected:
  void BuildDiskStore(uint32_t p) {
    EdgeList edges = testing::RandomGraph(500, 6000, 97);
    BuildOptions options;
    options.num_intervals = p;
    options.build_transpose = true;
    auto store = BuildGraphStore(edges, Path("store"), options);
    NX_CHECK(store.ok()) << store.status().ToString();
  }
  // The store on the buffered default Env, then on a direct one.
  std::vector<std::shared_ptr<GraphStore>> OpenOnEachEnv() {
    std::vector<std::shared_ptr<GraphStore>> stores;
    for (Env* env : {Env::Default(), direct_.get()}) {
      auto store = GraphStore::Open(env, Path("store"));
      NX_CHECK(store.ok()) << store.status().ToString();
      stores.push_back(*store);
    }
    return stores;
  }
  std::unique_ptr<Env> direct_ = NewDirectIOEnv();
};

TEST_F(IoBackendEngineTest, PageRankParityAcrossBackends) {
  BuildDiskStore(6);
  const auto stores = OpenOnEachEnv();
  PageRankProgram program;
  program.num_vertices = stores[0]->num_vertices();

  for (UpdateStrategy strategy :
       {UpdateStrategy::kDoublePhase, UpdateStrategy::kMixedPhase}) {
    std::vector<double> baseline;
    for (size_t e = 0; e < stores.size(); ++e) {
      RunOptions opt;
      opt.strategy = strategy;
      if (strategy == UpdateStrategy::kMixedPhase) {
        // About half the intervals resident, nothing left to cache shards:
        // streams rows, writes hubs AND interval segments.
        opt.memory_budget_bytes = program.num_vertices * sizeof(double) +
                                  program.num_vertices * 4;
      }
      opt.max_iterations = 4;
      opt.num_threads = 3;
      opt.io_threads = 2;
      opt.scratch_dir = Path("run_" + std::to_string(e));
      Engine<PageRankProgram> engine(stores[e], program, opt);
      auto stats = engine.Run();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      if (baseline.empty()) {
        baseline = engine.values();
      } else {
        EXPECT_EQ(engine.values(), baseline) << "direct Env";
      }
    }
  }
}

TEST_F(IoBackendEngineTest, WccParityAcrossBackends) {
  BuildDiskStore(4);
  const auto stores = OpenOnEachEnv();
  WccProgram program;

  std::vector<uint32_t> baseline;
  for (size_t e = 0; e < stores.size(); ++e) {
    RunOptions opt;
    opt.strategy = UpdateStrategy::kDoublePhase;
    opt.direction = EdgeDirection::kBoth;
    opt.num_threads = 3;
    opt.io_threads = 2;
    opt.scratch_dir = Path("wcc_" + std::to_string(e));
    Engine<WccProgram> engine(stores[e], program, opt);
    auto stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (baseline.empty()) {
      baseline = engine.values();
    } else {
      EXPECT_EQ(engine.values(), baseline) << "direct Env";
    }
  }
}

// Checkpoint + resume must work identically through a direct Env (the
// record's commit protocol rides the buffered base paths).
TEST_F(IoBackendEngineTest, DirectBackendCheckpointResumeParity) {
  if (!DirectIOSupported(root_)) GTEST_SKIP() << "no O_DIRECT on /tmp";
  BuildDiskStore(5);
  auto store = GraphStore::Open(direct_.get(), Path("store"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  PageRankProgram program;
  program.num_vertices = (*store)->num_vertices();

  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 4;
  opt.num_threads = 2;
  opt.checkpoint_interval = 1;
  opt.scratch_dir = Path("ckpt");

  RunOptions full = opt;
  full.scratch_dir = Path("ckpt_full");
  Engine<PageRankProgram> reference(*store, program, full);
  ASSERT_TRUE(reference.Run().ok());

  // Run 2 iterations, then "crash" and resume to 4.
  RunOptions half = opt;
  half.max_iterations = 2;
  {
    Engine<PageRankProgram> first(*store, program, half);
    ASSERT_TRUE(first.Run().ok());
  }
  Engine<PageRankProgram> resumed(*store, program, opt);
  auto stats = resumed.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->resumed_from_iteration, 2);
  EXPECT_EQ(stats->iterations, 4);
  EXPECT_EQ(resumed.values(), reference.values());
}

}  // namespace
}  // namespace nxgraph
