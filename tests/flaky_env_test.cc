// FlakyEnv unit tests: scripted faults fire on the exact nth op and heal on
// retry, short reads deliver a strict prefix of real data, bit flips corrupt
// the caller's buffer only (a fresh read returns clean bytes), probabilistic
// rates inject with a deterministic replayable schedule, and the non-positional
// paths (sequential/append/metadata) pass through untouched, and each op
// kind's faults are independent of the others'. The store-level tests close
// the loop: a bit-flipped sub-shard read trips the checksum and is healed by
// GraphStore's re-read, and a truncated one is never checksummed past its
// end.
#include "src/io/flaky_env.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/nxgraph.h"
#include "src/util/retry.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

using OpKind = FlakyEnv::OpKind;
using FaultKind = FlakyEnv::FaultKind;

class FlakyEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = NewMemEnv();
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(base_->NewWritableFile("f", &w).ok());
    payload_.resize(4096);
    for (size_t i = 0; i < payload_.size(); ++i) {
      payload_[i] = static_cast<char>('a' + i % 26);
    }
    ASSERT_TRUE(w->Append(payload_.data(), payload_.size()).ok());
    ASSERT_TRUE(w->Close().ok());
  }

  std::unique_ptr<Env> base_;
  std::string payload_;
};

TEST_F(FlakyEnvTest, ScriptedReadErrorFiresOnExactNthOpAndHeals) {
  FlakyEnv flaky(base_.get());
  flaky.ScheduleFault(OpKind::kRead, 2, FaultKind::kTransientError);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(flaky.NewRandomAccessFile("f", &r).ok());

  std::string got(64, '\0');
  size_t n = 0;
  // Read 1: clean.
  ASSERT_TRUE(r->ReadAt(0, got.size(), got.data(), &n).ok());
  EXPECT_EQ(n, got.size());
  EXPECT_EQ(got, payload_.substr(0, got.size()));
  // Read 2: the scripted transient error — an IOError that is retryable.
  Status s = r->ReadAt(0, got.size(), got.data(), &n);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(s.retryable());
  // Read 3: the very same op, retried, succeeds — the fault healed.
  ASSERT_TRUE(r->ReadAt(0, got.size(), got.data(), &n).ok());
  EXPECT_EQ(got, payload_.substr(0, got.size()));

  EXPECT_EQ(flaky.op_count(OpKind::kRead), 3u);
  EXPECT_EQ(flaky.injected_errors(), 1u);
  EXPECT_EQ(flaky.injected_faults(), 1u);
}

TEST_F(FlakyEnvTest, ScriptedShortReadDeliversStrictPrefixOfRealData) {
  FlakyEnv flaky(base_.get());
  flaky.ScheduleFault(OpKind::kRead, 1, FaultKind::kShortRead);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(flaky.NewRandomAccessFile("f", &r).ok());

  std::string got(256, '\0');
  size_t n = 0;
  ASSERT_TRUE(r->ReadAt(16, got.size(), got.data(), &n).ok());
  // Strictly short, and every delivered byte is the real file content —
  // only the length lies, exactly like an interrupted pread.
  EXPECT_LT(n, got.size());
  EXPECT_EQ(got.substr(0, n), payload_.substr(16, n));
  EXPECT_EQ(flaky.injected_short_reads(), 1u);
}

TEST_F(FlakyEnvTest, ScriptedBitFlipCorruptsBufferOnlyAndHealsOnReread) {
  FlakyEnv flaky(base_.get());
  flaky.ScheduleFault(OpKind::kRead, 1, FaultKind::kBitFlip);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(flaky.NewRandomAccessFile("f", &r).ok());

  std::string got(512, '\0');
  size_t n = 0;
  ASSERT_TRUE(r->ReadAt(0, got.size(), got.data(), &n).ok());
  ASSERT_EQ(n, got.size());
  const std::string want = payload_.substr(0, got.size());
  // Exactly one bit differs from the true contents.
  int diff_bits = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    diff_bits += __builtin_popcount(
        static_cast<unsigned char>(got[i] ^ want[i]));
  }
  EXPECT_EQ(diff_bits, 1);
  // The base file is untouched: the re-read returns clean data.
  ASSERT_TRUE(r->ReadAt(0, got.size(), got.data(), &n).ok());
  EXPECT_EQ(got, want);
  EXPECT_EQ(flaky.injected_bit_flips(), 1u);
}

TEST_F(FlakyEnvTest, ScriptedWriteAndFlushErrorsHealOnRetry) {
  FlakyEnv flaky(base_.get());
  flaky.ScheduleFault(OpKind::kWrite, 1, FaultKind::kTransientError);
  flaky.ScheduleFault(OpKind::kFlush, 1, FaultKind::kTransientError);
  std::unique_ptr<RandomWriteFile> w;
  ASSERT_TRUE(flaky.NewRandomWriteFile("f", &w).ok());

  const std::string data = "overwrite";
  Status s = w->WriteAt(0, data.data(), data.size());
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.retryable());
  // A faulted write performs no base I/O: the file still holds the
  // original bytes.
  {
    std::unique_ptr<RandomAccessFile> r;
    ASSERT_TRUE(flaky.NewRandomAccessFile("f", &r).ok());
    std::string got(data.size(), '\0');
    size_t n = 0;
    ASSERT_TRUE(r->ReadAt(0, got.size(), got.data(), &n).ok());
    EXPECT_EQ(got, payload_.substr(0, data.size()));
  }
  // Retried, the write lands; the flush faults once, then succeeds.
  ASSERT_TRUE(w->WriteAt(0, data.data(), data.size()).ok());
  s = w->Flush();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.retryable());
  ASSERT_TRUE(w->Flush().ok());
  EXPECT_EQ(flaky.injected_errors(), 2u);

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(flaky.NewRandomAccessFile("f", &r).ok());
  std::string got(data.size(), '\0');
  size_t n = 0;
  ASSERT_TRUE(r->ReadAt(0, got.size(), got.data(), &n).ok());
  EXPECT_EQ(got, data);
}

TEST_F(FlakyEnvTest, RunWithRetryAbsorbsScriptedFaults) {
  FlakyEnv flaky(base_.get());
  flaky.ScheduleFault(OpKind::kRead, 1, FaultKind::kTransientError);
  flaky.ScheduleFault(OpKind::kRead, 2, FaultKind::kTransientError);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(flaky.NewRandomAccessFile("f", &r).ok());

  RetryPolicy policy;
  RetryCounters counters;
  std::string got(64, '\0');
  Status s = RunWithRetry(policy, &counters, [&] {
    size_t n = 0;
    NX_RETURN_NOT_OK(r->ReadAt(0, got.size(), got.data(), &n));
    if (n != got.size()) {
      return Status::MakeRetryable(Status::Corruption("short"));
    }
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got, payload_.substr(0, got.size()));
  EXPECT_EQ(counters.io_retries.load(), 2u);
  EXPECT_GT(counters.retry_wait_micros.load(), 0u);
}

TEST_F(FlakyEnvTest, NonPositionalPathsPassThroughEvenAtRateOne) {
  FlakyFaultRates rates;
  rates.read_error = 1.0;
  rates.write_error = 1.0;
  rates.flush_error = 1.0;
  FlakyEnv flaky(base_.get(), rates);

  // Sequential reads, appends and metadata never fault — the store
  // open/build paths are deliberately outside the fault model.
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(flaky.NewWritableFile("seq", &w).ok());
  ASSERT_TRUE(w->Append("hello", 5).ok());
  ASSERT_TRUE(w->Sync().ok());
  ASSERT_TRUE(w->Close().ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&flaky, "seq", &contents).ok());
  EXPECT_EQ(contents, "hello");
  EXPECT_TRUE(flaky.FileExists("seq"));
  auto size = flaky.GetFileSize("seq");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5u);
  ASSERT_TRUE(flaky.RenameFile("seq", "seq2").ok());
  ASSERT_TRUE(flaky.RemoveFile("seq2").ok());
  EXPECT_EQ(flaky.injected_faults(), 0u);

  // And every positional op faults at rate 1.
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(flaky.NewRandomAccessFile("f", &r).ok());
  char buf[16];
  size_t n = 0;
  EXPECT_FALSE(r->ReadAt(0, sizeof(buf), buf, &n).ok());
  EXPECT_GE(flaky.injected_faults(), 1u);
}

TEST_F(FlakyEnvTest, ProbabilisticScheduleIsDeterministicUnderFixedSeed) {
  FlakyFaultRates rates;
  rates.read_error = 0.2;
  rates.short_read = 0.1;
  rates.bit_flip = 0.1;
  rates.seed = 1234;

  auto run = [&](FlakyEnv* flaky) {
    std::unique_ptr<RandomAccessFile> r;
    NX_CHECK(flaky->NewRandomAccessFile("f", &r).ok());
    std::string trace;
    char buf[32];
    for (int i = 0; i < 200; ++i) {
      size_t n = 0;
      Status s = r->ReadAt(0, sizeof(buf), buf, &n);
      trace += !s.ok() ? 'e' : (n != sizeof(buf) ? 's' : '.');
    }
    return trace;
  };

  FlakyEnv a(base_.get(), rates);
  FlakyEnv b(base_.get(), rates);
  const std::string trace_a = run(&a);
  EXPECT_EQ(trace_a, run(&b));
  EXPECT_GT(a.injected_faults(), 0u);
  EXPECT_EQ(a.injected_errors(), b.injected_errors());
  EXPECT_EQ(a.injected_short_reads(), b.injected_short_reads());
  EXPECT_EQ(a.injected_bit_flips(), b.injected_bit_flips());
  // A zero-rate env over the same op sequence injects nothing.
  FlakyEnv clean(base_.get());
  run(&clean);
  EXPECT_EQ(clean.injected_faults(), 0u);
}

// Each op kind draws from its own stream: the same reads get the same
// faults whether or not writes and flushes run between them, so a run's
// read faults do not depend on how its writer threads interleave.
TEST_F(FlakyEnvTest, ReadFaultsDoNotDependOnInterleavedWrites) {
  FlakyFaultRates rates;
  rates.read_error = 0.1;
  rates.short_read = 0.1;
  rates.bit_flip = 0.1;
  rates.write_error = 0.3;
  rates.flush_error = 0.3;
  rates.seed = 99;

  auto run = [&](bool interleave) {
    FlakyEnv flaky(base_.get(), rates);
    std::unique_ptr<RandomAccessFile> r;
    std::unique_ptr<RandomWriteFile> w;
    NX_CHECK(flaky.NewRandomAccessFile("f", &r).ok());
    NX_CHECK(flaky.NewRandomWriteFile("w", &w).ok());
    std::string trace;
    char buf[32];
    for (int i = 0; i < 200; ++i) {
      for (int k = 0; interleave && k < i % 3; ++k) {
        (void)w->WriteAt(0, "xy", 2);
        (void)w->Flush();
      }
      size_t n = 0;
      Status s = r->ReadAt(0, sizeof(buf), buf, &n);
      if (!s.ok()) {
        trace += 'e';
      } else if (n != sizeof(buf)) {
        trace += 's';
      } else {
        trace += payload_.compare(0, n, buf, n) != 0 ? 'f' : '.';
      }
    }
    if (interleave) NX_CHECK(flaky.injected_errors() > 0);
    return trace;
  };

  const std::string alone = run(false);
  EXPECT_NE(alone.find_first_not_of('.'), std::string::npos);
  EXPECT_EQ(run(true), alone);
}

// A bit flip on a sub-shard blob read fails its checksum in
// GraphStore::ReadVerifiedRow; the one re-read returns clean bytes and the
// load succeeds — the heal-on-reread contract end to end at the store
// layer.
TEST(FlakyStoreTest, BitFlippedSubShardHealsViaChecksumReread) {
  EdgeList edges = testing::RandomGraph(200, 3000, 42);
  auto ms = testing::BuildMemStore(edges, 4);

  FlakyEnv flaky(ms.env.get());
  auto reopened = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto store = *reopened;

  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 1, FlakyEnv::FaultKind::kBitFlip);
  auto ss = store->LoadSubShard(0, 0, /*transpose=*/false);
  ASSERT_TRUE(ss.ok()) << ss.status().ToString();
  EXPECT_EQ(store->checksum_rereads(), 1u);
  EXPECT_EQ(flaky.injected_bit_flips(), 1u);

  // The healed load decodes to the same sub-shard a clean load returns.
  auto clean = ms.store->LoadSubShard(0, 0, /*transpose=*/false);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(ss->num_edges(), clean->num_edges());
}

// A read that comes back short is never checksummed past its end: the
// first read's truncation is a retryable Corruption for the caller's retry
// policy, and a truncated re-read after a flip only uses up that re-read.
TEST(FlakyStoreTest, TruncatedReadsAreRetryableAndUseUpARereadOnly) {
  EdgeList edges = testing::RandomGraph(200, 3000, 43);
  auto ms = testing::BuildMemStore(edges, 4);
  FlakyEnv flaky(ms.env.get());
  auto reopened = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto store = *reopened;

  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 1,
                      FlakyEnv::FaultKind::kShortRead);
  auto truncated = store->ReadVerifiedRow(1, 0, 4, false, /*max_rereads=*/3);
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsCorruption());
  EXPECT_TRUE(truncated.status().retryable());
  EXPECT_EQ(store->checksum_rereads(), 0u);

  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 2,
                      FlakyEnv::FaultKind::kBitFlip);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 3,
                      FlakyEnv::FaultKind::kShortRead);
  auto healed = store->ReadVerifiedRow(1, 0, 4, false, /*max_rereads=*/2);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(store->checksum_rereads(), 2u);
  auto clean = ms.store->ReadVerifiedRow(1, 0, 4, false, 0);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*healed, *clean);

  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 5,
                      FlakyEnv::FaultKind::kBitFlip);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 6,
                      FlakyEnv::FaultKind::kShortRead);
  auto failed = store->LoadSubShard(2, 1, /*transpose=*/false);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  EXPECT_FALSE(failed.status().retryable());
  EXPECT_EQ(store->checksum_rereads(), 3u);
}

// A corruption that survives the re-read is real: flip a bit on BOTH the
// first read and the re-read, and the load must fail with Corruption.
TEST(FlakyStoreTest, PersistentCorruptionStillFailsAfterReread) {
  EdgeList edges = testing::RandomGraph(100, 1000, 7);
  auto ms = testing::BuildMemStore(edges, 2);

  FlakyEnv flaky(ms.env.get());
  auto reopened = GraphStore::Open(&flaky, "g");
  ASSERT_TRUE(reopened.ok());
  auto store = *reopened;

  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 1, FlakyEnv::FaultKind::kBitFlip);
  flaky.ScheduleFault(FlakyEnv::OpKind::kRead, 2, FlakyEnv::FaultKind::kBitFlip);
  auto ss = store->LoadSubShard(0, 0, /*transpose=*/false);
  ASSERT_FALSE(ss.ok());
  EXPECT_TRUE(ss.status().IsCorruption()) << ss.status().ToString();
  EXPECT_EQ(store->checksum_rereads(), 1u);
}

}  // namespace
}  // namespace nxgraph
