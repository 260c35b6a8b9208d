// Write-behind queue tests: overlap rejection, one write in flight,
// byte-budget backpressure, group-commit coalescing, error propagation
// (write and flush), Drain-then-reuse, early shutdown with writes still
// queued, and engine-level parity between synchronous (budget 0) and
// write-behind runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "src/algos/programs.h"
#include "src/engine/engine.h"
#include "src/io/writeback.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

using namespace std::chrono_literals;

/// RandomWriteFile fake: applies writes to an in-memory buffer, records the
/// order they landed in, and can inject delays, write errors, flush errors,
/// and a start gate.
class FakeWriteFile : public RandomWriteFile {
 public:
  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    const int seq = started_.fetch_add(1);
    if (gate_ != nullptr) gate_->wait();
    if (delay_per_write_count_ > 0) {
      // Earlier writes sleep longer, so any ordering the queue does not
      // enforce would scramble.
      std::this_thread::sleep_for(
          std::chrono::milliseconds((delay_per_write_count_ - seq) * 2));
    }
    if (fail_next_writes_.load() > 0) {
      fail_next_writes_.fetch_sub(1);
      return Status::TransientIOError("fake transient write");
    }
    if (!write_status_.ok()) return write_status_;
    std::lock_guard<std::mutex> lock(mu_);
    if (buffer_.size() < offset + n) buffer_.resize(offset + n);
    std::memcpy(buffer_.data() + offset, data, n);
    applied_.emplace_back(offset,
                          std::string(static_cast<const char*>(data), n));
    return Status::OK();
  }

  Status Flush() override {
    flushes_.fetch_add(1);
    if (fail_next_flushes_.load() > 0) {
      fail_next_flushes_.fetch_sub(1);
      return Status::TransientIOError("fake transient flush");
    }
    return flush_status_;
  }
  Status Truncate(uint64_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    buffer_.resize(size);
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }

  std::string buffer() {
    std::lock_guard<std::mutex> lock(mu_);
    return buffer_;
  }
  std::vector<std::pair<uint64_t, std::string>> applied() {
    std::lock_guard<std::mutex> lock(mu_);
    return applied_;
  }
  int started() const { return started_.load(); }
  int flushes() const { return flushes_.load(); }

  Status write_status_;
  Status flush_status_;
  std::shared_future<void>* gate_ = nullptr;
  int delay_per_write_count_ = 0;
  /// When > 0, the next N writes / flushes fail with a retryable
  /// TransientIOError (consulted before write_status_ / flush_status_).
  std::atomic<int> fail_next_writes_{0};
  std::atomic<int> fail_next_flushes_{0};

 private:
  std::mutex mu_;
  std::string buffer_;
  std::vector<std::pair<uint64_t, std::string>> applied_;
  std::atomic<int> started_{0};
  std::atomic<int> flushes_{0};
};

TEST(WritebackQueueTest, OverlappingPushIsRejected) {
  FakeWriteFile file;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  file.gate_ = &open;
  WritebackQueue wb(1 << 20);
  ASSERT_TRUE(wb.Push(&file, 0, std::string(4, 'a')).ok());
  for (int spin = 0; spin < 1000 && file.started() < 1; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(file.started(), 1);
  // Writes between two barriers must be disjoint: one overlapping the
  // write in flight, or one still queued, is refused and queues nothing.
  EXPECT_TRUE(wb.Push(&file, 2, std::string(4, 'b')).IsInvalidArgument());
  ASSERT_TRUE(wb.Push(&file, 100, std::string(4, 'c')).ok());
  EXPECT_TRUE(wb.Push(&file, 102, std::string(4, 'd')).IsInvalidArgument());
  EXPECT_EQ(wb.pending_bytes(), 8u);
  gate.set_value();
  ASSERT_TRUE(wb.Drain().ok());
  auto applied = file.applied();
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], std::make_pair(uint64_t{0}, std::string(4, 'a')));
  EXPECT_EQ(applied[1], std::make_pair(uint64_t{100}, std::string(4, 'c')));
}

TEST(WritebackQueueTest, OneWriteInFlight) {
  FakeWriteFile file;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  file.gate_ = &open;
  WritebackQueue wb(1 << 20);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(wb.Push(&file, k * 100, std::string(10, 'x')).ok());
  }
  for (int spin = 0; spin < 1000 && file.started() < 1; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  // The writer thread issues one write at a time: the other two stay
  // queued behind the gated one however long it takes.
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(file.started(), 1);
  gate.set_value();
  ASSERT_TRUE(wb.Drain().ok());
  EXPECT_EQ(file.applied().size(), 3u);
  EXPECT_EQ(wb.pending_bytes(), 0u);
}

TEST(WritebackQueueTest, ByteBudgetAppliesBackpressure) {
  FakeWriteFile file;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  file.gate_ = &open;
  WritebackQueue wb(/*budget=*/100);
  ASSERT_TRUE(wb.Push(&file, 0, std::string(60, 'a')).ok());
  std::atomic<bool> second_admitted{false};
  std::thread producer([&] {
    // 60 + 50 exceeds the budget: this Push must block until the first
    // write lands.
    ASSERT_TRUE(wb.Push(&file, 100, std::string(50, 'b')).ok());
    second_admitted.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(second_admitted.load())
      << "Push must block while the budget is full";
  gate.set_value();
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  ASSERT_TRUE(wb.Drain().ok());
  EXPECT_GT(wb.write_wait_seconds(), 0.0);
}

TEST(WritebackQueueTest, OversizedPayloadAdmittedAlone) {
  FakeWriteFile file;
  WritebackQueue wb(/*budget=*/16);
  // A payload larger than the whole budget must not deadlock the producer.
  ASSERT_TRUE(wb.Push(&file, 0, std::string(1000, 'z')).ok());
  ASSERT_TRUE(wb.Drain().ok());
  EXPECT_EQ(file.buffer().size(), 1000u);
}

TEST(WritebackQueueTest, WriteErrorSurfacesFromDrain) {
  FakeWriteFile file;
  file.write_status_ = Status::IOError("disk fell over");
  WritebackQueue wb(1 << 20);
  ASSERT_TRUE(wb.Push(&file, 0, "payload").ok());
  Status s = wb.Drain();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
}

TEST(WritebackQueueTest, FlushErrorSurfacesFromDrain) {
  FakeWriteFile good;
  FakeWriteFile bad;
  bad.flush_status_ = Status::IOError("flush lost power");
  WritebackQueue wb(1 << 20);
  ASSERT_TRUE(wb.Push(&good, 0, "ok").ok());
  ASSERT_TRUE(wb.Push(&bad, 0, "doomed").ok());
  Status s = wb.Drain();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  // Both targets were flushed even though one failed.
  EXPECT_EQ(good.flushes(), 1);
  EXPECT_EQ(bad.flushes(), 1);
}

TEST(WritebackQueueTest, DrainThenReuse) {
  FakeWriteFile file;
  WritebackQueue wb(1 << 20);
  ASSERT_TRUE(wb.Push(&file, 0, "first").ok());
  ASSERT_TRUE(wb.Drain().ok());
  EXPECT_EQ(file.flushes(), 1);
  ASSERT_TRUE(wb.Push(&file, 0, "secnd").ok());
  ASSERT_TRUE(wb.Drain().ok());
  EXPECT_EQ(file.buffer(), "secnd");
  // Each barrier flushes targets written since the previous one.
  EXPECT_EQ(file.flushes(), 2);
}

TEST(WritebackQueueTest, OrderingDrainDefersFlushToSyncingDrain) {
  FakeWriteFile file;
  WritebackQueue wb(1 << 20);
  ASSERT_TRUE(wb.Push(&file, 0, "first").ok());
  ASSERT_TRUE(wb.Drain(/*sync=*/false).ok());
  EXPECT_EQ(file.buffer(), "first") << "ordering drains still wait for writes";
  EXPECT_EQ(file.flushes(), 0) << "flush debt is deferred";
  ASSERT_TRUE(wb.Push(&file, 8, "later").ok());
  ASSERT_TRUE(wb.Drain().ok());
  EXPECT_EQ(file.flushes(), 1) << "the syncing drain settles the debt";
}

TEST(WritebackQueueTest, ErrorResetsAfterDrainReportsIt) {
  FakeWriteFile file;
  file.write_status_ = Status::IOError("transient");
  WritebackQueue wb(1 << 20);
  ASSERT_TRUE(wb.Push(&file, 0, "fails").ok());
  ASSERT_FALSE(wb.Drain().ok());
  file.write_status_ = Status::OK();
  ASSERT_TRUE(wb.Push(&file, 0, "works").ok());
  EXPECT_TRUE(wb.Drain().ok()) << "a reported error must not stay sticky";
}

TEST(WritebackQueueTest, EarlyShutdownCompletesQueuedWrites) {
  FakeWriteFile file;
  constexpr int kWrites = 16;
  {
    WritebackQueue wb(1 << 20);
    for (int k = 0; k < kWrites; ++k) {
      ASSERT_TRUE(
          wb.Push(&file, static_cast<uint64_t>(k) * 8, std::string(8, 'w'))
              .ok());
    }
    // Destructor: a write-behind queue must never drop enqueued data.
  }
  // Adjacent writes may group-commit into fewer WriteAts, but every byte
  // must land.
  EXPECT_EQ(file.buffer(), std::string(static_cast<size_t>(kWrites) * 8, 'w'));
  EXPECT_EQ(file.flushes(), 1);
}

TEST(WritebackQueueTest, BudgetZeroWritesSynchronouslyInline) {
  FakeWriteFile file;
  WritebackQueue wb(/*budget=*/0);
  ASSERT_TRUE(wb.Push(&file, 0, "sync").ok());
  // The write landed before Push returned; no writer, no pending bytes.
  EXPECT_EQ(file.buffer(), "sync");
  EXPECT_EQ(wb.pending_bytes(), 0u);
  // Synchronous write time is charged as unhidden write wait.
  EXPECT_GE(wb.write_wait_seconds(), 0.0);
  file.write_status_ = Status::IOError("nope");
  EXPECT_TRUE(wb.Push(&file, 0, "fails").IsIOError())
      << "synchronous mode returns the write status directly";
  ASSERT_TRUE(wb.Drain().ok());
  // Budget 0 reproduces the pre-writeback path exactly: no durability
  // flushes are issued on its behalf.
  EXPECT_EQ(file.flushes(), 0);
}

TEST(WritebackQueueTest, ConcurrentProducersAllLand) {
  FakeWriteFile file;
  WritebackQueue wb(/*budget=*/256);  // tight: forces backpressure
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 32;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int k = 0; k < kPerProducer; ++k) {
        const uint64_t off =
            (static_cast<uint64_t>(t) * kPerProducer + k) * 16;
        ASSERT_TRUE(wb.Push(&file, off, std::string(16, 'a' + t)).ok());
      }
    });
  }
  for (auto& p : producers) p.join();
  ASSERT_TRUE(wb.Drain().ok());
  // Group commit may merge adjacent writes into fewer WriteAts; what must
  // hold is that every producer's bytes landed in its region.
  const std::string buffer = file.buffer();
  ASSERT_EQ(buffer.size(), static_cast<size_t>(kProducers) * kPerProducer * 16);
  for (int t = 0; t < kProducers; ++t) {
    const size_t begin = static_cast<size_t>(t) * kPerProducer * 16;
    EXPECT_EQ(buffer.substr(begin, kPerProducer * 16),
              std::string(kPerProducer * 16, 'a' + t))
        << "producer " << t;
  }
}

// ---- group commit ---------------------------------------------------------

TEST(WritebackQueueTest, AdjacentWritesGroupCommitIntoOneWriteAt) {
  FakeWriteFile file;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  file.gate_ = &open;
  WritebackQueue wb(1 << 20);
  // The first write is issued immediately and parks at the gate; the three
  // adjacent writes at 100/108/116 queue up behind it.
  ASSERT_TRUE(wb.Push(&file, 0, std::string(8, 'h')).ok());
  ASSERT_TRUE(wb.Push(&file, 100, std::string(8, 'a')).ok());
  ASSERT_TRUE(wb.Push(&file, 108, std::string(8, 'b')).ok());
  ASSERT_TRUE(wb.Push(&file, 116, std::string(8, 'c')).ok());
  gate.set_value();
  ASSERT_TRUE(wb.Drain().ok());
  // The adjacent run reached the device as ONE WriteAt with the
  // concatenated payload; bytes are identical to separate writes.
  auto applied = file.applied();
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[1].first, 100u);
  EXPECT_EQ(applied[1].second,
            std::string(8, 'a') + std::string(8, 'b') + std::string(8, 'c'));
  EXPECT_EQ(wb.coalesced_writes(), 2u);
}

TEST(WritebackQueueTest, GapsAreNotGroupCommitted) {
  FakeWriteFile file;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  file.gate_ = &open;
  WritebackQueue wb(1 << 20);
  ASSERT_TRUE(wb.Push(&file, 0, std::string(8, 'h')).ok());
  // One byte of gap between the queued writes: merging would fabricate
  // data, so they must stay separate.
  ASSERT_TRUE(wb.Push(&file, 100, std::string(8, 'a')).ok());
  ASSERT_TRUE(wb.Push(&file, 109, std::string(8, 'b')).ok());
  gate.set_value();
  ASSERT_TRUE(wb.Drain().ok());
  EXPECT_EQ(file.applied().size(), 3u);
  EXPECT_EQ(wb.coalesced_writes(), 0u);
  const std::string buffer = file.buffer();
  EXPECT_EQ(buffer.substr(100, 8), std::string(8, 'a'));
  EXPECT_EQ(buffer.substr(109, 8), std::string(8, 'b'));
}

TEST(WritebackQueueTest, GroupCommitKeepsBarrierAccounting) {
  // A merged write retires every push folded into it: Drain must see the
  // queue empty and the queue must stay reusable afterwards.
  FakeWriteFile file;
  WritebackQueue wb(1 << 20);
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 64; ++k) {
      ASSERT_TRUE(
          wb.Push(&file, static_cast<uint64_t>(k) * 8, std::string(8, 'r'))
              .ok());
    }
    ASSERT_TRUE(wb.Drain().ok());
    EXPECT_EQ(wb.pending_bytes(), 0u);
  }
  EXPECT_EQ(file.buffer(), std::string(64 * 8, 'r'));
}

// ---- engine parity --------------------------------------------------------

// Out-of-core PageRank results must be bit-identical at every write-behind
// budget: 0 (synchronous), a tiny 64 KiB window, and effectively unbounded.
TEST(EngineWritebackTest, DpuPageRankParityAcrossBudgets) {
  EdgeList edges = testing::RandomGraph(300, 4000, 51);
  auto ms = testing::BuildMemStore(edges, 5);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();

  // Cached in-memory baseline (no out-of-core writes at all).
  RunOptions cached;
  cached.max_iterations = 4;
  cached.num_threads = 2;
  Engine<PageRankProgram> cached_engine(ms.store, program, cached);
  ASSERT_TRUE(cached_engine.Run().ok());

  for (uint64_t budget : {uint64_t{0}, uint64_t{64} << 10, ~uint64_t{0}}) {
    RunOptions opt;
    opt.strategy = UpdateStrategy::kDoublePhase;
    opt.max_iterations = 4;
    opt.num_threads = 3;
    opt.io_threads = 2;
    opt.writeback_buffer_bytes = budget;
    Engine<PageRankProgram> engine(ms.store, program, opt);
    auto stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->strategy, "DPU");
    EXPECT_EQ(stats->writeback_buffer_bytes, budget);
    EXPECT_GE(stats->write_wait_seconds, 0.0);
    EXPECT_EQ(engine.values(), cached_engine.values())
        << "writeback budget " << budget;
  }
}

TEST(EngineWritebackTest, DpuWccParityAcrossBudgets) {
  EdgeList edges = testing::RandomGraph(200, 900, 52);
  auto ms = testing::BuildMemStore(edges, 4);
  WccProgram program;

  RunOptions cached;
  cached.direction = EdgeDirection::kBoth;
  cached.num_threads = 2;
  Engine<WccProgram> cached_engine(ms.store, program, cached);
  ASSERT_TRUE(cached_engine.Run().ok());

  for (uint64_t budget : {uint64_t{0}, uint64_t{64} << 10, ~uint64_t{0}}) {
    RunOptions opt;
    opt.strategy = UpdateStrategy::kDoublePhase;
    opt.direction = EdgeDirection::kBoth;
    opt.num_threads = 3;
    opt.io_threads = 2;
    opt.writeback_buffer_bytes = budget;
    Engine<WccProgram> engine(ms.store, program, opt);
    auto stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(engine.values(), cached_engine.values())
        << "writeback budget " << budget;
  }
}

// MPU under a limited memory budget exercises writeback on the streaming
// read path too (Phase B rows stream while hubs and intervals write back).
TEST(EngineWritebackTest, MpuStreamingParityAcrossBudgets) {
  EdgeList edges = testing::RandomGraph(400, 5000, 53);
  auto ms = testing::BuildMemStore(edges, 6);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();

  std::vector<double> baseline;
  for (uint64_t budget : {uint64_t{0}, uint64_t{64} << 10, ~uint64_t{0}}) {
    RunOptions opt;
    opt.strategy = UpdateStrategy::kMixedPhase;
    // Roughly half the intervals resident; too small to cache sub-shards,
    // so reads stream while writes go through the write-behind queue.
    opt.memory_budget_bytes = ms.store->num_vertices() * sizeof(double) +
                              ms.store->num_vertices() * 4;
    opt.max_iterations = 4;
    opt.num_threads = 2;
    opt.writeback_buffer_bytes = budget;
    Engine<PageRankProgram> engine(ms.store, program, opt);
    auto stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->resident_intervals, 0u);
    EXPECT_LT(stats->resident_intervals, 6u);
    if (baseline.empty()) {
      baseline = engine.values();
    } else {
      EXPECT_EQ(engine.values(), baseline) << "writeback budget " << budget;
    }
  }
}

TEST(EngineWritebackTest, SpuRunsReportNoWritebackBuffer) {
  EdgeList edges = testing::RandomGraph(100, 800, 54);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.max_iterations = 2;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->strategy, "SPU");
  // Fully resident runs have no out-of-core writes to hide.
  EXPECT_EQ(stats->writeback_buffer_bytes, 0u);
  EXPECT_EQ(stats->write_wait_seconds, 0.0);
}

TEST(EngineWritebackTest, DefaultOutOfCoreRunUsesWriteback) {
  EdgeList edges = testing::RandomGraph(200, 2500, 55);
  auto ms = testing::BuildMemStore(edges, 4);
  PageRankProgram program;
  program.num_vertices = ms.store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;
  opt.max_iterations = 2;
  opt.num_threads = 2;
  Engine<PageRankProgram> engine(ms.store, program, opt);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  // Write-behind is on by default for out-of-core runs.
  EXPECT_EQ(stats->writeback_buffer_bytes, opt.writeback_buffer_bytes);
  EXPECT_GT(stats->bytes_written, 0u);
}

// ---- transient faults, parked failures, degradation ------------------------

TEST(WritebackResilienceTest, TransientWriteFailuresRetriedInvisibly) {
  FakeWriteFile file;
  file.fail_next_writes_ = 2;
  RetryCounters counters;
  WritebackQueue wb(1 << 20, RetryPolicy{}, &counters);
  ASSERT_TRUE(wb.Push(&file, 0, std::string("payload")).ok());
  ASSERT_TRUE(wb.Drain().ok());
  EXPECT_EQ(file.buffer(), "payload");
  EXPECT_GE(counters.io_retries.load(), 2u);
  EXPECT_FALSE(wb.degraded());
  EXPECT_EQ(wb.dropped_write_errors(), 0u);
}

TEST(WritebackResilienceTest, TransientFlushFailureRetriedAtDrain) {
  FakeWriteFile file;
  RetryCounters counters;
  WritebackQueue wb(1 << 20, RetryPolicy{}, &counters);
  ASSERT_TRUE(wb.Push(&file, 0, std::string("data")).ok());
  file.fail_next_flushes_ = 1;
  ASSERT_TRUE(wb.Drain().ok());
  // First flush attempt faulted, the retry succeeded.
  EXPECT_GE(file.flushes(), 2);
  EXPECT_GE(counters.io_retries.load(), 1u);
}

// A write that fails permanently in flight is parked with its payload; if
// the condition clears by the next Drain barrier, the synchronous
// re-attempt lands it and no error ever surfaces. ENOSPC additionally
// flips the queue into degraded (inline) mode, where Push returns each
// write's status directly instead of queueing more doomed writes.
TEST(WritebackResilienceTest, EnospcDegradesAndParkedWriteHealsAtDrain) {
  FakeWriteFile file;
  RetryCounters counters;
  WritebackQueue wb(1 << 20, RetryPolicy{}, &counters);

  file.write_status_ = Status::FromErrno("write", ENOSPC);
  ASSERT_TRUE(wb.Push(&file, 0, std::string("hello")).ok());  // async: parks
  for (int spin = 0; spin < 5000 && !wb.degraded(); ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(wb.degraded());

  // Degraded Push writes inline and hands the failure to the producer.
  Status s = wb.Push(&file, 100, std::string("doomed"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.sys_errno(), ENOSPC);

  // Space comes back before the barrier: the inline path works again and
  // the parked write heals at Drain — no error surfaces at all.
  file.write_status_ = Status::OK();
  ASSERT_TRUE(wb.Push(&file, 100, std::string("world")).ok());
  ASSERT_TRUE(wb.Drain().ok());
  std::string buffer = file.buffer();
  EXPECT_EQ(buffer.substr(0, 5), "hello");
  EXPECT_EQ(buffer.substr(100, 5), "world");
  EXPECT_EQ(wb.dropped_write_errors(), 0u);
  EXPECT_TRUE(wb.degraded());  // sticky for the life of the queue
}

// Repeated permanent failures (a dead device, not ENOSPC) also degrade the
// queue, and Drain reports the first error while counting and logging the
// suppressed rest.
TEST(WritebackResilienceTest, DeadQueueDegradesAndCountsSuppressedErrors) {
  FakeWriteFile file;
  RetryCounters counters;
  WritebackQueue wb(1 << 20, RetryPolicy{}, &counters);
  file.write_status_ = Status::IOError("fake dead device");
  constexpr int kWrites = 10;
  for (int k = 0; k < kWrites; ++k) {
    // Disjoint offsets so every write is issued (and fails) independently.
    // Once the dead-queue threshold trips, Push turns inline and returns
    // the failure directly; both outcomes keep the pressure on.
    (void)wb.Push(&file, static_cast<uint64_t>(k) * 64, std::string(8, 'x'));
  }
  for (int spin = 0; spin < 5000 && !wb.degraded(); ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(wb.degraded());
  Status s = wb.Drain();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  // Every parked write re-failed at the barrier; one became the return
  // value, the rest were suppressed (counted + logged).
  EXPECT_GE(wb.dropped_write_errors(), 1u);
  EXPECT_EQ(counters.dropped_write_errors.load(), wb.dropped_write_errors());
}

}  // namespace
}  // namespace nxgraph
