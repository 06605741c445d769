// Dedicated ThreadPool / ParallelContext suite: Submit/Wait reentrancy,
// degenerate ranges, stress, and destructor draining — the contracts the
// parallel mining kernels rely on (previously the pool was only
// incidentally exercised via util_test.cc).
#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "core/parallel.h"

namespace dmt::core {
namespace {

TEST(ThreadPoolTest, SubmitFromInsideTaskIsCoveredByWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      // The parent task is still active while it enqueues, so Wait() must
      // also cover the nested tasks (transitively).
      pool.Submit([&pool, &counter] {
        counter.fetch_add(1);
        pool.Submit([&counter] { counter.fetch_add(1); });
      });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 60);
}

TEST(ThreadPoolTest, SubmitAfterWaitStartsNextBatch) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  pool.Wait();
}

TEST(ThreadPoolTest, StressTenThousandTinyTasks) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (uint64_t i = 0; i < 10000; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i + 1); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 10000ull * 10001ull / 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must still run every queued task before
    // joining (its contract is drain-then-join, not drop).
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, ConcurrentSubmittersAllLand) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < 500; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), 2000);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelContextTest, SerialContextHasNoPool) {
  ParallelContext serial0(0);
  ParallelContext serial1(1);
  EXPECT_FALSE(serial0.parallel());
  EXPECT_FALSE(serial1.parallel());
  EXPECT_EQ(serial0.pool(), nullptr);
  EXPECT_EQ(serial0.NumChunks(100), 1u);
  EXPECT_EQ(serial0.NumChunks(0), 0u);
}

TEST(ParallelContextTest, ParallelChunkCountCappedByRangeAndWorkers) {
  ParallelContext ctx(4);
  ASSERT_TRUE(ctx.parallel());
  EXPECT_EQ(ctx.pool()->num_threads(), 4u);
  EXPECT_EQ(ctx.NumChunks(1000), 8u);  // 2x workers
  EXPECT_EQ(ctx.NumChunks(3), 3u);     // never more chunks than items
  EXPECT_EQ(ctx.NumChunks(0), 0u);
}

TEST(ParallelContextTest, ForEachChunkPartitionsExactly) {
  for (size_t threads : {0u, 2u, 4u}) {
    ParallelContext ctx(threads);
    for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<size_t> chunks_seen{0};
      ctx.ForEachChunk(n, [&](size_t chunk, size_t begin, size_t end) {
        EXPECT_LT(chunk, ctx.NumChunks(n));
        EXPECT_LT(begin, end);
        chunks_seen.fetch_add(1);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      EXPECT_EQ(chunks_seen.load(), ctx.NumChunks(n));
      for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ParallelContextTest, CountPartitionedMatchesSerial) {
  // Count i % m over a range with a serial and a parallel context; the
  // merged totals must be identical.
  const size_t n = 5000, m = 16;
  auto count_range = [&](size_t begin, size_t end,
                         std::span<uint32_t> local) {
    for (size_t i = begin; i < end; ++i) ++local[i % m];
  };
  std::vector<uint32_t> serial(m, 0), parallel(m, 0);
  CountPartitioned(ParallelContext(0), n, serial, count_range);
  CountPartitioned(ParallelContext(4), n, parallel, count_range);
  EXPECT_EQ(serial, parallel);
  uint32_t total = std::accumulate(serial.begin(), serial.end(), 0u);
  EXPECT_EQ(total, n);
}

TEST(ParallelContextTest, MergeCountsAccumulatesInOrder) {
  std::vector<std::vector<uint32_t>> partials = {{1, 2, 3}, {10, 20, 30}};
  std::vector<uint32_t> totals = {100, 100, 100};
  MergeCounts(partials, totals);
  EXPECT_EQ(totals, (std::vector<uint32_t>{111, 122, 133}));
}

}  // namespace
}  // namespace dmt::core
