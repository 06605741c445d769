#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/bitset.h"
#include "core/crc32.h"
#include "core/distance.h"
#include "core/parallel.h"
#include "core/stats.h"
#include "core/string_util.h"
#include "core/thread_pool.h"
#include "core/timer.h"

namespace dmt::core {
namespace {

/// Byte-at-a-time CRC-32 (reflected polynomial 0xEDB88320), computed
/// bit by bit: the reference the table-driven Crc32 must reproduce.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size,
                        uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32Test, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::span<const std::byte>()), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthOffsetAndSplit) {
  // Every length through two 128-byte spans, at every alignment of the
  // start, split at every point and chained through `seed`: covers the
  // 8-byte body, the byte-wise tail, and unaligned loads.
  std::vector<unsigned char> buffer(257 + 8);
  uint32_t state = 12345;
  for (auto& byte : buffer) {
    state = state * 1103515245u + 12345u;
    byte = static_cast<unsigned char>(state >> 16);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      const unsigned char* data = buffer.data() + offset;
      const uint32_t expected = ReferenceCrc32(data, length, 0);
      ASSERT_EQ(Crc32(data, length), expected)
          << "offset=" << offset << " length=" << length;
      for (size_t split = 0; split <= length; ++split) {
        uint32_t chained = Crc32(data, split);
        chained = Crc32(data + split, length - split, chained);
        ASSERT_EQ(chained, expected) << "offset=" << offset
                                     << " length=" << length
                                     << " split=" << split;
      }
    }
  }
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.sample_variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats all, left, right;
  for (int i = 0; i < 10; ++i) {
    double v = i * 1.3 - 4.0;
    all.Add(v);
    (i < 4 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats a, b;
  a.Add(1.0);
  a.Merge(b);  // empty rhs
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);  // empty lhs
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(StatsTest, XLog2XHandlesZero) {
  EXPECT_DOUBLE_EQ(XLog2X(0.0), 0.0);
  EXPECT_DOUBLE_EQ(XLog2X(0.5), -0.5);
  EXPECT_DOUBLE_EQ(XLog2X(1.0), 0.0);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, TrimStripsWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, JoinConcatenates) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e3 "), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, ParseUint) {
  EXPECT_EQ(*ParseUint("42"), 42u);
  EXPECT_FALSE(ParseUint("-1").ok());
  EXPECT_FALSE(ParseUint("4.2").ok());
  EXPECT_FALSE(ParseUint("").ok());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(DistanceTest, EuclideanAndSquared) {
  std::vector<double> a = {0.0, 3.0};
  std::vector<double> b = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
}

TEST(DistanceTest, ManhattanAndChebyshev) {
  std::vector<double> a = {1.0, -2.0};
  std::vector<double> b = {-1.0, 1.0};
  EXPECT_DOUBLE_EQ(ManhattanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(ChebyshevDistance(a, b), 3.0);
}

TEST(DistanceTest, ZeroForIdenticalPoints) {
  std::vector<double> a = {1.5, 2.5, -3.0};
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(ManhattanDistance(a, a), 0.0);
}

TEST(BitsetTest, SetTestClear) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_FALSE(bits.Test(129));
  bits.Set(129);
  EXPECT_TRUE(bits.Test(129));
  bits.Clear(129);
  EXPECT_FALSE(bits.Test(129));
}

TEST(BitsetTest, CountAcrossWordBoundaries) {
  DynamicBitset bits(200);
  for (size_t i = 0; i < 200; i += 7) bits.Set(i);
  EXPECT_EQ(bits.Count(), 29u);
}

TEST(BitsetTest, IntersectionVariantsAgree) {
  DynamicBitset a(100), b(100);
  for (size_t i = 0; i < 100; i += 2) a.Set(i);
  for (size_t i = 0; i < 100; i += 3) b.Set(i);
  size_t expected = 0;
  for (size_t i = 0; i < 100; i += 6) ++expected;
  EXPECT_EQ(a.IntersectionCount(b), expected);
  DynamicBitset c = a.Intersect(b);
  EXPECT_EQ(c.Count(), expected);
  DynamicBitset d = a;
  d.IntersectWith(b);
  EXPECT_EQ(d, c);
}

TEST(BitsetTest, ToIndicesAscending) {
  DynamicBitset bits(70);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(69);
  EXPECT_EQ(bits.ToIndices(),
            (std::vector<uint32_t>{0, 63, 64, 69}));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ParallelContext ctx(2);
  bool called = false;
  ctx.ForEachChunk(0, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  double first = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GE(timer.ElapsedSeconds(), first);
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace dmt::core
