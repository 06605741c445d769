// Differential tests for the parallel GSP support-counting kernels: mining
// with num_threads in {2, 4} must produce results identical to the serial
// run on seeded synthetic customer sequences — both the specialized pass-2
// counter and the generic containment scans are partitioned. The
// concurrency case runs several calls at once and checks that each call's
// work counters are its own.
#include <gtest/gtest.h>

#include "concurrent_calls.h"
#include "core/check.h"
#include "gen/seqgen.h"
#include "obs/metrics.h"
#include "seq/gsp.h"

namespace dmt::seq {
namespace {

core::SequenceDatabase Workload(uint64_t seed) {
  gen::SequenceGenParams params;
  params.num_customers = 200;
  params.avg_transactions_per_customer = 6.0;
  params.avg_items_per_transaction = 2.5;
  params.avg_pattern_elements = 4.0;
  params.avg_pattern_itemset_size = 1.25;
  params.num_items = 100;
  params.num_pattern_sequences = 50;
  params.num_pattern_itemsets = 200;
  auto db = gen::GenerateSequences(params, seed);
  DMT_CHECK(db.ok());
  return std::move(db).value();
}

void ExpectSameResult(const SeqMiningResult& serial,
                      const SeqMiningResult& parallel, size_t threads) {
  EXPECT_EQ(serial.patterns, parallel.patterns)
      << "patterns diverged at num_threads=" << threads;
  ASSERT_EQ(serial.passes.size(), parallel.passes.size());
  for (size_t p = 0; p < serial.passes.size(); ++p) {
    EXPECT_EQ(serial.passes[p].pass, parallel.passes[p].pass);
    EXPECT_EQ(serial.passes[p].candidates, parallel.passes[p].candidates);
    EXPECT_EQ(serial.passes[p].frequent, parallel.passes[p].frequent);
  }
}

TEST(GspParallelDiffTest, MatchesSerialAcrossThreadCounts) {
  auto db = Workload(/*seed=*/71);
  SeqMiningParams params;
  params.min_support = 0.04;
  auto serial = MineGsp(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->patterns.empty());
  // The run must reach pass 3+ so the generic containment counter is
  // exercised in addition to the specialized pass-2 path.
  EXPECT_GE(serial->passes.size(), 3u);
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineGsp(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(GspParallelDiffTest, LowerSupportDeeperPassesMatch) {
  auto db = Workload(/*seed=*/72);
  SeqMiningParams params;
  params.min_support = 0.03;
  auto serial = MineGsp(db, params);
  ASSERT_TRUE(serial.ok());
  params.num_threads = 4;
  auto parallel = MineGsp(db, params);
  ASSERT_TRUE(parallel.ok());
  ExpectSameResult(*serial, *parallel, 4);
}

TEST(GspParallelDiffTest, ParallelRunsAreRepeatable) {
  auto db = Workload(/*seed=*/73);
  SeqMiningParams params;
  params.min_support = 0.04;
  params.num_threads = 4;
  auto first = MineGsp(db, params);
  auto second = MineGsp(db, params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->patterns, second->patterns);
}

TEST(GspParallelDiffTest, MoreThreadsThanCustomers) {
  core::SequenceDatabase tiny;
  core::Sequence s1;
  s1.elements = {{0, 1}, {2}};
  core::Sequence s2;
  s2.elements = {{0}, {1, 2}};
  core::Sequence s3;
  s3.elements = {{0, 1}, {1, 2}};
  tiny.Add(s1);
  tiny.Add(s2);
  tiny.Add(s3);
  SeqMiningParams params;
  params.min_support = 0.5;
  auto serial = MineGsp(tiny, params);
  params.num_threads = 8;
  auto parallel = MineGsp(tiny, params);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->patterns, parallel->patterns);
}

TEST(RegistryParallelDiffTest, CounterTotalsIdenticalAcrossThreadCounts) {
  // GSP's registry totals (candidates, frequent, passes) must be
  // bit-identical at every thread count, including more threads than
  // customers (7 against a 3-sequence database).
  auto db = Workload(/*seed=*/74);
  core::SequenceDatabase tiny;
  core::Sequence s1;
  s1.elements = {{0, 1}, {2}};
  core::Sequence s2;
  s2.elements = {{0}, {1, 2}};
  core::Sequence s3;
  s3.elements = {{0, 1}, {1, 2}};
  tiny.Add(s1);
  tiny.Add(s2);
  tiny.Add(s3);
  std::vector<std::pair<std::string, uint64_t>> baseline;
  for (size_t threads : {0u, 1u, 2u, 7u}) {
    obs::Registry::Global().Reset();
    SeqMiningParams params;
    params.min_support = 0.04;
    params.num_threads = threads;
    ASSERT_TRUE(MineGsp(db, params).ok());
    SeqMiningParams tiny_params;
    tiny_params.min_support = 0.5;
    tiny_params.num_threads = threads;
    ASSERT_TRUE(MineGsp(tiny, tiny_params).ok());
    auto snapshot = obs::Registry::Global().CounterSnapshot();
    if (threads == 0) {
      baseline = snapshot;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(snapshot, baseline)
          << "registry totals diverged at num_threads=" << threads;
    }
  }
}

TEST(GspParallelDiffTest, ConcurrentCallsCountOnlyTheirOwnWork) {
  auto db = Workload(/*seed=*/81);
  SeqMiningParams params;
  params.min_support = 0.03;
  params.num_threads = 2;
  testutil::ExpectCountersBelongToTheCall("seq/gsp/mine", [&] {
    const SeqMiningResult r = testutil::Ok(MineGsp(db, params));
    uint64_t candidates = 0;
    uint64_t frequent = 0;
    for (const SeqPassStats& pass : r.passes) {
      candidates += pass.candidates;
      frequent += pass.frequent;
    }
    return testutil::CounterMap{{"seq/gsp/candidates", candidates},
                                {"seq/gsp/frequent", frequent},
                                {"seq/gsp/passes", r.passes.size()}};
  });
}

}  // namespace
}  // namespace dmt::seq
