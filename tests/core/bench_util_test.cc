// Coverage for the bench harness determinism helpers (bench/bench_util.h):
// the cached workloads must hand back the same object on repeated calls,
// and their fixed seeds must regenerate bit-identical data — otherwise the
// work counters that tools/bench_compare gates against bench/baselines/
// would not be comparable run-to-run.
#include "bench_util.h"

#include <gtest/gtest.h>

namespace dmt::bench {
namespace {

TEST(BenchUtilTest, QuestWorkloadIsCachedAndSeedFixed) {
  const auto& first = QuestWorkload(5, 2, 300);
  const auto& second = QuestWorkload(5, 2, 300);
  EXPECT_EQ(&first, &second) << "repeated lookups must share the cache";

  // Regenerate with the helper's pinned seed: identical database.
  gen::QuestParams params;
  params.avg_transaction_size = 5;
  params.avg_pattern_size = 2;
  params.num_transactions = 300;
  params.num_items = 1000;
  params.num_patterns = 2000;
  auto regenerated = gen::GenerateQuestTransactions(params, /*seed=*/1996);
  ASSERT_TRUE(regenerated.ok());
  EXPECT_EQ(first.ToBasketText(), regenerated->ToBasketText());
}

TEST(BenchUtilTest, SequenceWorkloadIsCachedAndSeedFixed) {
  const auto& first = SequenceWorkload(50);
  const auto& second = SequenceWorkload(50);
  EXPECT_EQ(&first, &second);

  gen::SequenceGenParams params;
  params.num_customers = 50;
  params.avg_transactions_per_customer = 10.0;
  params.avg_items_per_transaction = 2.5;
  params.avg_pattern_elements = 4.0;
  params.avg_pattern_itemset_size = 1.25;
  params.num_items = 1000;
  auto regenerated = gen::GenerateSequences(params, /*seed=*/1995);
  ASSERT_TRUE(regenerated.ok());
  ASSERT_EQ(first.size(), regenerated->size());
  for (size_t c = 0; c < first.size(); ++c) {
    EXPECT_EQ(first.sequence(c), regenerated->sequence(c)) << "customer " << c;
  }
}

TEST(BenchUtilTest, GridWorkloadIsCachedAndSeedFixed) {
  const auto& first = GridWorkload(4, 25);
  const auto& second = GridWorkload(4, 25);
  EXPECT_EQ(&first, &second);

  auto regenerated = gen::GenerateBirchGrid(4, 25, /*spacing=*/10.0,
                                            /*stddev=*/1.0, /*seed=*/1996);
  ASSERT_TRUE(regenerated.ok());
  EXPECT_EQ(first.points.data(), regenerated->points.data());
  EXPECT_EQ(first.labels, regenerated->labels);
}

TEST(BenchUtilTest, AgrawalWorkloadIsCached) {
  const auto& first = AgrawalWorkload(1, 200);
  const auto& second = AgrawalWorkload(1, 200);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.num_rows(), 200u);
}

TEST(BenchUtilTest, DistinctKeysGetDistinctEntries) {
  const auto& a = QuestWorkload(5, 2, 300);
  const auto& b = QuestWorkload(5, 2, 301);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(b.size(), 301u);
}

}  // namespace
}  // namespace dmt::bench
