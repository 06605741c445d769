// Differential tests for the parallel association kernels: mining with
// worker threads must produce results bit-identical to the serial run on
// seeded Quest workloads — same frequent itemsets, same supports, same
// per-pass census, same work counters. Covers the counting miners
// (Apriori/AprioriTid, including Apriori's pass-2 pair table against a
// hash tree over C2), the pattern-growth miners (FP-Growth/Eclat), and
// the sampling verification scan. The concurrency cases run several calls
// at once and check that each call's work counters are its own.
#include <gtest/gtest.h>

#include <random>

#include "assoc/apriori.h"
#include "assoc/candidate_gen.h"
#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "assoc/hash_tree.h"
#include "assoc/sampling.h"
#include "concurrent_calls.h"
#include "core/check.h"
#include "gen/quest.h"
#include "obs/metrics.h"

namespace dmt::assoc {
namespace {

core::TransactionDatabase Workload(uint64_t seed) {
  gen::QuestParams params;
  params.num_transactions = 2000;
  params.avg_transaction_size = 8;
  params.avg_pattern_size = 3;
  params.num_items = 200;
  params.num_patterns = 100;
  auto db = gen::GenerateQuestTransactions(params, seed);
  DMT_CHECK(db.ok());
  return std::move(db).value();
}

void ExpectSameResult(const MiningResult& serial,
                      const MiningResult& parallel, size_t threads) {
  EXPECT_EQ(serial.itemsets, parallel.itemsets)
      << "itemsets diverged at num_threads=" << threads;
  ASSERT_EQ(serial.passes.size(), parallel.passes.size());
  for (size_t p = 0; p < serial.passes.size(); ++p) {
    EXPECT_EQ(serial.passes[p].pass, parallel.passes[p].pass);
    EXPECT_EQ(serial.passes[p].candidates, parallel.passes[p].candidates);
    EXPECT_EQ(serial.passes[p].frequent, parallel.passes[p].frequent);
  }
  EXPECT_EQ(serial.conditional_trees_built, parallel.conditional_trees_built)
      << "conditional_trees_built diverged at num_threads=" << threads;
  EXPECT_EQ(serial.fp_nodes_allocated, parallel.fp_nodes_allocated)
      << "fp_nodes_allocated diverged at num_threads=" << threads;
  EXPECT_EQ(serial.tidset_intersections, parallel.tidset_intersections)
      << "tidset_intersections diverged at num_threads=" << threads;
}

/// Seeded uniform baskets over `num_items` items, sizes 0..max_size (so
/// some transactions are empty).
core::TransactionDatabase RandomBaskets(uint64_t seed, size_t num_items,
                                        size_t max_size) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> size_dist(0, max_size);
  std::uniform_int_distribution<core::ItemId> item_dist(
      0, static_cast<core::ItemId>(num_items - 1));
  core::TransactionDatabase db;
  for (size_t t = 0; t < 1500; ++t) {
    std::vector<core::ItemId> basket(size_dist(rng));
    for (auto& item : basket) item = item_dist(rng);
    db.Add(basket);
  }
  return db;
}

std::vector<FrequentItemset> OfSize(const std::vector<FrequentItemset>& all,
                                    size_t k) {
  std::vector<FrequentItemset> out;
  for (const auto& f : all) {
    if (f.items.size() == k) out.push_back(f);
  }
  return out;
}

/// Apriori's pass 2 (a triangular pair table) must report exactly the
/// pairs, supports and C2 census that a hash tree over
/// GenerateCandidates(L1) yields, at every thread count and under both
/// counting methods.
void ExpectPairsMatchHashTree(const core::TransactionDatabase& db,
                              double min_support) {
  const uint32_t min_count = AbsoluteMinSupport(db, min_support);
  std::vector<FrequentItemset> singles;
  const std::vector<uint32_t> supports = db.ItemSupports();
  for (core::ItemId item = 0; item < supports.size(); ++item) {
    if (supports[item] >= min_count) {
      singles.push_back({{item}, supports[item]});
    }
  }
  std::vector<Itemset> l1;
  for (const auto& f : singles) l1.push_back(f.items);
  std::vector<Itemset> c2;
  if (!l1.empty()) c2 = GenerateCandidates(l1).candidates;
  std::vector<uint32_t> counts(c2.size(), 0);
  if (!c2.empty()) HashTree(c2, 2).CountDatabase(db, counts);
  std::vector<FrequentItemset> expected_pairs;
  for (size_t c = 0; c < c2.size(); ++c) {
    if (counts[c] >= min_count) expected_pairs.push_back({c2[c], counts[c]});
  }

  using Method = AprioriOptions::CountingMethod;
  for (Method method : {Method::kHashTree, Method::kSubsetLookup}) {
    for (size_t threads : {0u, 1u, 2u, 7u}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " subset_lookup="
                   << (method == Method::kSubsetLookup));
      MiningParams params;
      params.min_support = min_support;
      params.max_itemset_size = 2;
      params.num_threads = threads;
      AprioriOptions options;
      options.counting = method;
      auto result = MineApriori(db, params, options);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(OfSize(result->itemsets, 1), singles);
      EXPECT_EQ(OfSize(result->itemsets, 2), expected_pairs);
      if (singles.empty()) {
        EXPECT_EQ(result->passes.size(), 1u);
        continue;
      }
      ASSERT_EQ(result->passes.size(), 2u);
      EXPECT_EQ(result->passes[1].pass, 2u);
      EXPECT_EQ(result->passes[1].candidates, c2.size());
      EXPECT_EQ(result->passes[1].frequent, expected_pairs.size());
    }
  }
}

TEST(AprioriPairTableDiffTest, QuestSupportsMatchHashTree) {
  for (uint64_t seed : {61u, 62u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    auto db = Workload(seed);
    const double min_support = 1.0 / static_cast<double>(db.size());
    ASSERT_EQ(AbsoluteMinSupport(db, min_support), 1u);
    ExpectPairsMatchHashTree(db, min_support);
  }
}

TEST(AprioriPairTableDiffTest, RandomSupportsMatchHashTree) {
  for (uint64_t seed : {63u, 64u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    auto db = RandomBaskets(seed, /*num_items=*/60, /*max_size=*/12);
    const double min_support = 1.0 / static_cast<double>(db.size());
    ASSERT_EQ(AbsoluteMinSupport(db, min_support), 1u);
    ExpectPairsMatchHashTree(db, min_support);
  }
}

TEST(AprioriPairTableDiffTest, EdgeCasesMatchHashTree) {
  auto make = [](std::vector<std::vector<core::ItemId>> baskets) {
    core::TransactionDatabase db;
    for (const auto& basket : baskets) db.Add(basket);
    return db;
  };
  {
    SCOPED_TRACE("|L1| = 0: only empty transactions");
    ExpectPairsMatchHashTree(make({{}, {}, {}}), 0.5);
  }
  {
    SCOPED_TRACE("|L1| = 0: only infrequent items");
    ExpectPairsMatchHashTree(make({{0}, {1, 2}, {3}, {}}), 0.5);
  }
  {
    SCOPED_TRACE("|L1| = 1");
    ExpectPairsMatchHashTree(make({{4}, {4, 9}, {}, {4}}), 0.5);
  }
  {
    SCOPED_TRACE("|L1| = 2");
    ExpectPairsMatchHashTree(make({{2, 5}, {2, 5, 8}, {}, {5}, {2}}), 0.4);
  }
  {
    SCOPED_TRACE("empty and infrequent-only transactions between frequent");
    ExpectPairsMatchHashTree(
        make({{0, 1, 2}, {0, 1}, {}, {7, 8}, {9}, {1, 2}, {0, 2, 7}, {},
              {0, 1, 2, 8}}),
        3.0 / 9.0);
  }
}

TEST(AprioriParallelDiffTest, HashTreeCountingMatchesSerial) {
  auto db = Workload(/*seed=*/41);
  MiningParams params;
  params.min_support = 0.01;
  auto serial = MineApriori(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    params.num_threads = threads;
    auto parallel = MineApriori(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(AprioriParallelDiffTest, SubsetLookupCountingMatchesSerial) {
  auto db = Workload(/*seed=*/42);
  MiningParams params;
  params.min_support = 0.015;
  AprioriOptions options;
  options.counting = AprioriOptions::CountingMethod::kSubsetLookup;
  auto serial = MineApriori(db, params, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    params.num_threads = threads;
    auto parallel = MineApriori(db, params, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(AprioriParallelDiffTest, AprioriTidMatchesSerial) {
  auto db = Workload(/*seed=*/43);
  MiningParams params;
  params.min_support = 0.01;
  auto serial = MineAprioriTid(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    params.num_threads = threads;
    auto parallel = MineAprioriTid(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(FpGrowthParallelDiffTest, ConditionalTreeMiningMatchesSerial) {
  auto db = Workload(/*seed=*/45);
  MiningParams params;
  params.min_support = 0.005;
  auto serial = MineFpGrowth(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  EXPECT_GT(serial->conditional_trees_built, 0u);
  EXPECT_GT(serial->fp_nodes_allocated, 0u);
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineFpGrowth(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(FpGrowthParallelDiffTest, NoSinglePathOptimizationMatchesSerial) {
  auto db = Workload(/*seed=*/46);
  MiningParams params;
  params.min_support = 0.0075;
  FpGrowthOptions options;
  options.single_path_optimization = false;
  auto serial = MineFpGrowth(db, params, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineFpGrowth(db, params, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(FpGrowthParallelDiffTest, MaxItemsetSizeCapMatchesSerial) {
  auto db = Workload(/*seed=*/47);
  MiningParams params;
  params.min_support = 0.005;
  params.max_itemset_size = 3;
  auto serial = MineFpGrowth(db, params);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineFpGrowth(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(EclatParallelDiffTest, SortedVectorWalkMatchesSerial) {
  auto db = Workload(/*seed=*/48);
  MiningParams params;
  params.min_support = 0.005;
  auto serial = MineEclat(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  EXPECT_GT(serial->tidset_intersections, 0u);
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineEclat(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(EclatParallelDiffTest, BitsetWalkMatchesSerial) {
  auto db = Workload(/*seed=*/49);
  MiningParams params;
  params.min_support = 0.005;
  EclatOptions options;
  options.representation = EclatOptions::TidsetRepr::kBitsets;
  auto serial = MineEclat(db, params, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineEclat(db, params, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(SamplingParallelDiffTest, VerificationScanMatchesSerial) {
  auto db = Workload(/*seed=*/50);
  MiningParams params;
  params.min_support = 0.01;
  SamplingOptions options;
  options.sample_fraction = 0.25;
  options.seed = 17;
  SamplingStats serial_stats;
  auto serial = MineWithSampling(db, params, options, &serial_stats);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    SamplingStats parallel_stats;
    auto parallel = MineWithSampling(db, params, options, &parallel_stats);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
    EXPECT_EQ(serial_stats.sample_size, parallel_stats.sample_size);
    EXPECT_EQ(serial_stats.candidates_checked,
              parallel_stats.candidates_checked);
    EXPECT_EQ(serial_stats.border_misses, parallel_stats.border_misses);
    EXPECT_EQ(serial_stats.fell_back, parallel_stats.fell_back);
  }
}

TEST(AprioriParallelDiffTest, ParallelRunsAreRepeatable) {
  // Two parallel runs with the same thread count must also agree with each
  // other (scheduling must never leak into results).
  auto db = Workload(/*seed=*/44);
  MiningParams params;
  params.min_support = 0.01;
  params.num_threads = 4;
  auto first = MineApriori(db, params);
  auto second = MineApriori(db, params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->itemsets, second->itemsets);
}

TEST(FpGrowthParallelDiffTest, ParallelRunsAreRepeatable) {
  auto db = Workload(/*seed=*/51);
  MiningParams params;
  params.min_support = 0.005;
  params.num_threads = 4;
  auto first = MineFpGrowth(db, params);
  auto second = MineFpGrowth(db, params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second, 4);
}

TEST(EclatParallelDiffTest, ParallelRunsAreRepeatable) {
  auto db = Workload(/*seed=*/52);
  MiningParams params;
  params.min_support = 0.005;
  params.num_threads = 4;
  auto first = MineEclat(db, params);
  auto second = MineEclat(db, params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second, 4);
}

TEST(AprioriParallelDiffTest, MoreThreadsThanTransactions) {
  // Degenerate chunking: thread count exceeding the database size must not
  // change results (chunks cap at one transaction each).
  core::TransactionDatabase tiny;
  tiny.Add(std::vector<core::ItemId>{0, 1, 2});
  tiny.Add(std::vector<core::ItemId>{0, 1, 3});
  tiny.Add(std::vector<core::ItemId>{0, 2, 3});
  MiningParams params;
  params.min_support = 0.5;
  auto serial = MineApriori(tiny, params);
  params.num_threads = 8;
  auto parallel = MineApriori(tiny, params);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->itemsets, parallel->itemsets);
}

TEST(PatternGrowthParallelDiffTest, MoreThreadsThanTopLevelTasks) {
  // The pattern-growth task ranges are header entries / root classes, of
  // which this database has only four; 8 threads must change nothing.
  core::TransactionDatabase tiny;
  tiny.Add(std::vector<core::ItemId>{0, 1, 2});
  tiny.Add(std::vector<core::ItemId>{0, 1, 3});
  tiny.Add(std::vector<core::ItemId>{0, 2, 3});
  MiningParams params;
  params.min_support = 0.5;
  auto fp_serial = MineFpGrowth(tiny, params);
  auto eclat_serial = MineEclat(tiny, params);
  params.num_threads = 8;
  auto fp_parallel = MineFpGrowth(tiny, params);
  auto eclat_parallel = MineEclat(tiny, params);
  ASSERT_TRUE(fp_serial.ok());
  ASSERT_TRUE(fp_parallel.ok());
  ASSERT_TRUE(eclat_serial.ok());
  ASSERT_TRUE(eclat_parallel.ok());
  ExpectSameResult(*fp_serial, *fp_parallel, 8);
  ExpectSameResult(*eclat_serial, *eclat_parallel, 8);
}

/// FP-growth's root tree is built chunk-parallel (per-chunk sorted paths,
/// merged per group of first positions into subtrees that are then
/// concatenated). Every thread count must mine what the serial build
/// mines, with the same conditional trees and node counts, under both
/// root strategies (single-path fast path on and off).
void ExpectFpRootBuildMatchesSerial(const core::TransactionDatabase& db,
                                    double min_support) {
  for (bool single_path : {true, false}) {
    FpGrowthOptions options;
    options.single_path_optimization = single_path;
    MiningParams params;
    params.min_support = min_support;
    auto serial = MineFpGrowth(db, params, options);
    ASSERT_TRUE(serial.ok());
    EXPECT_FALSE(serial->itemsets.empty());
    for (size_t threads : {1u, 2u, 7u}) {
      params.num_threads = threads;
      auto parallel = MineFpGrowth(db, params, options);
      ASSERT_TRUE(parallel.ok());
      ExpectSameResult(*serial, *parallel, threads);
    }
  }
}

TEST(FpGrowthParallelDiffTest, RootBuildWithMoreChunksThanTransactions) {
  // 7 threads ask for 14 chunks; five transactions get one chunk each,
  // and the groups of first positions outnumber the chunks too.
  core::TransactionDatabase tiny;
  tiny.Add(std::vector<core::ItemId>{0, 1, 2, 3});
  tiny.Add(std::vector<core::ItemId>{0, 1, 4});
  tiny.Add(std::vector<core::ItemId>{1, 2, 5});
  tiny.Add(std::vector<core::ItemId>{0, 3, 4, 5});
  tiny.Add(std::vector<core::ItemId>{2, 3, 6});
  ExpectFpRootBuildMatchesSerial(tiny, 0.2);
}

TEST(FpGrowthParallelDiffTest, RootBuildMergesEqualPathsAcrossChunks) {
  // The same three baskets repeat through the whole database, so every
  // chunk holds identical paths that tie in the merge.
  core::TransactionDatabase db;
  const std::vector<std::vector<core::ItemId>> baskets = {
      {0, 1, 2, 3}, {0, 1, 2}, {2, 3, 4}};
  for (int repeat = 0; repeat < 40; ++repeat) {
    for (const auto& basket : baskets) db.Add(basket);
  }
  ExpectFpRootBuildMatchesSerial(db, 0.1);
}

TEST(FpGrowthParallelDiffTest, RootBuildSkipsEmptyAndInfrequentBaskets) {
  // Empty transactions and transactions of infrequent items only yield
  // empty paths, which add no node wherever they fall.
  core::TransactionDatabase db = RandomBaskets(/*seed=*/91, 12, 5);
  for (core::ItemId rare = 100; rare < 160; ++rare) {
    db.Add(std::vector<core::ItemId>{});
    db.Add(std::vector<core::ItemId>{rare});
    db.Add(std::vector<core::ItemId>{rare, rare + 100});
  }
  ExpectFpRootBuildMatchesSerial(db, 0.05);
}

TEST(RegistryParallelDiffTest, CounterTotalsIdenticalAcrossThreadCounts) {
  // The metrics registry is under the same determinism contract as the
  // results: after identical work, every counter total must be
  // bit-identical at every thread count — including more threads than
  // top-level tasks (7 threads against a 3-transaction database).
  auto db = Workload(/*seed=*/53);
  core::TransactionDatabase tiny;
  tiny.Add(std::vector<core::ItemId>{0, 1, 2});
  tiny.Add(std::vector<core::ItemId>{0, 1, 3});
  tiny.Add(std::vector<core::ItemId>{0, 2, 3});
  std::vector<std::pair<std::string, uint64_t>> baseline;
  for (size_t threads : {0u, 1u, 2u, 7u}) {
    obs::Registry::Global().Reset();
    MiningParams params;
    params.min_support = 0.01;
    params.num_threads = threads;
    ASSERT_TRUE(MineApriori(db, params).ok());
    ASSERT_TRUE(MineFpGrowth(db, params).ok());
    ASSERT_TRUE(MineEclat(db, params).ok());
    MiningParams tiny_params;
    tiny_params.min_support = 0.5;
    tiny_params.num_threads = threads;
    ASSERT_TRUE(MineApriori(tiny, tiny_params).ok());
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

/// A level-wise miner's registry counters under `prefix`, computed from
/// its pass stats.
testutil::CounterMap PassCounters(const std::string& prefix,
                                  const std::vector<PassStats>& passes) {
  uint64_t candidates = 0;
  uint64_t frequent = 0;
  for (const PassStats& pass : passes) {
    candidates += pass.candidates;
    frequent += pass.frequent;
  }
  return {{prefix + "/candidates", candidates},
          {prefix + "/frequent", frequent},
          {prefix + "/passes", passes.size()}};
}

MiningParams ConcurrentParams() {
  MiningParams params;
  params.min_support = 0.005;
  params.num_threads = 2;
  return params;
}

TEST(FpGrowthParallelDiffTest, ConcurrentCallsCountOnlyTheirOwnWork) {
  const auto db = Workload(/*seed=*/81);
  testutil::ExpectCountersBelongToTheCall("assoc/fp_growth/mine", [&] {
    const MiningResult r = testutil::Ok(MineFpGrowth(db, ConcurrentParams()));
    return testutil::CounterMap{
        {"assoc/fp_growth/conditional_trees_built",
         r.conditional_trees_built},
        {"assoc/fp_growth/fp_nodes_allocated", r.fp_nodes_allocated}};
  });
}

TEST(EclatParallelDiffTest, ConcurrentCallsCountOnlyTheirOwnWork) {
  const auto db = Workload(/*seed=*/82);
  using Repr = EclatOptions::TidsetRepr;
  for (Repr repr : {Repr::kSortedVectors, Repr::kBitsets}) {
    SCOPED_TRACE(repr == Repr::kBitsets ? "bitset" : "sorted vectors");
    EclatOptions options;
    options.representation = repr;
    testutil::ExpectCountersBelongToTheCall("assoc/eclat/mine", [&] {
      const MiningResult r =
          testutil::Ok(MineEclat(db, ConcurrentParams(), options));
      return testutil::CounterMap{
          {"assoc/eclat/tidset_intersections", r.tidset_intersections}};
    });
  }
}

TEST(AprioriParallelDiffTest, ConcurrentCallsCountOnlyTheirOwnWork) {
  const auto db = Workload(/*seed=*/83);
  testutil::ExpectCountersBelongToTheCall("assoc/apriori/mine", [&] {
    const MiningResult r = testutil::Ok(MineApriori(db, ConcurrentParams()));
    return PassCounters("assoc/apriori", r.passes);
  });
  testutil::ExpectCountersBelongToTheCall("assoc/apriori_tid/mine", [&] {
    const MiningResult r =
        testutil::Ok(MineAprioriTid(db, ConcurrentParams()));
    return PassCounters("assoc/apriori_tid", r.passes);
  });
}

}  // namespace
}  // namespace dmt::assoc
