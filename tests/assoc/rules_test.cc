#include "assoc/rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>

#include "assoc/apriori.h"
#include "assoc/postprocess.h"
#include "core/rng.h"
#include "gen/quest.h"

namespace dmt::assoc {
namespace {

using core::ItemId;
using core::TransactionDatabase;

/// A small database with a planted implication: item 1 almost always
/// implies item 2.
TransactionDatabase PlantedDatabase() {
  TransactionDatabase db;
  for (int i = 0; i < 8; ++i) db.Add(std::vector<ItemId>{1, 2});
  db.Add(std::vector<ItemId>{1});
  db.Add(std::vector<ItemId>{2});
  for (int i = 0; i < 10; ++i) db.Add(std::vector<ItemId>{3});
  return db;
}

MiningResult MineAll(const TransactionDatabase& db, double min_support) {
  MiningParams params;
  params.min_support = min_support;
  auto result = MineApriori(db, params);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(RulesTest, FindsPlantedImplication) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.8;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  bool found = false;
  for (const auto& rule : *rules) {
    if (rule.antecedent == Itemset{1} && rule.consequent == Itemset{2}) {
      found = true;
      EXPECT_EQ(rule.support_count, 8u);
      EXPECT_NEAR(rule.confidence, 8.0 / 9.0, 1e-12);
      EXPECT_NEAR(rule.support, 8.0 / 20.0, 1e-12);
      EXPECT_NEAR(rule.lift, (8.0 / 9.0) / (9.0 / 20.0), 1e-12);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RulesTest, ConfidenceThresholdFilters) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams strict;
  strict.min_confidence = 0.95;
  auto rules = GenerateRules(mining, db.size(), strict);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : *rules) {
    EXPECT_GE(rule.confidence, 0.95 - 1e-12);
  }
}

TEST(RulesTest, LiftThresholdFilters) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.1;
  params.min_lift = 1.5;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : *rules) {
    EXPECT_GE(rule.lift, 1.5 - 1e-9);
  }
}

TEST(RulesTest, RulesSortedByConfidenceThenLift) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.1;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  for (size_t i = 1; i < rules->size(); ++i) {
    const auto& prev = (*rules)[i - 1];
    const auto& cur = (*rules)[i];
    EXPECT_TRUE(prev.confidence > cur.confidence ||
                (prev.confidence == cur.confidence &&
                 prev.lift >= cur.lift));
  }
}

TEST(RulesTest, EveryRulePartitionsItsItemset) {
  core::Rng rng(5);
  TransactionDatabase db;
  for (int t = 0; t < 60; ++t) {
    std::vector<ItemId> items;
    for (ItemId item = 0; item < 8; ++item) {
      if (rng.Bernoulli(0.45)) items.push_back(item);
    }
    db.Add(items);
  }
  MiningResult mining = MineAll(db, 0.1);
  RuleParams params;
  params.min_confidence = 0.4;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  EXPECT_FALSE(rules->empty());
  for (const auto& rule : *rules) {
    EXPECT_FALSE(rule.antecedent.empty());
    EXPECT_FALSE(rule.consequent.empty());
    // Antecedent and consequent are disjoint.
    Itemset intersection;
    std::set_intersection(rule.antecedent.begin(), rule.antecedent.end(),
                          rule.consequent.begin(), rule.consequent.end(),
                          std::back_inserter(intersection));
    EXPECT_TRUE(intersection.empty());
    // Confidence is consistent with raw supports recomputed from the db.
    Itemset all;
    std::set_union(rule.antecedent.begin(), rule.antecedent.end(),
                   rule.consequent.begin(), rule.consequent.end(),
                   std::back_inserter(all));
    uint32_t support_all = 0, support_antecedent = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (IsSubsetOf(all, db.transaction(t))) ++support_all;
      if (IsSubsetOf(rule.antecedent, db.transaction(t))) {
        ++support_antecedent;
      }
    }
    EXPECT_EQ(rule.support_count, support_all);
    EXPECT_NEAR(rule.confidence,
                static_cast<double>(support_all) / support_antecedent,
                1e-12);
  }
}

TEST(RulesTest, MultiItemConsequentsGenerated) {
  // Items 1,2,3 always together: rules like {1} => {2,3} must appear.
  TransactionDatabase db;
  for (int i = 0; i < 10; ++i) db.Add(std::vector<ItemId>{1, 2, 3});
  db.Add(std::vector<ItemId>{4});
  MiningResult mining = MineAll(db, 0.5);
  RuleParams params;
  params.min_confidence = 0.9;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  bool found = false;
  for (const auto& rule : *rules) {
    if (rule.antecedent == Itemset{1} &&
        rule.consequent == Itemset{2, 3}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RulesTest, NoRulesFromSingletonItemsets) {
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{1});
  db.Add(std::vector<ItemId>{2});
  MiningResult mining = MineAll(db, 0.5);
  RuleParams params;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules->empty());
}

TEST(RulesTest, ValidatesParameters) {
  MiningResult mining;
  RuleParams params;
  params.min_confidence = 0.0;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
  params.min_confidence = 1.5;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
  params.min_confidence = 0.5;
  params.min_lift = -1.0;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
  params.min_lift = 0.0;
  EXPECT_FALSE(GenerateRules(mining, 0, params).ok());
}

TEST(RulesTest, ValidateRejectsNaNThresholds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MiningResult mining;
  RuleParams params;
  params.min_confidence = nan;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
  params.min_confidence = 0.5;
  params.min_lift = nan;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
}

TEST(RulesTest, RuleExactlyAtConfidenceAndLiftThresholdIncluded) {
  // conf({1} => {2}) = 3/4 exactly; supp({2}) = 3/4, so lift = 1 exactly.
  // Both land on the threshold and must pass the accept-lenient epsilon
  // deterministically (the comparisons at rules.cc use `+ 1e-12 <`).
  TransactionDatabase db;
  for (int i = 0; i < 3; ++i) db.Add(std::vector<ItemId>{1, 2});
  db.Add(std::vector<ItemId>{1});
  MiningResult mining = MineAll(db, 0.25);
  RuleParams params;
  params.min_confidence = 0.75;
  params.min_lift = 1.0;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  bool found = false;
  for (const auto& rule : *rules) {
    if (rule.antecedent == Itemset{1} && rule.consequent == Itemset{2}) {
      found = true;
      EXPECT_EQ(rule.confidence, 0.75);
      EXPECT_EQ(rule.lift, 1.0);
    }
  }
  EXPECT_TRUE(found) << "rule exactly at both thresholds was dropped";
  // Nudging either threshold past the rule's exact value excludes it.
  params.min_confidence = 0.75 + 1e-9;
  auto stricter = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(stricter.ok());
  for (const auto& rule : *stricter) {
    EXPECT_FALSE(rule.antecedent == Itemset{1} &&
                 rule.consequent == Itemset{2});
  }
  params.min_confidence = 0.75;
  params.min_lift = 1.0 + 1e-9;
  auto lift_strict = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(lift_strict.ok());
  for (const auto& rule : *lift_strict) {
    EXPECT_FALSE(rule.antecedent == Itemset{1} &&
                 rule.consequent == Itemset{2});
  }
}

TEST(RulesTest, LeverageComputedCorrectly) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.1;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  for (const auto& rule : *rules) {
    uint32_t antecedent_support = 0, consequent_support = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (IsSubsetOf(rule.antecedent, db.transaction(t))) {
        ++antecedent_support;
      }
      if (IsSubsetOf(rule.consequent, db.transaction(t))) {
        ++consequent_support;
      }
    }
    double n = static_cast<double>(db.size());
    double expected = rule.support - (antecedent_support / n) *
                                         (consequent_support / n);
    EXPECT_NEAR(rule.leverage, expected, 1e-12) << FormatRule(rule);
    EXPECT_GE(rule.leverage, -0.25 - 1e-12);
    EXPECT_LE(rule.leverage, 0.25 + 1e-12);
  }
}


TEST(RulesTest, ConvictionComputedCorrectly) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.5;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : *rules) {
    // Recompute conviction from the rule's own fields.
    uint32_t consequent_support = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (IsSubsetOf(rule.consequent, db.transaction(t))) {
        ++consequent_support;
      }
    }
    double consequent_fraction =
        static_cast<double>(consequent_support) /
        static_cast<double>(db.size());
    if (rule.confidence >= 1.0 - 1e-12) {
      EXPECT_GE(rule.conviction, 1e11);
    } else {
      EXPECT_NEAR(rule.conviction,
                  (1.0 - consequent_fraction) / (1.0 - rule.confidence),
                  1e-9);
    }
    EXPECT_GT(rule.conviction, 0.0);
  }
}

TEST(RulesTest, ConvictionAboveOneForPositivelyCorrelatedRules) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.8;
  params.min_lift = 1.2;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  for (const auto& rule : *rules) {
    EXPECT_GT(rule.conviction, 1.0) << FormatRule(rule);
  }
}

TEST(RulesTest, RejectsResultThatIsNotDownwardClosed) {
  // {1}, {2}, {1,2}, {3} is closed; its maximal filter {1,2}, {3} is not:
  // the antecedent {1} of {1} => {2} has no support to divide by.
  MiningResult mining;
  mining.itemsets = {{{1}, 4}, {{2}, 4}, {{1, 2}, 3}, {{3}, 2}};
  RuleParams params;
  ASSERT_TRUE(GenerateRules(mining, 10, params).ok());
  MiningResult maximal;
  maximal.itemsets = FilterMaximal(mining.itemsets);
  ASSERT_EQ(maximal.itemsets.size(), 2u);
  auto rules = GenerateRules(maximal, 10, params);
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), core::StatusCode::kInvalidArgument);
  // The closed filter keeps {1,2,3} but drops {1,3} and {2,3}, which
  // share its support: {1,2} => {3} loses nothing, {2} => {1,3} does.
  MiningResult with_triple;
  with_triple.itemsets = {{{1}, 4},    {{2}, 4},    {{3}, 2},
                          {{1, 2}, 3}, {{1, 3}, 2}, {{2, 3}, 2},
                          {{1, 2, 3}, 2}};
  ASSERT_TRUE(GenerateRules(with_triple, 10, params).ok());
  MiningResult closed;
  closed.itemsets = FilterClosed(with_triple.itemsets);
  ASSERT_LT(closed.itemsets.size(), with_triple.itemsets.size());
  auto closed_rules = GenerateRules(closed, 10, params);
  ASSERT_FALSE(closed_rules.ok());
  EXPECT_EQ(closed_rules.status().code(),
            core::StatusCode::kInvalidArgument);
}

TEST(RulesTest, RejectsSupersetSupportedAboveItsSubset) {
  // Every subset is present, but {1,2} claims more support than {1}: no
  // database yields that, and the rule {1} => {2} would have confidence 2.
  MiningResult mining;
  mining.itemsets = {{{1}, 2}, {{2}, 4}, {{1, 2}, 3}};
  auto rules = GenerateRules(mining, 10, RuleParams{});
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), core::StatusCode::kInvalidArgument);
}

TEST(RulesTest, RejectsItemsetOfSixtyFourItems) {
  MiningResult mining;
  Itemset wide;
  for (ItemId item = 0; item < 64; ++item) wide.push_back(item);
  mining.itemsets.push_back({wide, 1});
  auto rules = GenerateRules(mining, 10, RuleParams{});
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), core::StatusCode::kInvalidArgument);
}

/// Reference rule generator: every non-empty proper consequent of every
/// itemset, scored with the documented formulas and filtered with the
/// accept-lenient +1e-12 convention, then sorted like GenerateRules.
std::vector<AssociationRule> BruteForceRules(const MiningResult& mining,
                                             size_t num_transactions,
                                             const RuleParams& params) {
  std::map<Itemset, uint32_t> supports;
  for (const auto& itemset : mining.itemsets) {
    supports[itemset.items] = itemset.support;
  }
  const double n = static_cast<double>(num_transactions);
  std::vector<AssociationRule> rules;
  for (const auto& itemset : mining.itemsets) {
    const size_t k = itemset.items.size();
    if (k < 2) continue;
    for (uint64_t mask = 1; mask + 1 < (uint64_t{1} << k); ++mask) {
      Itemset antecedent, consequent;
      for (size_t i = 0; i < k; ++i) {
        ((mask >> i) & 1 ? consequent : antecedent)
            .push_back(itemset.items[i]);
      }
      const double antecedent_support = supports.at(antecedent);
      const double consequent_support = supports.at(consequent);
      const double confidence = itemset.support / antecedent_support;
      if (confidence + 1e-12 < params.min_confidence) continue;
      const double consequent_fraction = consequent_support / n;
      const double lift = confidence / consequent_fraction;
      if (lift + 1e-12 < params.min_lift) continue;
      const double rule_support = itemset.support / n;
      const double conviction =
          1.0 - confidence <= 1e-12
              ? 1e12
              : (1.0 - consequent_fraction) / (1.0 - confidence);
      rules.push_back({antecedent, consequent, itemset.support, rule_support,
                       confidence, lift, conviction,
                       rule_support -
                           (antecedent_support / n) * consequent_fraction});
    }
  }
  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.lift != b.lift) return a.lift > b.lift;
              if (a.antecedent != b.antecedent) {
                return a.antecedent < b.antecedent;
              }
              return a.consequent < b.consequent;
            });
  return rules;
}

void ExpectSameRules(const std::vector<AssociationRule>& actual,
                     const std::vector<AssociationRule>& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual[i];
    const auto& e = expected[i];
    ASSERT_EQ(a.antecedent, e.antecedent) << label << " rule " << i;
    ASSERT_EQ(a.consequent, e.consequent) << label << " rule " << i;
    ASSERT_EQ(a.support_count, e.support_count) << label << " rule " << i;
    // Bit equality: the measures are serialized, so the same inputs must
    // give the same doubles, not merely close ones.
    ASSERT_EQ(std::bit_cast<uint64_t>(a.support),
              std::bit_cast<uint64_t>(e.support)) << label << " rule " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.confidence),
              std::bit_cast<uint64_t>(e.confidence))
        << label << " rule " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.lift), std::bit_cast<uint64_t>(e.lift))
        << label << " rule " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.conviction),
              std::bit_cast<uint64_t>(e.conviction))
        << label << " rule " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.leverage),
              std::bit_cast<uint64_t>(e.leverage))
        << label << " rule " << i;
  }
}

TEST(RulesTest, MatchesBruteForceOnQuestDatabases) {
  gen::QuestParams quest;
  quest.num_transactions = 1000;
  quest.avg_transaction_size = 6.0;
  quest.avg_pattern_size = 3.0;
  quest.num_items = 100;
  quest.num_patterns = 50;
  auto db = gen::GenerateQuestTransactions(quest, 13);
  ASSERT_TRUE(db.ok());
  for (double min_support : {0.03, 0.015, 0.008}) {
    MiningResult mining = MineAll(*db, min_support);
    ASSERT_GT(mining.itemsets.size(), 50u);
    std::vector<RuleParams> grid;
    for (double min_confidence : {0.1, 0.5, 0.9, 1.0}) {
      for (double min_lift : {0.0, 1.0, 1.5}) {
        grid.push_back({min_confidence, min_lift});
      }
    }
    // Exact-threshold cases: bars set to measures some rules hit exactly,
    // so the +1e-12 convention decides those rules on both sides.
    std::vector<AssociationRule> all =
        BruteForceRules(mining, db->size(), {0.1, 0.0});
    ASSERT_GT(all.size(), 10u);
    for (size_t pick : {all.size() / 4, all.size() / 2, all.size() - 1}) {
      grid.push_back({all[pick].confidence, 0.0});
      grid.push_back({0.1, all[pick].lift});
      grid.push_back({all[pick].confidence, all[pick].lift});
    }
    for (const RuleParams& params : grid) {
      const std::string label =
          "minsup=" + std::to_string(min_support) +
          " minconf=" + std::to_string(params.min_confidence) +
          " minlift=" + std::to_string(params.min_lift);
      auto rules = GenerateRules(mining, db->size(), params);
      ASSERT_TRUE(rules.ok()) << label;
      ExpectSameRules(*rules, BruteForceRules(mining, db->size(), params),
                      label);
    }
  }
}

TEST(RulesTest, FormatRuleReadable) {
  AssociationRule rule;
  rule.antecedent = {0};
  rule.consequent = {1};
  rule.support = 0.25;
  rule.confidence = 0.8;
  rule.lift = 1.6;
  rule.conviction = 2.5;
  rule.leverage = 0.0938;
  EXPECT_EQ(FormatRule(rule),
            "{0} => {1} (supp=0.2500, conf=0.800, lift=1.60, conv=2.50, "
            "lev=0.0938)");
  core::ItemDictionary dict;
  dict.GetOrAdd("beer");
  dict.GetOrAdd("chips");
  EXPECT_EQ(FormatRule(rule, &dict),
            "{beer} => {chips} (supp=0.2500, conf=0.800, lift=1.60, "
            "conv=2.50, lev=0.0938)");
}

TEST(RulesTest, FormatRulePrintsCappedConvictionAsInf) {
  AssociationRule rule;
  rule.antecedent = {0};
  rule.consequent = {1};
  rule.support = 0.5;
  rule.confidence = 1.0;
  rule.lift = 2.0;
  rule.conviction = 1e12;  // the cap FormatRule renders as "inf"
  rule.leverage = 0.25;
  EXPECT_EQ(FormatRule(rule),
            "{0} => {1} (supp=0.5000, conf=1.000, lift=2.00, conv=inf, "
            "lev=0.2500)");
}

}  // namespace
}  // namespace dmt::assoc
