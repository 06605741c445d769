#include "assoc/rules.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/string_util.h"

namespace dmt::assoc {

using core::Result;
using core::Status;

Status RuleParams::Validate() const {
  if (std::isnan(min_confidence) || std::isnan(min_lift)) {
    return Status::InvalidArgument(
        "rule thresholds must not be NaN (NaN passes every comparison "
        "and silently disables the filter)");
  }
  if (!(min_confidence > 0.0) || min_confidence > 1.0) {
    return Status::InvalidArgument("min_confidence must be in (0, 1]");
  }
  if (min_lift < 0.0) {
    return Status::InvalidArgument("min_lift must be >= 0");
  }
  return Status::OK();
}

namespace {

double Conviction(double consequent_support_fraction, double confidence) {
  double denominator = 1.0 - confidence;
  if (denominator <= 1e-12) return 1e12;
  return (1.0 - consequent_support_fraction) / denominator;
}

/// Open-addressing index over a mining result's itemsets, probed with
/// (itemset, position mask): the items at the mask's set bits are hashed
/// and compared in place (with ItemsetHash's FNV-1a), so looking up an
/// antecedent or consequent allocates nothing. The first copy of a
/// duplicated itemset wins.
class SupportIndex {
 public:
  explicit SupportIndex(const std::vector<FrequentItemset>& itemsets)
      : itemsets_(itemsets) {
    size_t capacity = 16;
    while (capacity < 2 * itemsets.size()) capacity *= 2;
    slots_.assign(capacity, kEmpty);
    for (uint32_t i = 0; i < itemsets.size(); ++i) {
      const Itemset& items = itemsets[i].items;
      size_t slot = ItemsetHash{}(items) & (capacity - 1);
      while (slots_[slot] != kEmpty &&
             itemsets_[slots_[slot]].items != items) {
        slot = (slot + 1) & (capacity - 1);
      }
      if (slots_[slot] == kEmpty) slots_[slot] = i;
    }
  }

  /// The indexed itemset equal to the items of `items` at the set bits of
  /// `mask` (positions < 64), or nullptr.
  const FrequentItemset* Find(const Itemset& items, uint64_t mask) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      h ^= items[std::countr_zero(bits)];
      h *= 0x100000001b3ULL;
    }
    const size_t size = static_cast<size_t>(std::popcount(mask));
    for (size_t slot = static_cast<size_t>(h) & (slots_.size() - 1);
         slots_[slot] != kEmpty; slot = (slot + 1) & (slots_.size() - 1)) {
      const FrequentItemset& candidate = itemsets_[slots_[slot]];
      if (candidate.items.size() == size &&
          SelectionEquals(candidate.items, items, mask)) {
        return &candidate;
      }
    }
    return nullptr;
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  static bool SelectionEquals(const Itemset& stored, const Itemset& items,
                              uint64_t mask) {
    size_t j = 0;
    for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      if (stored[j++] != items[std::countr_zero(bits)]) return false;
    }
    return true;
  }

  const std::vector<FrequentItemset>& itemsets_;
  std::vector<uint32_t> slots_;  // itemset index or kEmpty
};

/// Rules must be generable from `mining`: every itemset has fewer than 64
/// items (consequents are 64-bit position masks), and each immediate
/// (k-1)-subset is present with at least the itemset's support. By
/// induction every non-empty subset is then present, so every antecedent
/// and consequent lookup succeeds, and confidence never exceeds 1.
Status ValidateForRules(const MiningResult& mining,
                        const SupportIndex& index) {
  for (const auto& itemset : mining.itemsets) {
    const size_t k = itemset.items.size();
    if (k >= 64) {
      return Status::InvalidArgument(core::StrFormat(
          "itemset of %zu items: rule generation handles at most 63", k));
    }
    if (k < 2) continue;
    const uint64_t full = (uint64_t{1} << k) - 1;
    for (size_t i = 0; i < k; ++i) {
      const FrequentItemset* subset =
          index.Find(itemset.items, full & ~(uint64_t{1} << i));
      if (subset == nullptr || subset->support < itemset.support) {
        return Status::InvalidArgument(
            "mining result is not downward-closed: " +
            FormatItemset(itemset) +
            (subset == nullptr ? " lacks a subset" : " outsupports a subset"));
      }
    }
  }
  return Status::OK();
}

/// Generates the rules of one itemset. Consequents are position masks
/// grown depth-first in increasing position order; one that fails the
/// confidence bar is not extended. Confidence is anti-monotone in the
/// consequent (a larger consequent leaves a smaller antecedent with at
/// least its support, and IEEE division and the +1e-12 addition are
/// monotone), so every passing consequent is reached through its passing
/// prefixes: the rule set is exactly ap-genrules'. The lift filter gates
/// emission only, never growth, because lift is not anti-monotone.
class ConsequentWalk {
 public:
  ConsequentWalk(const SupportIndex& index, const RuleParams& params,
                 double num_transactions, std::vector<AssociationRule>* rules)
      : index_(index),
        params_(params),
        n_(num_transactions),
        rules_(rules) {}

  void Run(const FrequentItemset& itemset) {
    itemset_ = &itemset;
    k_ = itemset.items.size();
    full_ = (uint64_t{1} << k_) - 1;
    Grow(0, 0);
  }

 private:
  /// Extends `consequent` by each position from `next` on.
  void Grow(uint64_t consequent, size_t next) {
    for (size_t pos = next; pos < k_; ++pos) {
      const uint64_t grown = consequent | (uint64_t{1} << pos);
      if (grown == full_) continue;  // the antecedent must be non-empty
      if (EmitIfPassing(grown)) Grow(grown, pos + 1);
    }
  }

  /// Emits the rule (complement => consequent) if it passes both bars,
  /// with the accept-lenient +1e-12 convention. Returns whether it passes
  /// the confidence bar. Only emitted rules allocate their itemsets.
  bool EmitIfPassing(uint64_t consequent) {
    const FrequentItemset& itemset = *itemset_;
    const FrequentItemset* antecedent =
        index_.Find(itemset.items, full_ & ~consequent);
    const double confidence = static_cast<double>(itemset.support) /
                              static_cast<double>(antecedent->support);
    if (confidence + 1e-12 < params_.min_confidence) return false;
    const FrequentItemset* consequent_set =
        index_.Find(itemset.items, consequent);
    const double consequent_fraction =
        static_cast<double>(consequent_set->support) / n_;
    const double lift = confidence / consequent_fraction;
    if (lift + 1e-12 >= params_.min_lift) {
      const double rule_support = static_cast<double>(itemset.support) / n_;
      const double antecedent_fraction =
          static_cast<double>(antecedent->support) / n_;
      rules_->push_back({antecedent->items, consequent_set->items,
                         itemset.support, rule_support, confidence, lift,
                         Conviction(consequent_fraction, confidence),
                         rule_support - antecedent_fraction *
                                            consequent_fraction});
    }
    return true;
  }

  const SupportIndex& index_;
  const RuleParams& params_;
  const double n_;
  std::vector<AssociationRule>* rules_;
  const FrequentItemset* itemset_ = nullptr;
  size_t k_ = 0;
  uint64_t full_ = 0;
};

}  // namespace

Result<std::vector<AssociationRule>> GenerateRules(
    const MiningResult& mining, size_t num_transactions,
    const RuleParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  if (num_transactions == 0) {
    return Status::InvalidArgument("num_transactions must be > 0");
  }
  const SupportIndex index(mining.itemsets);
  DMT_RETURN_NOT_OK(ValidateForRules(mining, index));

  std::vector<AssociationRule> rules;
  ConsequentWalk walk(index, params, static_cast<double>(num_transactions),
                      &rules);
  for (const auto& itemset : mining.itemsets) {
    if (itemset.items.size() >= 2) walk.Run(itemset);
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

std::string FormatRule(const AssociationRule& rule,
                       const core::ItemDictionary* dictionary) {
  auto format_side = [&](const Itemset& items) {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      if (dictionary != nullptr) {
        out += dictionary->Name(items[i]);
      } else {
        out += std::to_string(items[i]);
      }
    }
    out += "}";
    return out;
  };
  // Conviction is serialized and round-tripped through DMTBIN01
  // containers like the other measures, so the human-readable form prints
  // it (and leverage) too; the 1e12 cap marks an exact rule, rendered as
  // "inf" rather than a misleading finite number.
  std::string conviction = rule.conviction >= 1e12
                               ? "inf"
                               : core::StrFormat("%.2f", rule.conviction);
  return core::StrFormat(
      "%s => %s (supp=%.4f, conf=%.3f, lift=%.2f, conv=%s, lev=%.4f)",
      format_side(rule.antecedent).c_str(),
      format_side(rule.consequent).c_str(), rule.support, rule.confidence,
      rule.lift, conviction.c_str(), rule.leverage);
}

}  // namespace dmt::assoc
