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

/// A generated rule before materialization: its sort key (confidence,
/// lift, then the lexicographic ranks of antecedent and consequent) and
/// the mining-result index of the itemset it was generated from.
struct RuleRecord {
  double confidence;
  double lift;
  uint32_t antecedent_rank;
  uint32_t consequent_rank;
  uint32_t itemset;
};

/// The record indices in rule order: descending confidence, descending
/// lift, then ascending antecedent and consequent ranks. A stable LSD radix
/// sort over the confidence bits (positive doubles order as their bit
/// patterns, inverted here for descending order) does the bulk of the work
/// without a comparison sort's branch mispredictions; each run of equal
/// confidence is then sorted by the rest of the key.
std::vector<uint32_t> SortedOrder(const std::vector<RuleRecord>& records) {
  struct Keyed {
    uint64_t key;
    uint32_t record;
  };
  const size_t n = records.size();
  std::vector<Keyed> keyed(n);
  for (uint32_t r = 0; r < n; ++r) {
    keyed[r] = {~std::bit_cast<uint64_t>(records[r].confidence), r};
  }
  // 11-bit digits: six passes, and the top one (the sign and exponent of
  // a confidence in (0, 1]) is usually skipped.
  constexpr int kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<Keyed> scratch(n);
  std::vector<size_t> starts(kDigitMask + 2);
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    std::fill(starts.begin(), starts.end(), 0);
    for (const Keyed& k : keyed) ++starts[((k.key >> shift) & kDigitMask) + 1];
    // A digit every key shares leaves the order as it is.
    if (std::find(starts.begin(), starts.end(), n) != starts.end()) continue;
    for (size_t d = 1; d < starts.size(); ++d) starts[d] += starts[d - 1];
    for (const Keyed& k : keyed) {
      scratch[starts[(k.key >> shift) & kDigitMask]++] = k;
    }
    keyed.swap(scratch);
  }
  for (size_t begin = 0, end = 0; begin < n; begin = end) {
    for (end = begin + 1; end < n && keyed[end].key == keyed[begin].key;) {
      ++end;
    }
    std::sort(keyed.begin() + begin, keyed.begin() + end,
              [&records](const Keyed& x, const Keyed& y) {
                const RuleRecord& a = records[x.record];
                const RuleRecord& b = records[y.record];
                if (a.lift != b.lift) return a.lift > b.lift;
                if (a.antecedent_rank != b.antecedent_rank) {
                  return a.antecedent_rank < b.antecedent_rank;
                }
                return a.consequent_rank < b.consequent_rank;
              });
  }
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = keyed[i].record;
  return order;
}

/// Lexicographic ranks of a mining result's itemsets: equal itemsets share
/// a rank, and by_rank[r] is the first itemset of rank r (the copy
/// SupportIndex finds).
struct ItemsetRanks {
  explicit ItemsetRanks(const std::vector<FrequentItemset>& itemsets) {
    std::vector<uint32_t> order(itemsets.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&itemsets](uint32_t a, uint32_t b) {
                       return itemsets[a].items < itemsets[b].items;
                     });
    rank.resize(itemsets.size());
    for (size_t k = 0; k < order.size(); ++k) {
      if (k == 0 || itemsets[order[k - 1]].items != itemsets[order[k]].items) {
        by_rank.push_back(order[k]);
      }
      rank[order[k]] = static_cast<uint32_t>(by_rank.size() - 1);
    }
  }

  std::vector<uint32_t> rank;     // itemset index -> rank
  std::vector<uint32_t> by_rank;  // rank -> first itemset index
};

/// Generates the rules of one itemset as records. Consequents are position
/// masks grown depth-first in increasing position order; one that fails
/// the confidence bar is not extended. Confidence is anti-monotone in the
/// consequent (a larger consequent leaves a smaller antecedent with at
/// least its support, and IEEE division and the +1e-12 addition are
/// monotone), so every passing consequent is reached through its passing
/// prefixes: the rule set is exactly ap-genrules'. The lift filter gates
/// emission only, never growth, because lift is not anti-monotone.
class ConsequentWalk {
 public:
  ConsequentWalk(const std::vector<FrequentItemset>& itemsets,
                 const SupportIndex& index, const ItemsetRanks& ranks,
                 const RuleParams& params, double num_transactions,
                 std::vector<RuleRecord>* records)
      : itemsets_(itemsets),
        index_(index),
        ranks_(ranks),
        params_(params),
        n_(num_transactions),
        records_(records) {}

  void Run(uint32_t itemset) {
    itemset_ = itemset;
    k_ = itemsets_[itemset].items.size();
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

  /// Records the rule (complement => consequent) if it passes both bars,
  /// with the accept-lenient +1e-12 convention. Returns whether it passes
  /// the confidence bar.
  bool EmitIfPassing(uint64_t consequent) {
    const FrequentItemset& itemset = itemsets_[itemset_];
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
      records_->push_back({confidence, lift, RankOf(antecedent),
                           RankOf(consequent_set), itemset_});
    }
    return true;
  }

  uint32_t RankOf(const FrequentItemset* itemset) const {
    return ranks_.rank[static_cast<size_t>(itemset - itemsets_.data())];
  }

  const std::vector<FrequentItemset>& itemsets_;
  const SupportIndex& index_;
  const ItemsetRanks& ranks_;
  const RuleParams& params_;
  const double n_;
  std::vector<RuleRecord>* records_;
  uint32_t itemset_ = 0;
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
  const std::vector<FrequentItemset>& itemsets = mining.itemsets;
  const SupportIndex index(itemsets);
  DMT_RETURN_NOT_OK(ValidateForRules(mining, index));

  // Walk every itemset into compact records, order them, then materialize
  // the rules in one pass.
  const ItemsetRanks ranks(itemsets);
  const double n = static_cast<double>(num_transactions);
  std::vector<RuleRecord> records;
  ConsequentWalk walk(itemsets, index, ranks, params, n, &records);
  for (uint32_t i = 0; i < itemsets.size(); ++i) {
    if (itemsets[i].items.size() >= 2) walk.Run(i);
  }
  std::vector<AssociationRule> rules;
  rules.reserve(records.size());
  for (uint32_t r : SortedOrder(records)) {
    const RuleRecord& record = records[r];
    const FrequentItemset& itemset = itemsets[record.itemset];
    const FrequentItemset& antecedent =
        itemsets[ranks.by_rank[record.antecedent_rank]];
    const FrequentItemset& consequent =
        itemsets[ranks.by_rank[record.consequent_rank]];
    const double rule_support = static_cast<double>(itemset.support) / n;
    const double antecedent_fraction =
        static_cast<double>(antecedent.support) / n;
    const double consequent_fraction =
        static_cast<double>(consequent.support) / n;
    rules.push_back({antecedent.items, consequent.items, itemset.support,
                     rule_support, record.confidence, record.lift,
                     Conviction(consequent_fraction, record.confidence),
                     rule_support - antecedent_fraction * consequent_fraction});
  }
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
