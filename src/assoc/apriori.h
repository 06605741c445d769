// Apriori and AprioriTid frequent-itemset miners (Agrawal & Srikant,
// VLDB'94).
#ifndef DMT_ASSOC_APRIORI_H_
#define DMT_ASSOC_APRIORI_H_

#include "assoc/itemset.h"
#include "core/status.h"
#include "core/transaction.h"

namespace dmt::assoc {

/// Tuning knobs for Apriori.
struct AprioriOptions {
  /// How candidate supports are counted in passes k >= 3. Pass 2 always
  /// counts every pair of frequent singles in a flat triangular table.
  enum class CountingMethod {
    /// Hash tree over candidates; each transaction walks only reachable
    /// branches (the paper's method).
    kHashTree,
    /// Enumerate every k-subset of each transaction and probe a hash map of
    /// candidates (AIS-style baseline; explodes for long transactions —
    /// kept for the ablation benchmark).
    kSubsetLookup,
  };
  CountingMethod counting = CountingMethod::kHashTree;
  /// Hash width of interior nodes. Wide tables keep the depth-k leaves
  /// small when many candidates share hash paths: a tree routes on only k
  /// items, and the SON global recount builds trees with these settings
  /// over candidate unions that include pairs.
  size_t hash_tree_fanout = 128;
  size_t hash_tree_leaf_size = 16;

  core::Status Validate() const;
};

/// Mines all frequent itemsets with level-wise candidate generation.
core::Result<MiningResult> MineApriori(const core::TransactionDatabase& db,
                                       const MiningParams& params,
                                       const AprioriOptions& options = {});

/// AprioriTid: identical candidate generation, but after pass 1 supports are
/// counted against per-transaction candidate-id lists instead of the raw
/// database; transactions containing no candidates drop out of later passes.
core::Result<MiningResult> MineAprioriTid(const core::TransactionDatabase& db,
                                          const MiningParams& params);

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_APRIORI_H_
