// Eclat frequent-itemset miner (Zaki et al., KDD'97): vertical layout —
// each itemset carries the set of transaction ids containing it; supports
// come from tidset intersections in a depth-first equivalence-class walk.
// The root level reads its pair supports from the triangular pair table
// Apriori's pass 2 counts (assoc::CountPairSupports), as in Zaki et al.'s
// original Eclat, so only frequent pairs materialize a tidset.
// `MiningParams::num_threads` walks the root equivalence classes on a
// thread pool under the deterministic chunk-merge contract of
// core::ParallelContext: any thread count reproduces the serial output bit
// for bit, including pass stats and the tidset_intersections work counter.
#ifndef DMT_ASSOC_ECLAT_H_
#define DMT_ASSOC_ECLAT_H_

#include "assoc/itemset.h"
#include "core/status.h"
#include "core/transaction.h"

namespace dmt::assoc {

/// Tuning knobs for Eclat.
struct EclatOptions {
  /// Tidset representation: sorted id vectors (good for sparse data) or
  /// fixed-width bitsets (good for dense data).
  enum class TidsetRepr { kSortedVectors, kBitsets };
  TidsetRepr representation = TidsetRepr::kSortedVectors;
};

/// Mines all frequent itemsets by depth-first tidset intersection.
core::Result<MiningResult> MineEclat(const core::TransactionDatabase& db,
                                     const MiningParams& params,
                                     const EclatOptions& options = {});

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_ECLAT_H_
