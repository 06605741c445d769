#include "assoc/eclat.h"

#include <algorithm>
#include <utility>

#include "core/bitset.h"
#include "core/check.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

using core::DynamicBitset;
using core::ItemId;
using core::Result;
using core::TransactionDatabase;

namespace {

/// Sorted-vector tidset intersection.
std::vector<uint32_t> IntersectTids(const std::vector<uint32_t>& a,
                                    const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

template <typename Tidset>
struct ClassMember {
  ItemId item;
  Tidset tids;
  uint32_t support;
};

/// Depth-first walk below one member of an equivalence class (all itemsets
/// sharing `prefix`): emits prefix + members[i].item, then extends it with
/// every later member via a tidset intersection. `probe(a, b)` returns
/// {support, tidset}; a representation may leave the tidset empty for
/// candidates below min_count (they are discarded without ever
/// materializing an intersection). Members are ordered by item id and the
/// recursion visits them in order, so output is deterministic.
template <typename Tidset, typename ProbeFn>
void WalkMember(const Itemset& prefix,
                const std::vector<ClassMember<Tidset>>& members, size_t i,
                uint32_t min_count, size_t max_size, const ProbeFn& probe,
                MiningResult* result, size_t depth) {
  if (result->passes.size() < depth + 1) {
    result->passes.push_back({depth + 1, 0, 0});
  }
  Itemset items = prefix;
  items.push_back(members[i].item);
  result->itemsets.push_back({items, members[i].support});
  ++result->passes[depth].frequent;
  if (max_size != 0 && items.size() >= max_size) return;
  std::vector<ClassMember<Tidset>> extensions;
  for (size_t j = i + 1; j < members.size(); ++j) {
    // This intersection proposes a (depth+2)-item candidate.
    if (result->passes.size() < depth + 2) {
      result->passes.push_back({depth + 2, 0, 0});
    }
    ++result->passes[depth + 1].candidates;
    ++result->tidset_intersections;
    auto [support, shared] = probe(members[i].tids, members[j].tids);
    if (support >= min_count) {
      extensions.push_back({members[j].item, std::move(shared), support});
    }
  }
  for (size_t e = 0; e < extensions.size(); ++e) {
    WalkMember(items, extensions, e, min_count, max_size, probe, result,
               depth + 1);
  }
}

/// The root class: one member per frequent item (`items`, ascending id).
/// With `with_tids`, one scan of the database fills every member's tidset
/// through add_tid(tids, t); otherwise the tidsets stay empty.
template <typename Tidset, typename MakeFn, typename AddFn>
std::vector<ClassMember<Tidset>> RootClass(
    const TransactionDatabase& db, const std::vector<ItemId>& items,
    const std::vector<uint32_t>& supports,
    const std::vector<uint32_t>& item_rank, bool with_tids,
    const MakeFn& make_tids, const AddFn& add_tid) {
  std::vector<ClassMember<Tidset>> roots;
  roots.reserve(items.size());
  for (ItemId item : items) {
    roots.push_back({item,
                     with_tids ? make_tids(supports[item]) : Tidset(),
                     supports[item]});
  }
  if (!with_tids) return roots;
  for (size_t t = 0; t < db.size(); ++t) {
    for (ItemId item : db.transaction(t)) {
      if (item_rank[item] != kUnranked) {
        add_tid(roots[item_rank[item]].tids, static_cast<uint32_t>(t));
      }
    }
  }
  return roots;
}

/// Walks the root equivalence classes. Member i's pair supports are row i
/// of the shared pair table `pair_supports` (Apriori's pass-2 table), so
/// only a frequent pair pays for a tidset intersection; the C(n,2) pairs
/// still count as pass-2 candidates, the census convention Apriori's pass 2
/// uses. Under a size cap of 2 the pairs are emitted straight from the
/// table and nothing is intersected. Root members only read each other's
/// tidsets, so MinePartitioned mines contiguous chunks of the root range
/// into per-chunk scratch merged in ascending order — the serial
/// left-to-right root order, at any thread count.
template <typename Tidset, typename IntersectFn, typename ProbeFn>
void WalkRoots(const core::ParallelContext& ctx,
               const std::vector<ClassMember<Tidset>>& roots,
               const std::vector<uint32_t>& pair_supports,
               uint32_t min_count, size_t max_size,
               const IntersectFn& intersect, const ProbeFn& probe,
               MiningResult* result) {
  const size_t n = roots.size();
  MinePartitioned(
      ctx, n, result, [&](size_t begin, size_t end, MiningResult* out) {
        std::vector<ClassMember<Tidset>> pairs;
        for (size_t i = begin; i < end; ++i) {
          if (out->passes.empty()) out->passes.push_back({1, 0, 0});
          out->itemsets.push_back({{roots[i].item}, roots[i].support});
          ++out->passes[0].frequent;
          if (max_size == 1 || i + 1 == n) continue;
          if (out->passes.size() < 2) out->passes.push_back({2, 0, 0});
          out->passes[1].candidates += n - 1 - i;
          const uint32_t* row = pair_supports.data() + PairIndex(i, i + 1, n);
          pairs.clear();
          for (size_t j = i + 1; j < n; ++j) {
            const uint32_t support = row[j - i - 1];
            if (support < min_count) continue;
            Tidset shared;
            if (max_size != 2) {
              ++out->tidset_intersections;
              shared = intersect(roots[i].tids, roots[j].tids);
            }
            pairs.push_back({roots[j].item, std::move(shared), support});
          }
          for (size_t e = 0; e < pairs.size(); ++e) {
            WalkMember({roots[i].item}, pairs, e, min_count, max_size, probe,
                       out, 1);
          }
        }
      });
}

}  // namespace

Result<MiningResult> MineEclat(const TransactionDatabase& db,
                               const MiningParams& params,
                               const EclatOptions& options) {
  DMT_RETURN_NOT_OK(params.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db, params.min_support);
  const size_t max_size = params.max_itemset_size;
  const core::ParallelContext ctx(params.num_threads);

  obs::Counter intersections_counter("assoc/eclat/tidset_intersections");
  obs::Span mine_span("assoc/eclat/mine");

  MiningResult result;
  result.passes.push_back({1, db.item_universe(), 0});

  const std::vector<uint32_t> supports = db.ItemSupports();
  std::vector<ItemId> items;
  std::vector<uint32_t> item_rank(supports.size(), kUnranked);
  for (ItemId item = 0; item < supports.size(); ++item) {
    if (supports[item] >= min_count) {
      item_rank[item] = static_cast<uint32_t>(items.size());
      items.push_back(item);
    }
  }
  std::vector<uint32_t> pair_supports;
  if (max_size != 1 && items.size() >= 2) {
    obs::Span table_span("assoc/eclat/pair_table");
    pair_supports = CountPairSupports(db, item_rank, items.size(), ctx);
  }
  // Tidsets are read only below the pair level.
  const bool with_tids = max_size == 0 || max_size > 2;

  if (options.representation == EclatOptions::TidsetRepr::kSortedVectors) {
    auto roots = RootClass<std::vector<uint32_t>>(
        db, items, supports, item_rank, with_tids,
        [](uint32_t support) {
          std::vector<uint32_t> tids;
          tids.reserve(support);
          return tids;
        },
        [](std::vector<uint32_t>& tids, uint32_t t) { tids.push_back(t); });
    auto probe = [](const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b) {
      std::vector<uint32_t> shared = IntersectTids(a, b);
      uint32_t support = static_cast<uint32_t>(shared.size());
      return std::pair(support, std::move(shared));
    };
    WalkRoots(ctx, roots, pair_supports, min_count, max_size, IntersectTids,
              probe, &result);
  } else {
    auto roots = RootClass<DynamicBitset>(
        db, items, supports, item_rank, with_tids,
        [&db](uint32_t) { return DynamicBitset(db.size()); },
        [](DynamicBitset& tids, uint32_t t) { tids.Set(t); });
    // Probe support with a popcount pass first; only survivors pay for a
    // materialized intersection, so rejected candidates allocate nothing.
    auto probe = [min_count](const DynamicBitset& a,
                             const DynamicBitset& b) {
      uint32_t support = static_cast<uint32_t>(a.IntersectionCount(b));
      if (support < min_count) return std::pair(support, DynamicBitset());
      return std::pair(support, a.Intersect(b));
    };
    WalkRoots(
        ctx, roots, pair_supports, min_count, max_size,
        [](const DynamicBitset& a, const DynamicBitset& b) {
          return a.Intersect(b);
        },
        probe, &result);
  }
  // Depth d of the walk emits (d+1)-itemsets; relabel passes accordingly.
  for (size_t d = 0; d < result.passes.size(); ++d) {
    result.passes[d].pass = d + 1;
  }
  result.passes[0].candidates = db.item_universe();
  // The chunk-order-merged tally is the call's work counter.
  obs::PublishCounter(mine_span, intersections_counter,
                      result.tidset_intersections);
  SortCanonical(&result.itemsets);
  return result;
}

}  // namespace dmt::assoc
