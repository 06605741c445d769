#include "assoc/apriori.h"

#include <algorithm>
#include <unordered_map>

#include "assoc/candidate_gen.h"
#include "assoc/hash_tree.h"
#include "core/check.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

using core::Result;
using core::Status;
using core::TransactionDatabase;

Status AprioriOptions::Validate() const {
  if (hash_tree_fanout < 2) {
    return Status::InvalidArgument("hash_tree_fanout must be >= 2");
  }
  if (hash_tree_leaf_size < 1) {
    return Status::InvalidArgument("hash_tree_leaf_size must be >= 1");
  }
  return Status::OK();
}

namespace {

/// Pass 1 shared by both algorithms: frequent single items, lexicographic.
std::vector<FrequentItemset> FrequentSingles(const TransactionDatabase& db,
                                             uint32_t min_count,
                                             size_t* num_candidates) {
  std::vector<uint32_t> supports = db.ItemSupports();
  *num_candidates = supports.size();
  std::vector<FrequentItemset> frequent;
  for (core::ItemId item = 0; item < supports.size(); ++item) {
    if (supports[item] >= min_count) {
      frequent.push_back({{item}, supports[item]});
    }
  }
  return frequent;
}

/// Extracts just the itemsets of a frequent layer (for candidate gen).
std::vector<Itemset> ItemsetsOf(const std::vector<FrequentItemset>& layer) {
  std::vector<Itemset> out;
  out.reserve(layer.size());
  for (const auto& f : layer) out.push_back(f.items);
  return out;
}

/// Enumerates the k-subsets of `transaction` and probes `index`, adding hits
/// to `counts` (the kSubsetLookup ablation baseline).
void CountBySubsetLookup(
    std::span<const core::ItemId> transaction, size_t k,
    const std::unordered_map<Itemset, uint32_t, ItemsetHash>& index,
    std::span<uint32_t> counts) {
  if (transaction.size() < k) return;
  Itemset subset;
  subset.reserve(k);
  // Iterative combination enumeration over positions.
  std::vector<size_t> positions(k);
  for (size_t i = 0; i < k; ++i) positions[i] = i;
  for (;;) {
    subset.clear();
    for (size_t pos : positions) subset.push_back(transaction[pos]);
    auto it = index.find(subset);
    if (it != index.end()) ++counts[it->second];
    // Advance to the next combination.
    size_t level = k;
    while (level > 0) {
      --level;
      if (positions[level] + (k - level) < transaction.size()) {
        ++positions[level];
        for (size_t next = level + 1; next < k; ++next) {
          positions[next] = positions[next - 1] + 1;
        }
        break;
      }
      if (level == 0) return;
    }
  }
}

/// Pass 2 without materialising C2. Every pair of frequent singles is a
/// candidate, so supports come from the shared triangular pair table over
/// the items' ranks in L1, whose PairIndex order is also GenerateCandidates'
/// lexicographic order. Returns the frequent pairs in that order;
/// *num_candidates = |C2|.
std::vector<FrequentItemset> CountFrequentPairs(
    const TransactionDatabase& db, const std::vector<FrequentItemset>& singles,
    uint32_t min_count, const core::ParallelContext& ctx,
    size_t* num_candidates) {
  const size_t n = singles.size();
  *num_candidates = n * (n - 1) / 2;
  if (*num_candidates == 0) return {};
  std::vector<uint32_t> rank(db.item_universe(), kUnranked);
  for (uint32_t r = 0; r < n; ++r) rank[singles[r].items[0]] = r;

  std::vector<uint32_t> counts;
  {
    obs::Span count_span("assoc/apriori/pass/count");
    counts = CountPairSupports(db, rank, n, ctx);
  }

  std::vector<FrequentItemset> frequent;
  size_t index = 0;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b, ++index) {
      if (counts[index] >= min_count) {
        frequent.push_back(
            {{singles[a].items[0], singles[b].items[0]}, counts[index]});
      }
    }
  }
  return frequent;
}

/// Passes k >= 3: generates C_k from L_{k-1}, counts it with the configured
/// method, and returns the frequent candidates in generation order.
std::vector<FrequentItemset> CountFrequentCandidates(
    const TransactionDatabase& db, const std::vector<FrequentItemset>& layer,
    size_t k, uint32_t min_count, const AprioriOptions& options,
    const core::ParallelContext& ctx, size_t* num_candidates) {
  CandidateGenResult gen = GenerateCandidates(ItemsetsOf(layer));
  *num_candidates = gen.candidates.size();
  if (gen.candidates.empty()) return {};
  std::vector<uint32_t> counts(gen.candidates.size(), 0);
  {
    obs::Span count_span("assoc/apriori/pass/count");
    if (options.counting == AprioriOptions::CountingMethod::kHashTree) {
      HashTree tree(gen.candidates, k, options.hash_tree_fanout,
                    options.hash_tree_leaf_size);
      tree.CountDatabase(db, counts, ctx);
    } else {
      std::unordered_map<Itemset, uint32_t, ItemsetHash> index;
      index.reserve(gen.candidates.size());
      for (uint32_t c = 0; c < gen.candidates.size(); ++c) {
        index.emplace(gen.candidates[c], c);
      }
      core::CountPartitioned(
          ctx, db.size(), counts,
          [&](size_t begin, size_t end, std::span<uint32_t> local) {
            for (size_t t = begin; t < end; ++t) {
              CountBySubsetLookup(db.transaction(t), k, index, local);
            }
          });
    }
  }
  std::vector<FrequentItemset> frequent;
  for (uint32_t c = 0; c < gen.candidates.size(); ++c) {
    if (counts[c] >= min_count) {
      frequent.push_back({std::move(gen.candidates[c]), counts[c]});
    }
  }
  return frequent;
}

/// Publishes a level-wise miner's work counters from its pass stats, the
/// call's own tally: candidates and frequent itemsets summed over the
/// passes, and the number of passes run.
void PublishPassCounters(obs::Span& span, const std::vector<PassStats>& passes,
                         obs::Counter candidates_counter,
                         obs::Counter frequent_counter,
                         obs::Counter passes_counter) {
  uint64_t candidates = 0;
  uint64_t frequent = 0;
  for (const PassStats& pass : passes) {
    candidates += pass.candidates;
    frequent += pass.frequent;
  }
  obs::PublishCounter(span, candidates_counter, candidates);
  obs::PublishCounter(span, frequent_counter, frequent);
  obs::PublishCounter(span, passes_counter, passes.size());
}

}  // namespace

Result<MiningResult> MineApriori(const TransactionDatabase& db,
                                 const MiningParams& params,
                                 const AprioriOptions& options) {
  DMT_RETURN_NOT_OK(params.Validate());
  DMT_RETURN_NOT_OK(options.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db, params.min_support);
  const core::ParallelContext ctx(params.num_threads);

  obs::Counter candidates_counter("assoc/apriori/candidates");
  obs::Counter frequent_counter("assoc/apriori/frequent");
  obs::Counter passes_counter("assoc/apriori/passes");
  obs::Span mine_span("assoc/apriori/mine");

  MiningResult result;
  size_t num_singles = 0;
  std::vector<FrequentItemset> layer =
      FrequentSingles(db, min_count, &num_singles);
  result.passes.push_back({1, num_singles, layer.size()});
  result.itemsets = layer;

  for (size_t k = 2; !layer.empty(); ++k) {
    if (params.max_itemset_size != 0 && k > params.max_itemset_size) break;
    obs::Span pass_span("assoc/apriori/pass");
    pass_span.AddArg("k", k);
    size_t num_candidates = 0;
    std::vector<FrequentItemset> next_layer =
        k == 2 ? CountFrequentPairs(db, layer, min_count, ctx, &num_candidates)
               : CountFrequentCandidates(db, layer, k, min_count, options, ctx,
                                         &num_candidates);
    if (num_candidates == 0) {
      result.passes.push_back({k, 0, 0});
      break;
    }
    result.passes.push_back({k, num_candidates, next_layer.size()});
    result.itemsets.insert(result.itemsets.end(), next_layer.begin(),
                           next_layer.end());
    layer = std::move(next_layer);
  }
  SortCanonical(&result.itemsets);
  PublishPassCounters(mine_span, result.passes, candidates_counter,
                      frequent_counter, passes_counter);
  return result;
}

Result<MiningResult> MineAprioriTid(const TransactionDatabase& db,
                                    const MiningParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db, params.min_support);
  const core::ParallelContext ctx(params.num_threads);

  obs::Counter candidates_counter("assoc/apriori_tid/candidates");
  obs::Counter frequent_counter("assoc/apriori_tid/frequent");
  obs::Counter passes_counter("assoc/apriori_tid/passes");
  obs::Span mine_span("assoc/apriori_tid/mine");

  MiningResult result;
  size_t num_singles = 0;
  std::vector<FrequentItemset> layer =
      FrequentSingles(db, min_count, &num_singles);
  result.passes.push_back({1, num_singles, layer.size()});
  result.itemsets = layer;

  // Per-transaction lists of *frequent* (k-1)-itemset indices. For k=2 the
  // entry is the transaction itself restricted to frequent items, remapped
  // to indices into `layer`.
  std::vector<std::vector<uint32_t>> entries(db.size());
  {
    // item id -> index in layer (frequent singles are sorted by item id).
    std::unordered_map<core::ItemId, uint32_t> single_index;
    for (uint32_t i = 0; i < layer.size(); ++i) {
      single_index.emplace(layer[i].items[0], i);
    }
    for (size_t t = 0; t < db.size(); ++t) {
      for (core::ItemId item : db.transaction(t)) {
        auto it = single_index.find(item);
        if (it != single_index.end()) entries[t].push_back(it->second);
      }
    }
  }

  for (size_t k = 2; !layer.empty(); ++k) {
    if (params.max_itemset_size != 0 && k > params.max_itemset_size) break;
    obs::Span pass_span("assoc/apriori_tid/pass");
    pass_span.AddArg("k", k);
    CandidateGenResult gen =
        GenerateCandidates(ItemsetsOf(layer), /*record_parents=*/true);
    if (gen.candidates.empty()) {
      result.passes.push_back({k, 0, 0});
      break;
    }
    // Group candidates by their first parent for set-oriented counting.
    std::vector<std::vector<uint32_t>> candidates_by_parent1(layer.size());
    for (uint32_t c = 0; c < gen.candidates.size(); ++c) {
      candidates_by_parent1[gen.parents[c].first].push_back(c);
    }

    std::vector<uint32_t> counts(gen.candidates.size(), 0);
    std::vector<std::vector<uint32_t>> next_entries(db.size());
    // Each chunk owns a stamp array marking which frequent (k-1) ids the
    // current transaction contains, and writes only its own transactions'
    // next_entries slots.
    core::CountPartitioned(
        ctx, db.size(), counts,
        [&](size_t begin, size_t end, std::span<uint32_t> local) {
          std::vector<uint32_t> present_stamp(layer.size(), 0);
          uint32_t serial = 0;
          for (size_t t = begin; t < end; ++t) {
            const auto& entry = entries[t];
            if (entry.size() < 2) continue;
            ++serial;
            for (uint32_t id : entry) present_stamp[id] = serial;
            for (uint32_t id : entry) {
              for (uint32_t c : candidates_by_parent1[id]) {
                if (present_stamp[gen.parents[c].second] == serial) {
                  ++local[c];
                  next_entries[t].push_back(c);
                }
              }
            }
          }
        });

    std::vector<FrequentItemset> next_layer;
    // Remap candidate ids to next-layer (frequent) ids.
    std::vector<uint32_t> candidate_to_frequent(gen.candidates.size(),
                                                UINT32_MAX);
    for (uint32_t c = 0; c < gen.candidates.size(); ++c) {
      if (counts[c] >= min_count) {
        candidate_to_frequent[c] = static_cast<uint32_t>(next_layer.size());
        next_layer.push_back({std::move(gen.candidates[c]), counts[c]});
      }
    }
    result.passes.push_back({k, gen.candidates.size(), next_layer.size()});
    result.itemsets.insert(result.itemsets.end(), next_layer.begin(),
                           next_layer.end());

    for (size_t t = 0; t < db.size(); ++t) {
      std::vector<uint32_t> remapped;
      remapped.reserve(next_entries[t].size());
      for (uint32_t c : next_entries[t]) {
        if (candidate_to_frequent[c] != UINT32_MAX) {
          remapped.push_back(candidate_to_frequent[c]);
        }
      }
      entries[t] = std::move(remapped);
    }
    layer = std::move(next_layer);
  }
  SortCanonical(&result.itemsets);
  PublishPassCounters(mine_span, result.passes, candidates_counter,
                      frequent_counter, passes_counter);
  return result;
}

}  // namespace dmt::assoc
