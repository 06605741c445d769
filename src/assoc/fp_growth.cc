#include "assoc/fp_growth.h"

#include <algorithm>
#include <span>

#include "core/check.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

using core::ItemId;
using core::Result;
using core::TransactionDatabase;

namespace {

/// FP-tree node; nodes live in one flat arena, links are indices. Nodes
/// carry the *header position* of their item (the item itself is
/// header[pos].item), so conditional-base recounting and position
/// remapping index flat arrays instead of hash maps. Children form an
/// intrusive sibling list, so a node owns no heap memory.
struct FpNode {
  uint32_t pos = 0;
  uint32_t count = 0;
  uint32_t parent = kNull;
  uint32_t node_link = kNull;  // next node carrying the same item
  uint32_t first_child = kNull;
  uint32_t next_sibling = kNull;

  static constexpr uint32_t kNull = 0xffffffffu;
};

struct HeaderEntry {
  ItemId item = 0;
  uint32_t total_count = 0;
  uint32_t link_head = FpNode::kNull;
};

/// An FP-tree: arena of nodes plus a header table ordered by descending
/// total count (the construction order of the tree paths).
struct FpTree {
  std::vector<FpNode> nodes;  // nodes[0] is the root
  std::vector<HeaderEntry> header;

  FpTree() { nodes.emplace_back(); }

  /// True when the tree consists of a single chain below the root.
  bool IsSinglePath() const {
    for (uint32_t child = nodes[0].first_child; child != FpNode::kNull;
         child = nodes[child].first_child) {
      if (nodes[child].next_sibling != FpNode::kNull) return false;
    }
    return true;
  }
};

/// Weighted paths stored flat: path i is positions[offsets[i],
/// offsets[i + 1]) and occurs counts[i] times.
struct PathSet {
  std::vector<uint32_t> positions;
  std::vector<uint32_t> offsets{0};
  std::vector<uint32_t> counts;

  size_t size() const { return counts.size(); }

  std::span<const uint32_t> Path(size_t i) const {
    return {positions.data() + offsets[i], positions.data() + offsets[i + 1]};
  }

  void Clear() {
    positions.clear();
    offsets.assign(1, 0);
    counts.clear();
  }

  /// Closes the path appended to `positions` since the last call; an
  /// empty one is dropped (it adds no node).
  void EndPath(uint32_t count) {
    if (positions.size() == offsets.back()) return;
    offsets.push_back(static_cast<uint32_t>(positions.size()));
    counts.push_back(count);
  }
};

/// Lexicographic order on two paths (a proper prefix sorts first).
bool PathLess(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                      b.end());
}

/// The indices of `paths` in lexicographic path order.
void SortPaths(const PathSet& paths, std::vector<uint32_t>* order) {
  order->resize(paths.size());
  for (uint32_t i = 0; i < order->size(); ++i) (*order)[i] = i;
  std::sort(order->begin(), order->end(), [&paths](uint32_t a, uint32_t b) {
    return PathLess(paths.Path(a), paths.Path(b));
  });
}

/// Builds an FP-tree's nodes from weighted paths of positions into its
/// (already filled) header, each path ascending. The root tree and every
/// conditional tree go through here. A trie is canonical — its node set
/// does not depend on insertion order — so the paths are appended in
/// lexicographic order, where each one shares its longest common prefix
/// with the previous path and appends only the nodes below it: no child
/// search, no per-node allocation. Scratch is reused across builds.
class TreeBuilder {
 public:
  /// Sorts `paths` and appends them all to `tree`.
  void Build(const PathSet& paths, FpTree* tree) {
    SortPaths(paths, &order_);
    tree->nodes.reserve(tree->nodes.size() + paths.positions.size());
    Begin(tree);
    for (uint32_t i : order_) Append(paths.Path(i), paths.counts[i]);
  }

  /// Starts appending to `tree`.
  void Begin(FpTree* tree) {
    tree_ = tree;
    link_tails_.assign(tree->header.size(), FpNode::kNull);
    spine_.clear();
  }

  /// Appends one path with its count. Paths must arrive in lexicographic
  /// order (equal paths in any order among themselves).
  void Append(std::span<const uint32_t> path, uint32_t count) {
    std::vector<FpNode>& nodes = tree_->nodes;
    size_t common = 0;
    while (common < spine_.size() && common < path.size() &&
           nodes[spine_[common]].pos == path[common]) {
      nodes[spine_[common]].count += count;
      ++common;
    }
    spine_.resize(common);
    for (size_t d = common; d < path.size(); ++d) {
      const uint32_t parent = d == 0 ? 0 : spine_[d - 1];
      const uint32_t index = static_cast<uint32_t>(nodes.size());
      FpNode node;
      node.pos = path[d];
      node.count = count;
      node.parent = parent;
      node.next_sibling = nodes[parent].first_child;
      nodes.push_back(node);
      nodes[parent].first_child = index;
      // Append to the item's node-link chain.
      uint32_t& tail = link_tails_[node.pos];
      if (tail == FpNode::kNull) {
        tree_->header[node.pos].link_head = index;
      } else {
        nodes[tail].node_link = index;
      }
      tail = index;
      spine_.push_back(index);
    }
  }

  /// Per header position, the last node appended with it (or kNull).
  const std::vector<uint32_t>& link_tails() const { return link_tails_; }

 private:
  FpTree* tree_ = nullptr;
  std::vector<uint32_t> order_;
  std::vector<uint32_t> spine_;  // the last path's node at depth d + 1
  std::vector<uint32_t> link_tails_;
};

/// One chunk of the root build's transactions as sorted paths. starts[p]
/// is the first entry of `order` whose path begins at a position >= p,
/// and position_starts[p] the number of positions in the paths before it
/// (both with header-size + 1 entries).
struct SortedChunk {
  PathSet paths;
  std::vector<uint32_t> order;
  std::vector<uint32_t> starts;
  std::vector<size_t> position_starts;
};

/// Appends, in lexicographic order, every path of every chunk that begins
/// at a position in [first, last): a k-way merge over the chunks' sorted
/// ranges, equal paths lowest chunk first (any order of equal paths builds
/// the same trie).
void MergeAppend(const std::vector<SortedChunk>& chunks, uint32_t first,
                 uint32_t last, TreeBuilder* builder) {
  std::vector<uint32_t> next(chunks.size());
  for (size_t c = 0; c < chunks.size(); ++c) next[c] = chunks[c].starts[first];
  for (;;) {
    size_t best = chunks.size();
    for (size_t c = 0; c < chunks.size(); ++c) {
      if (next[c] == chunks[c].starts[last]) continue;
      if (best == chunks.size() ||
          PathLess(chunks[c].paths.Path(chunks[c].order[next[c]]),
                   chunks[best].paths.Path(chunks[best].order[next[best]]))) {
        best = c;
      }
    }
    if (best == chunks.size()) return;
    const SortedChunk& chunk = chunks[best];
    const uint32_t i = chunk.order[next[best]++];
    builder->Append(chunk.paths.Path(i), chunk.paths.counts[i]);
  }
}

/// Builds the top-level tree from the database, chunk-parallel:
///   1. the item supports are counted with CountPartitioned;
///   2. each chunk of transactions filters and ranks its paths into its
///      own PathSet and sorts them;
///   3. the first positions are cut into groups holding about equal
///      numbers of positions, and each group merges its paths from every
///      chunk into its own subtree (MergeAppend);
///   4. the subtrees are concatenated in first-position order.
/// In lexicographic order the paths that begin at one position are
/// contiguous and share no node with other paths, so each subtree is a
/// contiguous node range of the serial build: the concatenation re-bases
/// the subtrees' node indices and joins the root's child list and each
/// item's node-link chain across the cuts. A trie is canonical, so the
/// node array and the header links are the serial build's at every thread
/// count.
FpTree BuildRootTree(const TransactionDatabase& db, uint32_t min_count,
                     const core::ParallelContext& ctx, size_t* num_frequent) {
  FpTree tree;
  std::vector<uint32_t> supports(db.item_universe(), 0);
  core::CountPartitioned(
      ctx, db.size(), supports,
      [&db](size_t begin, size_t end, std::span<uint32_t> local) {
        for (size_t t = begin; t < end; ++t) {
          for (ItemId item : db.transaction(t)) ++local[item];
        }
      });
  // Header: frequent items by descending count, ties by ascending id.
  for (ItemId item = 0; item < supports.size(); ++item) {
    if (supports[item] >= min_count) {
      tree.header.push_back({item, supports[item], FpNode::kNull});
    }
  }
  std::stable_sort(tree.header.begin(), tree.header.end(),
                   [](const HeaderEntry& a, const HeaderEntry& b) {
                     return a.total_count > b.total_count;
                   });
  const uint32_t m = static_cast<uint32_t>(tree.header.size());
  *num_frequent = m;
  std::vector<uint32_t> item_to_pos(supports.size(), FpNode::kNull);
  for (uint32_t pos = 0; pos < m; ++pos) {
    item_to_pos[tree.header[pos].item] = pos;
  }

  std::vector<SortedChunk> chunks(ctx.NumChunks(db.size()));
  ctx.ForEachChunk(db.size(), [&](size_t c, size_t begin, size_t end) {
    SortedChunk& chunk = chunks[c];
    PathSet& paths = chunk.paths;
    paths.offsets.reserve(end - begin + 1);
    paths.counts.reserve(end - begin);
    for (size_t t = begin; t < end; ++t) {
      const size_t first = paths.positions.size();
      for (ItemId item : db.transaction(t)) {
        if (item_to_pos[item] != FpNode::kNull) {
          paths.positions.push_back(item_to_pos[item]);
        }
      }
      std::sort(paths.positions.begin() + first, paths.positions.end());
      paths.EndPath(1);
    }
    SortPaths(paths, &chunk.order);
    chunk.starts.assign(m + 1, 0);
    chunk.position_starts.assign(m + 1, 0);
    uint32_t k = 0;
    size_t positions = 0;
    for (uint32_t p = 0; p <= m; ++p) {
      for (; k < chunk.order.size() && paths.Path(chunk.order[k])[0] < p;
           ++k) {
        positions += paths.Path(chunk.order[k]).size();
      }
      chunk.starts[p] = k;
      chunk.position_starts[p] = positions;
    }
  });

  // Cut [0, m) into groups of about equal position counts.
  const size_t num_groups = std::max<size_t>(ctx.NumChunks(m), 1);
  std::vector<size_t> weight_before(m + 1, 0);  // positions below p
  for (const SortedChunk& chunk : chunks) {
    for (uint32_t p = 0; p <= m; ++p) {
      weight_before[p] += chunk.position_starts[p];
    }
  }
  std::vector<uint32_t> cuts(num_groups + 1, m);
  cuts[0] = 0;
  for (size_t g = 1, p = 0; g < num_groups; ++g) {
    while (p < m && weight_before[p] * num_groups < weight_before[m] * g) ++p;
    cuts[g] = static_cast<uint32_t>(p);
  }

  // Group 0 builds straight into `tree`; every later group into its own
  // subtree, which is appended to `tree` and freed one at a time, so the
  // peak holds the tree plus one subtree rather than two copies. A group
  // adds at most as many nodes as its paths hold positions. The node
  // arrays are reserved here on the calling thread: allocated in a
  // worker, they would come from that thread's malloc arena, which keeps
  // freed memory resident.
  std::vector<FpTree> subtrees(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    FpTree& target = g == 0 ? tree : subtrees[g];
    if (g > 0) target.header = tree.header;
    target.nodes.reserve(1 + weight_before[cuts[g + 1]] -
                         weight_before[cuts[g]]);
  }
  std::vector<std::vector<uint32_t>> tails(num_groups);
  ctx.ForEachChunk(num_groups, [&](size_t, size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      TreeBuilder builder;
      builder.Begin(g == 0 ? &tree : &subtrees[g]);
      MergeAppend(chunks, cuts[g], cuts[g + 1], &builder);
      tails[g] = builder.link_tails();
    }
  });
  chunks.clear();
  chunks.shrink_to_fit();

  size_t total = tree.nodes.size();
  for (size_t g = 1; g < num_groups; ++g) total += subtrees[g].nodes.size() - 1;
  tree.nodes.reserve(total);
  std::vector<uint32_t>& link_tails = tails[0];
  for (size_t g = 1; g < num_groups; ++g) {
    // The subtree's node x > 0 becomes node base + x - 1.
    const uint32_t base = static_cast<uint32_t>(tree.nodes.size());
    auto rebase = [base](uint32_t x) {
      return x == 0 || x == FpNode::kNull ? x : base + x - 1;
    };
    std::vector<FpNode>& local = subtrees[g].nodes;
    // The root's children form one sibling list, newest first: the
    // subtree's oldest first-level node follows the newest one so far.
    const uint32_t older_child = tree.nodes[0].first_child;
    for (size_t x = 1; x < local.size(); ++x) {
      FpNode node = local[x];
      node.next_sibling =
          node.parent == 0 && node.next_sibling == FpNode::kNull
              ? older_child
              : rebase(node.next_sibling);
      node.parent = rebase(node.parent);
      node.node_link = rebase(node.node_link);
      node.first_child = rebase(node.first_child);
      tree.nodes.push_back(node);
    }
    if (local[0].first_child != FpNode::kNull) {
      tree.nodes[0].first_child = rebase(local[0].first_child);
    }
    // Each item's node-link chain continues into the subtree.
    for (uint32_t pos = 0; pos < m; ++pos) {
      const uint32_t head = subtrees[g].header[pos].link_head;
      if (head == FpNode::kNull) continue;
      if (link_tails[pos] == FpNode::kNull) {
        tree.header[pos].link_head = rebase(head);
      } else {
        tree.nodes[link_tails[pos]].node_link = rebase(head);
      }
      link_tails[pos] = rebase(tails[g][pos]);
    }
    subtrees[g] = FpTree();
  }
  return tree;
}

class FpMiner {
 public:
  FpMiner(uint32_t min_count, size_t max_size, bool single_path_opt,
          MiningResult* result)
      : min_count_(min_count),
        max_size_(max_size),
        single_path_opt_(single_path_opt),
        result_(result) {}

  /// Mines every header entry of `tree` with the given suffix, from least
  /// to most frequent (bottom-up).
  void Mine(const FpTree& tree, const Itemset& suffix) {
    for (size_t h = tree.header.size(); h-- > 0;) {
      MineEntry(tree, h, suffix);
    }
  }

  /// Mines one header entry: emits its pattern, projects its conditional
  /// pattern base, and recurses into the conditional tree. Entries are
  /// independent of each other, which is what makes the top level a task
  /// range for MinePartitioned.
  void MineEntry(const FpTree& tree, size_t h, const Itemset& suffix) {
    const HeaderEntry& entry = tree.header[h];
    Itemset pattern = suffix;
    pattern.insert(
        std::lower_bound(pattern.begin(), pattern.end(), entry.item),
        entry.item);
    Emit(pattern, entry.total_count);
    if (max_size_ != 0 && pattern.size() >= max_size_) return;

    // Conditional pattern base: prefix paths of every node of this item,
    // recorded as positions into `tree`'s header (node-to-root order; the
    // conditional build re-sorts each path after remapping anyway).
    base_.Clear();
    for (uint32_t node = entry.link_head; node != FpNode::kNull;
         node = tree.nodes[node].node_link) {
      for (uint32_t up = tree.nodes[node].parent; up != 0;
           up = tree.nodes[up].parent) {
        base_.positions.push_back(tree.nodes[up].pos);
      }
      base_.EndPath(tree.nodes[node].count);
    }
    if (base_.size() == 0) return;
    FpTree conditional = BuildConditionalTree(base_, tree);
    if (conditional.header.empty()) return;
    if (single_path_opt_ && conditional.IsSinglePath()) {
      EmitSinglePathCombinations(conditional, pattern);
    } else {
      Mine(conditional, pattern);
    }
  }

  /// Emits every combination of the single path's items (support = the
  /// count of the deepest selected node — counts are non-increasing down
  /// the path, so each node's count is the support of any combination
  /// whose deepest member it is).
  void EmitSinglePathCombinations(const FpTree& tree, const Itemset& suffix) {
    std::vector<std::pair<ItemId, uint32_t>> path;  // (item, count)
    for (uint32_t node = tree.nodes[0].first_child; node != FpNode::kNull;
         node = tree.nodes[node].first_child) {
      path.emplace_back(tree.header[tree.nodes[node].pos].item,
                        tree.nodes[node].count);
    }
    if (path.size() > 30) {
      // Too many combinations to enumerate directly; recurse instead.
      Mine(tree, suffix);
      return;
    }
    const size_t n = path.size();
    Itemset items;
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      // The deepest selected node bounds the combination's support.
      uint32_t support = 0;
      items = suffix;
      for (size_t bit = 0; bit < n; ++bit) {
        if (mask & (1u << bit)) {
          items.insert(
              std::lower_bound(items.begin(), items.end(), path[bit].first),
              path[bit].first);
          support = path[bit].second;
        }
      }
      if (max_size_ != 0 && items.size() > max_size_) continue;
      Emit(items, support);
    }
  }

 private:
  void Emit(const Itemset& items, uint32_t support) {
    result_->itemsets.push_back({items, support});
  }

  /// Projects a conditional tree from `base`. Every position in `base`
  /// indexes `parent`'s header, so the recount and the parent-to-child
  /// position remap are flat arrays over the parent header size.
  FpTree BuildConditionalTree(const PathSet& base, const FpTree& parent) {
    const size_t parent_size = parent.header.size();
    base_counts_.assign(parent_size, 0);
    for (size_t i = 0; i < base.size(); ++i) {
      for (uint32_t pos : base.Path(i)) base_counts_[pos] += base.counts[i];
    }
    // Surviving (parent position, count) pairs, ordered by descending
    // count with ties by ascending item id.
    std::vector<std::pair<uint32_t, uint32_t>> kept;
    for (uint32_t pos = 0; pos < parent_size; ++pos) {
      if (base_counts_[pos] >= min_count_) {
        kept.emplace_back(pos, base_counts_[pos]);
      }
    }
    std::sort(kept.begin(), kept.end(),
              [&parent](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return parent.header[a.first].item <
                       parent.header[b.first].item;
              });
    FpTree tree;
    pos_map_.assign(parent_size, FpNode::kNull);
    for (uint32_t pos = 0; pos < kept.size(); ++pos) {
      tree.header.push_back(
          {parent.header[kept[pos].first].item, kept[pos].second,
           FpNode::kNull});
      pos_map_[kept[pos].first] = pos;
    }
    ++result_->conditional_trees_built;
    if (tree.header.empty()) return tree;
    paths_.Clear();
    for (size_t i = 0; i < base.size(); ++i) {
      const size_t begin = paths_.positions.size();
      for (uint32_t pos : base.Path(i)) {
        if (pos_map_[pos] != FpNode::kNull) {
          paths_.positions.push_back(pos_map_[pos]);
        }
      }
      std::sort(paths_.positions.begin() + begin, paths_.positions.end());
      paths_.EndPath(base.counts[i]);
    }
    builder_.Build(paths_, &tree);
    result_->fp_nodes_allocated += tree.nodes.size() - 1;
    return tree;
  }

  uint32_t min_count_;
  size_t max_size_;
  bool single_path_opt_;
  MiningResult* result_;
  // Scratch reused across MineEntry / BuildConditionalTree calls (each
  // conditional tree is built before it is recursed into): the pattern
  // base, its per-parent-header recount and remap, and the remapped paths.
  PathSet base_;
  std::vector<uint32_t> base_counts_;
  std::vector<uint32_t> pos_map_;
  PathSet paths_;
  TreeBuilder builder_;
};

}  // namespace

Result<MiningResult> MineFpGrowth(const TransactionDatabase& db,
                                  const MiningParams& params,
                                  const FpGrowthOptions& options) {
  DMT_RETURN_NOT_OK(params.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db, params.min_support);
  const core::ParallelContext ctx(params.num_threads);

  obs::Counter trees_counter("assoc/fp_growth/conditional_trees_built");
  obs::Counter nodes_counter("assoc/fp_growth/fp_nodes_allocated");
  obs::Span mine_span("assoc/fp_growth/mine");

  MiningResult result;
  size_t num_frequent_items = 0;
  FpTree root = [&] {
    obs::Span build_span("assoc/fp_growth/build_tree");
    return BuildRootTree(db, min_count, ctx, &num_frequent_items);
  }();
  result.fp_nodes_allocated += root.nodes.size() - 1;
  if (!root.header.empty()) {
    obs::Span grow_span("assoc/fp_growth/grow");
    if (options.single_path_optimization && root.IsSinglePath()) {
      // Degenerate database: the whole tree is one chain, so every
      // frequent itemset is a combination of the chain's items.
      FpMiner miner(min_count, params.max_itemset_size,
                    options.single_path_optimization, &result);
      miner.EmitSinglePathCombinations(root, {});
    } else {
      // Top-level projection decomposition: each header entry's
      // conditional tree is mined independently, in the serial bottom-up
      // order (task i handles entry n-1-i), chunked contiguously with
      // per-chunk result scratch merged in chunk order.
      const size_t n = root.header.size();
      MinePartitioned(
          ctx, n, &result,
          [&](size_t begin, size_t end, MiningResult* out) {
            FpMiner miner(min_count, params.max_itemset_size,
                          options.single_path_optimization, out);
            for (size_t i = begin; i < end; ++i) {
              miner.MineEntry(root, n - 1 - i, {});
            }
          });
    }
  }
  // The chunk-order-merged tallies are the call's work counters.
  obs::PublishCounter(mine_span, trees_counter,
                      result.conditional_trees_built);
  obs::PublishCounter(mine_span, nodes_counter, result.fp_nodes_allocated);
  SortCanonical(&result.itemsets);

  // Reconstruct per-size pass stats (pattern growth has no candidates
  // beyond the itemsets it actually examines).
  size_t max_size = 0;
  for (const auto& itemset : result.itemsets) {
    max_size = std::max(max_size, itemset.items.size());
  }
  result.passes.push_back({1, db.item_universe(), num_frequent_items});
  for (size_t k = 2; k <= max_size; ++k) {
    size_t count = result.CountOfSize(k);
    result.passes.push_back({k, count, count});
  }
  return result;
}

}  // namespace dmt::assoc
