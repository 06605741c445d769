// Input generation for the three workloads. Runs in its own process
// before the measured one, so generator work never shows up in set-up
// time or peak RSS. Every input is a pure function of (workload, seed).
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "assoc/fp_growth.h"
#include "assoc/rules.h"
#include "cluster/kmeans.h"
#include "common.h"
#include "core/dataset.h"
#include "core/string_util.h"
#include "gen/agrawal.h"
#include "gen/mixture.h"
#include "gen/quest.h"
#include "io/serialize.h"
#include "serve/protocol.h"
#include "tree/builder.h"
#include "workloads.h"

namespace perfbench {

using dmt::core::Result;
using dmt::core::Status;

namespace {

/// BIRCH-style 2-D grid as a labelled Dataset (x, y; label = cluster).
/// Neighbouring clusters overlap (stddev 2 at spacing 10), so Lloyd keeps
/// moving boundary points and runs its full iteration budget.
Result<dmt::core::Dataset> GridDataset(size_t clusters, size_t per_cluster,
                                       uint64_t seed) {
  DMT_ASSIGN_OR_RETURN(dmt::gen::LabeledPoints grid,
                       dmt::gen::GenerateBirchGrid(clusters, per_cluster,
                                                   /*spacing=*/10.0,
                                                   /*stddev=*/2.0, seed));
  const size_t n = grid.points.size();
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = grid.points.point(i)[0];
    ys[i] = grid.points.point(i)[1];
  }
  std::vector<std::string> names;
  for (size_t c = 0; c < clusters; ++c) {
    names.push_back(dmt::core::StrFormat("c%zu", c));
  }
  dmt::core::DatasetBuilder builder;
  builder.AddNumericColumn("x", std::move(xs))
      .AddNumericColumn("y", std::move(ys))
      .SetLabels(std::move(grid.labels), std::move(names));
  return builder.Build();
}

Result<dmt::core::Dataset> AgrawalDataset(size_t records, uint64_t seed) {
  dmt::gen::AgrawalParams params;
  params.function = 2;
  params.num_records = records;
  params.perturbation = 0.05;
  return dmt::gen::GenerateAgrawal(params, seed);
}

/// Transactions [begin, end) of `db` with every item id relabelled by a
/// seeded permutation, in seeded order when `shuffle`: the same frequent
/// pattern structure under other ids and another layout.
dmt::core::TransactionDatabase Relabelled(
    const dmt::core::TransactionDatabase& db, size_t begin, size_t end,
    uint64_t seed, bool shuffle) {
  std::mt19937_64 rng(seed);
  std::vector<dmt::core::ItemId> label(db.item_universe());
  std::iota(label.begin(), label.end(), dmt::core::ItemId{0});
  std::shuffle(label.begin(), label.end(), rng);
  std::vector<size_t> order(end - begin);
  std::iota(order.begin(), order.end(), begin);
  if (shuffle) std::shuffle(order.begin(), order.end(), rng);
  dmt::core::TransactionDatabase copy;
  std::vector<dmt::core::ItemId> items;
  for (size_t t : order) {
    items.clear();
    for (dmt::core::ItemId item : db.transaction(t)) {
      items.push_back(label[item]);
    }
    copy.Add(items);
  }
  return copy;
}

Status GenerateMine(uint64_t seed, const std::string& dir) {
  DMT_ASSIGN_OR_RETURN(
      dmt::core::TransactionDatabase base,
      dmt::gen::GenerateQuestTransactions(MineQuestParams(), kQuestBaseSeed));
  const dmt::core::TransactionDatabase db =
      Relabelled(base, 0, base.size(), SubSeed(seed, 1), /*shuffle=*/true);
  return dmt::io::WriteTransactionDatabase(db, dir + "/" + kQuestFile);
}

Status GenerateTrain(uint64_t seed, const std::string& dir) {
  DMT_ASSIGN_OR_RETURN(
      dmt::core::Dataset grid,
      GridDataset(kKMeansClusters, kKMeansPointsPerCluster, SubSeed(seed, 2)));
  DMT_RETURN_NOT_OK(dmt::io::WriteDataset(grid, dir + "/" + kGridFile));
  DMT_ASSIGN_OR_RETURN(dmt::core::Dataset agrawal,
                       AgrawalDataset(kCartRecords, SubSeed(seed, 3)));
  return dmt::io::WriteDataset(agrawal, dir + "/" + kAgrawalFile);
}

/// The serving bundle (rules, tree, k-means containers) plus the pool of
/// distinct request frames the load generator draws from.
Status GenerateServe(uint64_t seed, const std::string& dir) {
  // Rules: the dense T8.I4.D2K basket shape `dmtd --make-demo` serves,
  // capped at the kServeRules strongest rules (GenerateRules sorts by
  // confidence, then lift) so every seed serves the same model size.
  // The support threshold drops until there are enough rules. Baskets are
  // later transactions of the same draw, so they share its patterns.
  dmt::gen::QuestParams quest = ServeQuestParams();
  const size_t mined_transactions = quest.num_transactions;
  quest.num_transactions += 4 * (kHotBaskets + kColdBaskets);
  DMT_ASSIGN_OR_RETURN(
      dmt::core::TransactionDatabase base,
      dmt::gen::GenerateQuestTransactions(quest, kQuestBaseSeed));
  // Same seed, same relabelling: `db` is the first rows of `all`.
  const dmt::core::TransactionDatabase all =
      Relabelled(base, 0, base.size(), SubSeed(seed, 4), /*shuffle=*/false);
  const dmt::core::TransactionDatabase db = Relabelled(
      base, 0, mined_transactions, SubSeed(seed, 4), /*shuffle=*/false);
  std::vector<dmt::assoc::AssociationRule> rules;
  for (double min_support : {0.02, 0.015, 0.01, 0.0075, 0.005}) {
    dmt::assoc::MiningParams mining;
    mining.min_support = min_support;
    DMT_ASSIGN_OR_RETURN(dmt::assoc::MiningResult mined,
                         dmt::assoc::MineFpGrowth(db, mining));
    dmt::assoc::RuleParams rule_params;
    rule_params.min_confidence = 0.5;
    DMT_ASSIGN_OR_RETURN(rules, dmt::assoc::GenerateRules(mined, db.size(),
                                                          rule_params));
    if (rules.size() >= kServeRules) break;
  }
  if (rules.size() < kServeRules) {
    return Status::Internal("too few rules for the serving bundle");
  }
  rules.resize(kServeRules);
  DMT_RETURN_NOT_OK(dmt::io::WriteRuleSet(rules, dir + "/rules.dmt"));

  // k-means model over a 2-D grid.
  DMT_ASSIGN_OR_RETURN(dmt::gen::LabeledPoints grid,
                       dmt::gen::GenerateBirchGrid(100, 200, 10.0, 1.0,
                                                   SubSeed(seed, 5)));
  dmt::cluster::KMeansOptions kmeans;
  kmeans.k = 100;
  kmeans.max_iterations = 20;
  kmeans.seed = SubSeed(seed, 6);
  DMT_ASSIGN_OR_RETURN(dmt::cluster::ClusteringResult model,
                       dmt::cluster::KMeans(grid.points, kmeans));
  DMT_RETURN_NOT_OK(dmt::io::WriteKMeansModel(model, dir + "/kmeans.dmt"));

  // CART tree on Agrawal F2.
  DMT_ASSIGN_OR_RETURN(dmt::core::Dataset train,
                       AgrawalDataset(20000, SubSeed(seed, 7)));
  DMT_ASSIGN_OR_RETURN(dmt::tree::DecisionTree tree,
                       dmt::tree::BuildCart(train));
  DMT_RETURN_NOT_OK(dmt::io::WriteDecisionTree(tree, dir + "/tree.dmt"));

  // Request pool: hot baskets, cold baskets, classify records, points.
  std::vector<std::vector<std::byte>> frames;
  auto add = [&frames](dmt::serve::Request request) {
    request.id = 0;
    request.count = 1;
    frames.push_back(dmt::serve::EncodeRequestFrame(request));
  };
  std::vector<size_t> basket_rows;
  for (size_t t = mined_transactions; t < all.size(); ++t) {
    if (all.transaction(t).size() >= 2) basket_rows.push_back(t);
  }
  std::shuffle(basket_rows.begin(), basket_rows.end(),
               std::mt19937_64(SubSeed(seed, 8)));
  size_t baskets = 0;
  for (size_t t : basket_rows) {
    if (baskets == kHotBaskets + kColdBaskets) break;
    auto items = all.transaction(t);
    dmt::serve::Request request;
    request.type = dmt::serve::RequestType::kRecommend;
    request.top_k = kTopK;
    request.baskets.emplace_back(items.begin(), items.end());
    add(std::move(request));
    ++baskets;
  }
  if (baskets != kHotBaskets + kColdBaskets) {
    return Status::Internal("not enough baskets for the request pool");
  }
  DMT_ASSIGN_OR_RETURN(dmt::core::Dataset records,
                       AgrawalDataset(kClassifyRecords, SubSeed(seed, 9)));
  for (size_t r = 0; r < records.num_rows(); ++r) {
    dmt::serve::Request request;
    request.type = dmt::serve::RequestType::kClassify;
    request.model = dmt::serve::ClassifyModel::kTree;
    request.dim = static_cast<uint32_t>(records.num_attributes());
    for (size_t a = 0; a < records.num_attributes(); ++a) {
      request.values.push_back(
          records.attribute(a).type == dmt::core::AttributeType::kNumeric
              ? records.Numeric(r, a)
              : static_cast<double>(records.Categorical(r, a)));
    }
    add(std::move(request));
  }
  DMT_ASSIGN_OR_RETURN(dmt::gen::LabeledPoints queries,
                       dmt::gen::GenerateBirchGrid(100, kClusterPoints / 100,
                                                   10.0, 1.0,
                                                   SubSeed(seed, 10)));
  for (size_t p = 0; p < queries.points.size(); ++p) {
    dmt::serve::Request request;
    request.type = dmt::serve::RequestType::kAssignCluster;
    request.dim = 2;
    auto point = queries.points.point(p);
    request.values.assign(point.begin(), point.end());
    add(std::move(request));
  }
  return WritePool(frames, dir + "/" + kPoolFile);
}

}  // namespace

Status WritePool(const std::vector<std::vector<std::byte>>& frames,
                 const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::vector<std::byte>& frame : frames) {
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<std::vector<std::vector<std::byte>>> ReadPool(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<std::vector<std::byte>> frames;
  for (;;) {
    std::vector<std::byte> frame(dmt::serve::kFrameHeaderBytes);
    in.read(reinterpret_cast<char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
    if (in.gcount() == 0) break;
    DMT_ASSIGN_OR_RETURN(
        uint32_t body, dmt::serve::CheckFrameHeader(
                           frame, dmt::serve::kRequestMagic));
    frame.resize(frame.size() + body);
    in.read(reinterpret_cast<char*>(frame.data()) +
                dmt::serve::kFrameHeaderBytes,
            body);
    if (static_cast<uint32_t>(in.gcount()) != body) {
      return Status::Corruption(path + ": truncated request frame");
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

Status Generate(const std::string& workload, uint64_t seed,
                const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create " + dir);
  }
  if (workload == "mine_rules") return GenerateMine(seed, dir);
  if (workload == "train_models") return GenerateTrain(seed, dir);
  if (workload == "serve_mixed") return GenerateServe(seed, dir);
  return Status::InvalidArgument("unknown workload " + workload);
}

}  // namespace perfbench
