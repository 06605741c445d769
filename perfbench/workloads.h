// Fixed shapes of the three workloads. The seed varies the generated
// data; everything here stays the same across seeds and commits.
#ifndef DMT_PERFBENCH_WORKLOADS_H_
#define DMT_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "gen/quest.h"

namespace perfbench {

/// Independent generator streams derived from the run seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
}

/// The Quest draw both basket workloads are built from. Fresh draws differ
/// in mining work by up to 4x (one long frequent pattern multiplies the
/// itemsets), so each seed gets an isomorphic copy of this one draw
/// instead: item ids relabelled and, for mine_rules, transactions
/// shuffled, both by the seed.
inline constexpr uint64_t kQuestBaseSeed = 1996;

// ---- mine_rules: Quest T10.I4.D100K container -> rule-set container ----
inline constexpr char kQuestFile[] = "quest.dmt";
inline constexpr double kMineMinSupport = 0.0025;
inline constexpr double kMineMinConfidence = 0.5;

inline dmt::gen::QuestParams MineQuestParams() {
  dmt::gen::QuestParams params;
  params.num_transactions = 100000;
  params.avg_transaction_size = 10.0;
  params.avg_pattern_size = 4.0;
  params.num_items = 1000;
  params.num_patterns = 2000;
  return params;
}

// ---- train_models: Dataset containers -> model containers --------------
inline constexpr char kGridFile[] = "grid.dmt";
inline constexpr char kAgrawalFile[] = "agrawal.dmt";
inline constexpr size_t kKMeansClusters = 100;
inline constexpr size_t kKMeansPointsPerCluster = 2000;
/// Fixed Lloyd iteration budget (tolerance 0), so every seed does the
/// same amount of assignment work.
inline constexpr size_t kKMeansIterations = 20;
inline constexpr size_t kCartRecords = 100000;

// ---- serve_mixed: dmtd bundle and request pool -------------------------
inline constexpr char kPoolFile[] = "requests.dmtq";
inline constexpr size_t kHotBaskets = 16;
/// Far more than the 512-entry rule cache, so cold baskets always miss.
inline constexpr size_t kColdBaskets = 8192;
inline constexpr size_t kClassifyRecords = 2000;
inline constexpr size_t kClusterPoints = 2000;
inline constexpr unsigned kTopK = 8;
/// Rules in the served rule set.
inline constexpr size_t kServeRules = 8000;

inline dmt::gen::QuestParams ServeQuestParams() {
  dmt::gen::QuestParams params;
  params.num_transactions = 2000;
  params.avg_transaction_size = 8.0;
  params.avg_pattern_size = 4.0;
  params.num_items = 200;
  params.num_patterns = 50;
  return params;
}

/// The request pool file: request frames (id 0) back to back, in the
/// order hot baskets, cold baskets, classify records, cluster points.
dmt::core::Status WritePool(const std::vector<std::vector<std::byte>>& frames,
                            const std::string& path);
dmt::core::Result<std::vector<std::vector<std::byte>>> ReadPool(
    const std::string& path);

}  // namespace perfbench

#endif  // DMT_PERFBENCH_WORKLOADS_H_
