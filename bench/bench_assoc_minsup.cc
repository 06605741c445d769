// FIG-A1 (VLDB'94 "time vs minimum support"): execution time of the four
// frequent-itemset miners on the T5.I2, T10.I4, and T20.I6 workloads
// (D = 10K here) as the support threshold drops from 2% to 0.25%.
//
// Expected shape: every curve grows as minsup falls; Apriori degrades
// fastest relative to its 2% point (its k >= 3 candidate passes grow with
// the frequent collection), though counting pass 2 in a pair table keeps
// it from being the slowest in absolute time; FP-Growth stays flattest on
// T10.I4, AprioriTid sits between (its per-transaction candidate lists
// shrink in later passes but balloon in pass 2 at low support).
#include <benchmark/benchmark.h>

#include "assoc/apriori.h"
#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "bench_main.h"
#include "bench_util.h"

namespace {

using dmt::bench::QuestWorkload;

// Support thresholds in basis points (100 = 1%).
constexpr int64_t kMinsupBp[] = {200, 150, 100, 75, 50, 33, 25};

struct Workload {
  const char* name;
  double t;
  double i;
  size_t d;
};
constexpr Workload kWorkloads[] = {
    {"T5.I2.D10K", 5, 2, 10000},
    {"T10.I4.D10K", 10, 4, 10000},
    {"T20.I6.D10K", 20, 6, 10000},
    // Thread-scaling workload for the pattern-growth miners (the VLDB'94
    // scale the paper's headline tables use).
    {"T10.I4.D100K", 10, 4, 100000}};

dmt::assoc::MiningParams ParamsFor(int64_t minsup_bp, int64_t threads) {
  dmt::assoc::MiningParams params;
  params.min_support = static_cast<double>(minsup_bp) / 10000.0;
  params.num_threads = static_cast<size_t>(threads);
  return params;
}

template <typename Runner>
void RunCase(benchmark::State& state, const Runner& runner) {
  const Workload& workload = kWorkloads[state.range(0)];
  const auto& db = QuestWorkload(workload.t, workload.i, workload.d);
  auto params = ParamsFor(state.range(1), state.range(2));
  size_t itemsets = 0;
  dmt::assoc::MiningResult last;
  for (auto _ : state) {
    auto result = runner(db, params);
    DMT_CHECK(result.ok());
    itemsets = result->itemsets.size();
    last = *std::move(result);
    benchmark::DoNotOptimize(last);
  }
  state.counters["itemsets"] = static_cast<double>(itemsets);
  state.counters["threads"] = static_cast<double>(state.range(2));
  // Pattern-growth work counters (0 for the counting miners); identical
  // at every thread count by the determinism contract.
  state.counters["cond_trees"] =
      static_cast<double>(last.conditional_trees_built);
  state.counters["fp_nodes"] = static_cast<double>(last.fp_nodes_allocated);
  state.counters["intersections"] =
      static_cast<double>(last.tidset_intersections);
  // Candidate census summed over every pass; identical at every thread
  // count, so the bench_compare gate pins it.
  size_t candidates = 0;
  for (const auto& pass : last.passes) candidates += pass.candidates;
  state.counters["candidates"] = static_cast<double>(candidates);
  state.SetLabel(std::string(workload.name) + " minsup=" +
                 std::to_string(state.range(1)) + "bp t=" +
                 std::to_string(state.range(2)));
}

void BM_Apriori(benchmark::State& state) {
  RunCase(state, [](const auto& db, const auto& params) {
    return dmt::assoc::MineApriori(db, params);
  });
}

void BM_AprioriTid(benchmark::State& state) {
  RunCase(state, [](const auto& db, const auto& params) {
    return dmt::assoc::MineAprioriTid(db, params);
  });
}

void BM_FpGrowth(benchmark::State& state) {
  RunCase(state, [](const auto& db, const auto& params) {
    return dmt::assoc::MineFpGrowth(db, params);
  });
}

void BM_Eclat(benchmark::State& state) {
  RunCase(state, [](const auto& db, const auto& params) {
    return dmt::assoc::MineEclat(db, params);
  });
}

/// Dense-bitset tidsets: the representation the SIMD bitset kernels
/// accelerate (the default sorted-vector row is unaffected by dispatch
/// level). Compare against BM_Eclat at the same args for the
/// representation trade-off, and across DMT_KERNEL_LEVEL for the
/// kernel speedup (EXT-9).
void BM_EclatBitset(benchmark::State& state) {
  RunCase(state, [](const auto& db, const auto& params) {
    dmt::assoc::EclatOptions options;
    options.representation = dmt::assoc::EclatOptions::TidsetRepr::kBitsets;
    return dmt::assoc::MineEclat(db, params, options);
  });
}

void AllCases(benchmark::internal::Benchmark* bench) {
  for (int64_t workload = 0; workload < 3; ++workload) {
    for (int64_t minsup : kMinsupBp) {
      bench->Args({workload, minsup, 0});
    }
  }
  bench->Unit(benchmark::kMillisecond)->Iterations(2);
}

/// Thread-scaling column for the counting miners: the T10.I4.D10K
/// workload at the two lowest (slowest) thresholds, at 1/2/4 worker
/// threads, so the speedup over the t=0 serial rows is visible.
void ThreadCases(benchmark::internal::Benchmark* bench) {
  for (int64_t minsup : {50, 25}) {
    for (int64_t threads : {1, 2, 4}) {
      bench->Args({1, minsup, threads});
    }
  }
  bench->Unit(benchmark::kMillisecond)->Iterations(2);
}

/// Thread-scaling column for the pattern-growth miners: T10.I4.D100K at
/// the lowest threshold (their dominant regime), serial plus 1/2/4
/// threads, with the work counters as the thread-invariance signal.
void PatternGrowthThreadCases(benchmark::internal::Benchmark* bench) {
  for (int64_t threads : {0, 1, 2, 4}) {
    bench->Args({3, 25, threads});
  }
  bench->Unit(benchmark::kMillisecond)->Iterations(2);
}

BENCHMARK(BM_Apriori)->Apply(AllCases)->Apply(ThreadCases);
BENCHMARK(BM_AprioriTid)->Apply(AllCases)->Apply(ThreadCases);
BENCHMARK(BM_FpGrowth)->Apply(AllCases)->Apply(PatternGrowthThreadCases);
BENCHMARK(BM_Eclat)->Apply(AllCases)->Apply(PatternGrowthThreadCases);
BENCHMARK(BM_EclatBitset)->Apply(AllCases)->Apply(PatternGrowthThreadCases);

}  // namespace

int main(int argc, char** argv) {
  return dmt::bench::BenchMain("assoc_minsup", argc, argv);
}
