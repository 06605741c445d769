// FIG-A3 (VLDB'94 scale-up with transaction size): average transaction
// size T grows from 5 to 25 while D shrinks so that |D| * T (total item
// occurrences) stays constant; fixed absolute support threshold.
//
// Expected shape: time rises with T for Apriori — about linearly, since
// its pass-2 pair table does O(T^2) work per transaction over |D| ~ 1/T
// transactions — and mildly for the pattern-growth/vertical miners.
#include <benchmark/benchmark.h>

#include "assoc/apriori.h"
#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "bench_main.h"
#include "bench_util.h"

namespace {

using dmt::bench::QuestWorkload;

constexpr size_t kTotalItems = 200000;  // |D| * T held constant

dmt::assoc::MiningParams ParamsFor(size_t num_transactions,
                                   int64_t threads) {
  dmt::assoc::MiningParams params;
  // Fixed absolute support of 75 transactions, expressed as a fraction.
  params.min_support = 75.0 / static_cast<double>(num_transactions);
  params.num_threads = static_cast<size_t>(threads);
  return params;
}

template <typename Runner>
void RunCase(benchmark::State& state, const Runner& runner) {
  const auto t = static_cast<double>(state.range(0));
  const size_t d = kTotalItems / static_cast<size_t>(state.range(0));
  const auto& db = QuestWorkload(t, 4, d);
  auto params = ParamsFor(d, state.range(1));
  dmt::assoc::MiningResult last;
  for (auto _ : state) {
    auto result = runner(db, params);
    DMT_CHECK(result.ok());
    last = *std::move(result);
    benchmark::DoNotOptimize(last);
  }
  state.counters["avg_t"] = t;
  state.counters["transactions"] = static_cast<double>(d);
  state.counters["threads"] = static_cast<double>(state.range(1));
  // Thread-invariant work counters (0 for the counting miners).
  state.counters["cond_trees"] =
      static_cast<double>(last.conditional_trees_built);
  state.counters["fp_nodes"] = static_cast<double>(last.fp_nodes_allocated);
  state.counters["intersections"] =
      static_cast<double>(last.tidset_intersections);
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

void Sizes(benchmark::internal::Benchmark* bench) {
  for (int64_t t : {5, 10, 15, 20, 25}) bench->Args({t, 0});
  bench->Unit(benchmark::kMillisecond)->Iterations(2);
}

/// Thread column at the largest transaction size (the slowest point on
/// the curve), where parallel task grain is the most favorable.
void ThreadSizes(benchmark::internal::Benchmark* bench) {
  for (int64_t threads : {1, 2, 4}) bench->Args({25, threads});
  bench->Unit(benchmark::kMillisecond)->Iterations(2);
}

BENCHMARK(BM_Apriori)->Apply(Sizes)->Apply(ThreadSizes);
BENCHMARK(BM_AprioriTid)->Apply(Sizes)->Apply(ThreadSizes);
BENCHMARK(BM_FpGrowth)->Apply(Sizes)->Apply(ThreadSizes);
BENCHMARK(BM_Eclat)->Apply(Sizes)->Apply(ThreadSizes);

}  // namespace

int main(int argc, char** argv) {
  return dmt::bench::BenchMain("assoc_scaleup_t", argc, argv);
}
