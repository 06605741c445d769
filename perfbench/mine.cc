// mine_rules: Quest T10.I4.D100K from a DMTBIN01 container to a rule-set
// container at minsup 0.25%, minconf 0.5 and 4 threads, one job per miner
// (FP-growth, Eclat-bitset, Apriori) in rounds until the time is up.
//
// A job is MappedTransactionDatabase::Map + ToOwned -> miner ->
// GenerateRules -> WriteRuleSet. Output checks (outside the timed span):
// the three miners' rule-set containers are byte-identical, each reloads
// through LoadRuleSet unchanged, and every work counter repeats exactly
// from job to job.
#include <sys/stat.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "assoc/apriori.h"
#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "assoc/rules.h"
#include "common.h"
#include "io/serialize.h"
#include "workloads.h"

namespace perfbench {

using dmt::core::Result;
using dmt::core::Status;

namespace {

enum class Miner { kFpGrowth, kEclat, kApriori };
constexpr Miner kMiners[] = {Miner::kFpGrowth, Miner::kEclat, Miner::kApriori};

const char* MinerName(Miner miner) {
  switch (miner) {
    case Miner::kFpGrowth: return "fpgrowth";
    case Miner::kEclat: return "eclat";
    case Miner::kApriori: return "apriori";
  }
  return "?";
}

Result<dmt::assoc::MiningResult> Mine(
    Miner miner, const dmt::core::TransactionDatabase& db) {
  dmt::assoc::MiningParams params;
  params.min_support = kMineMinSupport;
  params.num_threads = kJobThreads;
  switch (miner) {
    case Miner::kFpGrowth:
      return dmt::assoc::MineFpGrowth(db, params);
    case Miner::kEclat: {
      dmt::assoc::EclatOptions options;
      options.representation = dmt::assoc::EclatOptions::TidsetRepr::kBitsets;
      return dmt::assoc::MineEclat(db, params, options);
    }
    case Miner::kApriori:
      return dmt::assoc::MineApriori(db, params);
  }
  return Status::InvalidArgument("unknown miner");
}

/// One container -> rule-set job. Phase times are taken on every job;
/// `traced` adds the process-CPU readings around the miner call.
struct Job {
  double total_s = 0, map_s = 0, mine_s = 0, rules_s = 0, write_s = 0;
  /// Process CPU seconds over the whole job (all threads).
  double cpu_s = 0;
  double mine_cpu_util = 0;
  uint64_t bytes_mapped = 0;
  dmt::assoc::MiningResult mined;
  std::vector<dmt::assoc::AssociationRule> rules;
};

Status RunJob(Miner miner, const std::string& in, const std::string& out,
              bool traced, Job* job) {
  const double t0 = Now();
  const double job_cpu0 = ProcessCpuSeconds();
  DMT_ASSIGN_OR_RETURN(dmt::io::MappedTransactionDatabase mapped,
                       dmt::io::MappedTransactionDatabase::Map(in));
  dmt::core::TransactionDatabase db = mapped.ToOwned();
  const double t1 = Now();
  const double cpu0 = traced ? ProcessCpuSeconds() : 0.0;
  DMT_ASSIGN_OR_RETURN(job->mined, Mine(miner, db));
  const double cpu1 = traced ? ProcessCpuSeconds() : 0.0;
  const double t2 = Now();
  dmt::assoc::RuleParams rule_params;
  rule_params.min_confidence = kMineMinConfidence;
  DMT_ASSIGN_OR_RETURN(job->rules, dmt::assoc::GenerateRules(
                                       job->mined, db.size(), rule_params));
  const double t3 = Now();
  DMT_RETURN_NOT_OK(dmt::io::WriteRuleSet(job->rules, out));
  const double t4 = Now();
  job->cpu_s = ProcessCpuSeconds() - job_cpu0;
  job->total_s = t4 - t0;
  job->map_s = t1 - t0;
  job->mine_s = t2 - t1;
  job->rules_s = t3 - t2;
  job->write_s = t4 - t3;
  job->bytes_mapped = mapped.bytes_mapped();
  if (traced) {
    job->mine_cpu_util =
        (cpu1 - cpu0) / ((t2 - t1) * static_cast<double>(kJobThreads));
  }
  return Status::OK();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameRules(const std::vector<dmt::assoc::AssociationRule>& a,
               const std::vector<dmt::assoc::AssociationRule>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.antecedent != y.antecedent || x.consequent != y.consequent ||
        x.support_count != y.support_count || !SameBits(x.support, y.support) ||
        !SameBits(x.confidence, y.confidence) || !SameBits(x.lift, y.lift) ||
        !SameBits(x.conviction, y.conviction) ||
        !SameBits(x.leverage, y.leverage)) {
      return false;
    }
  }
  return true;
}

/// The exact-repeat work counters of one job.
std::vector<uint64_t> Counters(const Job& job) {
  std::vector<uint64_t> counters = {
      job.mined.itemsets.size(), job.rules.size(),
      job.mined.conditional_trees_built, job.mined.fp_nodes_allocated,
      job.mined.tidset_intersections};
  for (const auto& pass : job.mined.passes) {
    counters.push_back(pass.candidates);
    counters.push_back(pass.frequent);
  }
  return counters;
}

struct MinerStats {
  std::vector<double> untraced_total, untraced_cpu, traced_total, mine_s,
      cpu_util;
  std::vector<uint64_t> counters;
  /// The first job's result, for the work counters.
  dmt::assoc::MiningResult first;
  bool checked = false;
};

}  // namespace

Status RunMineRules(const RunConfig& config, RunResult* result) {
  const std::string in = config.dir + "/" + kQuestFile;
  const std::string out_dir = config.dir + "/out";
  ::mkdir(out_dir.c_str(), 0755);
  result->first_op_unix = UnixNow();
  if (config.setup_only) return Status::OK();

  const double cpu_start = ProcessCpuSeconds();
  std::map<Miner, MinerStats> stats;
  std::vector<double> map_s, rules_s, write_s;
  uint64_t bytes_mapped = 0;
  std::vector<dmt::assoc::FrequentItemset> reference_itemsets;
  uint64_t reference_hash = 0;
  size_t rule_count = 0;

  const double deadline = Now() + config.seconds;
  const size_t min_rounds = config.trace ? 2 : 1;
  for (size_t round = 0; round < min_rounds || Now() < deadline; ++round) {
    // In a traced run, rounds alternate traced / untraced so the trace
    // overhead is measured within the run.
    const bool traced = config.trace && round % 2 == 0;
    for (Miner miner : kMiners) {
      const std::string out =
          out_dir + "/rules_" + MinerName(miner) + ".dmt";
      Job job;
      ++result->attempted;
      Status status = RunJob(miner, in, out, traced, &job);
      if (!status.ok()) {
        ++result->failed;
        result->Mismatch(std::string(MinerName(miner)) + ": " +
                         status.ToString());
        continue;
      }
      MinerStats& s = stats[miner];
      // ---- output checks (untimed) ----
      bool ok = true;
      DMT_ASSIGN_OR_RETURN(uint64_t hash, HashFile(out));
      if (reference_hash == 0) {
        reference_hash = hash;
        reference_itemsets = job.mined.itemsets;
      }
      if (hash != reference_hash) {
        ok = false;
        result->Mismatch(std::string(MinerName(miner)) +
                         ": rule-set container differs from the first "
                         "miner's");
      }
      if (!s.checked) {
        s.checked = true;
        s.counters = Counters(job);
        if (job.mined.itemsets != reference_itemsets) {
          ok = false;
          result->Mismatch(std::string(MinerName(miner)) +
                           ": frequent itemsets differ between miners");
        }
        Result<std::vector<dmt::assoc::AssociationRule>> reloaded =
            dmt::io::LoadRuleSet(out);
        if (!reloaded.ok() || !SameRules(reloaded.value(), job.rules)) {
          ok = false;
          result->Mismatch(std::string(MinerName(miner)) +
                           ": rule set does not survive LoadRuleSet");
        }
        s.first = job.mined;
        rule_count = job.rules.size();
      } else if (Counters(job) != s.counters) {
        ok = false;
        result->Mismatch(std::string(MinerName(miner)) +
                         ": work counters did not repeat exactly");
      }
      if (!ok) {
        ++result->failed;
        continue;
      }
      // ---- timings ----
      if (traced) {
        s.traced_total.push_back(job.total_s);
        s.mine_s.push_back(job.mine_s);
        s.cpu_util.push_back(job.mine_cpu_util);
        map_s.push_back(job.map_s);
        rules_s.push_back(job.rules_s);
        write_s.push_back(job.write_s);
        bytes_mapped = job.bytes_mapped;
      } else {
        s.untraced_total.push_back(job.total_s);
        s.untraced_cpu.push_back(job.cpu_s);
      }
    }
  }

  MetricSink& m = result->metrics;
  const uint64_t attempted = result->attempted;
  if (!config.trace) {
    std::vector<double> medians, cpu_medians;
    double job_seconds = 0;
    size_t jobs = 0;
    for (Miner miner : kMiners) {
      const auto& totals = stats[miner].untraced_total;
      if (totals.empty()) return Status::Internal("a miner never succeeded");
      medians.push_back(Median(totals) * 1e3);
      cpu_medians.push_back(Median(stats[miner].untraced_cpu) * 1e3);
      for (double t : totals) job_seconds += t;
      jobs += totals.size();
    }
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("ok_ratio",
          static_cast<double>(attempted - result->failed) /
              static_cast<double>(attempted),
          "ratio");
    m.Add("op_ms", GeoMean(medians), "ms");
    m.Add("cpu_ms_per_op", GeoMean(cpu_medians), "ms");
    m.Add("throughput_per_s", static_cast<double>(jobs) / job_seconds, "1/s");
    return Status::OK();
  }

  double traced_sum = 0, untraced_sum = 0;
  for (Miner miner : kMiners) {
    const MinerStats& s = stats[miner];
    if (s.traced_total.empty() || s.untraced_total.empty()) {
      return Status::Internal("traced run too short for both job kinds");
    }
    const std::string name = MinerName(miner);
    m.Add("job." + name + "_s", Median(s.untraced_total), "s");
    m.Add("assoc." + name + "_ms", Median(s.mine_s) * 1e3, "ms");
    m.Add("assoc." + name + "_cpu_util", Median(s.cpu_util), "ratio");
    traced_sum += Median(s.traced_total);
    untraced_sum += Median(s.untraced_total);
  }
  const dmt::assoc::MiningResult& fp = stats[Miner::kFpGrowth].first;
  uint64_t apriori_candidates = 0, apriori_frequent = 0;
  for (const auto& pass : stats[Miner::kApriori].first.passes) {
    apriori_candidates += pass.candidates;
    apriori_frequent += pass.frequent;
  }
  m.Add("io.map_ms", Median(map_s) * 1e3, "ms");
  m.Add("io.write_rules_ms", Median(write_s) * 1e3, "ms");
  m.Add("io.bytes_mapped", static_cast<double>(bytes_mapped), "bytes");
  m.Add("assoc.rules_ms", Median(rules_s) * 1e3, "ms");
  m.Add("assoc.rules", static_cast<double>(rule_count), "count");
  m.Add("assoc.itemsets", static_cast<double>(reference_itemsets.size()),
        "count");
  m.Add("assoc.cond_trees",
        static_cast<double>(fp.conditional_trees_built), "count");
  m.Add("assoc.fp_nodes", static_cast<double>(fp.fp_nodes_allocated),
        "count");
  m.Add("assoc.tidset_intersections",
        static_cast<double>(stats[Miner::kEclat].first.tidset_intersections),
        "count");
  m.Add("assoc.apriori_candidates", static_cast<double>(apriori_candidates),
        "count");
  m.Add("assoc.apriori_yield",
        apriori_candidates == 0
            ? 0.0
            : static_cast<double>(apriori_frequent) /
                  static_cast<double>(apriori_candidates),
        "ratio");
  m.Add("obs.trace_overhead", traced_sum / untraced_sum, "ratio");
  m.Add("proc.cpu_s", ProcessCpuSeconds() - cpu_start, "s");
  return Status::OK();
}

}  // namespace perfbench
