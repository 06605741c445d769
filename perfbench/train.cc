// train_models: k-means (Lloyd) on a 200K-point 2-D BIRCH grid with
// k = 100, and CART on Agrawal F2 with 100K rows, both at 4 threads, each
// from a Dataset container to a model container, alternating until the
// time is up.
//
// Set-up builds both models once at 1 thread and writes them as the
// reference containers. Output checks (untimed): every 4-thread container
// is byte-identical to the 1-thread reference (the determinism contract),
// the first of each kind survives a reload, and the work counters repeat
// exactly.
#include <sys/stat.h>

#include <cstring>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "common.h"
#include "core/dataset.h"
#include "io/serialize.h"
#include "tree/builder.h"
#include "workloads.h"

namespace perfbench {

using dmt::core::Result;
using dmt::core::Status;

namespace {

dmt::cluster::KMeansOptions KMeansOptionsFor(uint64_t seed, size_t threads) {
  dmt::cluster::KMeansOptions options;
  options.k = kKMeansClusters;
  options.assignment = dmt::cluster::KMeansOptions::Assignment::kLloyd;
  options.max_iterations = kKMeansIterations;
  options.tolerance = 0.0;
  options.seed = SubSeed(seed, 11);
  options.num_threads = threads;
  return options;
}

dmt::tree::TreeOptions CartOptions(size_t threads) {
  // The BuildCart preset, spelled out so BuildTree can report its
  // split-search counter.
  dmt::tree::TreeOptions options;
  options.criterion = dmt::tree::SplitCriterion::kGini;
  options.categorical_style = dmt::tree::CategoricalSplitStyle::kBinary;
  options.allow_numeric_splits = true;
  options.num_threads = threads;
  return options;
}

/// Phase times of one container -> model job.
struct Job {
  double total_s = 0, load_s = 0, fit_s = 0, write_s = 0, cpu_util = 0;
  /// Process CPU seconds over the whole job (all threads).
  double cpu_s = 0;
};

Status KMeansJob(const std::string& in, const std::string& out,
                 const dmt::cluster::KMeansOptions& options, bool traced,
                 Job* job, dmt::cluster::ClusteringResult* model) {
  const double t0 = Now();
  const double job_cpu0 = ProcessCpuSeconds();
  DMT_ASSIGN_OR_RETURN(dmt::core::Dataset data, dmt::io::LoadDataset(in));
  DMT_ASSIGN_OR_RETURN(dmt::core::PointSet points, data.ToPointSet(false));
  const double t1 = Now();
  const double cpu0 = traced ? ProcessCpuSeconds() : 0.0;
  DMT_ASSIGN_OR_RETURN(*model, dmt::cluster::KMeans(points, options));
  const double cpu1 = traced ? ProcessCpuSeconds() : 0.0;
  const double t2 = Now();
  DMT_RETURN_NOT_OK(dmt::io::WriteKMeansModel(*model, out));
  const double t3 = Now();
  *job = Job{t3 - t0, t1 - t0, t2 - t1, t3 - t2,
             traced ? (cpu1 - cpu0) / ((t2 - t1) *
                                       static_cast<double>(options.num_threads))
                    : 0.0,
             ProcessCpuSeconds() - job_cpu0};
  return Status::OK();
}

Status CartJob(const std::string& in, const std::string& out,
               const dmt::tree::TreeOptions& options, bool traced, Job* job,
               dmt::tree::DecisionTree* tree,
               dmt::tree::TreeBuildStats* stats) {
  const double t0 = Now();
  const double job_cpu0 = ProcessCpuSeconds();
  DMT_ASSIGN_OR_RETURN(dmt::core::Dataset data, dmt::io::LoadDataset(in));
  const double t1 = Now();
  const double cpu0 = traced ? ProcessCpuSeconds() : 0.0;
  *stats = {};
  DMT_ASSIGN_OR_RETURN(*tree, dmt::tree::BuildTree(data, options, stats));
  const double cpu1 = traced ? ProcessCpuSeconds() : 0.0;
  const double t2 = Now();
  DMT_RETURN_NOT_OK(dmt::io::WriteDecisionTree(*tree, out));
  const double t3 = Now();
  *job = Job{t3 - t0, t1 - t0, t2 - t1, t3 - t2,
             traced ? (cpu1 - cpu0) / ((t2 - t1) *
                                       static_cast<double>(options.num_threads))
                    : 0.0,
             ProcessCpuSeconds() - job_cpu0};
  return Status::OK();
}

bool SameModel(const dmt::cluster::ClusteringResult& a,
               const dmt::cluster::ClusteringResult& b) {
  return a.assignments == b.assignments && a.centers.dim() == b.centers.dim() &&
         a.centers.data() == b.centers.data() &&
         std::memcmp(&a.sse, &b.sse, sizeof(double)) == 0 &&
         a.iterations == b.iterations;
}

/// Timings of one job kind, split by traced / untraced rounds.
struct KindStats {
  std::vector<double> untraced_total, untraced_cpu, traced_total, load_s,
      fit_s, write_s, cpu_util;
  void Add(const Job& job, bool traced) {
    if (!traced) {
      untraced_total.push_back(job.total_s);
      untraced_cpu.push_back(job.cpu_s);
      return;
    }
    traced_total.push_back(job.total_s);
    load_s.push_back(job.load_s);
    fit_s.push_back(job.fit_s);
    write_s.push_back(job.write_s);
    cpu_util.push_back(job.cpu_util);
  }
};

}  // namespace

Status RunTrainModels(const RunConfig& config, RunResult* result) {
  const std::string grid = config.dir + "/" + kGridFile;
  const std::string agrawal = config.dir + "/" + kAgrawalFile;
  const std::string out_dir = config.dir + "/out";
  ::mkdir(out_dir.c_str(), 0755);
  const std::string kmeans_out = out_dir + "/kmeans.dmt";
  const std::string tree_out = out_dir + "/tree.dmt";

  // ---- set-up: the 1-thread reference models ----
  const dmt::cluster::KMeansOptions kmeans_options =
      KMeansOptionsFor(config.seed, kJobThreads);
  const dmt::tree::TreeOptions cart_options = CartOptions(kJobThreads);
  Job job;
  dmt::cluster::ClusteringResult ref_model;
  DMT_RETURN_NOT_OK(KMeansJob(grid, out_dir + "/ref_kmeans.dmt",
                              KMeansOptionsFor(config.seed, 1), false, &job,
                              &ref_model));
  dmt::tree::DecisionTree ref_tree;
  dmt::tree::TreeBuildStats ref_stats;
  DMT_RETURN_NOT_OK(CartJob(agrawal, out_dir + "/ref_tree.dmt",
                            CartOptions(1), false, &job, &ref_tree,
                            &ref_stats));
  DMT_ASSIGN_OR_RETURN(uint64_t ref_kmeans_hash,
                       HashFile(out_dir + "/ref_kmeans.dmt"));
  DMT_ASSIGN_OR_RETURN(uint64_t ref_tree_hash,
                       HashFile(out_dir + "/ref_tree.dmt"));
  result->first_op_unix = UnixNow();
  if (config.setup_only) return Status::OK();

  const double cpu_start = ProcessCpuSeconds();
  KindStats kmeans_stats, cart_stats;
  bool kmeans_reloaded = false, tree_reloaded = false;
  const double deadline = Now() + config.seconds;
  const size_t min_rounds = config.trace ? 2 : 1;
  for (size_t round = 0; round < min_rounds || Now() < deadline; ++round) {
    const bool traced = config.trace && round % 2 == 0;

    // k-means job.
    ++result->attempted;
    dmt::cluster::ClusteringResult model;
    Status status =
        KMeansJob(grid, kmeans_out, kmeans_options, traced, &job, &model);
    bool ok = status.ok();
    if (!ok) result->Mismatch("k-means: " + status.ToString());
    if (ok) {
      DMT_ASSIGN_OR_RETURN(uint64_t hash, HashFile(kmeans_out));
      if (hash != ref_kmeans_hash ||
          model.distance_computations != ref_model.distance_computations) {
        ok = false;
        result->Mismatch("k-means: 4-thread model differs from the 1-thread "
                         "reference");
      }
      if (ok && !kmeans_reloaded) {
        kmeans_reloaded = true;
        Result<dmt::cluster::ClusteringResult> reloaded =
            dmt::io::LoadKMeansModel(kmeans_out);
        if (!reloaded.ok() || !SameModel(reloaded.value(), model)) {
          ok = false;
          result->Mismatch("k-means: model does not survive a reload");
        }
      }
    }
    if (ok) {
      kmeans_stats.Add(job, traced);
    } else {
      ++result->failed;
    }

    // CART job.
    ++result->attempted;
    dmt::tree::DecisionTree tree;
    dmt::tree::TreeBuildStats stats;
    status = CartJob(agrawal, tree_out, cart_options, traced, &job, &tree,
                     &stats);
    ok = status.ok();
    if (!ok) result->Mismatch("CART: " + status.ToString());
    if (ok) {
      DMT_ASSIGN_OR_RETURN(uint64_t hash, HashFile(tree_out));
      if (hash != ref_tree_hash ||
          stats.split_scan_rows != ref_stats.split_scan_rows) {
        ok = false;
        result->Mismatch("CART: 4-thread tree differs from the 1-thread "
                         "reference");
      }
      if (ok && !tree_reloaded) {
        tree_reloaded = true;
        Result<dmt::tree::DecisionTree> reloaded =
            dmt::io::LoadDecisionTree(tree_out);
        if (!reloaded.ok() || reloaded.value().ToText() != tree.ToText()) {
          ok = false;
          result->Mismatch("CART: tree does not survive a reload");
        }
      }
    }
    if (ok) {
      cart_stats.Add(job, traced);
    } else {
      ++result->failed;
    }
  }

  MetricSink& m = result->metrics;
  if (kmeans_stats.untraced_total.empty() ||
      cart_stats.untraced_total.empty()) {
    return Status::Internal("a job kind never succeeded");
  }
  if (!config.trace) {
    const double kmeans_s = Median(kmeans_stats.untraced_total);
    const double cart_s = Median(cart_stats.untraced_total);
    double job_seconds = 0;
    for (double t : kmeans_stats.untraced_total) job_seconds += t;
    for (double t : cart_stats.untraced_total) job_seconds += t;
    const size_t jobs = kmeans_stats.untraced_total.size() +
                        cart_stats.untraced_total.size();
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("ok_ratio",
          static_cast<double>(result->attempted - result->failed) /
              static_cast<double>(result->attempted),
          "ratio");
    m.Add("op_ms", GeoMean({kmeans_s * 1e3, cart_s * 1e3}), "ms");
    m.Add("cpu_ms_per_op",
          GeoMean({Median(kmeans_stats.untraced_cpu) * 1e3,
                   Median(cart_stats.untraced_cpu) * 1e3}),
          "ms");
    m.Add("throughput_per_s", static_cast<double>(jobs) / job_seconds, "1/s");
    return Status::OK();
  }

  if (kmeans_stats.traced_total.empty() || cart_stats.traced_total.empty()) {
    return Status::Internal("traced run too short for both job kinds");
  }
  std::vector<double> load_s = kmeans_stats.load_s;
  load_s.insert(load_s.end(), cart_stats.load_s.begin(),
                cart_stats.load_s.end());
  std::vector<double> write_s = kmeans_stats.write_s;
  write_s.insert(write_s.end(), cart_stats.write_s.begin(),
                 cart_stats.write_s.end());
  m.Add("job.kmeans_s", Median(kmeans_stats.untraced_total), "s");
  m.Add("job.cart_s", Median(cart_stats.untraced_total), "s");
  m.Add("io.load_dataset_ms", Median(load_s) * 1e3, "ms");
  m.Add("io.write_model_ms", Median(write_s) * 1e3, "ms");
  m.Add("cluster.kmeans_ms", Median(kmeans_stats.fit_s) * 1e3, "ms");
  m.Add("cluster.kmeans_cpu_util", Median(kmeans_stats.cpu_util), "ratio");
  m.Add("cluster.distance_computations",
        static_cast<double>(ref_model.distance_computations), "count");
  m.Add("cluster.iterations", static_cast<double>(ref_model.iterations),
        "count");
  m.Add("tree.cart_ms", Median(cart_stats.fit_s) * 1e3, "ms");
  m.Add("tree.cart_cpu_util", Median(cart_stats.cpu_util), "ratio");
  m.Add("tree.split_scan_rows", static_cast<double>(ref_stats.split_scan_rows),
        "count");
  m.Add("tree.nodes", static_cast<double>(ref_tree.num_nodes()), "count");
  m.Add("obs.trace_overhead",
        (Median(kmeans_stats.traced_total) + Median(cart_stats.traced_total)) /
            (Median(kmeans_stats.untraced_total) +
             Median(cart_stats.untraced_total)),
        "ratio");
  m.Add("proc.cpu_s", ProcessCpuSeconds() - cpu_start, "s");
  return Status::OK();
}

}  // namespace perfbench
