// Shared plumbing of the end-to-end benchmark driver: clocks, process
// resource readings, order statistics, file hashing, and the metric sink
// that becomes the driver's JSON result line.
#ifndef DMT_PERFBENCH_COMMON_H_
#define DMT_PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace perfbench {

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  /// Directory holding the generated inputs; outputs go to <dir>/out.
  std::string dir;
  /// dmtd binary (serve_mixed only).
  std::string dmtd;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop right before the first timed operation: the set-up probes of
  /// mine_rules and train_models (serve_mixed times its own set-up).
  bool setup_only = false;
};

/// Worker threads used by every timed job (the issue's fixed setting).
inline constexpr size_t kJobThreads = 4;

/// Monotonic seconds.
double Now();
/// Wall-clock seconds since the epoch (comparable across processes).
double UnixNow();
/// CPU seconds (user + system) consumed by this process so far.
double ProcessCpuSeconds();
/// Peak resident set of this process in MiB.
double PeakRssMb();

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100]. 0 for an empty vector.
double Percentile(std::vector<double> values, double p);
/// Geometric mean of positive values.
double GeoMean(const std::vector<double>& values);

/// 64-bit FNV-1a over a byte range / a whole file.
uint64_t HashBytes(const void* data, size_t size, uint64_t h = 0);
dmt::core::Result<uint64_t> HashFile(const std::string& path);

/// Ordered name -> (value, unit) list printed as the result's "metrics".
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Outcome of one workload run.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// UnixNow() at the first timed operation (0 when the workload
  /// measures its own set-up, as serve_mixed does).
  double first_op_unix = 0.0;
  MetricSink metrics;
  /// First output-check failure, for the log.
  std::string error;

  /// Records a failed output check (keeps the first message).
  void Mismatch(const std::string& what);
};

/// Prints `result` as one JSON line on stdout.
void PrintResult(const RunResult& result);

/// Input generation (outside the measured process).
dmt::core::Status Generate(const std::string& workload, uint64_t seed,
                           const std::string& dir);

dmt::core::Status RunMineRules(const RunConfig& config, RunResult* result);
dmt::core::Status RunTrainModels(const RunConfig& config, RunResult* result);
dmt::core::Status RunServeMixed(const RunConfig& config, RunResult* result);

}  // namespace perfbench

#endif  // DMT_PERFBENCH_COMMON_H_
