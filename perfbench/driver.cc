// perfbench_driver — the native half of the end-to-end benchmark
// (perfbench/run.py is the entry point and calls this binary).
//
//   perfbench_driver gen --workload W --seed N --dir D
//       writes the seed's inputs for workload W into D
//   perfbench_driver run --workload W --seed N --dir D --seconds S
//                        --trace 0|1 [--setup-only] [--dmtd PATH]
//       runs the workload on the inputs in D for S seconds and prints
//       an info line and then one JSON result line on stdout
//
// Workloads: mine_rules, train_models, serve_mixed.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.h"
#include "core/kernels/kernels.h"

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double Now() { return ClockSeconds(CLOCK_MONOTONIC); }
double UnixNow() { return ClockSeconds(CLOCK_REALTIME); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p == 50.0) {
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

uint64_t HashBytes(const void* data, size_t size, uint64_t h) {
  if (h == 0) h = 0xcbf29ce484222325ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

dmt::core::Result<uint64_t> HashFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return dmt::core::Status::IOError("cannot open " + path);
  std::vector<char> buffer(1 << 16);
  uint64_t h = 0;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    h = HashBytes(buffer.data(), static_cast<size_t>(in.gcount()), h);
  }
  return h;
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.emplace_back(name, std::make_pair(value, unit));
}

void RunResult::Mismatch(const std::string& what) {
  if (correct) error = what;
  correct = false;
}

void PrintResult(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", result.first_op_unix);
  json += ", \"first_op_unix\": ";
  json += buffer;
  json += ", \"error\": \"";
  for (char c : result.error) {
    if (c == '"' || c == '\\') json += '\\';
    json += (c == '\n' ? ' ' : c);
  }
  json += "\", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : result.metrics.entries()) {
    if (!first) json += ", ";
    first = false;
    const double value = std::isfinite(entry.first) ? entry.first : -1.0;
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    json += "\"" + name + "\": {\"value\": " + buffer + ", \"unit\": \"" +
            entry.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver gen --workload W --seed N --dir D\n"
               "       perfbench_driver run --workload W --seed N --dir D "
               "--seconds S --trace 0|1 [--setup-only] [--dmtd PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::RunConfig config;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--dir" && has_value) {
      config.dir = argv[++i];
    } else if (arg == "--dmtd" && has_value) {
      config.dmtd = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--setup-only") {
      config.setup_only = true;
    } else {
      return Usage();
    }
  }
  if (config.workload.empty() || config.dir.empty()) return Usage();

  dmt::core::Status status;
  if (mode == "gen") {
    status = perfbench::Generate(config.workload, config.seed, config.dir);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench_driver: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run") return Usage();

  // Recorded with every run: the kernel table in use and the core count.
  std::printf("{\"info\": {\"nproc\": %ld, \"kernel_level\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d}}\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              dmt::core::kernels::KernelLevelName(
                  dmt::core::kernels::ActiveLevel()),
              config.workload.c_str(), config.seed, config.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunResult result;
  if (config.workload == "mine_rules") {
    status = perfbench::RunMineRules(config, &result);
  } else if (config.workload == "train_models") {
    status = perfbench::RunTrainModels(config, &result);
  } else if (config.workload == "serve_mixed") {
    status = perfbench::RunServeMixed(config, &result);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_driver: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!result.correct) {
    std::fprintf(stderr, "perfbench_driver: output check failed: %s\n",
                 result.error.c_str());
  }
  perfbench::PrintResult(result);
  return 0;
}
