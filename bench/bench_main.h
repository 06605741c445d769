// Shared entry point for every bench binary: BenchMain parses the
// harness's own flags (--json, --no-table) before google-benchmark sees
// argv and tees every run into a machine-readable JSON record so future
// PRs have a perf trajectory to regress against.
#ifndef DMT_BENCH_BENCH_MAIN_H_
#define DMT_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::bench {

namespace internal {

/// One benchmark run captured for the JSON record.
struct JsonRun {
  std::string name;
  double real_time = 0.0;
  std::string time_unit;
  std::vector<std::pair<std::string, double>> counters;
};

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Console reporter that additionally tees every finished run (name,
/// adjusted real time, user counters) into a list for the JSON record.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    benchmark::ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      JsonRun record;
      record.name = run.benchmark_name();
      record.real_time = run.GetAdjustedRealTime();
      record.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      for (const auto& [key, counter] : run.counters) {
        record.counters.emplace_back(key, counter.value);
      }
      runs_.push_back(std::move(record));
    }
  }

  const std::vector<JsonRun>& runs() const { return runs_; }

 private:
  std::vector<JsonRun> runs_;
};

inline void WriteJsonRecord(const std::string& path,
                            const std::string& bench_name,
                            const std::vector<JsonRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  DMT_CHECK(f != nullptr);
  // The pinned kernel dispatch level makes records from different hosts
  // (or DMT_KERNEL_LEVEL overrides) comparable: a perf delta with a
  // level delta is dispatch, not regression.
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"kernel_level\": \"%s\",\n"
               "  \"runs\": [",
               JsonEscape(bench_name).c_str(),
               core::kernels::KernelLevelName(core::kernels::ActiveLevel()));
  for (size_t i = 0; i < runs.size(); ++i) {
    const JsonRun& run = runs[i];
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"real_time\": %.17g, "
                 "\"time_unit\": \"%s\", \"counters\": {",
                 i == 0 ? "" : ",", JsonEscape(run.name).c_str(),
                 run.real_time, JsonEscape(run.time_unit).c_str());
    for (size_t c = 0; c < run.counters.size(); ++c) {
      std::fprintf(f, "%s\"%s\": %.17g", c == 0 ? "" : ", ",
                   JsonEscape(run.counters[c].first).c_str(),
                   run.counters[c].second);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n  ],");
  // Span tree collected over the whole binary run: hierarchical phase
  // names with call counts and wall/CPU totals, plus the final metrics
  // registry — the instrumentation layer's view of the same runs.
  std::fprintf(f, "\n  \"spans\": [");
  const std::vector<obs::SpanAggregate> spans =
      obs::TraceSink::Global().Aggregates();
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"count\": %llu, "
                 "\"wall_ms\": %.6f, \"cpu_ms\": %.6f}",
                 i == 0 ? "" : ",", JsonEscape(spans[i].name).c_str(),
                 static_cast<unsigned long long>(spans[i].count),
                 spans[i].wall_ms, spans[i].cpu_ms);
  }
  std::fprintf(f, "\n  ],\n  \"registry\": {");
  const auto counters = obs::Registry::Global().CounterSnapshot();
  for (size_t i = 0; i < counters.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %llu", i == 0 ? "" : ",",
                 JsonEscape(counters[i].first).c_str(),
                 static_cast<unsigned long long>(counters[i].second));
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
}

}  // namespace internal

/// Shared entry point for every bench binary. Strips the harness's own
/// flags before google-benchmark parses argv, optionally prints the
/// bench's printf table, runs the registered benchmarks, and finally
/// writes the JSON record if requested. Flags:
///   --json <path>  write a machine-readable record of every run (name,
///                  wall time, user counters such as threads and
///                  dist_comps) to <path>; tools/check.sh diffs these
///                  against bench/baselines/ with tools/bench_compare.
///   --no-table     skip the prologue table (used by bench smoke runs).
inline int BenchMain(const char* bench_name, int argc, char** argv,
                     const std::function<void()>& prologue = nullptr) {
  std::vector<char*> args;
  std::string json_path;
  bool no_table = false;
  for (int i = 0; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--no-table") {
      no_table = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);
  int filtered_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (prologue && !no_table) prologue();
  if (!json_path.empty()) {
    // Collect spans in memory so the record can embed the span tree; no
    // trace file is written unless DMT_TRACE asked for one.
    obs::TraceSink::Global().StartCollection();
  }
  internal::JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) {
    internal::WriteJsonRecord(json_path, bench_name, reporter.runs());
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace dmt::bench

#endif  // DMT_BENCH_BENCH_MAIN_H_
