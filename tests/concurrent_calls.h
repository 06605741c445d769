// Concurrency differential harness shared by the parallel_diff_test
// binaries. Work counters belong to the call: when several calls of one
// algorithm family run at once in one process, each call must report
// exactly the tallies of a solo run, the metrics registry must grow by
// exactly the sum of the calls' work, and each call's top-level trace span
// must carry its own tallies as args (keyed by the registry name).
#ifndef DMT_TESTS_CONCURRENT_CALLS_H_
#define DMT_TESTS_CONCURRENT_CALLS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::testutil {

/// Work counters keyed by registry name.
using CounterMap = std::map<std::string, uint64_t>;

/// Unwraps a result the caller knows succeeded.
template <typename T>
T Ok(core::Result<T> result) {
  DMT_CHECK(result.ok());
  return std::move(result).value();
}

namespace internal {

inline CounterMap RegistryCounters() {
  CounterMap out;
  for (auto& [name, value] : obs::Registry::Global().CounterSnapshot()) {
    out.emplace(std::move(name), value);
  }
  return out;
}

/// Counters that grew between two snapshots, with their growth.
inline CounterMap Growth(const CounterMap& before, const CounterMap& after) {
  CounterMap out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const uint64_t start = it == before.end() ? 0 : it->second;
    if (value != start) out.emplace(name, value - start);
  }
  return out;
}

/// Args of every event named `span` in a Chrome trace file written by
/// TraceSink::Flush (one event per line), grouped by trace thread id.
inline std::map<uint32_t, std::vector<CounterMap>> SpanArgsByThread(
    const std::string& path, const std::string& span) {
  std::map<uint32_t, std::vector<CounterMap>> out;
  std::ifstream in(path);
  const std::string name_field = "{\"name\": \"" + span + "\",";
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(name_field) == std::string::npos) continue;
    unsigned tid = 0;
    const size_t tid_at = line.find("\"tid\": ");
    DMT_CHECK(tid_at != std::string::npos);
    DMT_CHECK(std::sscanf(line.c_str() + tid_at, "\"tid\": %u", &tid) == 1);
    CounterMap args;
    size_t at = line.find("\"args\": {");
    if (at != std::string::npos) {
      at += 9;
      while (line[at] == '"') {
        const size_t key_end = line.find('"', at + 1);
        unsigned long long value = 0;
        DMT_CHECK(std::sscanf(line.c_str() + key_end + 1, ": %llu",
                              &value) == 1);
        args.emplace(line.substr(at + 1, key_end - at - 1), value);
        at = line.find_first_of(",}", key_end);
        if (line[at] == ',') at += 2;
      }
    }
    out[tid].push_back(std::move(args));
  }
  return out;
}

}  // namespace internal

/// Runs `call` once solo, then three times concurrently, each on its own
/// thread and released together. `call` runs one algorithm invocation and
/// returns its result's work counters, keyed by the registry names the
/// algorithm publishes under; `span` names the invocation's top-level
/// trace span.
template <typename Call>
void ExpectCountersBelongToTheCall(const std::string& span, Call call) {
  constexpr size_t kCalls = 3;
  const CounterMap before_solo = internal::RegistryCounters();
  const CounterMap solo = call();
  const CounterMap solo_growth =
      internal::Growth(before_solo, internal::RegistryCounters());
  ASSERT_FALSE(solo.empty());
  ASSERT_FALSE(solo_growth.empty());

  std::string file = span;
  for (char& c : file) {
    if (c == '/') c = '_';
  }
  const std::string path =
      ::testing::TempDir() + "dmt_concurrent_" + file + ".json";
  obs::TraceSink& sink = obs::TraceSink::Global();
  sink.Clear();
  sink.Start(path);
  const CounterMap before = internal::RegistryCounters();
  std::vector<CounterMap> results(kCalls);
  std::vector<uint32_t> tids(kCalls);
  std::latch start(kCalls);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kCalls; ++i) {
    threads.emplace_back([&, i] {
      tids[i] = sink.ThreadId();
      start.arrive_and_wait();
      results[i] = call();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const CounterMap growth =
      internal::Growth(before, internal::RegistryCounters());
  sink.Stop();
  sink.Clear();

  for (size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(results[i], solo) << "concurrent call " << i
                                << " reported another call's work";
  }
  CounterMap expected_growth;
  for (const auto& [name, value] : solo_growth) {
    expected_growth.emplace(name, kCalls * value);
  }
  EXPECT_EQ(growth, expected_growth)
      << "the registry must grow by exactly " << kCalls << "x a solo call";

  const auto args = internal::SpanArgsByThread(path, span);
  for (size_t i = 0; i < kCalls; ++i) {
    auto it = args.find(tids[i]);
    ASSERT_NE(it, args.end()) << "no " << span << " span for call " << i;
    ASSERT_EQ(it->second.size(), 1u);
    for (const auto& [name, value] : results[i]) {
      auto arg = it->second[0].find(name);
      ASSERT_NE(arg, it->second[0].end()) << span << " lacks arg " << name;
      EXPECT_EQ(arg->second, value)
          << span << " arg " << name << " of call " << i
          << " differs from its result";
    }
  }
}

}  // namespace dmt::testutil

#endif  // DMT_TESTS_CONCURRENT_CALLS_H_
