// Shared opt-in parallel execution context. Every parallel algorithm in the
// library follows one convention: its options struct carries a
// `num_threads` field where 0 (or 1) means "run serially on the calling
// thread" and n >= 2 means "run the hot loops on an n-worker ThreadPool".
// ParallelContext owns the pool behind that knob so each algorithm opts in
// with one line.
//
// Determinism contract: parallel and serial runs of the same algorithm must
// produce bit-identical results. Chunk boundaries depend only on the range
// size and worker count, never on scheduling; per-chunk buffers are merged
// in ascending chunk order after the pool's Wait() barrier; floating-point
// reductions stay on the serial thread in index order.
#ifndef DMT_CORE_PARALLEL_H_
#define DMT_CORE_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/thread_pool.h"

namespace dmt::core {

/// Owns pool creation for algorithms with a `num_threads` knob. Construct
/// one per algorithm invocation; a serial context (num_threads <= 1) never
/// spawns threads, so the serial path keeps its exact pre-parallel
/// behavior.
class ParallelContext {
 public:
  explicit ParallelContext(size_t num_threads) {
    if (num_threads > 1) pool_ = std::make_unique<ThreadPool>(num_threads);
  }

  /// True when a pool exists (num_threads >= 2).
  bool parallel() const { return pool_ != nullptr; }

  /// The pool, or nullptr in serial mode. For callers that hand the pool
  /// single tasks of their own (the serving BatchQueue); range work goes
  /// through ForEachChunk.
  ThreadPool* pool() const { return pool_.get(); }

  /// Number of chunks ForEachChunk splits a range of size n into: 0 for an
  /// empty range, 1 in serial mode, otherwise at most twice the worker
  /// count (which bounds the memory spent on per-chunk merge buffers).
  size_t NumChunks(size_t n) const;

  /// Runs body(chunk, chunk_begin, chunk_end) over a fixed partition of
  /// [0, n) into NumChunks(n) contiguous chunks and blocks until every
  /// chunk finished. Chunk bodies may run concurrently and must only write
  /// chunk-owned state.
  void ForEachChunk(
      size_t n,
      const std::function<void(size_t, size_t, size_t)>& body) const;

 private:
  std::unique_ptr<ThreadPool> pool_;
};

/// Accumulates per-chunk support counters into `totals` in ascending chunk
/// order (the fixed merge order of the determinism contract). Every partial
/// must have totals.size() entries.
void MergeCounts(const std::vector<std::vector<uint32_t>>& partials,
                 std::span<uint32_t> totals);

/// Partitioned counting: runs count_range(begin, end, buffer) over chunks
/// of [0, n), giving each chunk a private zero-initialized buffer of
/// counts.size() entries, then merges the buffers into `counts` in chunk
/// order. The serial context counts straight into `counts` with no copies,
/// preserving the single-threaded code path exactly.
void CountPartitioned(
    const ParallelContext& ctx, size_t n, std::span<uint32_t> counts,
    const std::function<void(size_t, size_t, std::span<uint32_t>)>&
        count_range);

}  // namespace dmt::core

#endif  // DMT_CORE_PARALLEL_H_
