// Micro-batching request queue — the latency/throughput trade at the
// heart of the daemon. Submit() enqueues a raw request frame plus a
// completion callback; a single accumulator thread drains up to
// batch_size pending frames (or whatever arrived within batch_timeout_us
// of the oldest pending frame), prepares them in drain order, and hands
// the batch to the server's pool as ONE task running Server::Process —
// the orchestration HandleFrames runs — then the callbacks (inline when
// the server is serial). The only difference from HandleFrames is the
// unit handed over: one drained batch, which Process evaluates inline.
// Parallelism comes from concurrent batches in flight, never from
// splitting a batch, so batching cannot change any response.
//
// Concurrent batches look up and insert into the cache in whatever order
// their tasks run, so hit/miss counters here depend on arrival timing —
// by design; the deterministic counter contract belongs to HandleFrames.
#ifndef DMT_SERVE_BATCH_QUEUE_H_
#define DMT_SERVE_BATCH_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/server.h"

namespace dmt::serve {

/// Asynchronous front door to a Server. Thread-safe Submit from any
/// number of connection threads. Must be destroyed before the Server it
/// wraps; the destructor drains every pending request first.
class BatchQueue {
 public:
  /// Called with the encoded response frame when the request completes.
  /// Runs on a pool worker (or the accumulator thread when the server is
  /// serial); implementations must be thread-safe and must not block for
  /// long — they hold a batch slot.
  using ResponseCallback = std::function<void(std::vector<std::byte>)>;

  explicit BatchQueue(Server* server);
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Enqueues one request frame. The callback fires exactly once, even
  /// for malformed frames (they complete with an error response).
  void Submit(std::vector<std::byte> frame, ResponseCallback callback);

  /// Blocks until every request submitted before this call has had its
  /// callback invoked.
  void Flush();

 private:
  struct Item {
    std::vector<std::byte> frame;
    ResponseCallback callback;
    /// Telemetry stamp taken at Submit(); 0 when telemetry is off. The
    /// drain credits submit -> prepare to the queue-wait histogram.
    double submit_ts_us = 0.0;
  };

  void DrainLoop();
  /// Pops up to batch_size items and counts the batch in flight; the
  /// caller holds mutex_.
  std::vector<Item> TakeBatch();
  void RunBatch(std::vector<Item> items);

  Server* server_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<Item> queue_;
  size_t batches_in_flight_ = 0;
  bool stopping_ = false;
  std::thread drainer_;
};

}  // namespace dmt::serve

#endif  // DMT_SERVE_BATCH_QUEUE_H_
