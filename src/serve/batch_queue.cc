#include "serve/batch_queue.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "core/check.h"

namespace dmt::serve {

BatchQueue::BatchQueue(Server* server) : server_(server) {
  DMT_CHECK(server_ != nullptr);
  drainer_ = std::thread([this] { DrainLoop(); });
}

BatchQueue::~BatchQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  drainer_.join();
  // The drainer exits only once the queue is empty, but batches it handed
  // to the pool may still be running; their tasks reference this object.
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return batches_in_flight_ == 0; });
}

void BatchQueue::Submit(std::vector<std::byte> frame,
                        ResponseCallback callback) {
  const double submit_ts = server_->TelemetryNowUs();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DMT_CHECK(!stopping_);
    queue_.push_back(
        Item{std::move(frame), std::move(callback), submit_ts});
  }
  work_available_.notify_one();
}

void BatchQueue::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] {
    return queue_.empty() && batches_in_flight_ == 0;
  });
}

std::vector<BatchQueue::Item> BatchQueue::TakeBatch() {
  const size_t take =
      std::min<size_t>(queue_.size(), server_->options().batch_size);
  std::vector<Item> items;
  items.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    items.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (!items.empty()) ++batches_in_flight_;
  return items;
}

void BatchQueue::DrainLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_available_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Let a batch fill: wait out the timeout window (measured from the
    // oldest pending frame, i.e. now) unless it fills first or we are
    // shutting down (then latency no longer matters, only draining).
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(server_->options().batch_timeout_us);
    while (!stopping_ &&
           queue_.size() < server_->options().batch_size &&
           work_available_.wait_until(lock, deadline) !=
               std::cv_status::timeout) {
    }
    std::vector<Item> items = TakeBatch();
    lock.unlock();
    if (!items.empty()) RunBatch(std::move(items));
  }
}

void BatchQueue::RunBatch(std::vector<Item> items) {
  // Prepare stays on the accumulator thread, in drain order; everything
  // after it is Server::Process, run as one task.
  auto batch = std::make_shared<std::vector<PreparedRequest>>();
  auto callbacks = std::make_shared<std::vector<ResponseCallback>>();
  batch->reserve(items.size());
  callbacks->reserve(items.size());
  for (Item& item : items) {
    batch->push_back(server_->Prepare(item.frame));
    server_->RecordQueueWait(&batch->back(), item.submit_ts_us);
    callbacks->push_back(std::move(item.callback));
  }

  auto process = [this, batch, callbacks] {
    server_->Process(*batch);
    for (size_t i = 0; i < batch->size(); ++i) {
      (*callbacks)[i](std::move((*batch)[i].encoded));
    }
    // Notify under the lock: once the count reaches zero the destructor
    // may wake and destroy all_done_, so the notify must finish before
    // the waiter can reacquire mutex_.
    std::lock_guard<std::mutex> lock(mutex_);
    --batches_in_flight_;
    all_done_.notify_all();
  };
  if (server_->pool() != nullptr) {
    server_->pool()->Submit(std::move(process));
  } else {
    process();
  }
}

}  // namespace dmt::serve
