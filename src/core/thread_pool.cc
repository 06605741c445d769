#include "core/thread_pool.h"

#include <algorithm>

#include "core/check.h"

namespace dmt::core {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  DMT_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Submitting to a shutting-down pool would either lose the task or
    // race the worker joins; fail loudly instead (see header contract).
    DMT_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock,
                 [this] { return queue_.empty() && active_tasks_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace dmt::core
