#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace redhip {

namespace {

// 0 = std::thread::hardware_concurrency(), at least 1.
std::size_t resolve_threads(std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return threads == 0 ? 1 : threads;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  threads = resolve_threads(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // A captured error that was never collected via wait_idle() dies here;
  // destructors cannot rethrow.
  shutdown();
}

void ThreadPool::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    REDHIP_CHECK_MSG(!stop_, "ThreadPool::submit after shutdown");
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      // Letting this escape the thread would std::terminate the process;
      // capture the first failure and keep draining the queue.
      err = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks,
                         std::size_t threads) {
  if (tasks.empty()) return;
  // A worker beyond the task count would only start and exit.
  ThreadPool pool(std::min(resolve_threads(threads), tasks.size()));
  for (auto& t : tasks) pool.submit(std::move(t));
  pool.wait_idle();
}

}  // namespace redhip
