#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>

#include "common/check.h"

namespace redhip {

namespace {

// The process-wide CPU ledger behind spare_cpus().
struct CpuLedger {
  std::mutex mu;
  std::size_t pool_workers = 0;  // workers of live ThreadPools
  std::size_t helpers = 0;       // SpareCpus held
};

CpuLedger& ledger() {
  static CpuLedger l;
  return l;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// Caller holds ledger().mu.
std::size_t spare_locked(const CpuLedger& l) {
  const std::size_t busy = std::max<std::size_t>(l.pool_workers, 1) + l.helpers;
  const std::size_t cpus = affinity_cpus();
  return cpus > busy ? cpus - busy : 0;
}

// 0 = std::thread::hardware_concurrency(), at least 1.
std::size_t resolve_threads(std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return threads == 0 ? 1 : threads;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  threads = resolve_threads(threads);
  {
    // Counted before any worker can start a task.
    std::lock_guard<std::mutex> lock(ledger().mu);
    ledger().pool_workers += threads;
  }
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
  std::lock_guard<std::mutex> lock(ledger().mu);
  ledger().pool_workers -= workers_.size();
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

std::size_t spare_cpus() {
  std::lock_guard<std::mutex> lock(ledger().mu);
  return spare_locked(ledger());
}

SpareCpu::SpareCpu(bool want) {
  if (!want) return;
  std::lock_guard<std::mutex> lock(ledger().mu);
  if (spare_locked(ledger()) == 0) return;
  ++ledger().helpers;
  held_ = true;
}

SpareCpu::~SpareCpu() {
  if (!held_) return;
  std::lock_guard<std::mutex> lock(ledger().mu);
  --ledger().helpers;
}

}  // namespace redhip
