// A small work-queue thread pool used by the experiment harness to run
// independent simulations concurrently (each simulation is single-threaded
// and deterministic; parallelism across runs never changes results).
//
// Error discipline: a task that throws no longer takes the process down
// (an exception escaping a std::thread is std::terminate).  The pool
// captures the first exception, keeps draining the remaining tasks, and
// rethrows it from wait_idle()/run_all() — so a 100-run matrix with one
// poisoned configuration still finishes the other 99 before reporting.
//
// Live pools also feed the process's spare-CPU count (spare_cpus below),
// which decides whether a simulation may start a helper thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace redhip {

class ThreadPool {
 public:
  // 0 = std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Throws std::logic_error if the pool is shutting down.
  void submit(std::function<void()> task);
  // Block until every submitted task has finished, then rethrow the first
  // task exception (if any) — the queue is fully drained either way.
  void wait_idle();
  // Drain the queue and join every worker.  Idempotent; called by the
  // destructor.  After shutdown, submit() throws.
  void shutdown();

  std::size_t size() const { return workers_.size(); }

  // Convenience: run `tasks` to completion on a fresh pool of
  // min(threads, tasks.size()) workers (`threads` 0 = hardware
  // concurrency).  Rethrows the first task failure after all tasks have
  // run.
  static void run_all(std::vector<std::function<void()>> tasks,
                      std::size_t threads = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::exception_ptr first_error_;  // guarded by mu_
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

// CPUs this process may still give a helper thread: the CPUs it may run on
// (sched_getaffinity), minus the workers of every live ThreadPool (at least
// 1: the calling thread), minus the helpers holding a SpareCpu.  A pool
// counts from construction until its shutdown(), so a sweep on as many
// workers as CPUs leaves none spare.
std::size_t spare_cpus();

// One spare CPU held for a helper thread, from construction to destruction.
// Taking it and counting the spare CPUs is one atomic step, so two runs
// cannot both take the last one.
class SpareCpu {
 public:
  // `want` false takes nothing (held() is then false).
  explicit SpareCpu(bool want);
  ~SpareCpu();
  SpareCpu(const SpareCpu&) = delete;
  SpareCpu& operator=(const SpareCpu&) = delete;

  bool held() const { return held_; }

 private:
  bool held_ = false;
};

}  // namespace redhip
