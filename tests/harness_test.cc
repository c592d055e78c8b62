// Tests for src/harness: run_spec / compare, option parsing, the matrix
// runner the benches use (run_matrix, on the sweep executor), the thread
// pool, and the table printer.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <numeric>

#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/run.h"
#include "sim/sampling.h"
#include "sweep/sweep.h"

namespace redhip {
namespace {

TEST(RunSpecTest, ProducesSaneResults) {
  RunSpec spec;
  spec.bench = BenchmarkId::kSoplex;
  spec.scale = 32;
  spec.refs_per_core = 10'000;
  const SimResult r = run_spec(spec);
  EXPECT_EQ(r.total_refs, 8u * 10'000u);
  EXPECT_GT(r.exec_cycles, 0u);
  EXPECT_GT(r.energy.total_j(), 0.0);
  EXPECT_EQ(r.levels.size(), 4u);
  EXPECT_EQ(r.levels[0].accesses, r.total_refs);
}

TEST(RunSpecTest, TweakIsApplied) {
  RunSpec spec;
  spec.bench = BenchmarkId::kSoplex;
  spec.scale = 32;
  spec.refs_per_core = 5'000;
  spec.scheme = Scheme::kRedhip;
  bool tweaked = false;
  spec.tweak = [&tweaked](HierarchyConfig& c) {
    tweaked = true;
    c.redhip.recal_interval_l1_misses = 0;
  };
  const SimResult r = run_spec(spec);
  EXPECT_TRUE(tweaked);
  EXPECT_EQ(r.predictor.recalibrations, 0u);
}

TEST(CompareTest, IdenticalRunsCompareAsUnity) {
  RunSpec spec;
  spec.bench = BenchmarkId::kAstar;
  spec.scale = 32;
  spec.refs_per_core = 5'000;
  const SimResult a = run_spec(spec);
  const SimResult b = run_spec(spec);
  const Comparison c = compare(a, b);
  EXPECT_DOUBLE_EQ(c.speedup, 1.0);
  EXPECT_DOUBLE_EQ(c.dyn_energy_ratio, 1.0);
  EXPECT_DOUBLE_EQ(c.perf_energy_metric, 1.0);
}

TEST(CompareTest, MetricIsProductOfSpeedupAndEnergyGain) {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scale = 32;
  spec.refs_per_core = 20'000;
  const SimResult base = run_spec(spec);
  spec.scheme = Scheme::kRedhip;
  const SimResult x = run_spec(spec);
  const Comparison c = compare(base, x);
  EXPECT_NEAR(c.perf_energy_metric,
              c.speedup * (base.energy.total_j() / x.energy.total_j()),
              1e-12);
}

TEST(ExperimentTest, ParseReadsFlagsAndBenchFilter) {
  const char* argv[] = {"prog", "--scale", "16", "--refs", "1234",
                        "--bench", "lbm", "--csv"};
  CliOptions cli(8, const_cast<char**>(argv));
  const ExperimentOptions o = ExperimentOptions::parse(cli);
  EXPECT_EQ(o.scale, 16u);
  EXPECT_EQ(o.refs_per_core, 1234u);
  EXPECT_TRUE(o.csv);
  ASSERT_EQ(o.benches.size(), 1u);
  EXPECT_EQ(o.benches[0], BenchmarkId::kLbm);
}

TEST(ExperimentTest, ParseRejectsUnknownBench) {
  const char* argv[] = {"prog", "--bench", "nosuch"};
  CliOptions cli(3, const_cast<char**>(argv));
  EXPECT_THROW(ExperimentOptions::parse(cli), std::logic_error);
}

// Every matrix cell equals run_spec of the same RunSpec (determinism
// across the thread pool), exact and under the --sample-* plan every cell
// inherits, including a column with a config tweak.
TEST(ExperimentTest, MatrixMatchesIndividualRuns) {
  SchemeColumn quarter;
  quarter.label = "ReDHiP/4";
  quarter.scheme = Scheme::kRedhip;
  quarter.tweak = [](HierarchyConfig& c) { c.redhip.table_bits >>= 2; };
  const std::vector<SchemeColumn> cols = {
      {"Base", Scheme::kBase}, {"ReDHiP", Scheme::kRedhip}, quarter};
  SamplingPlan sampled;
  sampled.mode = SampleMode::kInterval;
  sampled.period_refs = 1'000;
  sampled.window_refs = 100;
  sampled.warmup_refs = 200;
  for (const SamplingPlan& plan : {SamplingPlan{}, sampled}) {
    ExperimentOptions o;
    o.scale = 32;
    o.refs_per_core = 2'000;
    o.benches = {BenchmarkId::kLbm, BenchmarkId::kMcf};
    o.sampling = plan;
    SweepStats stats;
    const auto m = run_matrix(o, cols, &stats);
    EXPECT_EQ(stats.cells, 6u);
    EXPECT_EQ(stats.simulated, 6u);  // no cache configured
    ASSERT_EQ(m.size(), o.benches.size());
    for (std::size_t b = 0; b < o.benches.size(); ++b) {
      ASSERT_EQ(m[b].size(), cols.size());
      for (std::size_t c = 0; c < cols.size(); ++c) {
        RunSpec spec;
        spec.bench = o.benches[b];
        spec.scheme = cols[c].scheme;
        spec.inclusion = cols[c].inclusion;
        spec.prefetch = cols[c].prefetch;
        spec.tweak = cols[c].tweak;
        spec.scale = o.scale;
        spec.refs_per_core = o.refs_per_core;
        spec.seed = o.seed;
        spec.sampling = plan;
        EXPECT_EQ(m[b][c].sampling.enabled, plan.enabled());
        EXPECT_TRUE(stats_identical(m[b][c], run_spec(spec)))
            << to_string(o.benches[b]) << "/" << cols[c].label
            << (plan.enabled() ? " sampled" : " exact");
      }
    }
  }
}

// With --cache-dir the matrix stores every cell and a second call loads
// them all; --trace-events bypasses the cache, since each cell must
// simulate to write its event trace.
TEST(ExperimentTest, MatrixUsesTheCacheUnlessTracing) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "redhip_matrix_cache";
  std::filesystem::remove_all(root);
  ExperimentOptions o;
  o.scale = 32;
  o.refs_per_core = 2'000;
  o.jobs = 2;
  o.benches = {BenchmarkId::kMcf, BenchmarkId::kLbm};
  o.cache_dir = (root / "cache").string();
  const std::vector<SchemeColumn> cols = {{"Base", Scheme::kBase},
                                          {"ReDHiP", Scheme::kRedhip}};

  SweepStats cold;
  const auto first = run_matrix(o, cols, &cold);
  EXPECT_EQ(cold.cells, 4u);
  EXPECT_EQ(cold.simulated, 4u);
  EXPECT_EQ(cold.cache_hits, 0u);
  SweepStats warm;
  const auto second = run_matrix(o, cols, &warm);
  EXPECT_EQ(warm.cache_hits, warm.cells);
  EXPECT_EQ(warm.simulated, 0u);
  for (std::size_t b = 0; b < o.benches.size(); ++b) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      EXPECT_TRUE(stats_identical(first[b][c], second[b][c]))
          << to_string(o.benches[b]) << "/" << cols[c].label;
    }
  }

  o.trace_events = (root / "trace").string();
  SweepStats traced;
  const auto third = run_matrix(o, cols, &traced);
  EXPECT_EQ(traced.simulated, traced.cells);
  EXPECT_EQ(traced.cache_hits, 0u);
  for (std::size_t b = 0; b < o.benches.size(); ++b) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      EXPECT_TRUE(std::filesystem::exists(
          std::filesystem::path(o.trace_events) /
          trace_file_name(o.benches[b], cols[c].label)))
          << to_string(o.benches[b]) << "/" << cols[c].label;
      EXPECT_EQ(third[b][c].exec_cycles, first[b][c].exec_cycles);
    }
  }
  std::filesystem::remove_all(root);
}

// The scheduling-cost estimate must weight run length and scale, not just
// the per-reference cost — a scale-1 heavyweight or a long run must sort
// ahead of a short scale-8 one (the bug this fixed: sweeps ordered on the
// per-reference cost alone, leaving scale-1 stragglers last).
TEST(ExperimentTest, RunCostOrdersByScaleAndLength) {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scheme = Scheme::kBase;
  spec.scale = 8;
  spec.refs_per_core = 100'000;

  RunSpec big_scale = spec;
  big_scale.scale = 1;
  EXPECT_GT(estimated_run_cost(big_scale), estimated_run_cost(spec));

  RunSpec long_run = spec;
  long_run.refs_per_core = 1'000'000;
  EXPECT_GT(estimated_run_cost(long_run), estimated_run_cost(spec));

  // The per-reference ordering still shows through at equal scale/length.
  RunSpec predictor = spec;
  predictor.scheme = Scheme::kRedhip;
  EXPECT_GT(estimated_run_cost(predictor), estimated_run_cost(spec));
}

// queue_wait_seconds is host-side telemetry: run_matrix fills it, and like
// host_seconds it must never participate in the bit-identity contract.
TEST(ExperimentTest, QueueWaitIsHostSideOnly) {
  ExperimentOptions opts;
  opts.scale = 8;
  opts.refs_per_core = 2'000;
  opts.jobs = 1;
  opts.benches = {BenchmarkId::kBlas};
  std::vector<SchemeColumn> columns(1);
  columns[0].label = "base";
  columns[0].scheme = Scheme::kBase;
  const auto results = run_matrix(opts, columns);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].size(), 1u);
  EXPECT_GE(results[0][0].queue_wait_seconds, 0.0);

  SimResult a = results[0][0];
  SimResult b = a;
  b.queue_wait_seconds = a.queue_wait_seconds + 123.0;
  EXPECT_TRUE(stats_identical(a, b));
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { ++count; });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      // The empty asm keeps the busy-wait from being optimized away
      // (volatile int induction is deprecated in C++20).
      for (int spin = 0; spin < 100'000; ++spin) {
        asm volatile("");
      }
      ++done;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, RunAllConvenience) {
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 10; ++i) {
    tasks.push_back([&sum, i] { sum += i; });
  }
  ThreadPool::run_all(std::move(tasks), 3);
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotTerminateAndIsRethrown) {
  // Pre-hardening this was std::terminate (exception escaping a worker
  // thread).  Now: the pool survives, keeps draining, and wait_idle
  // rethrows the first failure.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("poisoned task"); });
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  try {
    pool.wait_idle();
    FAIL() << "wait_idle must rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "poisoned task");
  }
  EXPECT_EQ(ran.load(), 20) << "queue must drain despite the failure";
  // The pool is reusable after the error has been consumed.
  pool.submit([&ran] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPoolTest, OnlyFirstErrorIsKept) {
  ThreadPool pool(1);  // single worker: deterministic failure order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ++ran; });
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1) << "shutdown drains pending work";
  EXPECT_THROW(pool.submit([] {}), std::logic_error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPoolTest, RunAllRethrowsAfterDrainingEverything) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::logic_error("bad config"); });
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&ran] { ++ran; });
  }
  EXPECT_THROW(ThreadPool::run_all(std::move(tasks), 2), std::logic_error);
  EXPECT_EQ(ran.load(), 10);
}

// The threads this process runs now (Linux: one /proc/self/task entry
// each), or 0 where that directory does not exist.
std::size_t live_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

// run_all starts min(threads, tasks) workers: asking for 8 to run 2 tasks
// must not start 6 idle threads (nor, from a --jobs typo, millions).
TEST(ThreadPoolTest, RunAllStartsNoMoreWorkersThanTasks) {
  const std::size_t before = live_threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task on this host";
  std::atomic<std::size_t> most{0};
  std::vector<std::function<void()>> tasks(2, [&most] {
    std::size_t seen = live_threads();
    std::size_t prev = most.load();
    while (seen > prev && !most.compare_exchange_weak(prev, seen)) {
    }
  });
  ThreadPool::run_all(std::move(tasks), 8);
  EXPECT_LE(most.load() - before, 2u);
}

TEST(Report, FormattersProduceExpectedStrings) {
  EXPECT_EQ(pct_delta(1.083), "+8.3%");
  EXPECT_EQ(pct_delta(0.97), "-3.0%");
  EXPECT_EQ(pct(0.612), "61.2%");
  EXPECT_EQ(fixed(1.23456, 3), "1.235");
}

TEST(Report, TableRejectsRaggedRows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
  t.add_row({"x", "y"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Report, MeanHelper) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

}  // namespace
}  // namespace redhip
