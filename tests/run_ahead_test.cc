// Run-ahead trace generation (MulticoreSimulator's helper thread) must be
// invisible: every spec below runs twice, once with the helper and once
// inside a ThreadPool that takes every CPU (so the spare-CPU gate keeps the
// helper off), and the two runs must agree on the statistics, on every
// checkpoint file written and on the JSONL event trace.  Checkpoints taken
// in one mode restore in the other.  The spare-CPU count that gates the
// helper has its own test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_io.h"
#include "common/thread_pool.h"
#include "harness/run.h"
#include "sim/config_digest.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "trace/kernels.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t key_of(const RunSpec& spec) {
  return ckpt_key(to_string(spec.bench), spec.scale, spec.seed,
                  config_digest(resolved_config(spec)) ^
                      sampling_digest(spec.sampling));
}

// Mutates the control block between polls, from the save callback.
using SaveHook = std::function<void(CkptControl&)>;

struct Case {
  std::string name;
  RunSpec spec;
  std::uint64_t save_at = 0;
  std::uint64_t interval = 0;
  bool save_windows = false;
  SaveHook after_save;
  // Restore this checkpoint before running (empty: cold start).
  fs::path restore_from;
};

struct Outcome {
  SimResult result;
  std::string error;  // what() of the exception run() threw, if any
  std::vector<std::string> ckpts;  // every checkpoint written, in order
  std::string jsonl;
  std::string final_state;  // ckpt_serialize after run() returned or threw
  std::uint64_t ahead_batches = 0;
};

class RunAheadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (spare_cpus() == 0) {
      GTEST_SKIP() << "one CPU: the run-ahead helper never starts here";
    }
    dir_ = fs::temp_directory_path() /
           ("redhip_run_ahead_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  RunSpec traced(BenchmarkId bench, std::uint64_t refs_per_core) {
    RunSpec spec;
    spec.bench = bench;
    spec.scheme = Scheme::kRedhip;
    spec.scale = 8;
    spec.refs_per_core = refs_per_core;
    spec.seed = 4242;
    return spec;
  }

  // One run of `k` on the calling thread, files under `tag`.
  Outcome run_here(const Case& k, const std::string& tag) {
    Outcome out;
    const fs::path trace = dir_ / (tag + ".jsonl");
    RunSpec spec = k.spec;
    const auto tweak = spec.tweak;
    spec.tweak = [trace, tweak](HierarchyConfig& hc) {
      if (tweak) tweak(hc);
      hc.obs.enabled = true;
      hc.obs.epoch_refs = 10'000;
      hc.obs.trace_path = trace.string();
    };
    const HierarchyConfig config = resolved_config(spec);
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::uint32_t> cpis;
    for (CoreId c = 0; c < config.cores; ++c) {
      traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
      cpis.push_back(workload_cpi_centi(spec.bench, c));
    }
    auto sim = std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                                    std::move(cpis));
    sim->set_sampling(spec.sampling);

    const std::uint64_t key = key_of(k.spec);
    std::vector<fs::path> written;
    std::atomic<bool> stop{false};
    CkptControl ctl;
    ctl.save_at_refs = k.save_at;
    ctl.interval_refs = k.interval;
    ctl.stop_flag = &stop;
    ctl.save = [&](MulticoreSimulator& s) {
      const fs::path p =
          dir_ / (tag + "_" + std::to_string(written.size()) + ".ckpt");
      ASSERT_TRUE(save_checkpoint(s, p.string(), key).ok());
      written.push_back(p);
      if (k.after_save) k.after_save(ctl);
    };
    if (k.save_windows) {
      ctl.save_window = [&](MulticoreSimulator& s, std::uint64_t w) {
        const fs::path p = dir_ / (tag + "_w" + std::to_string(w) + ".ckpt");
        ASSERT_TRUE(save_checkpoint(s, p.string(), key).ok());
        written.push_back(p);
      };
    }
    sim->set_ckpt_control(&ctl);
    if (!k.restore_from.empty()) {
      const Status st = load_checkpoint(k.restore_from.string(), key, *sim);
      EXPECT_TRUE(st.ok()) << st.to_string();
    }
    try {
      out.result = sim->run(spec.refs_per_core);
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    ByteWriter w;
    sim->ckpt_serialize(w);
    out.final_state.assign(w.buffer().begin(), w.buffer().end());
    out.ahead_batches = sim->ahead_batches_for_test();
    sim.reset();  // closes the event trace
    for (const fs::path& p : written) out.ckpts.push_back(slurp(p));
    out.jsonl = slurp(trace);
    return out;
  }

  // The same run inside a pool that takes every CPU: no spare CPU, so no
  // helper.
  Outcome run_without_helper(const Case& k, const std::string& tag) {
    Outcome out;
    ThreadPool pool(spare_cpus() + 1);
    EXPECT_EQ(spare_cpus(), 0u);
    pool.submit([&] { out = run_here(k, tag); });
    pool.wait_idle();
    return out;
  }

  // Runs `k` in both modes and checks they agree.  Returns the helper run.
  Outcome expect_same_both_ways(const Case& k) {
    const Outcome with = run_here(k, k.name + "_with");
    const Outcome without = run_without_helper(k, k.name + "_without");
    EXPECT_GT(with.ahead_batches, 0u) << k.name << ": the helper never ran";
    EXPECT_EQ(without.ahead_batches, 0u) << k.name;
    expect_same(with, without, k.name);
    return with;
  }

  static void expect_same(const Outcome& a, const Outcome& b,
                          const std::string& what) {
    EXPECT_EQ(a.error, b.error) << what;
    EXPECT_TRUE(stats_identical(a.result, b.result)) << what;
    ASSERT_EQ(a.ckpts.size(), b.ckpts.size()) << what;
    for (std::size_t i = 0; i < a.ckpts.size(); ++i) {
      EXPECT_TRUE(a.ckpts[i] == b.ckpts[i]) << what << ": checkpoint " << i;
    }
    EXPECT_TRUE(a.jsonl == b.jsonl) << what << ": event traces differ";
    EXPECT_TRUE(a.final_state == b.final_state) << what << ": final state";
  }

  fs::path dir_;
};

TEST_F(RunAheadTest, ExactRunIsIdentical) {
  Case k;
  k.name = "exact";
  k.spec = traced(BenchmarkId::kMcf, 30'000);
  const Outcome o = expect_same_both_ways(k);
  EXPECT_TRUE(o.error.empty()) << o.error;
  EXPECT_EQ(o.result.total_refs, 30'000u * 8);
}

TEST_F(RunAheadTest, PrefetchRunIsIdentical) {
  Case k;
  k.name = "prefetch";
  k.spec = traced(BenchmarkId::kBwaves, 30'000);
  k.spec.prefetch = true;
  expect_same_both_ways(k);
}

// Interval saves land while every other core is mid-batch, so each file
// carries refill-buffer tails next to generator states.
TEST_F(RunAheadTest, IntervalSavesMidBatchAreByteIdentical) {
  Case k;
  k.name = "interval";
  k.spec = traced(BenchmarkId::kSoplex, 30'000);
  k.interval = 37'000;
  const Outcome o = expect_same_both_ways(k);
  EXPECT_GE(o.ckpts.size(), 5u);
}

TEST_F(RunAheadTest, SampledRunWithWindowSnapshotsIsIdentical) {
  Case k;
  k.name = "sampled";
  k.spec = traced(BenchmarkId::kMcf, 40'000);
  k.spec.sampling.mode = SampleMode::kInterval;
  k.spec.sampling.period_refs = 8'000;
  k.spec.sampling.window_refs = 800;
  k.spec.sampling.warmup_refs = 2'000;
  k.save_windows = true;
  k.interval = 50'000;  // saves inside skips, warms and windows
  const Outcome o = expect_same_both_ways(k);
  EXPECT_EQ(o.result.sampling.windows, 5u);
  EXPECT_GE(o.ckpts.size(), 5u);
}

// A stop request lands mid-run: the run saves and throws
// GracefulShutdownRequest at the same boundary in both modes.
TEST_F(RunAheadTest, StopFlagMidRunIsIdentical) {
  Case k;
  k.name = "stop";
  k.spec = traced(BenchmarkId::kMcf, 30'000);
  k.save_at = 90'000;
  k.after_save = [](CkptControl& ctl) {
    const_cast<std::atomic<bool>*>(ctl.stop_flag)->store(true);
  };
  const Outcome o = expect_same_both_ways(k);
  EXPECT_NE(o.error.find("stop requested"), std::string::npos) << o.error;
  EXPECT_EQ(o.ckpts.size(), 2u);
}

// A deadline passes mid-run: run() throws without saving, and the
// simulator it leaves behind serializes the same in both modes.
TEST_F(RunAheadTest, DeadlineMidRunIsIdentical) {
  Case k;
  k.name = "deadline";
  k.spec = traced(BenchmarkId::kLbm, 30'000);
  k.save_at = 70'000;
  k.after_save = [](CkptControl& ctl) {
    ctl.has_deadline = true;
    ctl.deadline = std::chrono::steady_clock::now();
  };
  const Outcome o = expect_same_both_ways(k);
  EXPECT_NE(o.error.find("budget exhausted"), std::string::npos) << o.error;
}

// A checkpoint written by one mode restores in the other, and the resumed
// run finishes as the uninterrupted one did.
TEST_F(RunAheadTest, SaveInOneModeRestoresInTheOther) {
  Case saving;
  saving.name = "save";
  saving.spec = traced(BenchmarkId::kBlas, 30'000);
  saving.save_at = 100'000;
  const Outcome with = run_here(saving, "save_with");
  const Outcome without = run_without_helper(saving, "save_without");
  ASSERT_GT(with.ahead_batches, 0u);
  ASSERT_EQ(with.ckpts.size(), 1u);
  ASSERT_EQ(without.ckpts.size(), 1u);
  ASSERT_TRUE(with.ckpts[0] == without.ckpts[0]);

  Case resume = saving;
  resume.save_at = 0;
  resume.restore_from = dir_ / "save_with_0.ckpt";
  const Outcome a = run_without_helper(resume, "resume_without");
  resume.restore_from = dir_ / "save_without_0.ckpt";
  const Outcome b = run_here(resume, "resume_with");
  EXPECT_GT(b.ahead_batches, 0u);
  Outcome uninterrupted = with;
  uninterrupted.ckpts.clear();  // the resumed runs save nothing
  expect_same(a, uninterrupted, "helper-saved, restored without the helper");
  expect_same(b, uninterrupted, "saved without the helper, restored with it");
}

// A kernel that fails after `fail_at` references: the generator's
// exception must reach run()'s caller in both modes.
class FailingKernel final : public Kernel {
 public:
  explicit FailingKernel(Addr base, std::uint64_t fail_at)
      : base_(base), fail_at_(fail_at) {}
  void next_n(MemRef* out, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      if (emitted_ == fail_at_) throw std::runtime_error("generator failed");
      out[i].addr = base_ + (emitted_++ % 4096) * 64;
      out[i].pc = 1;
      out[i].is_write = false;
    }
  }
  void skip_with_gaps(std::uint64_t n, Xoshiro256& gap_rng,
                      std::uint64_t gap_bound) override {
    for (std::uint64_t i = 0; i < n; ++i) gap_rng.below(gap_bound);
    emitted_ += n;
  }
  void ckpt_save(ByteWriter& w) const override { w.u64(emitted_); }
  bool ckpt_load(ByteReader& r) override {
    emitted_ = r.u64();
    return r.ok();
  }

 private:
  Addr base_;
  std::uint64_t fail_at_;
  std::uint64_t emitted_ = 0;
};

std::string run_failing() {
  const HierarchyConfig config =
      HierarchyConfig::scaled(8, Scheme::kRedhip, InclusionPolicy::kInclusive);
  std::vector<std::unique_ptr<TraceSource>> traces;
  for (CoreId c = 0; c < config.cores; ++c) {
    std::vector<SyntheticTrace::Component> parts;
    parts.push_back({std::make_unique<FailingKernel>(
                         Addr{c + 1} << 32, c == 3 ? 5'000 : ~0ull),
                     1'000'000, 64});
    traces.push_back(std::make_unique<SyntheticTrace>(std::move(parts), 2, c));
  }
  MulticoreSimulator sim(config, std::move(traces),
                         std::vector<std::uint32_t>(config.cores, 100));
  try {
    sim.run(20'000);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(RunAheadTest, GeneratorExceptionReachesTheCaller) {
  EXPECT_EQ(run_failing(), "generator failed");
  std::string without;
  ThreadPool pool(spare_cpus() + 1);
  pool.submit([&] { without = run_failing(); });
  pool.wait_idle();
  EXPECT_EQ(without, "generator failed");
}

// ------------------------------------------------------- spare-CPU count

std::size_t minus(std::size_t a, std::size_t b) { return a > b ? a - b : 0; }

TEST(SpareCpus, CountsLivePoolsAndHelpers) {
  // No pool is live: only the calling thread is busy.
  const std::size_t cpus = spare_cpus() + 1;
  {
    ThreadPool two(2);
    EXPECT_EQ(spare_cpus(), minus(cpus, 2));
    {
      ThreadPool one(1);
      EXPECT_EQ(spare_cpus(), minus(cpus, 3));
    }
    EXPECT_EQ(spare_cpus(), minus(cpus, 2));
    two.shutdown();
    EXPECT_EQ(spare_cpus(), cpus - 1);
    two.shutdown();  // idempotent: released once
    EXPECT_EQ(spare_cpus(), cpus - 1);
  }  // the destructor's shutdown releases nothing more
  EXPECT_EQ(spare_cpus(), cpus - 1);

  // A lone worker stands in for the calling thread it frees.
  {
    ThreadPool one(1);
    EXPECT_EQ(spare_cpus(), cpus - 1);
  }

  // run_all counts its workers while its tasks run.
  std::atomic<std::size_t> seen{0};
  std::vector<std::function<void()>> tasks(2, [&] { seen = spare_cpus(); });
  ThreadPool::run_all(std::move(tasks), 2);
  EXPECT_EQ(seen.load(), minus(cpus, 2));
  EXPECT_EQ(spare_cpus(), cpus - 1);
}

TEST(SpareCpus, HelpersTakeOnlySpareCpus) {
  const std::size_t cpus = spare_cpus() + 1;
  {
    const SpareCpu none(false);
    EXPECT_FALSE(none.held());
    EXPECT_EQ(spare_cpus(), cpus - 1);
    const SpareCpu one(true);
    EXPECT_EQ(one.held(), cpus > 1);
    EXPECT_EQ(spare_cpus(), minus(cpus, 2));
  }
  EXPECT_EQ(spare_cpus(), cpus - 1);
  {
    ThreadPool all(cpus);
    EXPECT_EQ(spare_cpus(), 0u);
    const SpareCpu helper(true);
    EXPECT_FALSE(helper.held());
  }
  EXPECT_EQ(spare_cpus(), cpus - 1);
}

}  // namespace
}  // namespace redhip
