// kill -9 mid-run, then resume (src/ckpt end to end).  A forked child runs
// the simulation with periodic checkpointing and raises SIGKILL the moment
// a checkpoint hits disk — no destructors, no flushes, exactly the crash
// the subsystem exists for.  The parent then resumes from the survivor file
// and must reproduce the uninterrupted run bit for bit: stats_identical,
// byte-identical json_report, byte-identical JSONL event trace.  Covered:
// every specialized run-loop feature mask (fault x prefetch x
// auto-disable), and a sampled run killed inside a fast-forward gap.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "ckpt/checkpoint_io.h"
#include "harness/json_report.h"
#include "harness/run.h"
#include "sim/config_digest.h"
#include "sim/sampling.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::unique_ptr<MulticoreSimulator> build_sim(const RunSpec& spec) {
  const HierarchyConfig config = resolved_config(spec);
  std::vector<std::unique_ptr<TraceSource>> traces;
  std::vector<std::uint32_t> cpis;
  for (CoreId c = 0; c < config.cores; ++c) {
    traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
    cpis.push_back(workload_cpi_centi(spec.bench, c));
  }
  auto sim = std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                                  std::move(cpis));
  // Mirrors run_spec: the sampling plan is part of the simulator identity
  // (a restored checkpoint validates its plan echo against it).
  sim->set_sampling(spec.sampling);
  return sim;
}

std::uint64_t key_of(const RunSpec& spec) {
  return ckpt_key(to_string(spec.bench), spec.scale, spec.seed,
                  config_digest(resolved_config(spec)) ^
                      sampling_digest(spec.sampling));
}

// Child body: simulate with periodic checkpoints and SIGKILL ourselves the
// instant the first one is on disk.  Never returns.
[[noreturn]] void run_and_die(const RunSpec& spec, const std::string& ckpt) {
  CkptControl ctl;
  ctl.interval_refs = 40'000;  // first boundary past ~1/4 of 160k aggregate
  const std::uint64_t key = key_of(spec);
  ctl.save = [&ckpt, key](MulticoreSimulator& s) {
    if (!save_checkpoint(s, ckpt, key).ok()) _exit(3);
    ::raise(SIGKILL);
  };
  auto sim = build_sim(spec);
  sim->set_ckpt_control(&ctl);
  sim->run(spec.refs_per_core);
  _exit(2);  // ran to completion — the kill never fired
}

class CkptKillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "redhip_ckpt_kill";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RunSpec traced_spec(const std::string& trace_name) {
    RunSpec spec;
    spec.bench = BenchmarkId::kMcf;
    spec.scheme = Scheme::kRedhip;
    spec.scale = 8;
    spec.refs_per_core = 20'000;
    spec.seed = 1234;
    const std::string path = (dir_ / trace_name).string();
    spec.tweak = [path](HierarchyConfig& hc) {
      hc.obs.enabled = true;
      hc.obs.epoch_refs = 20'000;
      hc.obs.trace_path = path;
    };
    return spec;
  }

  // The full scenario for one spec: uninterrupted oracle, killed child,
  // resumed parent run, byte-level comparison.
  void kill_and_resume(RunSpec spec, const std::string& tag) {
    auto retweak = [&spec, this](const std::string& trace_name) {
      RunSpec s = spec;
      const auto base = s.tweak;
      const std::string path = (dir_ / trace_name).string();
      s.tweak = [base, path](HierarchyConfig& hc) {
        if (base) base(hc);
        hc.obs.trace_path = path;
      };
      return s;
    };
    const std::string ckpt = (dir_ / (tag + ".ckpt")).string();

    const SimResult plain = run_spec(retweak(tag + "-a.jsonl"));

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      run_and_die(retweak(tag + "-child.jsonl"), ckpt);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus))
        << tag << ": child exited " << WEXITSTATUS(wstatus)
        << " instead of dying by signal";
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL) << tag;
    ASSERT_TRUE(std::filesystem::exists(ckpt)) << tag;

    // The survivor file is a valid mid-run state, not an end state.
    {
      auto probe = build_sim(spec);
      const Status st = load_checkpoint(ckpt, key_of(spec), *probe);
      ASSERT_TRUE(st.ok()) << tag << ": " << st.to_string();
      EXPECT_GT(probe->ckpt_refs_done(), 0u) << tag;
      EXPECT_LT(probe->ckpt_refs_done(), spec.refs_per_core * 8) << tag;
    }

    RunSpec resuming = retweak(tag + "-b.jsonl");
    resuming.ckpt_path = ckpt;
    resuming.ckpt_restore = true;
    const SimResult resumed = run_spec(resuming);

    EXPECT_TRUE(stats_identical(plain, resumed)) << tag;
    EXPECT_EQ(to_json(plain), to_json(resumed)) << tag;
    EXPECT_GT(plain.total_refs, 0u) << tag;
    EXPECT_EQ(slurp((dir_ / (tag + "-a.jsonl")).string()),
              slurp((dir_ / (tag + "-b.jsonl")).string()))
        << tag;
  }

  std::filesystem::path dir_;
};

// Every specialized run loop: fault x prefetch x auto-disable.
TEST_F(CkptKillTest, AllFeatureMasksSurviveSigkill) {
  for (int mask = 0; mask < 8; ++mask) {
    const bool fault = mask & 1;
    const bool prefetch = mask & 2;
    const bool auto_disable = mask & 4;
    RunSpec spec = traced_spec("unused.jsonl");
    spec.prefetch = prefetch;
    const auto base = spec.tweak;
    spec.tweak = [base, fault, auto_disable](HierarchyConfig& hc) {
      if (base) base(hc);
      if (fault) {
        hc.fault.enabled = true;
        hc.fault.rate_per_mref = 2'000;  // dense enough to fire at 160k
        hc.audit.enabled = true;
      }
      if (auto_disable) {
        hc.auto_disable.enabled = true;
        hc.auto_disable.epoch_refs = 5'000;
      }
    };
    kill_and_resume(spec, "mask" + std::to_string(mask));
  }
}

// Sampled mode composes with crash safety.  The child's 40k-aggregate
// checkpoint interval fires during the first fast-forward gap (the first
// skip segment covers 7k refs/core = 56k aggregate), so the SIGKILL lands
// mid-gap with zero windows closed: the survivor file carries only the
// skip cursor and the sampling plan echo, and the resumed run must still
// reproduce every window, estimate and event line bit for bit.
TEST_F(CkptKillTest, SampledRunSurvivesSigkillInAFastForwardGap) {
  RunSpec spec = traced_spec("unused.jsonl");
  spec.sampling.mode = SampleMode::kInterval;
  spec.sampling.period_refs = 10'000;
  spec.sampling.window_refs = 1'000;
  spec.sampling.warmup_refs = 2'000;
  kill_and_resume(spec, "sampled");
}

}  // namespace
}  // namespace redhip
