// Checkpoint/restore bit-identity (src/ckpt + harness/run wiring).  A run
// that checkpoints mid-way, is discarded, and then resumes from the file in
// a fresh process-equivalent simulator must be indistinguishable from an
// uninterrupted run: stats_identical, byte-identical json_report, and a
// byte-identical JSONL event trace — on both engines.  A corrupted
// checkpoint degrades to a cold start (with the file evicted), never to a
// wrong result.  Sampled runs' shareable warm snapshots restore across run
// lengths and engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "ckpt/checkpoint_io.h"
#include "harness/json_report.h"
#include "harness/run.h"
#include "sim/stats.h"
#include "sweep/sweep.h"

namespace redhip {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CkptRestoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "redhip_ckpt_restore";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RunSpec traced_spec(SimEngine engine, const std::string& trace_name) {
    RunSpec spec;
    spec.bench = BenchmarkId::kMcf;
    spec.scheme = Scheme::kRedhip;
    spec.scale = 8;
    spec.refs_per_core = 20'000;
    spec.seed = 1234;
    spec.engine = engine;
    const std::string path = (dir_ / trace_name).string();
    spec.tweak = [path](HierarchyConfig& hc) {
      hc.obs.enabled = true;
      hc.obs.epoch_refs = 20'000;  // several epochs over the 160k total
      hc.obs.trace_path = path;
    };
    return spec;
  }

  std::string trace_of(const std::string& trace_name) {
    return slurp((dir_ / trace_name).string());
  }

  std::filesystem::path dir_;
};

void expect_same_run(const SimResult& a, const SimResult& b,
                     const std::string& what) {
  EXPECT_TRUE(stats_identical(a, b)) << what;
  EXPECT_EQ(to_json(a), to_json(b)) << what;
  EXPECT_GT(a.total_refs, 0u) << what;
}

TEST_F(CkptRestoreTest, SaveRestoreBitIdenticalOnEveryEngine) {
  for (SimEngine engine : {SimEngine::kFast, SimEngine::kReference}) {
    const std::string name = engine_name(engine);
    const std::string ckpt = (dir_ / (name + ".ckpt")).string();

    // Uninterrupted: the oracle every other run must match.
    const SimResult plain = run_spec(traced_spec(engine, name + "-a.jsonl"));

    // Same run, checkpointing mid-way.  The checkpoint itself must be
    // invisible: this run's stats/report/trace already match the oracle.
    RunSpec saving = traced_spec(engine, name + "-b.jsonl");
    saving.ckpt_path = ckpt;
    saving.ckpt_save_at_refs = 60'000;  // mid-run (160k aggregate refs)
    const SimResult saved = run_spec(saving);
    expect_same_run(plain, saved, name + " with checkpointing on");
    EXPECT_EQ(trace_of(name + "-a.jsonl"), trace_of(name + "-b.jsonl"))
        << name;
    ASSERT_TRUE(std::filesystem::exists(ckpt)) << name;

    // Fresh simulator, restore, continue: still the same run, including the
    // JSONL prefix emitted before the checkpoint was taken.
    RunSpec resuming = traced_spec(engine, name + "-c.jsonl");
    resuming.ckpt_path = ckpt;
    resuming.ckpt_restore = true;
    const SimResult resumed = run_spec(resuming);
    expect_same_run(plain, resumed, name + " restored");
    EXPECT_EQ(trace_of(name + "-a.jsonl"), trace_of(name + "-c.jsonl"))
        << name;
  }
}

// Restoring with an interval configured must not immediately re-save, and
// a restored run keeps checkpointing from where it left off.
TEST_F(CkptRestoreTest, RestoredRunKeepsCheckpointing) {
  const std::string ckpt = (dir_ / "interval.ckpt").string();
  const SimResult plain = run_spec(traced_spec(SimEngine::kFast, "p.jsonl"));

  RunSpec saving = traced_spec(SimEngine::kFast, "q.jsonl");
  saving.ckpt_path = ckpt;
  saving.ckpt_interval_refs = 30'000;
  const SimResult saved = run_spec(saving);
  expect_same_run(plain, saved, "interval checkpointing");
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  RunSpec resuming = traced_spec(SimEngine::kFast, "r.jsonl");
  resuming.ckpt_path = ckpt;
  resuming.ckpt_interval_refs = 30'000;
  resuming.ckpt_restore = true;
  const SimResult resumed = run_spec(resuming);
  expect_same_run(plain, resumed, "restored with interval");
  EXPECT_EQ(trace_of("p.jsonl"), trace_of("r.jsonl"));
}

// Graceful degradation: a corrupt checkpoint is evicted with a DATA_LOSS
// diagnostic and the run cold-starts to the identical result.
TEST_F(CkptRestoreTest, CorruptCheckpointColdStartsAndEvicts) {
  const std::string ckpt = (dir_ / "corrupt.ckpt").string();
  const SimResult plain = run_spec(traced_spec(SimEngine::kFast, "x.jsonl"));

  RunSpec saving = traced_spec(SimEngine::kFast, "y.jsonl");
  saving.ckpt_path = ckpt;
  saving.ckpt_save_at_refs = 60'000;
  run_spec(saving);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Flip one payload byte.
  std::string bytes = slurp(ckpt);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  RunSpec resuming = traced_spec(SimEngine::kFast, "z.jsonl");
  resuming.ckpt_path = ckpt;
  resuming.ckpt_restore = true;
  const SimResult resumed = run_spec(resuming);
  expect_same_run(plain, resumed, "cold start after corruption");
  EXPECT_EQ(trace_of("x.jsonl"), trace_of("z.jsonl"));
  EXPECT_FALSE(std::filesystem::exists(ckpt)) << "corrupt file not evicted";
}

// A checkpoint written past this run's end (a longer run's file under the
// same key) is ignored — but kept on disk for the run it belongs to.
TEST_F(CkptRestoreTest, AheadOfRunCheckpointIsIgnoredNotEvicted) {
  const std::string ckpt = (dir_ / "ahead.ckpt").string();
  RunSpec long_run = traced_spec(SimEngine::kFast, "long.jsonl");
  long_run.ckpt_path = ckpt;
  long_run.ckpt_save_at_refs = 150'000;  // near the end of 160k aggregate
  run_spec(long_run);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  RunSpec short_run = traced_spec(SimEngine::kFast, "short-b.jsonl");
  short_run.refs_per_core = 10'000;  // 80k aggregate < checkpoint position
  short_run.ckpt_path = ckpt;
  short_run.ckpt_restore = true;
  const SimResult got = run_spec(short_run);

  RunSpec short_plain = traced_spec(SimEngine::kFast, "short-a.jsonl");
  short_plain.refs_per_core = 10'000;
  const SimResult want = run_spec(short_plain);
  expect_same_run(want, got, "short run under a longer run's checkpoint");
  EXPECT_EQ(trace_of("short-a.jsonl"), trace_of("short-b.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(ckpt)) << "valid file wrongly evicted";
}

// Sweep warmup sharing: cells that differ only in refs_per_core share a
// checkpoint key, so with warmup_refs set the first cell writes one warmup
// file and the others restore from it.  Results must be bit-identical to
// the same sweep run cold, and the shared file must exist (exactly one per
// key — not one per cell).
TEST_F(CkptRestoreTest, SweepWarmupSharingIsBitIdentical) {
  SweepSpec spec;
  spec.base.bench = BenchmarkId::kMcf;
  spec.base.scheme = Scheme::kRedhip;
  spec.base.scale = 8;
  spec.base.seed = 1234;
  SweepAxis refs_axis{"refs", {}};
  for (std::uint64_t refs : {10'000ull, 15'000ull, 20'000ull}) {
    refs_axis.values.push_back({std::to_string(refs), [refs](RunSpec& s) {
                                  s.refs_per_core = refs;
                                }});
  }
  spec.axes.push_back(std::move(refs_axis));

  const SweepOutcome cold = run_sweep(spec, {});

  SweepRunOptions warm;
  warm.ckpt_dir = (dir_ / "sweep-ckpt").string();
  warm.warmup_refs = 40'000;  // inside the smallest cell (80k aggregate)
  warm.jobs = 1;  // serial: later cells see the first cell's warmup file
  const SweepOutcome shared = run_sweep(spec, warm);

  ASSERT_EQ(cold.cells.size(), shared.cells.size());
  for (std::size_t i = 0; i < cold.cells.size(); ++i) {
    EXPECT_TRUE(shared.cells[i].status.ok());
    EXPECT_TRUE(
        stats_identical(cold.cells[i].result, shared.cells[i].result))
        << "cell " << i;
    EXPECT_GT(shared.cells[i].result.total_refs, 0u);
  }
  // One shared warmup file for the whole refs axis.
  std::size_t files = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(warm.ckpt_dir)) {
    files += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, 1u);
}

TEST(WindowSnapshot, PathDerivation) {
  EXPECT_EQ(window_snapshot_path("run.ckpt", 0), "run_w0.ckpt");
  EXPECT_EQ(window_snapshot_path("a/b/run.ckpt", 3), "a/b/run_w3.ckpt");
  EXPECT_EQ(window_snapshot_path("run", 7), "run_w7");
}

// A sampled run of `windows` windows (period 8k refs/core, 2k warmup).
RunSpec sampled_spec(std::uint64_t windows) {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 32;
  spec.seed = 4242;
  spec.sampling.mode = SampleMode::kInterval;
  spec.sampling.period_refs = 8'000;
  spec.sampling.window_refs = 800;
  spec.sampling.warmup_refs = 2'000;
  spec.refs_per_core = 8'000 * windows;
  return spec;
}

// Sharing property: a sampled run with checkpointing drops warm snapshots at
// window opens 0, 1, 3, 7, ... (w+1 a power of two), and a *different* run
// of the same cell — here a shorter ref count and then a different engine,
// the two axes deliberately excluded from the snapshot key — cold-starts
// from the deepest snapshot its own window count still contains and
// produces output bit-identical to running from scratch.
// warm_host_seconds is the witness that the resume actually happened: it
// is accumulated on the host, never checkpointed, so a run that skipped
// all its warm phases reports only no-op dispatch overhead (sub-µs timer
// reads) where a genuine cold start pays for warming tens of thousands of
// references — orders of magnitude apart.
TEST_F(CkptRestoreTest, WindowSnapshotsShareWarmStateAcrossRefsAndEngine) {
  const std::string ckpt = (dir_ / "cell.ckpt").string();

  RunSpec writer = sampled_spec(6);
  writer.ckpt_path = ckpt;
  run_spec(writer);
  // Six windows -> snapshots at opens 0, 1 and 3 (7 never opens); the main
  // checkpoint was never requested (no interval, no save-at).
  for (std::uint64_t w : {0ull, 1ull, 3ull}) {
    EXPECT_TRUE(std::filesystem::exists(window_snapshot_path(ckpt, w))) << w;
  }
  EXPECT_FALSE(std::filesystem::exists(window_snapshot_path(ckpt, 7)));
  EXPECT_FALSE(std::filesystem::exists(ckpt));

  // A 4-window run of the same cell: the oracle is a plain cold start.
  RunSpec shorter = sampled_spec(4);
  const SimResult cold = run_spec(shorter);
  EXPECT_GT(cold.warm_host_seconds, 0.0);

  shorter.ckpt_path = ckpt;
  shorter.ckpt_restore = true;
  const SimResult resumed = run_spec(shorter);
  EXPECT_TRUE(stats_identical(cold, resumed));
  // Restored at window 3's open: windows 0-2 and every warm phase were
  // skipped entirely.
  EXPECT_LT(resumed.warm_host_seconds, cold.warm_host_seconds * 0.1);

  // Engine is not part of the address either: the reference engine resumes
  // from the fast engine's snapshot, bit-identically.
  shorter.engine = SimEngine::kReference;
  const SimResult ref_resumed = run_spec(shorter);
  EXPECT_TRUE(stats_identical(cold, ref_resumed));
  EXPECT_LT(ref_resumed.warm_host_seconds, cold.warm_host_seconds * 0.1);

  // A torn deepest snapshot is evicted with a DATA_LOSS warning and the
  // scan falls back to the next-deepest — never a wrong result.
  shorter.engine = SimEngine::kFast;
  {
    std::ofstream torn(window_snapshot_path(ckpt, 3),
                       std::ios::binary | std::ios::trunc);
    torn << "torn";
  }
  const SimResult fallback = run_spec(shorter);
  EXPECT_TRUE(stats_identical(cold, fallback));
}

}  // namespace
}  // namespace redhip
