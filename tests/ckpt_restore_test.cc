// Checkpoint/restore bit-identity (src/ckpt + harness/run wiring).  A run
// that checkpoints mid-way, is discarded, and then resumes from the file in
// a fresh process-equivalent simulator must be indistinguishable from an
// uninterrupted run: stats_identical, byte-identical json_report, and a
// byte-identical JSONL event trace.  A corrupted checkpoint degrades to a
// cold start (with the file evicted), never to a wrong result.  Sampled
// runs' shareable warm snapshots restore across run lengths, and every
// replacement policy's state restores.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_io.h"
#include "common/bytestream.h"
#include "common/checksum.h"
#include "common/file_io.h"
#include "harness/json_report.h"
#include "harness/run.h"
#include "obs/collector.h"
#include "sim/simulator.h"
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

TEST_F(CkptRestoreTest, SaveRestoreBitIdentical) {
  const std::string ckpt = (dir_ / "run.ckpt").string();

  // Uninterrupted: the oracle every other run must match.
  const SimResult plain = run_spec(traced_spec("a.jsonl"));

  // Same run, checkpointing mid-way.  The checkpoint itself must be
  // invisible: this run's stats/report/trace already match the oracle.
  RunSpec saving = traced_spec("b.jsonl");
  saving.ckpt_path = ckpt;
  saving.ckpt_save_at_refs = 60'000;  // mid-run (160k aggregate refs)
  const SimResult saved = run_spec(saving);
  expect_same_run(plain, saved, "with checkpointing on");
  EXPECT_EQ(trace_of("a.jsonl"), trace_of("b.jsonl"));
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Fresh simulator, restore, continue: still the same run, including the
  // JSONL prefix emitted before the checkpoint was taken.
  RunSpec resuming = traced_spec("c.jsonl");
  resuming.ckpt_path = ckpt;
  resuming.ckpt_restore = true;
  const SimResult resumed = run_spec(resuming);
  expect_same_run(plain, resumed, "restored");
  EXPECT_EQ(trace_of("a.jsonl"), trace_of("c.jsonl"));
}

// Restoring with an interval configured must not immediately re-save, and
// a restored run keeps checkpointing from where it left off.
TEST_F(CkptRestoreTest, RestoredRunKeepsCheckpointing) {
  const std::string ckpt = (dir_ / "interval.ckpt").string();
  const SimResult plain = run_spec(traced_spec("p.jsonl"));

  RunSpec saving = traced_spec("q.jsonl");
  saving.ckpt_path = ckpt;
  saving.ckpt_interval_refs = 30'000;
  const SimResult saved = run_spec(saving);
  expect_same_run(plain, saved, "interval checkpointing");
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  RunSpec resuming = traced_spec("r.jsonl");
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
  const SimResult plain = run_spec(traced_spec("x.jsonl"));

  RunSpec saving = traced_spec("y.jsonl");
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

  RunSpec resuming = traced_spec("z.jsonl");
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
  RunSpec long_run = traced_spec("long.jsonl");
  long_run.ckpt_path = ckpt;
  long_run.ckpt_save_at_refs = 150'000;  // near the end of 160k aggregate
  run_spec(long_run);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  RunSpec short_run = traced_spec("short-b.jsonl");
  short_run.refs_per_core = 10'000;  // 80k aggregate < checkpoint position
  short_run.ckpt_path = ckpt;
  short_run.ckpt_restore = true;
  const SimResult got = run_spec(short_run);

  RunSpec short_plain = traced_spec("short-a.jsonl");
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
// of the same cell — here a shorter ref count, deliberately excluded from
// the snapshot key — cold-starts
// from the deepest snapshot its own window count still contains and
// produces output bit-identical to running from scratch.
// warm_host_seconds is the witness that the resume actually happened: it
// is accumulated on the host, never checkpointed, so a run that skipped
// all its warm phases reports only no-op dispatch overhead (sub-µs timer
// reads) where a genuine cold start pays for warming tens of thousands of
// references — orders of magnitude apart.
TEST_F(CkptRestoreTest, WindowSnapshotsShareWarmStateAcrossRefs) {
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

  // A torn deepest snapshot is evicted with a DATA_LOSS warning and the
  // scan falls back to the next-deepest — never a wrong result.
  {
    std::ofstream torn(window_snapshot_path(ckpt, 3),
                       std::ios::binary | std::ios::trunc);
    torn << "torn";
  }
  const SimResult fallback = run_spec(shorter);
  EXPECT_TRUE(stats_identical(cold, fallback));
}

// The three places a sampled run can restore from, each under a JSONL
// trace: the restored run's stats, json_report and trace must equal the
// uninterrupted run's.  The trace's run_begin line describes this run even
// when the file was written by a longer one, and a fallback to a warm
// snapshot after a rejected main file carries the snapshot's trace prefix.
class SampledRestoreTest : public CkptRestoreTest {
 protected:
  RunSpec traced(std::uint64_t windows, const std::string& trace_name) {
    RunSpec spec = sampled_spec(windows);
    const std::string path = (dir_ / trace_name).string();
    spec.tweak = [path](HierarchyConfig& hc) {
      hc.obs.enabled = true;
      hc.obs.epoch_refs = 20'000;
      hc.obs.trace_path = path;
    };
    return spec;
  }
  // Runs the 4-window cell from `ckpt` and checks it against a plain run.
  void expect_restore_matches_plain(const std::string& what) {
    const SimResult plain = run_spec(traced(4, "plain.jsonl"));
    RunSpec resuming = traced(4, "resumed.jsonl");
    resuming.ckpt_path = ckpt_;
    resuming.ckpt_restore = true;
    const SimResult resumed = run_spec(resuming);
    expect_same_run(plain, resumed, what);
    EXPECT_EQ(trace_of("plain.jsonl"), trace_of("resumed.jsonl")) << what;
    // The witness that a snapshot restored (see above): window 3's open.
    EXPECT_LT(resumed.warm_host_seconds, plain.warm_host_seconds * 0.1)
        << what;
  }
  std::string ckpt_;  // set once SetUp has made dir_
  void SetUp() override {
    CkptRestoreTest::SetUp();
    ckpt_ = (dir_ / "cell.ckpt").string();
  }
};

TEST_F(SampledRestoreTest, SnapshotsOfALongerRun) {
  RunSpec writer = traced(6, "writer.jsonl");
  writer.ckpt_path = ckpt_;
  run_spec(writer);
  ASSERT_TRUE(std::filesystem::exists(window_snapshot_path(ckpt_, 3)));
  expect_restore_matches_plain("snapshots of a 6-window run");
}

TEST_F(SampledRestoreTest, TornMainFileWithSnapshots) {
  RunSpec writer = traced(4, "writer.jsonl");
  writer.ckpt_path = ckpt_;
  writer.ckpt_save_at_refs = 100'000;
  run_spec(writer);
  ASSERT_TRUE(std::filesystem::exists(ckpt_));
  {
    std::ofstream torn(ckpt_, std::ios::binary | std::ios::trunc);
    torn << "torn";
  }
  expect_restore_matches_plain("torn main file");
  EXPECT_FALSE(std::filesystem::exists(ckpt_)) << "torn file not evicted";
}

TEST_F(SampledRestoreTest, MainFileAheadOfTheRun) {
  RunSpec writer = traced(6, "writer.jsonl");
  writer.ckpt_path = ckpt_;
  writer.ckpt_save_at_refs = 300'000;  // past the 4-window run's 256k
  run_spec(writer);
  ASSERT_TRUE(std::filesystem::exists(ckpt_));
  expect_restore_matches_plain("main file ahead of the run");
  EXPECT_TRUE(std::filesystem::exists(ckpt_)) << "valid file wrongly evicted";
}

// Every replacement policy checkpoints.  A tag array whose policy keeps
// side state (tree-PLRU node bits, NRU reference masks, the random
// policy's RNG, LRU rank bytes past 16 ways) writes it after its entries;
// a run saved at an interval and restored continues the uninterrupted
// run.  A side section the policy could not have written, resealed under
// a fresh checksum, fails as DATA_LOSS.
class SideStateRestoreTest : public CkptRestoreTest {
 protected:
  // Rewrites the LLC's side section of a saved file and reseals it.
  using Corrupt = std::function<void(std::uint8_t* side)>;

  void check(ReplacementKind kind, std::uint32_t ways,
             const std::vector<std::pair<std::string, Corrupt>>& corrupt) {
    RunSpec spec;
    spec.bench = BenchmarkId::kMcf;
    spec.scheme = Scheme::kRedhip;
    spec.scale = 32;
    spec.refs_per_core = 10'000;
    spec.tweak = [kind, ways](HierarchyConfig& hc) {
      for (LevelSpec& lvl : hc.levels) {
        lvl.geom.replacement = kind;
        // Every level below L1 (16 lines at scale 32) takes `ways`.
        if (&lvl != &hc.levels.front()) lvl.geom.ways = ways;
      }
    };
    const SimResult plain = run_spec(spec);

    const std::string ckpt = (dir_ / "side.ckpt").string();
    RunSpec saving = spec;
    saving.ckpt_path = ckpt;
    saving.ckpt_interval_refs = 30'000;  // saves at 30k and 60k of 80k
    expect_same_run(plain, run_spec(saving), "saving");
    ASSERT_TRUE(std::filesystem::exists(ckpt));
    const std::string good = slurp(ckpt);

    RunSpec resuming = spec;
    resuming.ckpt_path = ckpt;
    resuming.ckpt_restore = true;
    expect_same_run(plain, run_spec(resuming), "restored");

    // Find the LLC's section in the payload: a simulator restored from the
    // file serializes its LLC to the same bytes.
    auto sim = fresh_sim(spec);
    ASSERT_TRUE(load_checkpoint(ckpt, ckpt_key(spec), *sim).ok());
    ByteWriter llc;
    sim->level_array_for_test(resolved_config(spec).num_levels() - 1, 0)
        .ckpt_save(llc);
    const std::string section(llc.buffer().begin(), llc.buffer().end());
    const std::size_t at = good.find(section);
    ASSERT_NE(at, std::string::npos);
    const std::size_t side_len = at + 8 + 8 * load_le64(section.data());

    auto reject = [&](const std::string& what, const Corrupt& edit) {
      std::string bad = good;
      edit(reinterpret_cast<std::uint8_t*>(&bad[side_len + 8]));
      reseal(bad);
      write(ckpt, bad);
      EXPECT_EQ(load_checkpoint(ckpt, ckpt_key(spec), *fresh_sim(spec)).code(),
                StatusCode::kDataLoss)
          << what;
    };
    for (const auto& [what, edit] : corrupt) reject(what, edit);
    // A wrong length: the section claims one more byte than it has.
    reject("wrong length", [](std::uint8_t* side) {
      store_le64(side - 8, load_le64(side - 8) + 1);
    });
    write(ckpt, good);  // the untouched file still restores
    EXPECT_TRUE(load_checkpoint(ckpt, ckpt_key(spec), *fresh_sim(spec)).ok());
  }

  static std::unique_ptr<MulticoreSimulator> fresh_sim(const RunSpec& spec) {
    const HierarchyConfig config = resolved_config(spec);
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::uint32_t> cpis;
    for (CoreId c = 0; c < config.cores; ++c) {
      traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
      cpis.push_back(workload_cpi_centi(spec.bench, c));
    }
    return std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                                std::move(cpis));
  }

  // Recompute the envelope's trailing checksum over the payload.
  static void reseal(std::string& file) {
    const std::size_t payload =
        file.size() - kEnvelopeHeaderBytes - kEnvelopeTrailerBytes;
    store_le64(&file[kEnvelopeHeaderBytes + payload],
               checksum64(file.data() + kEnvelopeHeaderBytes, payload));
  }

  static void write(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary) << bytes;
  }
};

TEST_F(SideStateRestoreTest, TreePlru) {
  check(ReplacementKind::kTreePlru, 16,
        {{"bit 0 is no tree node", [](std::uint8_t* s) { s[0] |= 1; }},
         {"bit 16 is past 15 nodes", [](std::uint8_t* s) { s[2] |= 1; }}});
}

TEST_F(SideStateRestoreTest, Nru) {
  check(ReplacementKind::kNru, 16,
        {{"every way referenced",
          [](std::uint8_t* s) { s[0] = s[1] = 0xFF; }},
         {"a bit past the ways", [](std::uint8_t* s) { s[2] |= 1; }}});
}

TEST_F(SideStateRestoreTest, Random) {
  check(ReplacementKind::kRandom, 16,
        {{"all-zero RNG state",
          [](std::uint8_t* s) { std::memset(s, 0, 32); }}});
}

TEST_F(SideStateRestoreTest, WideLru) {
  check(ReplacementKind::kLru, 32,
        {{"repeated rank", [](std::uint8_t* s) { s[1] = s[0]; }},
         {"rank past the ways", [](std::uint8_t* s) { s[0] = 32; }}});
}

// Each component reads its fields through its field list and then checks
// them: a value its writer never produces, or a view whose count differs
// from the component's own shape, fails as DATA_LOSS even when the file is
// resealed under a fresh checksum.
class ResealedFieldTest : public SideStateRestoreTest {
 protected:
  static RunSpec machine(Scheme scheme) {
    RunSpec spec;
    spec.bench = BenchmarkId::kMcf;
    spec.scheme = scheme;
    spec.scale = 32;
    spec.refs_per_core = 10'000;
    return spec;
  }

  // Saves `spec` mid-run, and returns a simulator restored from the file.
  std::unique_ptr<MulticoreSimulator> save(const RunSpec& spec) {
    RunSpec saving = spec;
    saving.ckpt_path = path();
    saving.ckpt_save_at_refs = 40'000;
    run_spec(saving);
    good_ = slurp(path());
    auto sim = fresh_sim(spec);
    EXPECT_TRUE(load_checkpoint(path(), ckpt_key(spec), *sim).ok());
    return sim;
  }

  // Where `section` starts in the saved file; it must occur exactly once.
  std::size_t find(const ByteWriter& section) const {
    const std::string bytes(section.buffer().begin(), section.buffer().end());
    const std::size_t at = good_.find(bytes);
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(at, good_.rfind(bytes));
    return at;
  }

  // The saved file with `edit` applied at byte `at`, resealed, must fail
  // as DATA_LOSS.
  void expect_rejected(const RunSpec& spec, std::size_t at,
                       const Corrupt& edit, const std::string& what) {
    std::string bad = good_;
    edit(reinterpret_cast<std::uint8_t*>(&bad[at]));
    reseal(bad);
    write(path(), bad);
    EXPECT_EQ(load_checkpoint(path(), ckpt_key(spec), *fresh_sim(spec)).code(),
              StatusCode::kDataLoss)
        << what;
    write(path(), good_);
  }

  static void add_u64(std::uint8_t* p, std::uint64_t delta) {
    store_le64(p, load_le64(p) + delta);
  }
  static Corrupt set_u64(std::uint64_t v) {
    return [v](std::uint8_t* p) { store_le64(p, v); };
  }
  static std::size_t bytes_of(const PredictorEvents& events) {
    ByteWriter w;
    w.put(events);
    return w.buffer().size();
  }

  std::string path() const { return (dir_ / "field.ckpt").string(); }
  std::string good_;
};

TEST_F(ResealedFieldTest, RedhipTable) {
  const RunSpec spec = machine(Scheme::kRedhip);
  auto sim = save(spec);
  const RedhipTable& pt = *sim->llc_redhip_for_test();
  ByteWriter section;
  pt.ckpt_save(section);
  const std::size_t at = find(section);
  const std::size_t end = at + section.buffer().size();
  const HierarchyConfig config = resolved_config(spec);
  ASSERT_EQ(config.redhip.recal_mode, RecalMode::kRolling);
  const std::uint64_t sets = config.llc().geom.sets();
  const std::uint64_t interval = config.redhip.recal_interval_l1_misses;

  expect_rejected(spec, at + bytes_of(pt.events()),
                  [](std::uint8_t* p) { add_u64(p, 1); }, "PT one word long");
  // The rolling cursor and credit are the last two words.
  expect_rejected(spec, end - 16, set_u64(sets), "cursor past the last set");
  expect_rejected(spec, end - 16, set_u64(sets + 1000), "cursor far past");
  expect_rejected(spec, end - 8, set_u64(interval), "credit at the interval");
  // The last set is a cursor the writer can produce.
  std::string edge = good_;
  store_le64(&edge[end - 16], sets - 1);
  reseal(edge);
  write(path(), edge);
  EXPECT_TRUE(load_checkpoint(path(), ckpt_key(spec), *fresh_sim(spec)).ok());
}

TEST_F(ResealedFieldTest, CountingBloomFilter) {
  const RunSpec spec = machine(Scheme::kCbf);
  auto sim = save(spec);
  const LlcPredictor& cbf = *sim->llc_predictor_for_test();
  ByteWriter section;
  cbf.ckpt_save(section);
  const std::size_t counters = find(section) + bytes_of(cbf.events()) + 8;
  const std::uint64_t entries = resolved_config(spec).cbf.entries();
  ASSERT_EQ(load_le64(&good_[counters - 8]), entries);
  expect_rejected(spec, counters, [](std::uint8_t* c) { c[0] = 8; },
                  "counter above 2^3 - 1");
  // Disabled bit 0 on a counter below the maximum.
  expect_rejected(spec, counters,
                  [entries](std::uint8_t* c) {
                    c[0] = 1;
                    c[entries + 8] |= 1;
                  },
                  "disabled counter below the maximum");
  expect_rejected(spec, counters - 8,
                  [](std::uint8_t* p) { add_u64(p, 1); },
                  "one counter too many");
}

TEST_F(ResealedFieldTest, PartialTagPredictor) {
  const RunSpec spec = machine(Scheme::kPartialTag);
  auto sim = save(spec);
  const LlcPredictor& mirror = *sim->llc_predictor_for_test();
  ByteWriter section;
  mirror.ckpt_save(section);
  const std::size_t at = find(section);
  // Each slot is a u16 partial tag and a valid byte.
  const std::size_t slots = at + bytes_of(mirror.events()) + 8;
  expect_rejected(spec, slots + 2, [](std::uint8_t* v) { *v = 2; },
                  "valid byte 2");
  expect_rejected(spec, at + section.buffer().size() - 8,
                  [](std::uint8_t* p) { add_u64(p, 1); },
                  "occupancy one past the valid slots");
  expect_rejected(spec, slots,
                  [](std::uint8_t* p) { p[0] = p[1] = 0xFF; },
                  "partial tag wider than 8 bits");
}

TEST_F(ResealedFieldTest, StridePrefetcher) {
  RunSpec spec = machine(Scheme::kRedhip);
  spec.prefetch = true;
  save(spec);
  const HierarchyConfig config = resolved_config(spec);
  // The prefetcher count, then the first table's entry count.
  ByteWriter head;
  head.u32(config.cores);
  head.u64(config.prefetcher.entries());
  expect_rejected(spec, find(head) + 4,
                  [](std::uint8_t* p) { add_u64(p, 1); },
                  "table one entry long");
}

// The auto-disable state closes the simulator's totals, just ahead of the
// first tag array (core 0's L1): ..., predictor_active (1 byte), four u64
// epoch counters, disable_backoff and disabled_epochs_left (u32 each), and
// two u64 counters.
TEST_F(ResealedFieldTest, AutoDisableState) {
  const RunSpec spec = machine(Scheme::kRedhip);
  auto sim = save(spec);
  ByteWriter l1;
  sim->level_array_for_test(0, 0).ckpt_save(l1);
  const std::size_t at = find(l1);
  const std::size_t backoff = at - 24;
  const std::size_t left = at - 20;
  const std::size_t active = at - 57;
  ASSERT_EQ(load_le32(&good_[backoff]), 1u);
  ASSERT_EQ(load_le32(&good_[left]), 0u);
  ASSERT_EQ(good_[active], 1);
  expect_rejected(spec, backoff, [](std::uint8_t* p) { p[0] = 0; },
                  "backoff 0");
  expect_rejected(spec, active, [](std::uint8_t* p) { p[0] = 0; },
                  "paused with no epoch left");
  // Paused with one epoch left is a state the writer produces.
  std::string paused = good_;
  paused[active] = 0;
  paused[left] = 1;
  reseal(paused);
  write(path(), paused);
  EXPECT_TRUE(load_checkpoint(path(), ckpt_key(spec), *fresh_sim(spec)).ok());
}

TEST_F(ResealedFieldTest, ObsMetrics) {
  RunSpec spec = machine(Scheme::kRedhip);
  spec.tweak = [](HierarchyConfig& hc) {
    hc.obs.enabled = true;
    hc.obs.epoch_refs = 20'000;
  };
  auto sim = save(spec);
  const ObsCollector& obs = *sim->obs_for_test();
  ByteWriter section;
  obs.ckpt_save(section);
  // The metrics slots close the collector's field list.
  ByteWriter fields;
  fields.put(ObsCollector::fields(obs));
  ByteWriter metrics;
  metrics.put(obs.metrics());
  const std::size_t slots =
      find(section) + fields.buffer().size() - metrics.buffer().size();
  ASSERT_EQ(load_le64(&good_[slots]), resolved_config(spec).cores);
  expect_rejected(spec, slots, [](std::uint8_t* p) { add_u64(p, 1); },
                  "one metrics slot too many");
}

}  // namespace
}  // namespace redhip
