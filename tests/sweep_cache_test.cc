// The on-disk result cache behind resumable sweeps: the payload codec
// round-trips every simulated field, every corruption mode is detected (and
// reported as DATA_LOSS, never a wrong result), and a resumed sweep
// re-simulates exactly the missing cells.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "harness/run.h"
#include "rich_result.h"
#include "sim/ckpt_control.h"
#include "sweep/aggregate.h"
#include "sweep/config_digest.h"
#include "sweep/result_cache.h"
#include "sweep/sweep.h"

namespace redhip {
namespace {

namespace fs = std::filesystem;

// A fresh directory per test, removed on teardown; the pid keeps parallel
// ctest invocations of this binary apart.
class SweepCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("redhip-sweep-cache-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

RunSpec tiny_spec(BenchmarkId bench = BenchmarkId::kMcf) {
  RunSpec spec;
  spec.bench = bench;
  spec.scale = 32;
  spec.refs_per_core = 2'000;
  return spec;
}

TEST_F(SweepCacheTest, PayloadRoundTripsEveryStatsField) {
  const SimResult r = rich_result();
  ASSERT_FALSE(r.epochs.empty());  // the codec's hardest field
  ASSERT_GT(r.fault.injected_total(), 0u);
  Result<SimResult> back = deserialize_result(serialize_result(r));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(stats_identical(r, back.value()));
  EXPECT_DOUBLE_EQ(back.value().elapsed_seconds, r.elapsed_seconds);
}

TEST_F(SweepCacheTest, TruncatedPayloadIsDataLoss) {
  const std::string payload = serialize_result(rich_result());
  for (std::size_t keep : {std::size_t{0}, std::size_t{4},
                           payload.size() / 2, payload.size() - 1}) {
    Result<SimResult> r = deserialize_result(payload.substr(0, keep));
    ASSERT_FALSE(r.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(SweepCacheTest, StoreThenLoadIsIdentical) {
  const ResultCache cache(dir_);
  const SimResult r = rich_result();
  const std::uint64_t key = 0x1234'5678'9abc'def0ull;
  ASSERT_TRUE(cache.store(key, r).ok());
  Result<SimResult> back = cache.load(key);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(stats_identical(r, back.value()));
  // No stray temp files after a completed store.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    ++files;
    EXPECT_EQ(e.path().extension(), ".rdc") << e.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(SweepCacheTest, MissingEntryIsNotFound) {
  const ResultCache cache(dir_);
  Result<SimResult> r = cache.load(42);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SweepCacheTest, EveryFlippedByteIsDetected) {
  const ResultCache cache(dir_);
  const std::uint64_t key = 7;
  ASSERT_TRUE(cache.store(key, rich_result()).ok());
  const fs::path path = cache.entry_path(key);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Flip one byte in each region: magic, version, key, length, payload,
  // checksum.
  for (std::size_t pos : {std::size_t{0}, std::size_t{9}, std::size_t{13},
                          std::size_t{21}, std::size_t{40},
                          bytes.size() - 1}) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    Result<SimResult> r = cache.load(key);
    ASSERT_FALSE(r.ok()) << "flip at byte " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "byte " << pos;
  }
  // Truncation too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  Result<SimResult> r = cache.load(key);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(SweepCacheTest, WrongKeysEntryIsDataLossNotWrongResult) {
  // An entry renamed to another key's file name (cross-linked cache) must
  // fail the embedded-key check rather than satisfy the other key.
  const ResultCache cache(dir_);
  ASSERT_TRUE(cache.store(1, rich_result()).ok());
  fs::rename(cache.entry_path(1), cache.entry_path(2));
  Result<SimResult> r = cache.load(2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

// The checksum only proves the bytes are the ones written.  A re-sealed
// entry whose sampling-mode byte names no SampleMode must still be
// DATA_LOSS, not a result carrying an impossible plan.
TEST_F(SweepCacheTest, ResealedOutOfRangeModeIsDataLoss) {
  RunSpec spec = tiny_spec(BenchmarkId::kLbm);
  spec.sampling.mode = SampleMode::kInterval;
  spec.sampling.period_refs = 500;
  spec.sampling.window_refs = 100;
  spec.sampling.warmup_refs = 100;
  const SimResult result = run_spec(spec);
  const ResultCache cache(dir_);
  const std::uint64_t key = 9;
  ASSERT_TRUE(cache.store(key, result).ok());
  const FileEnvelope env{"RDHPSWPC", kSweepCacheSchemaVersion, "sweep cache"};
  Result<std::string> payload = open_envelope(env, key, cache.entry_path(key));
  ASSERT_TRUE(payload.ok()) << payload.status().to_string();
  std::string bytes = std::move(payload).value();
  // The payload ends with the sampling block: enabled, mode, period,
  // window, warmup, skipped, warmed, the window count and 7 words a window.
  const std::size_t windows = result.sampling.window_samples.size();
  const std::size_t mode_at = bytes.size() - 8 * (7 * windows + 1) - 5 * 8 - 1;
  ASSERT_EQ(bytes[mode_at - 1], 1);  // enabled
  ASSERT_EQ(bytes[mode_at], static_cast<char>(SampleMode::kInterval));
  bytes[mode_at] = 7;
  ASSERT_TRUE(write_file_atomic(cache.entry_path(key),
                                seal_envelope(env, key, bytes))
                  .ok());
  Result<SimResult> back = cache.load(key);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kDataLoss)
      << back.status().to_string();
}

SweepSpec four_cell_spec() {
  SweepSpec spec;
  spec.base = tiny_spec();
  spec.axes.push_back(
      {"workload",
       {{"mcf", [](RunSpec& s) { s.bench = BenchmarkId::kMcf; }},
        {"astar", [](RunSpec& s) { s.bench = BenchmarkId::kAstar; }}}});
  spec.axes.push_back(
      {"scheme",
       {{"Base", [](RunSpec& s) { s.scheme = Scheme::kBase; }},
        {"ReDHiP", [](RunSpec& s) { s.scheme = Scheme::kRedhip; }}}});
  return spec;
}

TEST_F(SweepCacheTest, WarmRerunSimulatesNothing) {
  SweepRunOptions opt;
  opt.cache_dir = dir_.string();
  const SweepOutcome cold = run_sweep(four_cell_spec(), opt);
  EXPECT_EQ(cold.stats.cells, 4u);
  EXPECT_EQ(cold.stats.simulated, 4u);
  EXPECT_EQ(cold.stats.cache_hits, 0u);

  const SweepOutcome warm = run_sweep(four_cell_spec(), opt);
  EXPECT_EQ(warm.stats.simulated, 0u);
  EXPECT_EQ(warm.stats.cache_hits, 4u);
  for (std::size_t i = 0; i < warm.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i].from_cache);
    EXPECT_TRUE(stats_identical(cold.cells[i].result, warm.cells[i].result));
  }
}

TEST_F(SweepCacheTest, ResumeSimulatesOnlyTheMissingCells) {
  SweepRunOptions opt;
  opt.cache_dir = dir_.string();
  const SweepOutcome cold = run_sweep(four_cell_spec(), opt);

  // An aborted sweep: two of four entries survive.
  ResultCache cache(dir_);
  cache.discard(cold.cells[1].key);
  cache.discard(cold.cells[2].key);

  const SweepOutcome resumed = run_sweep(four_cell_spec(), opt);
  EXPECT_EQ(resumed.stats.simulated, 2u);
  EXPECT_EQ(resumed.stats.cache_hits, 2u);
  EXPECT_TRUE(resumed.cells[0].from_cache);
  EXPECT_FALSE(resumed.cells[1].from_cache);
  EXPECT_FALSE(resumed.cells[2].from_cache);
  EXPECT_TRUE(resumed.cells[3].from_cache);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        stats_identical(cold.cells[i].result, resumed.cells[i].result));
  }
}

TEST_F(SweepCacheTest, CorruptEntryIsEvictedAndResimulated) {
  SweepRunOptions opt;
  opt.cache_dir = dir_.string();
  const SweepOutcome cold = run_sweep(four_cell_spec(), opt);

  const ResultCache cache(dir_);
  const fs::path victim = cache.entry_path(cold.cells[0].key);
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << "not a cache entry";
  }

  const SweepOutcome again = run_sweep(four_cell_spec(), opt);
  EXPECT_EQ(again.stats.simulated, 1u);
  EXPECT_EQ(again.stats.cache_hits, 3u);
  EXPECT_TRUE(stats_identical(cold.cells[0].result, again.cells[0].result));
  // And the rewritten entry is good again.
  EXPECT_TRUE(cache.load(cold.cells[0].key).ok());
}

TEST_F(SweepCacheTest, ResumeOffIgnoresButRefreshesTheCache) {
  SweepRunOptions opt;
  opt.cache_dir = dir_.string();
  run_sweep(four_cell_spec(), opt);

  opt.resume = false;
  const SweepOutcome fresh = run_sweep(four_cell_spec(), opt);
  EXPECT_EQ(fresh.stats.simulated, 4u);
  EXPECT_EQ(fresh.stats.cache_hits, 0u);

  opt.resume = true;
  const SweepOutcome warm = run_sweep(four_cell_spec(), opt);
  EXPECT_EQ(warm.stats.simulated, 0u);
  EXPECT_EQ(warm.stats.cache_hits, 4u);
}

TEST(OrphanTempName, MatchesOnlyWriterProducedSuffixes) {
  // What write_file_atomic produces: ".tmp" + [0-9_]* as a strict suffix.
  EXPECT_TRUE(is_orphan_temp_name("0123456789abcdef.rdc.tmp0"));
  EXPECT_TRUE(is_orphan_temp_name("0123456789abcdef.rdc.tmp4242_17"));
  EXPECT_TRUE(is_orphan_temp_name("x.ckpt.tmp1"));
  EXPECT_TRUE(is_orphan_temp_name("report.json.tmp"));

  // Files that merely *contain* ".tmp" are not ours to delete.
  EXPECT_FALSE(is_orphan_temp_name("results.tmpl.rdc"));
  EXPECT_FALSE(is_orphan_temp_name("notes.tmp.backup"));
  EXPECT_FALSE(is_orphan_temp_name("x.rdc.tmp0.old"));
  EXPECT_FALSE(is_orphan_temp_name("template"));
  EXPECT_FALSE(is_orphan_temp_name("0123456789abcdef.rdc"));
}

TEST_F(SweepCacheTest, GcRemovesOnlyOldWriterTemps) {
  const ResultCache cache(dir_);
  const auto touch = [&](const std::string& name) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out << "leftover";
  };
  touch("0000000000000001.rdc.tmp7");  // orphan from a killed writer
  touch("results.tmpl.rdc");           // user file containing ".tmp"
  touch("notes.tmp.backup");           // ditto
  // Backdate everything past any reasonable age gate.
  for (const auto& e : fs::directory_iterator(dir_)) {
    fs::last_write_time(e.path(), fs::file_time_type::clock::now() -
                                      std::chrono::hours(24));
  }

  EXPECT_EQ(cache.gc_orphan_temps(std::chrono::seconds(900)), 1u);
  EXPECT_FALSE(fs::exists(dir_ / "0000000000000001.rdc.tmp7"));
  EXPECT_TRUE(fs::exists(dir_ / "results.tmpl.rdc"));
  EXPECT_TRUE(fs::exists(dir_ / "notes.tmp.backup"));
}

TEST_F(SweepCacheTest, GcSparesYoungTempsOfLiveWriters) {
  const ResultCache cache(dir_);
  {
    std::ofstream out(dir_ / "0000000000000002.rdc.tmp3", std::ios::binary);
    out << "in flight";
  }
  // Just written: a concurrent live sweep may still be about to rename it.
  EXPECT_EQ(cache.gc_orphan_temps(std::chrono::seconds(900)), 0u);
  EXPECT_TRUE(fs::exists(dir_ / "0000000000000002.rdc.tmp3"));
  // With the age gate waived it is collected.
  EXPECT_EQ(cache.gc_orphan_temps(std::chrono::seconds(0)), 1u);
  EXPECT_FALSE(fs::exists(dir_ / "0000000000000002.rdc.tmp3"));
}

TEST_F(SweepCacheTest, CellTimeoutAppliesAtExecutionNotEnqueue) {
  // The per-cell wall-clock budget belongs to the executing cell: the
  // warm pass must never stamp it (cache hits do not run), and a simulated
  // cell receives it when its task starts — so queue wait behind long jobs
  // is reported, never charged.
  SweepRunOptions opt;
  opt.cache_dir = dir_.string();
  opt.cell_timeout = 60.0;
  opt.jobs = 1;
  const SweepOutcome cold = run_sweep(four_cell_spec(), opt);
  for (const SweepCell& cell : cold.cells) {
    EXPECT_TRUE(cell.status.ok()) << cell.status.to_string();
    EXPECT_EQ(cell.spec.deadline_seconds, 60.0);
    EXPECT_GE(cell.result.queue_wait_seconds, 0.0);
  }

  const SweepOutcome warm = run_sweep(four_cell_spec(), opt);
  EXPECT_EQ(warm.stats.cache_hits, 4u);
  for (const SweepCell& cell : warm.cells) {
    // Never executed, never given a deadline.
    EXPECT_EQ(cell.spec.deadline_seconds, 0.0);
  }
}

TEST_F(SweepCacheTest, StopFlagStopsTheSweepAndStoresNoStoppedCell) {
  // Two of four cells are already cached, as after an earlier interrupted
  // run; the other two are stopped by a flag that is already set.
  SweepRunOptions opt;
  opt.cache_dir = (dir_ / "cache").string();
  opt.ckpt_dir = (dir_ / "ckpt").string();
  const SweepOutcome cold = run_sweep(four_cell_spec(), opt);
  ResultCache cache(opt.cache_dir);
  cache.discard(cold.cells[1].key);
  cache.discard(cold.cells[2].key);
  fs::remove_all(opt.ckpt_dir);

  std::atomic<bool> stop{true};
  SweepSpec spec = four_cell_spec();
  spec.base.stop_flag = &stop;
  EXPECT_THROW(run_sweep(spec, opt), GracefulShutdownRequest);

  EXPECT_TRUE(cache.load(cold.cells[0].key).ok());
  EXPECT_TRUE(cache.load(cold.cells[3].key).ok());
  EXPECT_EQ(cache.load(cold.cells[1].key).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cache.load(cold.cells[2].key).status().code(),
            StatusCode::kNotFound);
  // Queued cells never started, so none of them left a checkpoint.
  EXPECT_TRUE(fs::is_empty(opt.ckpt_dir));

  // The stop flag is not part of the key: the resumed sweep finds the
  // cached cells and simulates only the stopped ones.
  stop = false;
  const SweepOutcome resumed = run_sweep(spec, opt);
  EXPECT_EQ(resumed.stats.cache_hits, 2u);
  EXPECT_EQ(resumed.stats.simulated, 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        stats_identical(cold.cells[i].result, resumed.cells[i].result));
  }
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

using SweepExecutor = SweepCacheTest;

TEST_F(SweepExecutor, JobsCountNeverChangesResultsOrCache) {
  // Cells run side by side share nothing but the cache directory, so the
  // worker count must not show in any result: the CSV report and every
  // cache file are byte-identical between one job and four.
  std::vector<std::string> csv;
  for (std::size_t jobs : {1u, 4u}) {
    SweepRunOptions opt;
    opt.cache_dir = (dir_ / ("jobs" + std::to_string(jobs))).string();
    opt.jobs = jobs;
    const SweepOutcome out = run_sweep(four_cell_spec(), opt);
    EXPECT_EQ(out.stats.simulated, 4u);
    csv.push_back(sweep_report_csv(out));
  }
  EXPECT_EQ(csv[0], csv[1]);

  std::vector<std::string> names[2];
  for (int i = 0; i < 2; ++i) {
    const fs::path dir = dir_ / (i == 0 ? "jobs1" : "jobs4");
    for (const auto& e : fs::directory_iterator(dir)) {
      names[i].push_back(e.path().filename().string());
    }
    std::sort(names[i].begin(), names[i].end());
  }
  ASSERT_EQ(names[0].size(), 4u);
  ASSERT_EQ(names[0], names[1]);
  for (const std::string& n : names[0]) {
    EXPECT_EQ(slurp(dir_ / "jobs1" / n), slurp(dir_ / "jobs4" / n))
        << "cache entry " << n;
  }
}

}  // namespace
}  // namespace redhip
