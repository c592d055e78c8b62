// The distributed sweep farm (src/farm): protocol payloads survive the
// wire codec, a coordinator plus loopback workers produces bit-identical
// results to a single-process sweep (merged cache files included), and a
// worker SIGKILLed mid-cell only costs a re-lease — never a lost or wrong
// cell.  Fork-based like ckpt_kill_test: the coordinator spawns real
// worker processes over real sockets.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "farm/coordinator.h"
#include "farm/protocol.h"
#include "farm/worker.h"
#include "sweep/result_cache.h"
#include "sweep/sweep.h"

namespace redhip {
namespace {

namespace fs = std::filesystem;

class FarmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("redhip-farm-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// The job every end-to-end test runs: 2 workloads x 2 schemes at a tiny
// scale, enough cells to spread over workers but fast enough for CI.
FarmJob tiny_job() {
  FarmJob job;
  const RunSpec defaults;
  job.bench = to_string(defaults.bench);
  job.scheme = static_cast<std::uint8_t>(Scheme::kRedhip);
  job.inclusion = static_cast<std::uint8_t>(defaults.inclusion);
  job.engine = static_cast<std::uint8_t>(defaults.engine);
  job.scale = 32;
  job.refs_per_core = 2'000;
  job.seed = 42;
  job.benches = {"mcf", "bwaves"};
  job.axis_specs = {"workload=mcf,bwaves", "scheme=Base,ReDHiP"};
  return job;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Two cache directories hold the same entries with the same bytes.
void expect_caches_identical(const fs::path& a, const fs::path& b) {
  std::vector<std::string> names_a, names_b;
  for (const auto& e : fs::directory_iterator(a)) {
    names_a.push_back(e.path().filename().string());
  }
  for (const auto& e : fs::directory_iterator(b)) {
    names_b.push_back(e.path().filename().string());
  }
  std::sort(names_a.begin(), names_a.end());
  std::sort(names_b.begin(), names_b.end());
  ASSERT_EQ(names_a, names_b);
  for (const std::string& n : names_a) {
    EXPECT_EQ(slurp(a / n), slurp(b / n)) << "cache entry " << n;
  }
}

TEST(FarmProtocol, JobRoundTripsEveryField) {
  FarmJob job = tiny_job();
  job.prefetch = true;
  job.engine = static_cast<std::uint8_t>(SimEngine::kReference);
  job.cell_timeout = 12.5;
  job.sampling.mode = SampleMode::kInterval;
  job.sampling.period_refs = 1'000;
  job.sampling.window_refs = 100;
  job.sampling.warmup_refs = 50;

  Result<FarmJob> rt = deserialize_job(serialize_job(job));
  ASSERT_TRUE(rt.ok()) << rt.status().to_string();
  const FarmJob& out = rt.value();
  EXPECT_EQ(out.bench, job.bench);
  EXPECT_EQ(out.scheme, job.scheme);
  EXPECT_EQ(out.inclusion, job.inclusion);
  EXPECT_EQ(out.engine, job.engine);
  EXPECT_EQ(out.scale, job.scale);
  EXPECT_EQ(out.refs_per_core, job.refs_per_core);
  EXPECT_EQ(out.prefetch, job.prefetch);
  EXPECT_EQ(out.seed, job.seed);
  EXPECT_EQ(out.sampling.mode, job.sampling.mode);
  EXPECT_EQ(out.sampling.period_refs, job.sampling.period_refs);
  EXPECT_EQ(out.cell_timeout, job.cell_timeout);
  EXPECT_EQ(out.benches, job.benches);
  EXPECT_EQ(out.axis_specs, job.axis_specs);

  // Enum bytes outside their type's range fail closed as a malformed job:
  // an engine no run_spec case matches would run nothing and report a
  // zeroed result.
  const auto rejected = [](FarmJob bad, const char* what) {
    const Result<FarmJob> r = deserialize_job(serialize_job(bad));
    EXPECT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << what;
    EXPECT_NE(r.status().message().find("malformed job"), std::string::npos)
        << what << ": " << r.status().message();
    EXPECT_EQ(decode_welcome(encode_welcome(bad, 1, 0)).status().code(),
              StatusCode::kDataLoss)
        << what;
  };
  FarmJob bad = job;
  bad.engine = 2;
  rejected(bad, "engine 2");
  bad.engine = 255;
  rejected(bad, "engine 255");
  bad = job;
  bad.scheme = 255;
  rejected(bad, "scheme 255");
  bad = job;
  bad.inclusion = 255;
  rejected(bad, "inclusion 255");
  bad = job;
  bad.sampling.mode = static_cast<SampleMode>(255);
  rejected(bad, "sampling mode 255");
}

TEST(FarmProtocol, MalformedPayloadsAreDataLoss) {
  const std::string good = serialize_job(tiny_job());
  EXPECT_EQ(deserialize_job(good.substr(0, good.size() / 2)).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(deserialize_job(good + "junk").status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(decode_welcome("nope").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decode_assign("x").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decode_result("").status().code(), StatusCode::kDataLoss);
}

TEST(FarmProtocol, ExpansionIsReproducibleAcrossRebuilds) {
  // The whole farm rests on this: a worker that rebuilds the SweepSpec
  // from the shipped FarmJob expands the identical cell list, keys and
  // all.  Two independent rebuilds must agree exactly.
  const FarmJob job = tiny_job();
  Result<FarmJob> shipped = deserialize_job(serialize_job(job));
  ASSERT_TRUE(shipped.ok());
  const std::vector<SweepCell> a = expand(build_sweep_spec(job));
  const std::vector<SweepCell> b = expand(build_sweep_spec(shipped.value()));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(cells_digest(a), cells_digest(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "cell " << i;
    EXPECT_EQ(a[i].labels, b[i].labels) << "cell " << i;
  }
}

TEST(FarmProtocol, ResultCodecCarriesStatusAndResult) {
  SimResult r;
  r.exec_cycles = 123;
  r.total_refs = 456;
  r.levels.resize(2);
  r.levels[0].hits = 7;
  const std::string ok_payload =
      encode_result(9, 0xabcdef, Status::Ok(), r);
  Result<CellResult> ok = decode_result(ok_payload);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().index, 9u);
  EXPECT_EQ(ok.value().key, 0xabcdefu);
  EXPECT_TRUE(ok.value().status.ok());
  EXPECT_EQ(ok.value().result.exec_cycles, 123u);
  EXPECT_EQ(ok.value().result.levels[0].hits, 7u);

  const std::string err_payload = encode_result(
      3, 0x42, Status(StatusCode::kDeadlineExceeded, "too slow"), SimResult{});
  Result<CellResult> err = decode_result(err_payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(err.value().status.message(), "too slow");
}

TEST(FarmProtocol, UnknownBenchmarkIsBuildDriftNotACrash) {
  FarmJob job = tiny_job();
  job.benches = {"not-a-benchmark"};
  job.axis_specs = {"workload=all"};
  EXPECT_THROW(build_sweep_spec(job), std::exception);
}

TEST_F(FarmTest, FarmMatchesSingleProcessBitIdentically) {
  const FarmJob job = tiny_job();

  SweepRunOptions local_opt;
  local_opt.cache_dir = (dir_ / "cache_local").string();
  const SweepOutcome local = run_sweep(build_sweep_spec(job), local_opt);

  SweepRunOptions farm_opt;
  farm_opt.cache_dir = (dir_ / "cache_farm").string();
  FarmOptions farm;
  farm.local_workers = 2;
  farm.verbose = false;
  FarmReport rep;
  const SweepOutcome farmed = run_sweep_farm(job, farm_opt, farm, &rep);

  ASSERT_EQ(local.cells.size(), farmed.cells.size());
  EXPECT_EQ(local.stats.cells, farmed.stats.cells);
  EXPECT_EQ(local.stats.cache_hits, farmed.stats.cache_hits);
  EXPECT_EQ(local.stats.simulated, farmed.stats.simulated);
  for (std::size_t i = 0; i < local.cells.size(); ++i) {
    ASSERT_TRUE(farmed.cells[i].status.ok())
        << farmed.cells[i].status.to_string();
    EXPECT_EQ(local.cells[i].key, farmed.cells[i].key);
    // The payload codec covers every simulated field; equal bytes = equal
    // results, and it is exactly what both caches persisted.
    EXPECT_EQ(serialize_result(local.cells[i].result),
              serialize_result(farmed.cells[i].result))
        << "cell " << i;
  }
  expect_caches_identical(dir_ / "cache_local", dir_ / "cache_farm");

  std::size_t farmed_cells = 0;
  for (const WorkerProgress& w : rep.workers) farmed_cells += w.completed;
  EXPECT_EQ(farmed_cells, farmed.stats.simulated);
}

TEST_F(FarmTest, SigkilledWorkerOnlyCostsARelease) {
  const FarmJob job = tiny_job();

  SweepRunOptions local_opt;
  local_opt.cache_dir = (dir_ / "cache_local").string();
  run_sweep(build_sweep_spec(job), local_opt);

  SweepRunOptions farm_opt;
  farm_opt.cache_dir = (dir_ / "cache_farm").string();
  FarmOptions farm;
  farm.local_workers = 3;
  // Worker local-0 raises SIGKILL upon receiving its first assignment:
  // dead mid-cell, lease outstanding, no result sent, no cleanup.
  farm.kill_first_worker_after = 0;
  farm.verbose = false;
  FarmReport rep;
  const SweepOutcome farmed = run_sweep_farm(job, farm_opt, farm, &rep);

  for (const SweepCell& cell : farmed.cells) {
    EXPECT_TRUE(cell.status.ok()) << cell.status.to_string();
  }
  EXPECT_GE(rep.releases, 1u);  // the killed worker's cell was re-queued
  for (const WorkerProgress& w : rep.workers) {
    if (w.name == "local-0") {
      EXPECT_EQ(w.completed, 0u);
    }
  }
  // The survivors finished everything, and the merged cache is exactly
  // what an undisturbed single-process sweep writes.
  expect_caches_identical(dir_ / "cache_local", dir_ / "cache_farm");
}

TEST_F(FarmTest, WarmFarmRunServesEverythingFromCache) {
  const FarmJob job = tiny_job();
  SweepRunOptions opt;
  opt.cache_dir = (dir_ / "cache").string();
  FarmOptions farm;
  farm.local_workers = 2;
  farm.verbose = false;
  const SweepOutcome cold = run_sweep_farm(job, opt, farm, nullptr);
  EXPECT_EQ(cold.stats.simulated, cold.stats.cells);

  // Second run: the warm pass satisfies every cell, so no listener, no
  // workers, no network — and the outcome still matches.
  FarmReport rep;
  const SweepOutcome warm = run_sweep_farm(job, opt, farm, &rep);
  EXPECT_EQ(warm.stats.cache_hits, warm.stats.cells);
  EXPECT_EQ(warm.stats.simulated, 0u);
  EXPECT_TRUE(rep.workers.empty());
  for (std::size_t i = 0; i < warm.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i].from_cache);
    EXPECT_EQ(serialize_result(cold.cells[i].result),
              serialize_result(warm.cells[i].result));
  }
}

}  // namespace
}  // namespace redhip
