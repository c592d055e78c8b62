// Checkpoint codec robustness (src/ckpt/checkpoint_io).  The on-disk file
// is self-validating — magic, schema version, embedded key, length, XXH64
// payload checksum — so *no* corruption may ever load: every single-byte
// flip, every truncation and a wrong expected key must come back DATA_LOSS
// (and never crash, and never mutate the simulation into a wrong state that
// then runs).  A missing file is NOT_FOUND, the one cold-start case that
// carries no diagnostic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_io.h"
#include "common/bytestream.h"
#include "common/file_io.h"
#include "harness/json_report.h"
#include "harness/run.h"
#include "sim/config_digest.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

// Small machine, short run: keeps the checkpoint file small enough to
// afford a load attempt per corrupted byte.
RunSpec small_spec() {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 16;  // smallest machine cacti_lite still prices (L1 >= 1KB)
  spec.refs_per_core = 4'000;
  spec.seed = 99;
  return spec;
}

std::unique_ptr<MulticoreSimulator> build_sim(const RunSpec& spec) {
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

std::uint64_t key_of(const RunSpec& spec) {
  return ckpt_key(to_string(spec.bench), spec.scale, spec.seed,
                  config_digest(resolved_config(spec)));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Writes a mid-run checkpoint via the one-shot save_at hook and returns its
// path.  The file is produced by the real engine at a real safe boundary —
// the same artifact production code paths write.
std::string make_checkpoint(const RunSpec& spec, const std::string& path) {
  CkptControl ctl;
  ctl.save_at_refs = 8'000;  // mid-run: 4k refs/core x 8 cores = 32k total
  const std::uint64_t key = key_of(spec);
  ctl.save = [&path, key](MulticoreSimulator& s) {
    ASSERT_TRUE(save_checkpoint(s, path, key).ok());
  };
  auto sim = build_sim(spec);
  sim->set_ckpt_control(&ctl);
  sim->run(spec.refs_per_core);
  return path;
}

class CkptCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("redhip_ckpt_codec_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    std::filesystem::create_directories(dir_);
    spec_ = small_spec();
    path_ = (dir_ / "probe.ckpt").string();
    make_checkpoint(spec_, path_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  RunSpec spec_;
  std::string path_;
};

TEST_F(CkptCodecTest, IntactFileLoads) {
  auto sim = build_sim(spec_);
  const Status st = load_checkpoint(path_, key_of(spec_), *sim);
  ASSERT_TRUE(st.ok()) << st.to_string();
  // The save fires at the first safe boundary at or past save_at_refs.
  EXPECT_GE(sim->ckpt_refs_done(), 8'000u);
  EXPECT_LT(sim->ckpt_refs_done(), 32'000u);
  // A restored simulator finishes the run normally.
  const SimResult r = sim->run(spec_.refs_per_core);
  EXPECT_EQ(r.total_refs, spec_.refs_per_core * 8);
}

TEST_F(CkptCodecTest, MissingFileIsNotFound) {
  auto sim = build_sim(spec_);
  const Status st =
      load_checkpoint((dir_ / "absent.ckpt").string(), key_of(spec_), *sim);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.to_string();
}

TEST_F(CkptCodecTest, WrongExpectedKeyIsDataLoss) {
  auto sim = build_sim(spec_);
  const Status st = load_checkpoint(path_, key_of(spec_) ^ 1, *sim);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
}

// A checkpoint from a different configuration (here: another seed, which
// shifts workload contents and the key) must never restore into this one.
TEST_F(CkptCodecTest, ForeignConfigCheckpointIsDataLoss) {
  RunSpec other = spec_;
  other.seed = 100;
  auto sim = build_sim(other);
  const Status st = load_checkpoint(path_, key_of(other), *sim);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
}

// Exhaustive single-byte-flip and single-byte-truncation coverage of the
// envelope codec itself (the layer every validation check lives in), on a
// payload small enough that every position is affordable: no matter which
// byte is damaged — magic, version, key, length, payload, checksum — the
// file must refuse to open.
TEST(CkptEnvelope, EveryByteFlipAndTruncationRejected) {
  const FileEnvelope env{"RDHPPROB", 7, "probe"};
  std::string payload;
  for (int i = 0; i < 64; ++i) payload += static_cast<char>(i * 37);
  const std::uint64_t key = 0x1122334455667788ull;
  const std::string good = seal_envelope(env, key, payload);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "redhip_envelope_probe").string();

  spill(path, good);
  ASSERT_TRUE(open_envelope(env, key, path).ok());
  EXPECT_EQ(open_envelope(env, key ^ 4, path).status().code(),
            StatusCode::kDataLoss);

  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const unsigned char delta : {0x01, 0x80}) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ delta);
      spill(path, bad);
      EXPECT_EQ(open_envelope(env, key, path).status().code(),
                StatusCode::kDataLoss)
          << "flipped byte " << i;
    }
  }
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    spill(path, good.substr(0, cut));
    EXPECT_EQ(open_envelope(env, key, path).status().code(),
              StatusCode::kDataLoss)
        << "truncated to " << cut;
  }
  std::filesystem::remove(path);
}

// The same discipline on a real ~1MB checkpoint: every header byte, the
// checksum tail, and a prime-strided sample of the payload (an exhaustive
// per-byte loop over the file would be quadratic in its size; every payload
// byte is already protected by the same checksum the strided sample hits).
//
// The corruption loops reuse ONE never-run target simulator: a rejected
// load may leave it partially mutated, but that cannot change how the next
// file validates (every check reads the file and the immutable config), and
// production code discards a partially-mutated sim anyway (run_spec
// rebuilds on DATA_LOSS).
TEST_F(CkptCodecTest, CorruptedCheckpointIsDataLoss) {
  const std::string good = slurp(path_);
  ASSERT_GT(good.size(), 36u);  // more than just the header
  const std::string mut_path = (dir_ / "mut.ckpt").string();
  const std::uint64_t key = key_of(spec_);
  auto sim = build_sim(spec_);
  std::vector<std::size_t> flips;
  for (std::size_t i = 0; i < 36; ++i) flips.push_back(i);
  for (std::size_t i = 36; i < good.size(); i += 9973) flips.push_back(i);
  for (std::size_t i = good.size() - 8; i < good.size(); ++i) {
    flips.push_back(i);
  }
  for (std::size_t i : flips) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    spill(mut_path, bad);
    const Status st = load_checkpoint(mut_path, key, *sim);
    ASSERT_EQ(st.code(), StatusCode::kDataLoss)
        << "flipped byte " << i << " of " << good.size() << ": "
        << st.to_string();
  }
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i <= 36; ++i) cuts.push_back(i);
  for (std::size_t i = 37; i < good.size(); i += 9973) cuts.push_back(i);
  cuts.push_back(good.size() - 1);
  for (std::size_t cut : cuts) {
    spill(mut_path, good.substr(0, cut));
    const Status st = load_checkpoint(mut_path, key, *sim);
    ASSERT_EQ(st.code(), StatusCode::kDataLoss)
        << "truncated to " << cut << " bytes: " << st.to_string();
  }
}

TEST_F(CkptCodecTest, TrailingGarbageIsDataLoss) {
  const std::string mut_path = (dir_ / "padded.ckpt").string();
  spill(mut_path, slurp(path_) + "extra");
  auto sim = build_sim(spec_);
  const Status st = load_checkpoint(mut_path, key_of(spec_), *sim);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
}

// Save cost is charged on the saving thread's CPU clock: a sibling thread
// burning CPU during the saves (a --jobs=N worker) must not be billed to
// them.  Process CPU would read about twice the saves' wall time here.
TEST_F(CkptCodecTest, SaveCpuExcludesOtherThreads) {
  auto sim = build_sim(spec_);
  const std::uint64_t key = key_of(spec_);
  const std::string path = (dir_ / "timed.ckpt").string();

  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::thread spinner([&] {
    started.store(true);
    volatile std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) sink = sink + 1;
  });
  while (!started.load()) std::this_thread::yield();

  ckpt_profile_reset();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(save_checkpoint(*sim, path, key).ok());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop.store(true);
  spinner.join();

  EXPECT_EQ(ckpt_profile_save_count(), 20u);
  EXPECT_GT(ckpt_profile_save_cpu_seconds(), 0.0);
  EXPECT_LE(ckpt_profile_save_cpu_seconds(), wall * 1.2)
      << "save CPU " << ckpt_profile_save_cpu_seconds() << "s over " << wall
      << "s of wall time";
}

TEST_F(CkptCodecTest, EvictRemovesTheFile) {
  EXPECT_TRUE(evict_checkpoint(path_));
  EXPECT_FALSE(std::filesystem::exists(path_));
  auto sim = build_sim(spec_);
  EXPECT_EQ(load_checkpoint(path_, key_of(spec_), *sim).code(),
            StatusCode::kNotFound);
}

// Forwards to a workload source and records how the simulator drives it:
// every skip() call and every refill (the source position it started at,
// the count requested).  Its own position travels in its state, so a
// restored wrapper knows where its source stands.
class CountingSource final : public TraceSource {
 public:
  explicit CountingSource(std::unique_ptr<TraceSource> inner)
      : inner_(std::move(inner)) {}

  bool next(MemRef& out) override {
    const bool ok = inner_->next(out);
    pos += ok ? 1 : 0;
    return ok;
  }
  std::size_t next_batch(MemRef* out, std::size_t n) override {
    refills.emplace_back(pos, n);
    const std::size_t got = inner_->next_batch(out, n);
    pos += got;
    return got;
  }
  void skip(std::uint64_t n) override {
    ++skips;
    inner_->skip(n);
    pos += n;
  }
  bool ckpt_save_state(ByteWriter& w) const override {
    w.u64(pos);
    return inner_->ckpt_save_state(w);
  }
  bool ckpt_load_state(ByteReader& r) override {
    pos = r.u64();
    return inner_->ckpt_load_state(r);
  }

  std::uint64_t pos = 0;
  std::uint64_t skips = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> refills;

 private:
  std::unique_ptr<TraceSource> inner_;
};

struct CountedSim {
  std::unique_ptr<MulticoreSimulator> sim;
  std::vector<CountingSource*> sources;  // owned by `sim`
};

CountedSim build_counted_sim(const RunSpec& spec) {
  const HierarchyConfig config = resolved_config(spec);
  CountedSim out;
  std::vector<std::unique_ptr<TraceSource>> traces;
  std::vector<std::uint32_t> cpis;
  for (CoreId c = 0; c < config.cores; ++c) {
    auto src = std::make_unique<CountingSource>(
        make_workload(spec.bench, c, spec.scale, spec.seed));
    out.sources.push_back(src.get());
    traces.push_back(std::move(src));
    cpis.push_back(workload_cpi_centi(spec.bench, c));
  }
  out.sim = std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                                 std::move(cpis));
  return out;
}

// A restore repositions every core from its saved generator state and
// stored refill-buffer tail: no source is ever skip()ped, and the resumed
// run equals the uninterrupted one in its result, its JSONL trace and the
// position and size of every later refill.  Covered: the plain run loop,
// the prefetching one, and fault injection (whose trace perturbation acts
// on a copy, so the stored tail must be the unperturbed references).
TEST_F(CkptCodecTest, RestoreRepositionsEveryCoreWithoutReplay) {
  for (const std::string feature : {"plain", "prefetch", "fault"}) {
    SCOPED_TRACE(feature);
    RunSpec spec = small_spec();
    spec.prefetch = feature == "prefetch";
    const std::string trace = (dir_ / "run.jsonl").string();
    spec.tweak = [&feature, &trace](HierarchyConfig& hc) {
      hc.obs.enabled = true;
      hc.obs.epoch_refs = 4'000;
      hc.obs.trace_path = trace;
      if (feature == "fault") {
        hc.fault.enabled = true;
        hc.fault.rate_per_mref = 2'000;
        hc.audit.enabled = true;
      }
    };
    const std::uint64_t key = key_of(spec);
    const std::string ckpt = (dir_ / "tail.ckpt").string();

    // Uninterrupted, checkpointing once mid-run (saving is invisible).
    SimResult plain;
    std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> refills;
    {
      CkptControl ctl;
      ctl.save_at_refs = 10'000;  // of 32k aggregate
      ctl.save = [&ckpt, key](MulticoreSimulator& s) {
        ASSERT_TRUE(save_checkpoint(s, ckpt, key).ok());
      };
      CountedSim run = build_counted_sim(spec);
      run.sim->set_ckpt_control(&ctl);
      plain = run.sim->run(spec.refs_per_core);
      for (const CountingSource* src : run.sources) {
        refills.push_back(src->refills);
      }
    }
    const std::string plain_trace = slurp(trace);

    CountedSim resumed = build_counted_sim(spec);
    CkptControl no_saves;  // as run_spec does: capture the trace prefix
    resumed.sim->set_ckpt_control(&no_saves);
    const Status st = load_checkpoint(ckpt, key, *resumed.sim);
    ASSERT_TRUE(st.ok()) << st.to_string();
    // Some core was saved mid-batch: its source stands past what it has
    // consumed, and the difference sits in the restored refill buffer.
    std::uint64_t generated = 0;
    for (const CountingSource* src : resumed.sources) generated += src->pos;
    EXPECT_GT(generated, resumed.sim->ckpt_refs_done());
    std::vector<std::uint64_t> start;
    for (const CountingSource* src : resumed.sources) {
      start.push_back(src->pos);
    }
    const SimResult got = resumed.sim->run(spec.refs_per_core);
    for (std::size_t c = 0; c < resumed.sources.size(); ++c) {
      const CountingSource& src = *resumed.sources[c];
      EXPECT_EQ(src.skips, 0u) << "core " << c;
      std::vector<std::pair<std::uint64_t, std::size_t>> later;
      for (const auto& refill : refills[c]) {
        if (refill.first >= start[c]) later.push_back(refill);
      }
      EXPECT_EQ(src.refills, later) << "core " << c;
    }
    resumed.sim.reset();  // flush the trace
    EXPECT_TRUE(stats_identical(plain, got));
    EXPECT_EQ(to_json(plain), to_json(got));
    EXPECT_EQ(slurp(trace), plain_trace);
  }
}

// Offset of core 0's refill-buffer tail count in a payload whose sources
// keep an 8-byte state (VectorTraceSource): the structural echo (cores,
// levels), core 0's fixed fields (refs_done, clock, CPI remainder,
// exhausted), the trace-state flag, the state's length and the state
// itself.
constexpr std::size_t kCore0StateLenAt = 4 + 4 + 8 + 8 + 4 + 1 + 1;
constexpr std::size_t kCore0TailAt = kCore0StateLenAt + 8 + 8;

// A stored tail longer than one refill batch cannot have come from the
// simulator; the restore refuses it rather than overrun the buffer.
TEST(CkptTail, TailLongerThanARefillBatchIsDataLoss) {
  const HierarchyConfig config = resolved_config(small_spec());
  const auto build = [&config] {
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (CoreId c = 0; c < config.cores; ++c) {
      std::vector<MemRef> refs(2'000);
      for (std::size_t i = 0; i < refs.size(); ++i) {
        refs[i].addr = (std::uint64_t{c + 1} << 32) + 64 * (i % 300);
        refs[i].gap = 3;
      }
      traces.push_back(std::make_unique<VectorTraceSource>(std::move(refs)));
    }
    return std::make_unique<MulticoreSimulator>(
        config, std::move(traces),
        std::vector<std::uint32_t>(config.cores, 100));
  };
  const std::string path =
      (std::filesystem::temp_directory_path() / "redhip_ckpt_tail").string();
  const FileEnvelope env{"RDHPCKPT", kCkptSchemaVersion, "checkpoint"};
  const std::uint64_t key = 0x5eed;
  CkptControl ctl;
  ctl.save_at_refs = 3'000;
  ctl.save = [&path, key](MulticoreSimulator& s) {
    ASSERT_TRUE(save_checkpoint(s, path, key).ok());
  };
  {
    auto sim = build();
    sim->set_ckpt_control(&ctl);
    sim->run(2'000);
  }
  Result<std::string> payload = open_envelope(env, key, path);
  ASSERT_TRUE(payload.ok()) << payload.status().to_string();
  std::string bytes = std::move(payload).value();
  ASSERT_GT(bytes.size(), kCore0TailAt + 4);
  ASSERT_EQ(load_le64(bytes.data() + kCore0StateLenAt), 8u);
  const std::uint32_t tail = load_le32(bytes.data() + kCore0TailAt);
  ASSERT_LE(tail, MulticoreSimulator::kRefillBatch);

  // The file as written restores; the same file claiming one more entry
  // than a batch holds is DATA_LOSS.
  ASSERT_TRUE(load_checkpoint(path, key, *build()).ok());
  const std::uint32_t too_long = MulticoreSimulator::kRefillBatch + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[kCore0TailAt + i] = static_cast<char>(too_long >> (8 * i));
  }
  spill(path, seal_envelope(env, key, bytes));
  const Status st = load_checkpoint(path, key, *build());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  std::filesystem::remove(path);
}

// A re-sealed checkpoint passes the checksum, so the decoder must judge
// values itself: an EpochSample::predictor_active byte of 2 (neither false
// nor true) is DATA_LOSS, not a restored `true`.
TEST_F(CkptCodecTest, ResealedNonBooleanByteIsDataLoss) {
  RunSpec spec = small_spec();
  spec.tweak = [](HierarchyConfig& c) {
    c.obs.enabled = true;
    c.obs.epoch_refs = 2'000;
  };
  const std::string path = (dir_ / "obs.ckpt").string();
  const std::uint64_t key = key_of(spec);
  CkptControl ctl;
  ctl.save_at_refs = 8'000;
  ctl.save = [&path, key](MulticoreSimulator& s) {
    ASSERT_TRUE(save_checkpoint(s, path, key).ok());
  };
  auto sim = build_sim(spec);
  sim->set_ckpt_control(&ctl);
  const SimResult result = sim->run(spec.refs_per_core);
  ASSERT_GE(result.epochs.size(), 2u);

  // The first epoch closed before the save; find its fields in the payload
  // (15 words, then the flag byte).
  const EpochSample& e = result.epochs.front();
  ByteWriter words;
  for (std::uint64_t v :
       {e.index, e.end_ref, e.end_cycles, e.refs, e.l1_accesses, e.l1_misses,
        e.lookups, e.predicted_absent, e.predicted_present, e.tp, e.fp, e.tn,
        e.fn, e.recalibrations, e.pt_occupancy}) {
    words.u64(v);
  }
  const FileEnvelope env{"RDHPCKPT", kCkptSchemaVersion, "checkpoint"};
  Result<std::string> payload = open_envelope(env, key, path);
  ASSERT_TRUE(payload.ok()) << payload.status().to_string();
  std::string bytes = std::move(payload).value();
  const std::string needle(words.buffer().begin(), words.buffer().end());
  const std::size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(needle, at + 1), std::string::npos);
  const std::size_t flag_at = at + needle.size();
  ASSERT_EQ(bytes[flag_at], 1);

  ASSERT_TRUE(load_checkpoint(path, key, *build_sim(spec)).ok());
  bytes[flag_at] = 2;
  spill(path, seal_envelope(env, key, bytes));
  const Status st = load_checkpoint(path, key, *build_sim(spec));
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
}

// A file from before the current schema names its version in the
// diagnostic: the header is checked before the checksum is computed, so an
// old file never reads as damage.
TEST_F(CkptCodecTest, OlderSchemaIsDataLossNamingTheVersion) {
  std::string bytes = slurp(path_);
  const std::uint32_t old_version = kCkptSchemaVersion - 1;
  for (int i = 0; i < 4; ++i) {
    bytes[8 + i] = static_cast<char>(old_version >> (8 * i));
  }
  const std::string old_path = (dir_ / "v4.ckpt").string();
  spill(old_path, bytes);
  auto sim = build_sim(spec_);
  const Status st = load_checkpoint(old_path, key_of(spec_), *sim);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.to_string().find("schema version 4"), std::string::npos)
      << st.to_string();
  EXPECT_EQ(st.to_string().find("checksum"), std::string::npos)
      << st.to_string();
}

}  // namespace
}  // namespace redhip
