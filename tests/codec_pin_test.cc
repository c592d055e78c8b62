// Byte pins for the two binary codecs.  A sweep cache entry (.rdc) and a
// checkpoint (.ckpt) are read back by later builds only when their schema
// version matches, so a codec change that moves one byte without a schema
// bump would turn every cached result and saved run into silent garbage.
// These tests pin the XXH64 of real payloads: the result codec on a rich
// and a sampled result, the checkpoint codec on machines that together
// cover every scheme x inclusion pair, sampling, observability, fault
// injection with auditing, auto-disable and the stride prefetcher, and the
// saved state of every trace kernel.  A failure prints the new digest; a
// deliberate format change updates the pin *and* the schema version.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint_io.h"
#include "common/bytestream.h"
#include "common/checksum.h"
#include "harness/run.h"
#include "rich_result.h"
#include "sim/simulator.h"
#include "sweep/config_digest.h"
#include "sweep/result_cache.h"
#include "sweep/sweep.h"
#include "trace/kernels.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::uint64_t digest(const ByteWriter& w) {
  return checksum64(w.buffer().data(), w.buffer().size());
}

TEST(CodecPin, SchemaVersionsAreUnchanged) {
  EXPECT_EQ(kCkptSchemaVersion, 5u);
  EXPECT_EQ(kSweepCacheSchemaVersion, 4u);
}

TEST(CodecPin, ResultCachePayloads) {
  const std::string rich = serialize_result(rich_result());
  EXPECT_EQ(hex(checksum64(rich.data(), rich.size())), "0xf0683e54e94b297c")
      << "rich result, " << rich.size() << " bytes";

  // Sampled, with the prefetcher on: the plan echo, the window samples and
  // the prefetch counters.
  RunSpec spec;
  spec.bench = BenchmarkId::kLbm;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 32;
  spec.refs_per_core = 4'000;
  spec.prefetch = true;
  spec.sampling.mode = SampleMode::kInterval;
  spec.sampling.period_refs = 500;
  spec.sampling.window_refs = 100;
  spec.sampling.warmup_refs = 100;
  const SimResult sampled = run_spec(spec);
  ASSERT_TRUE(sampled.sampling.enabled);
  ASSERT_GT(sampled.prefetch.issued, 0u);
  const std::string payload = serialize_result(sampled);
  EXPECT_EQ(hex(checksum64(payload.data(), payload.size())),
            "0x851df329dfff86de")
      << "sampled result, " << payload.size() << " bytes";
}

struct CkptPin {
  Scheme scheme;
  InclusionPolicy inclusion;
  const char* extras;  // "", or the feature the machine adds
  const char* digest;
};

// One mid-run checkpoint of a small machine.  Benchmarks rotate through
// the pins so the trace-state blobs cover every kernel; exact runs save at
// a fixed aggregate count, sampled runs at their last warm-snapshot hook
// (a window open, with earlier windows closed).
std::uint64_t ckpt_digest(const CkptPin& pin, BenchmarkId bench) {
  RunSpec spec;
  spec.bench = bench;
  spec.scheme = pin.scheme;
  spec.inclusion = pin.inclusion;
  spec.scale = 16;
  spec.refs_per_core = 4'000;
  spec.seed = 7;
  const std::string extras = pin.extras;
  if (extras == "prefetch") spec.prefetch = true;
  if (extras == "sampled") {
    spec.sampling.mode = SampleMode::kInterval;
    spec.sampling.period_refs = 500;
    spec.sampling.window_refs = 100;
    spec.sampling.warmup_refs = 100;
  }
  spec.tweak = [&extras](HierarchyConfig& c) {
    c.obs.enabled = extras == "obs" || extras == "faults" ||
                    extras == "sampled";
    c.obs.epoch_refs = 3'000;
    if (extras == "faults") {
      c.fault.enabled = true;
      c.fault.rate_per_mref = 5'000;
      c.audit.enabled = true;
    }
    if (extras == "trace-faults") {
      c.fault.enabled = true;
      c.fault.rate_per_mref = 5'000;
      c.fault.site_mask = static_cast<std::uint32_t>(FaultSite::kTraceAddr);
    }
    if (extras == "auto-disable") {
      c.auto_disable.enabled = true;
      c.auto_disable.epoch_refs = 4'000;
    }
  };
  const HierarchyConfig config = resolved_config(spec);
  const auto build = [&config, &spec] {
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::uint32_t> cpis;
    for (CoreId c = 0; c < config.cores; ++c) {
      traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
      cpis.push_back(workload_cpi_centi(spec.bench, c));
    }
    auto sim = std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                                    std::move(cpis));
    sim->set_sampling(spec.sampling);
    return sim;
  };
  std::vector<std::uint8_t> saved;
  const auto save = [&saved](MulticoreSimulator& s) {
    ByteWriter w;
    s.ckpt_serialize(w);
    saved = w.take();
  };
  CkptControl ctl;
  if (spec.sampling.enabled()) {
    ctl.save_window = [&save](MulticoreSimulator& s, std::uint64_t) {
      save(s);
    };
  } else {
    ctl.save_at_refs = 13'001;
    ctl.save = save;
  }
  {
    auto sim = build();
    sim->set_ckpt_control(&ctl);
    sim->run(spec.refs_per_core);
  }
  EXPECT_FALSE(saved.empty());

  // The decoder reads back exactly what the encoder wrote: a fresh machine
  // restored from the payload serializes to the same bytes.
  auto restored = build();
  CkptControl idle;
  restored->set_ckpt_control(&idle);  // capture on, for the JSONL prefix
  ByteReader r(saved.data(), saved.size());
  EXPECT_TRUE(restored->ckpt_restore_payload(r) && r.exhausted());
  ByteWriter again;
  restored->ckpt_serialize(again);
  EXPECT_TRUE(again.buffer() == saved) << "re-serialized payload differs";
  return checksum64(saved.data(), saved.size());
}

TEST(CodecPin, CheckpointPayloads) {
  using S = Scheme;
  using I = InclusionPolicy;
  static const CkptPin kPins[] = {
      {S::kBase, I::kInclusive, "", "0x4a50a0840fa0259c"},
      {S::kPhased, I::kInclusive, "", "0xc995d410a5f47584"},
      {S::kCbf, I::kInclusive, "", "0x65df289c650555fd"},
      {S::kRedhip, I::kInclusive, "", "0x2614ebb0d4d3df48"},
      {S::kOracle, I::kInclusive, "", "0x86046fdc87445d24"},
      {S::kPartialTag, I::kInclusive, "", "0xf42fedcc7894cccc"},
      {S::kBase, I::kHybrid, "", "0xefb1b440a30e686d"},
      {S::kPhased, I::kHybrid, "", "0x80d5c76c1d93436f"},
      {S::kCbf, I::kHybrid, "", "0xb0b425c7cf4837a4"},
      {S::kRedhip, I::kHybrid, "", "0x6f30871c6e0d380c"},
      {S::kOracle, I::kHybrid, "", "0x0ca82d66736e7370"},
      {S::kPartialTag, I::kHybrid, "", "0xf229049a96ee64a2"},
      {S::kBase, I::kExclusive, "", "0x1bda06ffceae9a3a"},
      {S::kRedhip, I::kExclusive, "", "0x6c255988786a7842"},
      {S::kOracle, I::kExclusive, "", "0xa770f571d0548405"},
      {S::kRedhip, I::kInclusive, "obs", "0xce834bcce3b43c24"},
      {S::kRedhip, I::kInclusive, "faults", "0xc471eeddbdd085fb"},
      {S::kCbf, I::kHybrid, "trace-faults", "0xb7ef9cbe626e1f1b"},
      {S::kRedhip, I::kHybrid, "auto-disable", "0x36d30583560cb11f"},
      {S::kRedhip, I::kInclusive, "prefetch", "0x9ffdcc8ce11a5980"},
      {S::kRedhip, I::kInclusive, "sampled", "0x6882ce2d4bdfe551"},
      {S::kCbf, I::kInclusive, "sampled", "0xa86f6b5fc52f66e3"},
  };
  const std::vector<BenchmarkId>& benches = all_benchmarks();
  for (std::size_t i = 0; i < std::size(kPins); ++i) {
    const CkptPin& pin = kPins[i];
    const BenchmarkId bench = benches[i % benches.size()];
    SCOPED_TRACE(to_string(pin.scheme) + " " + to_string(pin.inclusion) +
                 " " + pin.extras + " on " + to_string(bench));
    EXPECT_EQ(hex(ckpt_digest(pin, bench)), pin.digest) << "pin " << i;
  }
}

// Saved state of each kernel after a few hundred references.
template <class K>
std::string kernel_state(K k) {
  MemRef m;
  for (int i = 0; i < 333; ++i) k.next(m);
  ByteWriter w;
  k.ckpt_save(w);
  return hex(digest(w));
}

TEST(CodecPin, KernelStates) {
  const Region r{0x1000000, 1_MiB};
  const Region a{0x100000, 64_KiB}, b{0x200000, 1_MiB}, c{0x300000, 64_KiB};
  EXPECT_EQ(kernel_state(StreamKernel(r, 3, 8, 100'000, 0x100, 1, 2)),
            "0xec8cac3902780391");
  EXPECT_EQ(kernel_state(StencilKernel(r, 16, 16, 8, 0x200)),
            "0xb476231295535cda");
  EXPECT_EQ(kernel_state(PointerChaseKernel(r, 2, 100'000, 0x300, 9)),
            "0x82d33e5056333c11");
  EXPECT_EQ(kernel_state(BurstWalkKernel<ZipfSampler>(
                r, ZipfSampler(r.bytes / kDefaultLineBytes, 4), 24, 100'000,
                0x400, 3)),
            "0xb00588eff2ca8676");
  EXPECT_EQ(kernel_state(BurstWalkKernel<HotColdSampler>(
                r, HotColdSampler(r.bytes / kDefaultLineBytes, 100'000,
                                  900'000),
                16, 100'000, 0x500, 5)),
            "0x763c64138c16a734");
  EXPECT_EQ(kernel_state(SparseGatherKernel(a, b, c, 2, 100'000, 500'000,
                                            0x600, 11, 0, 2)),
            "0x4751d38367f998a7");
  EXPECT_EQ(kernel_state(BfsKernel(a, b, c, 48, 3, 0x700, 7)),
            "0xa11a92d767427d92");
  EXPECT_EQ(kernel_state(SgdKernel(r, b, 64, 0x800, 17, 2)),
            "0xd2b1adac2e8c232e");
}

}  // namespace
}  // namespace redhip
