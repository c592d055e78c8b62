// Tests for src/trace: kernels' address discipline, workload determinism,
// trace file round-tripping.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "trace/kernels.h"
#include "trace/mem_ref.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

// ------------------------------------------------------------------ kernels

TEST(StreamKernel, StaysInRegionAndAdvancesSequentially) {
  Region r{0x1000, 64_KiB};
  StreamKernel k(r, /*streams=*/2, /*stride=*/8, /*write_ppm=*/0, 0x100, 1);
  MemRef m;
  Addr prev[2] = {0, 0};
  for (int i = 0; i < 10'000; ++i) {
    k.next(m);
    ASSERT_GE(m.addr, r.base);
    ASSERT_LT(m.addr, r.base + r.bytes);
    const int s = i % 2;
    if (prev[s] != 0 && m.addr > prev[s]) {
      ASSERT_EQ(m.addr - prev[s], 8u) << "stride must be constant";
    }
    prev[s] = m.addr;
    EXPECT_FALSE(m.is_write);
  }
}

TEST(StreamKernel, WriteFractionApproximatesPpm) {
  Region r{0, 64_KiB};
  StreamKernel k(r, 1, 8, /*write_ppm=*/300'000, 0, 3);
  MemRef m;
  int writes = 0;
  const int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    k.next(m);
    writes += m.is_write;
  }
  EXPECT_NEAR(static_cast<double>(writes) / kN, 0.3, 0.02);
}

TEST(StreamKernel, DistinctPcPerStream) {
  Region r{0, 64_KiB};
  StreamKernel k(r, 4, 8, 0, 0x500, 9);
  MemRef m;
  std::set<std::uint32_t> pcs;
  for (int i = 0; i < 16; ++i) {
    k.next(m);
    pcs.insert(m.pc);
  }
  EXPECT_EQ(pcs.size(), 4u);
}

TEST(StencilKernel, EmitsSevenReadsThenOneWritePerCell) {
  Region r{0x4000, 1_MiB};
  StencilKernel k(r, 16, 16, 16, 0x200);
  MemRef m;
  for (int cell = 0; cell < 50; ++cell) {
    for (int p = 0; p < 7; ++p) {
      k.next(m);
      ASSERT_FALSE(m.is_write) << "point " << p;
      ASSERT_GE(m.addr, r.base);
      ASSERT_LT(m.addr, r.base + r.bytes);
    }
    k.next(m);
    ASSERT_TRUE(m.is_write);
  }
}

TEST(StencilKernel, NeighbourOffsetsMatchGrid) {
  Region r{0, 1_MiB};
  const std::uint64_t nx = 16, ny = 16;
  StencilKernel k(r, nx, ny, 16, 0);
  MemRef m;
  // Advance into the interior so no wrapping occurs (cell 1000).
  for (int i = 0; i < 1000 * 8; ++i) k.next(m);
  Addr addrs[8];
  for (int p = 0; p < 8; ++p) {
    k.next(m);
    addrs[p] = m.addr;
  }
  const Addr center = addrs[3];
  EXPECT_EQ(addrs[2], center - 8);                 // -x
  EXPECT_EQ(addrs[4], center + 8);                 // +x
  EXPECT_EQ(addrs[1], center - nx * 8);            // -y
  EXPECT_EQ(addrs[5], center + nx * 8);            // +y
  EXPECT_EQ(addrs[0], center - nx * ny * 8);       // -z
  EXPECT_EQ(addrs[6], center + nx * ny * 8);       // +z
  EXPECT_EQ(addrs[7], center);                     // write-back
}

TEST(PointerChase, VisitsManyDistinctLinesWithoutQuickRepeats) {
  Region r{0x10000, 1_MiB};
  PointerChaseKernel k(r, /*payload_lines=*/0, 0, 0x300, 5);
  MemRef m;
  std::set<Addr> seen;
  for (int i = 0; i < 4096; ++i) {
    k.next(m);
    ASSERT_GE(m.addr, r.base);
    ASSERT_LT(m.addr, r.base + r.bytes);
    seen.insert(m.addr);
  }
  // Full-period LCG: the first `lines` steps are all distinct.
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(PointerChase, PayloadFollowsNodeSequentially) {
  Region r{0, 1_MiB};
  PointerChaseKernel k(r, /*payload_lines=*/2, 0, 0x300, 5);
  MemRef node, p1, p2;
  k.next(node);
  k.next(p1);
  k.next(p2);
  EXPECT_EQ(p1.pc, node.pc + 1);
  EXPECT_EQ(p1.addr - node.addr, 8u) << "payload reads are element-granular";
  EXPECT_EQ(p2.addr - p1.addr, 8u);
  // Two payload lines = 16 element reads before the next pointer hop.
  MemRef m;
  for (int i = 0; i < 14; ++i) {
    k.next(m);
    ASSERT_EQ(m.pc, node.pc + 1);
  }
  k.next(m);
  EXPECT_EQ(m.pc, node.pc);
}

TEST(SparseGather, CyclesThroughIndexGatherResultPhases) {
  SparseGatherKernel k(Region{0x100000, 64_KiB}, Region{0x200000, 1_MiB},
                       Region{0x300000, 64_KiB}, /*gathers=*/2, 100'000,
                       500'000, 0x400, 11);
  MemRef m;
  for (int rep = 0; rep < 100; ++rep) {
    k.next(m);  // index read
    ASSERT_GE(m.addr, 0x100000u);
    ASSERT_LT(m.addr, 0x100000u + 64_KiB);
    ASSERT_FALSE(m.is_write);
    for (int g = 0; g < 2; ++g) {
      k.next(m);  // gather
      ASSERT_GE(m.addr, 0x200000u);
      ASSERT_LT(m.addr, 0x200000u + 1_MiB);
      ASSERT_FALSE(m.is_write);
    }
    k.next(m);  // result write
    ASSERT_GE(m.addr, 0x300000u);
    ASSERT_TRUE(m.is_write);
  }
}

TEST(BfsKernel, AllAddressesLandInOwnedRegions) {
  const Region f{0x1000000, 64_KiB}, e{0x2000000, 1_MiB}, v{0x3000000, 64_KiB};
  BfsKernel k(f, e, v, 8, /*visited_zipf_k=*/3, 0x600, 13);
  MemRef m;
  for (int i = 0; i < 20'000; ++i) {
    k.next(m);
    const bool in_f = m.addr >= f.base && m.addr < f.base + f.bytes;
    const bool in_e = m.addr >= e.base && m.addr < e.base + e.bytes;
    const bool in_v = m.addr >= v.base && m.addr < v.base + v.bytes;
    ASSERT_TRUE(in_f || in_e || in_v);
    if (m.is_write) {
      ASSERT_TRUE(in_v) << "only visited-map accesses write";
    }
  }
}

TEST(SgdKernel, ReadsRowsThenWritesThemBack) {
  const Region u{0x1000000, 1_MiB}, it{0x2000000, 1_MiB};
  SgdKernel k(u, it, /*row_bytes=*/64, 0x700, 17);
  MemRef m;
  // Phase structure: 8 user reads, 8 item reads, 8 user writes, 8 item
  // writes per (user,item) sample (64-byte rows of 8-byte elements).
  for (int i = 0; i < 8; ++i) {
    k.next(m);
    ASSERT_FALSE(m.is_write);
    ASSERT_GE(m.addr, u.base);
    ASSERT_LT(m.addr, u.base + u.bytes);
  }
  for (int i = 0; i < 8; ++i) {
    k.next(m);
    ASSERT_FALSE(m.is_write);
    ASSERT_GE(m.addr, it.base);
  }
  for (int i = 0; i < 8; ++i) {
    k.next(m);
    ASSERT_TRUE(m.is_write);
    ASSERT_GE(m.addr, u.base);
    ASSERT_LT(m.addr, u.base + u.bytes);
  }
  for (int i = 0; i < 8; ++i) {
    k.next(m);
    ASSERT_TRUE(m.is_write);
    ASSERT_GE(m.addr, it.base);
  }
}

TEST(HotCold, MostAccessesHitTheHotPrefix) {
  Region r{0x5000000, 4_MiB};
  BurstWalkKernel<HotColdSampler> k(
      r,
      HotColdSampler(r.bytes / kDefaultLineBytes, /*hot_fraction_ppm=*/10'000,
                     /*hot_access_ppm=*/900'000),
      /*burst_mean=*/1, /*write_ppm=*/0, 0x800, 19);
  MemRef m;
  const Addr hot_end = r.base + (4_MiB / 100) ;  // hot = 1% of region
  int hot = 0;
  const int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    k.next(m);
    ASSERT_GE(m.addr, r.base);
    ASSERT_LT(m.addr, r.base + r.bytes);
    if (m.addr < hot_end + 64) ++hot;
  }
  EXPECT_GT(static_cast<double>(hot) / kN, 0.7);
}

// The checksum64 of a reference sequence, field by field (MemRef has
// padding, so its raw bytes are not a stable input).
std::uint64_t refs_checksum(const std::vector<MemRef>& refs) {
  ByteWriter w;
  for (const MemRef& m : refs) {
    w.u64(m.addr);
    w.u32(m.pc);
    w.u16(m.gap);
    w.boolean(m.is_write);
  }
  return checksum64(w.buffer().data(), w.buffer().size());
}

std::vector<MemRef> take_refs(TraceSource& src, std::size_t n) {
  std::vector<MemRef> refs(n);
  EXPECT_EQ(src.next_batch(refs.data(), n), n);
  return refs;
}

// ------------------------------------------------------- kernel checkpoints
// Restore rejects a field the step could not have produced, so a re-sealed
// checkpoint cannot make a kernel emit lines outside its regions (possibly
// another core's), or restore a counter that turns the stream into a
// different one.  Each test moves one saved field and expects the kernel's
// load, and the owning trace's load, to fail.

std::vector<std::uint8_t> saved_state(const Kernel& k) {
  ByteWriter w;
  k.ckpt_save(w);
  return w.take();
}

bool loads(Kernel& k, const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes.data(), bytes.size());
  return k.ckpt_load(r);
}

// Loads `bytes` into `k` with the u64 at byte `at` replaced by `value`.
bool loads_with(Kernel& k, std::vector<std::uint8_t> bytes, std::size_t at,
                std::uint64_t value) {
  store_le64(bytes.data() + at, value);
  return loads(k, bytes);
}

// Loads `bytes` into `k` with the u32 at byte `at` replaced by `value`.
bool loads_with_u32(Kernel& k, std::vector<std::uint8_t> bytes, std::size_t at,
                    std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return loads(k, bytes);
}

// Offset of the first kernel's state in a SyntheticTrace's: the scheduler's
// RNG, active component and burst count come first.
constexpr std::size_t kFirstKernel = 32 + 8 + 8;

// Saves core 0 of `id` after 10,000 references, adds `delta` to the u64 at
// byte `at` of its first kernel's state (or, with `from_trace_start`, of
// the whole trace state), and loads that into a fresh trace.  A u32 field
// followed by more state moves the same way as long as it does not carry.
bool trace_loads_with_moved_field(BenchmarkId id, std::size_t at,
                                  std::uint64_t delta,
                                  bool from_trace_start = false) {
  auto src = make_workload(id, 0, 8, 777);
  take_refs(*src, 10'000);
  ByteWriter w;
  EXPECT_TRUE(src->ckpt_save_state(w));
  std::vector<std::uint8_t> bytes = w.take();
  std::uint8_t* field =
      bytes.data() + (from_trace_start ? 0 : kFirstKernel) + at;
  store_le64(field, load_le64(field) + delta);
  auto fresh = make_workload(id, 0, 8, 777);
  ByteReader r(bytes.data(), bytes.size());
  return fresh->ckpt_load_state(r);
}

constexpr std::uint64_t kNextCore = Addr{1} << 40;  // one core's ASID stride

TEST(KernelCheckpoint, StreamRejectsCursorOutsideItsSlice) {
  const Region r{0x1000, 64_KiB};
  StreamKernel k(r, /*streams=*/2, 8, 0, 0x100, 1);
  MemRef m;
  for (int i = 0; i < 100; ++i) k.next(m);
  const std::vector<std::uint8_t> bytes = saved_state(k);
  // RNG (32 bytes), turn, repeats left, then one cursor per stream.
  const std::size_t cursor1 = 32 + 4 + 4 + 8;
  const std::uint64_t slice = r.bytes / 2;
  StreamKernel fresh(r, 2, 8, 0, 0x100, 1);
  EXPECT_TRUE(loads_with(fresh, bytes, cursor1, slice - 8));
  EXPECT_FALSE(loads_with(fresh, bytes, cursor1, slice));
  EXPECT_TRUE(trace_loads_with_moved_field(BenchmarkId::kLbm, 40, 0));
  EXPECT_FALSE(trace_loads_with_moved_field(BenchmarkId::kLbm, 40, kNextCore));
}

TEST(KernelCheckpoint, SgdRejectsRowsOutsideTheirRegions) {
  const Region u{0x1000000, 1_MiB}, it{0x2000000, 1_MiB};
  SgdKernel k(u, it, /*row_bytes=*/64, 0x700, 17);
  MemRef m;
  for (int i = 0; i < 100; ++i) k.next(m);
  const std::vector<std::uint8_t> bytes = saved_state(k);
  const std::size_t user_row = 32, item_row = 40;  // after the RNG
  SgdKernel fresh(u, it, 64, 0x700, 17);
  EXPECT_TRUE(loads_with(fresh, bytes, user_row, u.base + u.bytes - 64));
  EXPECT_FALSE(loads_with(fresh, bytes, user_row, u.base + u.bytes));
  EXPECT_FALSE(loads_with(fresh, bytes, user_row, u.base + 8));
  EXPECT_FALSE(loads_with(fresh, bytes, user_row, u.base - 64));
  EXPECT_TRUE(loads_with(fresh, bytes, item_row, it.base));
  EXPECT_FALSE(loads_with(fresh, bytes, item_row, u.base));
  EXPECT_TRUE(trace_loads_with_moved_field(BenchmarkId::kPmf, 32, 0));
  EXPECT_FALSE(trace_loads_with_moved_field(BenchmarkId::kPmf, 32, kNextCore));
  EXPECT_FALSE(trace_loads_with_moved_field(BenchmarkId::kPmf, 40, kNextCore));
}

TEST(KernelCheckpoint, SparseGatherRejectsTargetOutsideVector) {
  const Region index{0x100000, 64_KiB}, vec{0x200000, 1_MiB},
      result{0x300000, 64_KiB};
  auto make = [&] {
    return SparseGatherKernel(index, vec, result, /*gathers=*/2, 100'000,
                              500'000, 0x400, 11);
  };
  SparseGatherKernel k = make();
  EXPECT_TRUE(loads(k, saved_state(k))) << "saved before its first gather";
  MemRef m;
  for (int i = 0; i < 100; ++i) k.next(m);
  const std::vector<std::uint8_t> bytes = saved_state(k);
  // RNG (32 bytes), index cursor, result cursor, then the gather target.
  const std::size_t target = 32 + 8 + 8;
  SparseGatherKernel fresh = make();
  EXPECT_TRUE(loads_with(fresh, bytes, target, vec.base + vec.bytes - 64));
  EXPECT_FALSE(loads_with(fresh, bytes, target, vec.base + vec.bytes));
  EXPECT_FALSE(loads_with(fresh, bytes, target, vec.base + 8));
  EXPECT_FALSE(loads_with(fresh, bytes, target, 0));
  EXPECT_TRUE(trace_loads_with_moved_field(BenchmarkId::kMilc, 48, 0));
  EXPECT_FALSE(
      trace_loads_with_moved_field(BenchmarkId::kMilc, 48, kNextCore));
}

// Counters are range-checked against what the step can leave behind.
TEST(KernelCheckpoint, RejectsCountersTheStepNeverProduces) {
  MemRef m;
  const Region r{0x1000000, 1_MiB};
  {
    // Burst walks: RNG (32 bytes), then the u32 burst count.
    auto zipf = [&] {
      return BurstWalkKernel<ZipfSampler>(
          r, ZipfSampler(r.bytes / kDefaultLineBytes, 4), 24, 0, 0x100, 3);
    };
    auto hot_cold = [&] {
      return BurstWalkKernel<HotColdSampler>(
          r, HotColdSampler(r.bytes / kDefaultLineBytes, 100'000, 900'000), 16,
          0, 0x200, 5);
    };
    BurstWalkKernel<ZipfSampler> z = zipf();
    BurstWalkKernel<HotColdSampler> h = hot_cold();
    for (int i = 0; i < 100; ++i) {
      z.next(m);
      h.next(m);
    }
    BurstWalkKernel<ZipfSampler> fresh_z = zipf();
    EXPECT_TRUE(loads_with_u32(fresh_z, saved_state(z), 32, 256));
    EXPECT_FALSE(loads_with_u32(fresh_z, saved_state(z), 32, 257));
    BurstWalkKernel<HotColdSampler> fresh_h = hot_cold();
    EXPECT_TRUE(loads_with_u32(fresh_h, saved_state(h), 32, 256));
    EXPECT_FALSE(loads_with_u32(fresh_h, saved_state(h), 32, 257));
  }
  {
    // BFS: RNG, frontier and edge cursors, edges left, edges to the next
    // visited-map check.
    const Region frontier{0x100000, 64_KiB}, edges{0x200000, 1_MiB},
        visited{0x300000, 64_KiB};
    auto make = [&] {
      return BfsKernel(frontier, edges, visited, 48, 3, 0x300, 7);
    };
    BfsKernel k = make();
    for (int i = 0; i < 100; ++i) k.next(m);
    const std::vector<std::uint8_t> bytes = saved_state(k);
    BfsKernel fresh = make();
    EXPECT_TRUE(loads_with_u32(fresh, bytes, 48, 512));
    EXPECT_FALSE(loads_with_u32(fresh, bytes, 48, 513));
    EXPECT_TRUE(loads_with_u32(fresh, bytes, 52, 3));
    EXPECT_FALSE(loads_with_u32(fresh, bytes, 52, 4));
  }
  {
    // Pointer chase: RNG, node, then the payload references left.
    auto make = [&] { return PointerChaseKernel(r, 2, 0, 0x400, 9); };
    PointerChaseKernel k = make();
    for (int i = 0; i < 100; ++i) k.next(m);
    const std::vector<std::uint8_t> bytes = saved_state(k);
    PointerChaseKernel fresh = make();
    EXPECT_TRUE(loads_with_u32(fresh, bytes, 40, 2 * 8));
    EXPECT_FALSE(loads_with_u32(fresh, bytes, 40, 2 * 8 + 1));
  }
  // The same fields inside a workload's trace, each moved past its bound
  // whatever it held: astar's first kernel is a Zipf burst walk, cactusADM's
  // second (after the stencil's u64 cell and u32 point) a hot/cold one,
  // blas's first the BFS, and mcf's first a pointer chase with one payload
  // line.  The scheduler's own burst count (at byte 40) never exceeds 65,536.
  EXPECT_TRUE(trace_loads_with_moved_field(BenchmarkId::kAstar, 32, 0));
  EXPECT_FALSE(trace_loads_with_moved_field(BenchmarkId::kAstar, 32, 257));
  EXPECT_FALSE(
      trace_loads_with_moved_field(BenchmarkId::kCactusADM, 12 + 32, 257));
  EXPECT_FALSE(trace_loads_with_moved_field(BenchmarkId::kBlas, 48, 513));
  EXPECT_FALSE(trace_loads_with_moved_field(BenchmarkId::kBlas, 52, 4));
  EXPECT_FALSE(trace_loads_with_moved_field(BenchmarkId::kMcf, 40, 9));
  EXPECT_TRUE(trace_loads_with_moved_field(BenchmarkId::kMcf, 40, 0, true));
  EXPECT_FALSE(
      trace_loads_with_moved_field(BenchmarkId::kMcf, 40, 65'537, true));
}

// ---------------------------------------------------------------- workloads

TEST(Workloads, AllBenchmarksProduceRefs) {
  for (BenchmarkId id : all_benchmarks()) {
    auto src = make_workload(id, /*core=*/0, /*scale=*/32, /*seed=*/1);
    MemRef m;
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(src->next(m)) << to_string(id);
      ASSERT_NE(m.addr, 0u) << to_string(id);
    }
  }
}

TEST(Workloads, DeterministicAcrossInstances) {
  for (BenchmarkId id : {BenchmarkId::kMcf, BenchmarkId::kBlas,
                         BenchmarkId::kMix}) {
    auto a = make_workload(id, 2, 16, 99);
    auto b = make_workload(id, 2, 16, 99);
    MemRef ma, mb;
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(a->next(ma));
      ASSERT_TRUE(b->next(mb));
      ASSERT_EQ(ma, mb) << to_string(id) << " diverged at ref " << i;
    }
  }
}

TEST(Workloads, SeedChangesTheStream) {
  auto a = make_workload(BenchmarkId::kMcf, 0, 16, 1);
  auto b = make_workload(BenchmarkId::kMcf, 0, 16, 2);
  MemRef ma, mb;
  int diff = 0;
  for (int i = 0; i < 1000; ++i) {
    a->next(ma);
    b->next(mb);
    diff += (ma.addr != mb.addr);
  }
  EXPECT_GT(diff, 0);
}

TEST(Workloads, CoresUseDisjointAddressSpaces) {
  auto a = make_workload(BenchmarkId::kLbm, 0, 16, 1);
  auto b = make_workload(BenchmarkId::kLbm, 5, 16, 1);
  MemRef m;
  std::set<Addr> space_a, space_b;
  for (int i = 0; i < 2000; ++i) {
    a->next(m);
    space_a.insert(m.addr >> 40);
    b->next(m);
    space_b.insert(m.addr >> 40);
  }
  for (Addr tag : space_a) EXPECT_EQ(space_b.count(tag), 0u);
}

TEST(Workloads, MixAssignsDifferentProfilesPerCore) {
  // Core c of kMix runs the c-th SPEC profile; its CPI must match.
  for (CoreId c = 0; c < 8; ++c) {
    EXPECT_EQ(workload_cpi_centi(BenchmarkId::kMix, c),
              traits_of(spec_benchmarks()[c]).cpi_centi);
  }
}

TEST(Workloads, GapsAreBoundedAroundTheMean) {
  auto src = make_workload(BenchmarkId::kAstar, 0, 16, 7);
  const std::uint32_t mean = traits_of(BenchmarkId::kAstar).gap_mean;
  MemRef m;
  double sum = 0;
  const int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    src->next(m);
    ASSERT_GE(m.gap, mean - mean / 2);
    ASSERT_LE(m.gap, mean + mean / 2);
    sum += m.gap;
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(mean), 0.25);
}

// Each benchmark's exact stream at scale 8 and seed 777, on cores 0 and 3:
// the checksum of 100,000 generated references, of 4,096 references after
// skip(12,345) on a fresh trace, and of the generator state saved after
// 50,001 references.  The golden corpus runs only three benchmarks and the
// kernel property tests are statistical, so these values are what pins
// every kernel's state machine and RNG draw order.
struct StreamPin {
  BenchmarkId bench;
  CoreId core;
  std::uint64_t batch, skipped, state;
};

TEST(Workloads, StreamsMatchPinnedChecksums) {
  static const StreamPin kPins[] = {
      {BenchmarkId::kBwaves, 0, 0xc52fece5b04a8758ull, 0xec8d2fde5d02d44bull,
       0x4299d66f59c237ffull},
      {BenchmarkId::kBwaves, 3, 0xffbf11216cbe15b0ull, 0x6f557d8c251b6b04ull,
       0xa69f18712c2aa2b6ull},
      {BenchmarkId::kGemsFDTD, 0, 0x16c461e0d4a84b6cull, 0x18ddb5ba59187c93ull,
       0x834763141b51542full},
      {BenchmarkId::kGemsFDTD, 3, 0x8574cae3d8e6f2b4ull, 0xf673e16ff0fee658ull,
       0xc20a4c3321beec54ull},
      {BenchmarkId::kLbm, 0, 0x99f44e0b39bb7b72ull, 0x27c6873c3a96e66cull,
       0xcfd1c74375e68c82ull},
      {BenchmarkId::kLbm, 3, 0xcb5fe86a32fb01c0ull, 0x650cf53333c94349ull,
       0xa3f9fdaada2a3e04ull},
      {BenchmarkId::kMcf, 0, 0x1cf05c08f55d324aull, 0x5725620b7ed49705ull,
       0x25dd8db137adb88bull},
      {BenchmarkId::kMcf, 3, 0x62021a16c8667f86ull, 0x93afa94f84664a27ull,
       0x5963d051ea0c3cb2ull},
      {BenchmarkId::kMilc, 0, 0x26cf0b2ec3ec7873ull, 0x3f8840d0ebba2af9ull,
       0x83882fc3f370e678ull},
      {BenchmarkId::kMilc, 3, 0x333f095425ad0c10ull, 0xf81ddcbc7dec24f7ull,
       0x0dee1724f53e6ab6ull},
      {BenchmarkId::kSoplex, 0, 0x1374ade0dba3a0b0ull, 0x2fd7e04bb93a69bdull,
       0x68128e434f70215dull},
      {BenchmarkId::kSoplex, 3, 0x8f99829eb12e9c32ull, 0x0aa20e71a50c8ed4ull,
       0x660b60b85c7b46cfull},
      {BenchmarkId::kAstar, 0, 0xcb2adcef1eaafdd2ull, 0x36f90aff4e60777aull,
       0x149fd09e4f92fe14ull},
      {BenchmarkId::kAstar, 3, 0x04ee78a64d9eb75full, 0x2f48c8bffa12a701ull,
       0x807de889fa014ddcull},
      {BenchmarkId::kCactusADM, 0, 0x04aeef9b5601a473ull, 0xa7fe6486c69aac7dull,
       0x141ae85577dda301ull},
      {BenchmarkId::kCactusADM, 3, 0xcc4079e3ea7b84d3ull, 0xa77fc9a1a64a53d1ull,
       0xfa9c20f46af7952full},
      {BenchmarkId::kMix, 0, 0xc52fece5b04a8758ull, 0xec8d2fde5d02d44bull,
       0x4299d66f59c237ffull},
      {BenchmarkId::kMix, 3, 0x62021a16c8667f86ull, 0x93afa94f84664a27ull,
       0x5963d051ea0c3cb2ull},
      {BenchmarkId::kPmf, 0, 0x088516961072a051ull, 0xdba02692f6ba63d5ull,
       0x96feddd5fe0c06fdull},
      {BenchmarkId::kPmf, 3, 0x85853d14b15a9475ull, 0x9b565d26c125d1fcull,
       0x1cefdfe72f1dca5cull},
      {BenchmarkId::kBlas, 0, 0x7b2237757d90458full, 0x0eff455aacef279bull,
       0xb31647efb326a5f8ull},
      {BenchmarkId::kBlas, 3, 0x9881b1861a325587ull, 0xdca700d2e3739632ull,
       0xdf1d6f0cf7c2ebcbull},
  };
  ASSERT_EQ(std::size(kPins), 2 * all_benchmarks().size());
  for (const StreamPin& p : kPins) {
    SCOPED_TRACE(to_string(p.bench) + " core " + std::to_string(p.core));
    auto fresh = [&p] { return make_workload(p.bench, p.core, 8, 777); };

    auto generated = fresh();
    EXPECT_EQ(refs_checksum(take_refs(*generated, 100'000)), p.batch);

    auto skipped = fresh();
    skipped->skip(12'345);
    EXPECT_EQ(refs_checksum(take_refs(*skipped, 4'096)), p.skipped);

    auto saved = fresh();
    take_refs(*saved, 50'001);
    ByteWriter w;
    ASSERT_TRUE(saved->ckpt_save_state(w));
    EXPECT_EQ(checksum64(w.buffer().data(), w.buffer().size()), p.state);
    auto restored = fresh();
    ByteReader r(w.buffer().data(), w.buffer().size());
    ASSERT_TRUE(restored->ckpt_load_state(r));
    EXPECT_EQ(take_refs(*restored, 4'096), take_refs(*saved, 4'096));
  }
}

TEST(Workloads, AllBenchmarksListedOnce) {
  EXPECT_EQ(all_benchmarks().size(), 11u);
  EXPECT_EQ(spec_benchmarks().size(), 8u);
  std::set<std::string> names;
  for (BenchmarkId id : all_benchmarks()) names.insert(to_string(id));
  EXPECT_EQ(names.size(), 11u);
}

// ----------------------------------------------------------------- trace IO

TEST(TraceIo, RoundTripsRecords) {
  const std::string path = ::testing::TempDir() + "/roundtrip.trace";
  std::vector<MemRef> refs;
  Xoshiro256 rng(23);
  for (int i = 0; i < 1000; ++i) {
    refs.push_back(MemRef{rng.next(), static_cast<std::uint32_t>(rng.next()),
                          static_cast<std::uint16_t>(rng.below(100)),
                          rng.chance_ppm(500'000)});
  }
  {
    TraceWriter w(path);
    for (const auto& r : refs) w.append(r);
    w.finish();
    EXPECT_EQ(w.records_written(), refs.size());
  }
  FileTraceSource src(path);
  EXPECT_EQ(src.record_count(), refs.size());
  MemRef m;
  for (const auto& expected : refs) {
    ASSERT_TRUE(src.next(m));
    ASSERT_EQ(m, expected);
  }
  EXPECT_FALSE(src.next(m));
  std::remove(path.c_str());
}

// Writes `bytes` raw bytes to a fresh file and returns its path.
std::string write_raw(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return path;
}

// A syntactically valid header claiming `count` records.
std::string header_bytes(std::uint64_t count) {
  std::string h(24, '\0');
  std::memcpy(h.data(), kTraceMagic, 8);
  std::memcpy(h.data() + 8, &count, 8);
  return h;
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path =
      write_raw("bad.trace", "NOTATRACE-HEADER-24bytes");
  EXPECT_THROW(FileTraceSource{path}, std::runtime_error);
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(FileTraceSource{"/nonexistent/path.trace"}, std::runtime_error);
  auto r = FileTraceSource::open("/nonexistent/path.trace");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(TraceIo, RejectsTruncatedHeader) {
  const std::string path = write_raw("shorthdr.trace", "REDHIPT1\x02");
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("truncated header (9 of 24 bytes)"),
            std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsRecordCountLargerThanFile) {
  // Header promises 100 records, body holds 2 complete ones.
  const std::string path = write_raw(
      "overcount.trace", header_bytes(100) + std::string(32, '\x41'));
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  const std::string& msg = r.status().message();
  EXPECT_NE(msg.find("header claims 100 records"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(truncated)"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMidRecordTruncation) {
  // Header promises 2 records but the body stops 8 bytes into the second.
  const std::string path = write_raw(
      "midrec.trace", header_bytes(2) + std::string(24, '\x42'));
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("truncated mid-record"),
            std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTrailingGarbage) {
  const std::string path = write_raw(
      "garbage.trace", header_bytes(1) + std::string(16, '\x43') + "oops");
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing garbage"), std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

TEST(TraceIo, SecondFinishIsANoOp) {
  const std::string path = ::testing::TempDir() + "/refinish.trace";
  TraceWriter w(path);
  w.append(MemRef{0x40, 1, 0, false});
  w.finish();
  w.finish();  // must not touch the (closed) file or throw
  FileTraceSource src(path);
  EXPECT_EQ(src.record_count(), 1u);
  std::remove(path.c_str());
}

TEST(TraceIo, AppendAfterFinishFails) {
  const std::string path = ::testing::TempDir() + "/closed.trace";
  TraceWriter w(path);
  w.finish();
  EXPECT_THROW(w.append(MemRef{0x40, 1, 0, false}), std::logic_error);
  std::remove(path.c_str());
}

TEST(TraceIo, SimulatorConsumesFileTrace) {
  // End-to-end: a synthetic workload serialized to disk replays identically.
  const std::string path = ::testing::TempDir() + "/replay.trace";
  auto live = make_workload(BenchmarkId::kSoplex, 0, 32, 5);
  {
    TraceWriter w(path);
    MemRef m;
    for (int i = 0; i < 5000; ++i) {
      live->next(m);
      w.append(m);
    }
    w.finish();
  }
  auto live2 = make_workload(BenchmarkId::kSoplex, 0, 32, 5);
  FileTraceSource replay(path);
  MemRef a, b;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(live2->next(a));
    ASSERT_TRUE(replay.next(b));
    ASSERT_EQ(a, b);
  }
  std::remove(path.c_str());
}

TEST(VectorTrace, EndsAndRewinds) {
  VectorTraceSource src({MemRef{1, 0, 0, false}, MemRef{2, 0, 0, true}});
  MemRef m;
  EXPECT_TRUE(src.next(m));
  EXPECT_EQ(m.addr, 1u);
  EXPECT_TRUE(src.next(m));
  EXPECT_TRUE(m.is_write);
  EXPECT_FALSE(src.next(m));
  src.rewind();
  EXPECT_TRUE(src.next(m));
  EXPECT_EQ(m.addr, 1u);
}

}  // namespace
}  // namespace redhip
