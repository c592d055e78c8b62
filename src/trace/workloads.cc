#include "trace/workloads.h"

#include <algorithm>

#include "common/check.h"

namespace redhip {
namespace {

// Disjoint per-core address spaces: the paper multiprograms by running one
// process per core, so no lines are ever shared.  The top byte is an ASID.
Addr core_base(CoreId core) { return (static_cast<Addr>(core) + 1) << 40; }

// Bump allocator carving kernel regions out of a core's space.
//
// The base and the inter-region gaps are jittered per (core, seed).  This is
// not cosmetic: the paper multiprograms by duplicating one trace onto all 8
// cores, and real duplicated *processes* have uncorrelated low physical-
// address bits (ASLR + independent page mappings).  Without jitter every
// core would march over identical low address bits in lockstep, and since
// both the cache set index and ReDHiP's bits-hash ignore the high bits, the
// 8 copies would alias perfectly — every core's miss would read a PT bit
// freshly set by its neighbour's different line, a 7/8 guaranteed
// false-positive rate no real system exhibits.
class RegionAllocator {
 public:
  RegionAllocator(Addr base, std::uint64_t jitter_seed) : rng_(jitter_seed) {
    // Up to 4 GiB of page-granular base offset inside the core's ASID.
    cursor_ = base + (rng_.next() & ((std::uint64_t{1} << 32) - 1) & ~4095ull);
  }

  Region alloc(std::uint64_t bytes, std::uint64_t scale) {
    std::uint64_t sz = bytes / scale;
    if (sz < kMinRegion) sz = kMinRegion;
    return alloc_exact(sz);
  }

  // No scaling, no floor: used when the kernel derives the size itself
  // (e.g. stencil grids computed from their dimensions).
  Region alloc_exact(std::uint64_t bytes) {
    const std::uint64_t sz =
        (bytes + kDefaultLineBytes - 1) & ~std::uint64_t{kDefaultLineBytes - 1};
    Region r{cursor_, sz};
    // Page-jittered gaps so no two cores lay regions out identically.
    cursor_ += sz + 4096 + (rng_.next() & (0xFFull << 12));
    return r;
  }

 private:
  static constexpr std::uint64_t kMinRegion = 64 * 1024;
  SplitMix64 rng_;
  Addr cursor_;
};

struct ProfileSeeds {
  std::uint64_t k1, k2, k3, sched;
};

ProfileSeeds seeds_for(BenchmarkId id, CoreId core, std::uint64_t seed) {
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(id) << 32) ^
                (static_cast<std::uint64_t>(core) << 16));
  return {sm.next(), sm.next(), sm.next(), sm.next()};
}

using Components = std::vector<SyntheticTrace::Component>;

// ---------------------------------------------------------------------------
// Per-benchmark profiles.  Weights are ppm; burst_mean is references per
// scheduling quantum of that kernel.  The PC bases keep each kernel's
// instruction footprint disjoint so the stride prefetcher sees stable PCs.
// ---------------------------------------------------------------------------

// Stencil grid dimensions for a working set of roughly `bytes / scale`.
// The x/y extents carry a small odd padding (as real codes pad arrays) so
// the row and plane strides are not multiples of the cache-set span — the
// unpadded power-of-two dims would alias every neighbour stream onto one L1
// set and destroy the locality a real FDTD sweep has.
struct StencilDims {
  std::uint64_t nx, ny, nz;
  std::uint64_t bytes() const { return nx * ny * nz * 8; }
};

StencilDims stencil_dims(std::uint64_t base_xy, std::uint64_t base_nz,
                         std::uint32_t scale) {
  const std::uint64_t shrink =
      scale == 1 ? 1 : (scale <= 4 ? 2 : (scale <= 16 ? 4 : 8));
  StencilDims d;
  d.nx = base_xy / shrink + 5;
  d.ny = base_xy / shrink + 3;
  // x/y shrink by `shrink` each (working set / shrink^2); nz rescales the
  // total to working-set / scale.
  d.nz = std::max<std::uint64_t>(8, base_nz * shrink * shrink / scale);
  return d;
}

// Burst walks whose bursts start at power-law lines of `region`...
std::unique_ptr<Kernel> zipf_walk(Region region, std::uint32_t zipf_k,
                                  std::uint32_t burst_mean,
                                  std::uint32_t write_ppm,
                                  std::uint32_t pc_base, std::uint64_t seed) {
  return std::make_unique<BurstWalkKernel<ZipfSampler>>(
      region, ZipfSampler(region.bytes / kDefaultLineBytes, zipf_k),
      burst_mean, write_ppm, pc_base, seed);
}

// ...or at lines of a small hot set (most draws) over a uniform background.
std::unique_ptr<Kernel> hot_cold_walk(Region region,
                                      std::uint32_t hot_fraction_ppm,
                                      std::uint32_t hot_access_ppm,
                                      std::uint32_t burst_mean,
                                      std::uint32_t write_ppm,
                                      std::uint32_t pc_base,
                                      std::uint64_t seed) {
  return std::make_unique<BurstWalkKernel<HotColdSampler>>(
      region,
      HotColdSampler(region.bytes / kDefaultLineBytes, hot_fraction_ppm,
                     hot_access_ppm),
      burst_mean, write_ppm, pc_base, seed);
}

Components build_profile(BenchmarkId id, CoreId core, std::uint32_t scale,
                         std::uint64_t seed) {
  const ProfileSeeds s = seeds_for(id, core, seed);
  RegionAllocator arena(core_base(core), s.k3);
  Components cs;
  auto add = [&cs](std::unique_ptr<Kernel> k, std::uint32_t ppm,
                   std::uint32_t burst) {
    cs.push_back({std::move(k), ppm, burst});
  };

  switch (id) {
    case BenchmarkId::kBwaves: {
      // Blocked, multi-array streaming: highly regular, large working set,
      // prefetch-friendly, with a modest solver working set behind it.
      add(std::make_unique<StreamKernel>(arena.alloc(192_MiB, scale), 4, 8,
                                         120'000, 0x1000, s.k1, 2),
          850'000, 256);
      add(zipf_walk(arena.alloc(48_MiB, scale), 4, 24, 50'000, 0x1100, s.k2),
          150'000, 48);
      break;
    }
    case BenchmarkId::kGemsFDTD: {
      // Large 3-D FDTD grid: row reuse at L1/L2, plane reuse at L3, first
      // touches off-chip.
      const StencilDims d = stencil_dims(512, 112, scale);
      add(std::make_unique<StencilKernel>(arena.alloc_exact(d.bytes()), d.nx,
                                          d.ny, d.nz, 0x2000),
          860'000, 512);
      add(zipf_walk(arena.alloc(32_MiB, scale), 4, 8, 100'000, 0x2200, s.k2),
          60'000, 32);
      add(std::make_unique<StreamKernel>(arena.alloc(24_MiB, scale), 2, 8,
                                         200'000, 0x2100, s.k1),
          80'000, 64);
      break;
    }
    case BenchmarkId::kLbm: {
      // Two-grid lattice-Boltzmann sweep: pure streaming, write-heavy,
      // essentially nothing reusable below L1.
      add(std::make_unique<StreamKernel>(arena.alloc(256_MiB, scale), 2, 8,
                                         400'000, 0x3000, s.k1, 2),
          1'000'000, 1024);
      break;
    }
    case BenchmarkId::kMcf: {
      // Network-simplex pointer chasing over a huge arena: the classic
      // cache-hostile benchmark; low hit rate at every level.
      add(std::make_unique<PointerChaseKernel>(arena.alloc(384_MiB, scale), 1,
                                               150'000, 0x4000, s.k1),
          750'000, 64);
      add(zipf_walk(arena.alloc(16_MiB, scale), 4, 8, 100'000, 0x4100, s.k2),
          250'000, 32);
      break;
    }
    case BenchmarkId::kMilc: {
      // 4-D lattice QCD: strided field sweeps + gathers against a gauge
      // table whose hot entries live around L1/L2.
      add(std::make_unique<SparseGatherKernel>(
              arena.alloc(24_MiB, scale), arena.alloc(32_MiB, scale),
              arena.alloc(16_MiB, scale), 1, 0, 0, 0x5000, s.k1,
              /*zipf_k=*/4, /*gather_elems=*/4),
          600'000, 128);
      add(std::make_unique<StreamKernel>(arena.alloc(96_MiB, scale), 3, 8,
                                         150'000, 0x5100, s.k2, 2),
          400'000, 128);
      break;
    }
    case BenchmarkId::kSoplex: {
      // Simplex LP: CSR mat-vec whose x-vector has strong column locality,
      // plus a hot basis-factor working set.
      add(std::make_unique<SparseGatherKernel>(
              arena.alloc(32_MiB, scale), arena.alloc(96_MiB, scale),
              arena.alloc(8_MiB, scale), 1, 0, 0, 0x6000, s.k1,
              /*zipf_k=*/4, /*gather_elems=*/4),
          700'000, 96);
      add(hot_cold_walk(arena.alloc(4_MiB, scale), 100'000, 850'000, 24,
                        150'000, 0x6100, s.k2),
          300'000, 48);
      break;
    }
    case BenchmarkId::kAstar: {
      // Path search: skewed open-list/grid traffic plus pointer-y region
      // walks with node payloads.
      add(zipf_walk(arena.alloc(64_MiB, scale), 4, 24, 200'000, 0x7000,
                    s.k1),
          700'000, 64);
      add(std::make_unique<PointerChaseKernel>(arena.alloc(24_MiB, scale), 2,
                                               100'000, 0x7100, s.k2),
          300'000, 32);
      break;
    }
    case BenchmarkId::kCactusADM: {
      // Smaller ADM stencil: strong L2/L3 reuse, modest misses beyond.
      const StencilDims d = stencil_dims(256, 80, scale);
      add(std::make_unique<StencilKernel>(arena.alloc_exact(d.bytes()), d.nx,
                                          d.ny, d.nz, 0x8000),
          880'000, 512);
      add(hot_cold_walk(arena.alloc(1_MiB, scale), 100'000, 900'000, 16,
                        100'000, 0x8100, s.k1),
          120'000, 32);
      break;
    }
    case BenchmarkId::kPmf: {
      // SGD matrix factorization: random (user, item) row pairs streamed
      // densely; the item matrix dwarfs the LLC.
      add(std::make_unique<SgdKernel>(arena.alloc(64_MiB, scale),
                                      arena.alloc(192_MiB, scale), 256,
                                      0x9000, s.k1, /*zipf_k=*/3),
          900'000, 128);
      add(std::make_unique<StreamKernel>(arena.alloc(16_MiB, scale), 1, 8,
                                         100'000, 0x9100, s.k2),
          100'000, 64);
      break;
    }
    case BenchmarkId::kBlas: {
      // Graph500 BFS over CombBLAS structures: frontier streams, edge-list
      // bursts, and visited-map checks with community locality.
      add(std::make_unique<BfsKernel>(arena.alloc(8_MiB, scale),
                                      arena.alloc(320_MiB, scale),
                                      arena.alloc(24_MiB, scale), 48,
                                      /*visited_zipf_k=*/3, 0xa000, s.k1),
          850'000, 256);
      add(std::make_unique<SparseGatherKernel>(
              arena.alloc(16_MiB, scale), arena.alloc(8_MiB, scale),
              arena.alloc(8_MiB, scale), 1, 0, 0, 0xa100, s.k2,
              /*zipf_k=*/4, /*gather_elems=*/4),
          150'000, 96);
      break;
    }
    case BenchmarkId::kMix:
      REDHIP_CHECK_MSG(false, "kMix resolves to a SPEC profile per core");
  }
  return cs;
}

}  // namespace

std::string to_string(BenchmarkId id) {
  switch (id) {
    case BenchmarkId::kBwaves:
      return "bwaves";
    case BenchmarkId::kGemsFDTD:
      return "GemsFDTD";
    case BenchmarkId::kLbm:
      return "lbm";
    case BenchmarkId::kMcf:
      return "mcf";
    case BenchmarkId::kMilc:
      return "milc";
    case BenchmarkId::kSoplex:
      return "soplex";
    case BenchmarkId::kAstar:
      return "astar";
    case BenchmarkId::kCactusADM:
      return "cactusADM";
    case BenchmarkId::kMix:
      return "mix";
    case BenchmarkId::kPmf:
      return "pmf";
    case BenchmarkId::kBlas:
      return "blas";
  }
  return "unknown";
}

Result<BenchmarkId> benchmark_from_name(const std::string& name) {
  std::string names;
  for (BenchmarkId id : all_benchmarks()) {
    if (to_string(id) == name) return id;
    if (!names.empty()) names += ", ";
    names += to_string(id);
  }
  return Status(StatusCode::kInvalidArgument,
                "unknown benchmark '" + name + "' (expected one of: " + names +
                    ")");
}

const std::vector<BenchmarkId>& all_benchmarks() {
  // The paper's figure order: bwaves GemsFDTD lbm mcf milc soplex astar
  // cactusADM mix pmf blas.
  static const std::vector<BenchmarkId> kAll = {
      BenchmarkId::kBwaves, BenchmarkId::kGemsFDTD, BenchmarkId::kLbm,
      BenchmarkId::kMcf,    BenchmarkId::kMilc,     BenchmarkId::kSoplex,
      BenchmarkId::kAstar,  BenchmarkId::kCactusADM, BenchmarkId::kMix,
      BenchmarkId::kPmf,    BenchmarkId::kBlas};
  return kAll;
}

const std::vector<BenchmarkId>& spec_benchmarks() {
  static const std::vector<BenchmarkId> kSpec = {
      BenchmarkId::kBwaves, BenchmarkId::kGemsFDTD, BenchmarkId::kLbm,
      BenchmarkId::kMcf,    BenchmarkId::kMilc,     BenchmarkId::kSoplex,
      BenchmarkId::kAstar,  BenchmarkId::kCactusADM};
  return kSpec;
}

WorkloadTraits traits_of(BenchmarkId id) {
  // gap_mean ≈ 2-4 non-memory instructions per reference matches the
  // paper's trace shape (1.5 B instructions, ~500 M memory references).
  // CPIs are representative averages for these memory-bound applications
  // (the paper charges non-memory instructions at each application's
  // average CPI, which folds their stall behaviour into the compute time).
  switch (id) {
    case BenchmarkId::kBwaves:
      return {390, 3, 194_MiB};
    case BenchmarkId::kGemsFDTD:
      return {420, 2, 240_MiB};
    case BenchmarkId::kLbm:
      return {350, 2, 256_MiB};
    case BenchmarkId::kMcf:
      return {630, 2, 385_MiB};
    case BenchmarkId::kMilc:
      return {450, 3, 216_MiB};
    case BenchmarkId::kSoplex:
      return {390, 2, 140_MiB};
    case BenchmarkId::kAstar:
      return {490, 4, 88_MiB};
    case BenchmarkId::kCactusADM:
      return {310, 4, 41_MiB};
    case BenchmarkId::kMix:
      return {420, 2, 0};
    case BenchmarkId::kPmf:
      return {420, 3, 272_MiB};
    case BenchmarkId::kBlas:
      return {560, 2, 352_MiB};
  }
  return {200, 2, 0};
}

SyntheticTrace::SyntheticTrace(std::vector<Component> components,
                               std::uint32_t gap_mean, std::uint64_t seed)
    : components_(std::move(components)), gap_mean_(gap_mean), rng_(seed) {
  REDHIP_CHECK(!components_.empty());
  REDHIP_CHECK_MSG(gap_mean_ >= 1, "gap_mean must be at least 1");
  std::uint64_t total = 0;
  for (const auto& c : components_) total += c.weight_ppm;
  REDHIP_CHECK_MSG(total == 1'000'000, "component weights must sum to 1M ppm");
  reschedule();
}

void SyntheticTrace::reschedule() {
  const std::uint64_t draw = rng_.below(1'000'000);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    acc += components_[i].weight_ppm;
    if (draw < acc) {
      active_ = i;
      break;
    }
  }
  burst_left_ = rng_.burst(components_[active_].burst_mean, kMaxBurst);
}

bool SyntheticTrace::next(MemRef& out) {
  if (burst_left_ == 0) reschedule();
  --burst_left_;
  components_[active_].kernel->next_n(&out, 1);
  out.gap = static_cast<std::uint16_t>(
      rng_.range(gap_mean_ - gap_mean_ / 2, gap_mean_ + gap_mean_ / 2));
  return true;
}

std::size_t SyntheticTrace::next_batch(MemRef* out, std::size_t n) {
  const std::uint32_t gap_lo = gap_mean_ - gap_mean_ / 2;
  const std::uint32_t gap_hi = gap_mean_ + gap_mean_ / 2;
  std::size_t filled = 0;
  while (filled < n) {
    if (burst_left_ == 0) reschedule();
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(burst_left_,
                                                         n - filled));
    burst_left_ -= chunk;
    // Kernel draws and gap draws come from different RNGs (the kernel's own
    // stream vs the trace's), so hoisting the whole chunk's kernel calls
    // ahead of its gap fills keeps both streams' internal order — and the
    // emitted references — identical to the scalar path, while paying one
    // virtual dispatch per chunk instead of one per reference.
    components_[active_].kernel->next_n(out + filled, chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      out[filled + i].gap =
          static_cast<std::uint16_t>(rng_.range(gap_lo, gap_hi));
    }
    filled += chunk;
  }
  return filled;
}

void SyntheticTrace::skip(std::uint64_t n) {
  // next_batch's gap fill is range(gap_lo, gap_hi) = gap_lo + below(bound):
  // only the below() draw touches generator state, so the skip path replays
  // below(bound) and drops the offset.  range() uses rejection sampling, so
  // the draws must be made (not counted) to keep the scheduler stream's
  // state bit-identical to the generating path.
  const std::uint64_t gap_bound = std::uint64_t{gap_mean_} / 2 * 2 + 1;
  while (n > 0) {
    if (burst_left_ == 0) reschedule();
    const std::uint64_t chunk = std::min<std::uint64_t>(burst_left_, n);
    burst_left_ -= chunk;
    // Kernel draws and gap draws come from different RNGs (the kernel's own
    // stream vs the trace's), so the fused loop may interleave them freely:
    // each stream still sees exactly the draws next_batch makes, in the
    // same per-stream order, while the two serial generator chains overlap.
    components_[active_].kernel->skip_with_gaps(chunk, rng_, gap_bound);
    n -= chunk;
  }
}

bool SyntheticTrace::ckpt_save_state(ByteWriter& w) const {
  w.put(*this);
  for (const Component& c : components_) c.kernel->ckpt_save(w);
  return true;
}

bool SyntheticTrace::ckpt_load_state(ByteReader& r) {
  r.get(*this);
  if (!r.ok() || active_ >= components_.size() || burst_left_ > kMaxBurst) {
    return false;
  }
  for (Component& c : components_) {
    if (!c.kernel->ckpt_load(r)) return false;
  }
  return r.ok();
}

std::unique_ptr<TraceSource> make_workload(BenchmarkId id, CoreId core,
                                           std::uint32_t scale,
                                           std::uint64_t seed) {
  REDHIP_CHECK(scale >= 1);
  BenchmarkId effective = id;
  if (id == BenchmarkId::kMix) {
    effective = spec_benchmarks()[core % spec_benchmarks().size()];
  }
  auto comps = build_profile(effective, core, scale, seed);
  const ProfileSeeds s = seeds_for(effective, core, seed ^ 0xabcdefull);
  return std::make_unique<SyntheticTrace>(std::move(comps),
                                          traits_of(effective).gap_mean,
                                          s.sched);
}

std::uint32_t workload_cpi_centi(BenchmarkId id, CoreId core) {
  BenchmarkId effective = id;
  if (id == BenchmarkId::kMix) {
    effective = spec_benchmarks()[core % spec_benchmarks().size()];
  }
  return traits_of(effective).cpi_centi;
}

}  // namespace redhip
