// Synthetic benchmark workloads — the stand-ins for the paper's traces.
//
// The paper evaluates 8 SPEC 2006 benchmarks chosen to stress the deep
// hierarchy, two large-scale applications (Graph500/CombBLAS "blas",
// GraphLab PMF "pmf"), and a "mix" of the 8 SPEC traces across cores.  Each
// workload here is a seeded mixture of kernels whose working-set sizes,
// access regularity and write ratios are chosen to reproduce the paper's
// per-level hit-rate signatures (Fig. 9) rather than the benchmarks'
// computation.  A `scale` divisor shrinks the working sets in lock-step
// with a geometry-scaled hierarchy (see sim/config.h) so that the pressure
// ratios — which determine every result shape — are preserved.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/kernels.h"
#include "trace/mem_ref.h"

namespace redhip {

enum class BenchmarkId : std::uint8_t {
  kBwaves,
  kGemsFDTD,
  kLbm,
  kMcf,
  kMilc,
  kSoplex,
  kAstar,
  kCactusADM,
  kMix,   // a different SPEC profile on each core
  kPmf,   // GraphLab probabilistic matrix factorization
  kBlas,  // Graph500 on CombBLAS
};

std::string to_string(BenchmarkId id);
// All 11 workloads in the paper's figure order.
const std::vector<BenchmarkId>& all_benchmarks();
// The 8 SPEC workloads (used to build kMix).
const std::vector<BenchmarkId>& spec_benchmarks();

// Per-benchmark scalar properties (from the paper's methodology narrative
// where stated, calibrated otherwise).
struct WorkloadTraits {
  std::uint32_t cpi_centi;    // average CPI x100 for non-memory instructions
  std::uint32_t gap_mean;     // mean non-memory instructions per memory ref
  std::uint64_t ws_bytes;     // nominal per-process working set (unscaled)
};
WorkloadTraits traits_of(BenchmarkId id);

// A kernel mixture with burst scheduling: the active kernel runs for a
// geometric burst, then the scheduler re-draws a kernel weighted by ppm.
class SyntheticTrace final : public TraceSource {
 public:
  struct Component {
    std::unique_ptr<Kernel> kernel;
    std::uint32_t weight_ppm;
    std::uint32_t burst_mean;
  };

  // Each reference's gap is drawn uniformly from gap_mean +- gap_mean / 2;
  // gap_mean must be at least 1 (every workload's is 2-4).
  SyntheticTrace(std::vector<Component> components, std::uint32_t gap_mean,
                 std::uint64_t seed);

  bool next(MemRef& out) override;

  // Block-filling fast path: emits whole burst chunks per active kernel so
  // the kernel pointer and gap parameters stay hot across the inner loop.
  // Draws the RNG in exactly the order next() does (one reschedule draw at
  // each burst boundary, one gap draw per reference), so the produced
  // sequence is bit-identical to repeated next() calls.
  std::size_t next_batch(MemRef* out, std::size_t n) override;

  // Fast-forward past `n` references without materializing them.  Consumes
  // both RNG streams (scheduler and kernels) in exactly the order next()
  // would, so the references emitted afterwards are bit-identical to having
  // generated and discarded n references.  The backbone of sampled runs'
  // inter-window gaps.
  void skip(std::uint64_t n) override;

  // Complete generator state (scheduler RNG + burst position + every
  // kernel's mutable state): a restored trace continues bit-identically,
  // and a deep-position restore costs O(state) instead of re-skipping the
  // whole prefix — the difference between a millisecond and multi-second
  // snapshot resume on billion-reference sampled runs.
  bool ckpt_save_state(ByteWriter& w) const override;
  bool ckpt_load_state(ByteReader& r) override;

 private:
  void reschedule();

  static constexpr std::uint64_t kMaxBurst = 1 << 16;  // longest burst drawn

  std::vector<Component> components_;
  std::uint32_t gap_mean_;
  Xoshiro256 rng_;
  std::size_t active_ = 0;
  std::uint64_t burst_left_ = 0;
};

// Build the trace a given core would execute for `id`:
//  - SPEC ids replicate the same profile on every core, in a disjoint
//    per-core address space (the paper's multi-programmed duplication);
//  - kMix gives core c the c-th SPEC profile;
//  - kPmf / kBlas give each core a distinct shard (same profile, different
//    seed/regions), modeling the 8 traced processes.
// `scale` divides working sets (1 = the paper's full size).
std::unique_ptr<TraceSource> make_workload(BenchmarkId id, CoreId core,
                                           std::uint32_t scale,
                                           std::uint64_t seed);

// CPI (x100) the simulator should charge for core `core` running `id`.
std::uint32_t workload_cpi_centi(BenchmarkId id, CoreId core);

}  // namespace redhip
