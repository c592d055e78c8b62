// Access-pattern kernels — the building blocks of the synthetic workloads.
//
// Each kernel is a deterministic state machine over a private address region,
// written once as a step that emits one memory reference; SteppedKernel
// drives that step for both generation and the sampled fast-forward.  A
// workload (workloads.h) mixes several kernels with burst scheduling to
// model one benchmark.  Kernels set addr/pc/is_write; the workload layer
// fills in the instruction gap.
//
// The kernels are chosen to span the locality behaviours that drive the
// paper's per-benchmark differences (Fig. 9): pure streaming, stencil plane
// reuse, uniform pointer chasing, indexed sparse gathers, frontier-driven
// graph traversal, SGD row updates, and bursts over power-law or hot/cold
// skewed lines.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>

#include "common/bytestream.h"
#include "common/rng.h"
#include "common/types.h"
#include "trace/mem_ref.h"

namespace redhip {

// A contiguous address region owned by one kernel.
struct Region {
  Addr base = 0;
  std::uint64_t bytes = 0;

  Addr at(std::uint64_t offset) const { return base + offset % bytes; }
};

class Kernel {
 public:
  virtual ~Kernel() = default;
  // Produce the next `n` references (addr, pc, is_write) into `out`.
  virtual void next_n(MemRef* out, std::size_t n) = 0;
  // The sampled fast-forward: advance past `n` references without storing
  // them, and make one discarded `gap_rng.below(gap_bound)` draw per
  // reference.  Afterwards both generators stand exactly where next_n(n)
  // followed by n gap draws leaves them.  The two streams are independent,
  // so interleaving the draws changes neither stream's order, while their
  // serial xoshiro dependency chains overlap in the pipeline.
  virtual void skip_with_gaps(std::uint64_t n, Xoshiro256& gap_rng,
                              std::uint64_t gap_bound) = 0;
  // Serialize / restore the kernel's mutable state (cursors, counters, RNG
  // stream) — construction parameters are not written; restore applies to
  // a kernel freshly built from the same recipe (guarded upstream by the
  // checkpoint's config-digest key).  After ckpt_load the kernel emits
  // bit-identically what it emitted after ckpt_save.  A load rejects an
  // address-bearing field outside the kernel's regions, so a doctored file
  // fails closed instead of emitting lines another core may own.
  virtual void ckpt_save(ByteWriter& w) const = 0;
  virtual bool ckpt_load(ByteReader& r) = 0;
};

// Builds a kernel's bulk operations from its one state machine.  K keeps
// its mutable state in `State state_` and defines
//   template <class Emit> void step(State& s, Emit&& emit);
// which advances `s` by one reference, drawing only from its own generator,
// and calls emit(addr, pc, is_write) exactly once.  next_n's emit stores the
// reference; skip_with_gaps's emit discards it, so the compiler drops the
// address arithmetic and keeps only the state updates and RNG draws.  Both
// loops copy the state and the gap generator into locals around the loop:
// the step updates fields conditionally, and only a local stays in
// registers across such updates.  The loops are instantiated for the
// eight kernels in kernels.cc.
//
// The checkpoint is K's field list (common/bytestream.h): its State, unless
// K lists more; K also defines `bool state_ok(const State& s) const`, the
// range check a load applies after reading the list.
template <class K>
class SteppedKernel : public Kernel {
 public:
  void next(MemRef& out) { next_n(&out, 1); }  // one reference
  void next_n(MemRef* out, std::size_t n) final;
  void skip_with_gaps(std::uint64_t n, Xoshiro256& gap_rng,
                      std::uint64_t gap_bound) final;
  void ckpt_save(ByteWriter& w) const final;
  bool ckpt_load(ByteReader& r) final;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.state_);
  }
};

// ----------------------------------------------------------------- Streaming
// `streams` concurrent sequential cursors over equal slices of the region
// (modeling the multiple arrays of a streaming loop), each advancing by
// `stride_bytes`, interleaved round-robin.  Models lbm / bwaves.
class StreamKernel final : public SteppedKernel<StreamKernel> {
 public:
  // `repeats`: how many times each element is touched before the cursor
  // advances (real loops often read-modify-write or reuse operands; this is
  // the temporal-locality knob that separates a 87.5% L1 hit rate from
  // 93.75% at an 8-byte stride).
  StreamKernel(Region region, std::uint32_t streams, std::uint32_t stride_bytes,
               std::uint32_t write_ppm, std::uint32_t pc_base,
               std::uint64_t seed, std::uint32_t repeats = 1);
  // The stream cursors follow the State.
  template <class S>
  static auto fields(S& s) {
    return field_list(s.state_, uncounted(s.cursor_));
  }

 private:
  friend SteppedKernel;
  struct State {
    Xoshiro256 rng;
    std::uint32_t turn;         // the stream the next reference comes from
    std::uint32_t repeat_left;  // touches left on the current element

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.rng, s.turn, s.repeat_left);
    }
  };
  template <class Emit>
  void step(State& s, Emit&& emit);
  bool state_ok(const State& s) const;

  Region region_;
  std::uint32_t streams_;
  std::uint32_t stride_;
  std::uint32_t write_ppm_;
  std::uint32_t pc_base_;
  std::uint32_t repeats_;
  std::uint64_t slice_;
  // One per stream, below slice_.  Kept out of State so that the loops'
  // copy of it stays a few registers wide.
  std::vector<std::uint64_t> cursor_;
  State state_;
};

// ------------------------------------------------------------------- Stencil
// 7-point stencil sweep over an nx*ny*nz grid of 8-byte elements: per cell,
// reads of center and the +-x/+-y/+-z neighbours followed by a write of the
// center.  The +-y neighbours reuse lines within a plane row and the +-z
// neighbours reuse the previous plane, giving the L2/L3 reuse signature of
// cactusADM / GemsFDTD.
class StencilKernel final : public SteppedKernel<StencilKernel> {
 public:
  StencilKernel(Region region, std::uint64_t nx, std::uint64_t ny,
                std::uint64_t nz, std::uint32_t pc_base);

 private:
  friend SteppedKernel;
  struct State {
    std::uint64_t cell = 0;
    std::uint32_t point = 0;  // 0..6: -z,-y,-x,center,+x,+y,+z ; 7: write

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.cell, s.point);
    }
  };
  template <class Emit>
  void step(State& s, Emit&& emit);
  bool state_ok(const State& s) const { return s.point <= 7; }

  Region region_;
  std::uint64_t nx_, ny_, nz_;
  std::uint32_t pc_base_;
  State state_;
};

// -------------------------------------------------------------- PointerChase
// Full-period LCG walk over the lines of the region (Hull–Dobell), visiting
// every line exactly once per period in a pseudo-random order; each node
// visit optionally reads `payload_lines` sequential lines of node payload.
// Models mcf's pointer-heavy network simplex.
class PointerChaseKernel final : public SteppedKernel<PointerChaseKernel> {
 public:
  PointerChaseKernel(Region region, std::uint32_t payload_lines,
                     std::uint32_t write_ppm, std::uint32_t pc_base,
                     std::uint64_t seed);

 private:
  friend SteppedKernel;
  struct State {
    Xoshiro256 rng;
    std::uint64_t node = 0;  // the LCG's current line
    std::uint32_t payload_left = 0;
    LineAddr payload_cursor = 0;

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.rng, s.node, s.payload_left, s.payload_cursor);
    }
  };
  template <class Emit>
  void step(State& s, Emit&& emit);
  bool state_ok(const State& s) const {
    return s.node < lines_ && s.payload_left <= payload_refs();
  }
  // Payload references per node visit: element-granular reads of the
  // payload lines.
  std::uint32_t payload_refs() const {
    return payload_lines_ * (kDefaultLineBytes / 8);
  }

  Region region_;
  std::uint64_t lines_;       // power of two
  std::uint64_t mul_, add_;   // LCG constants (full period mod lines_)
  std::uint32_t payload_lines_;
  std::uint32_t write_ppm_;
  std::uint32_t pc_base_;
  State state_;
};

// ----------------------------------------------------------------- BurstWalk
// Sampled line accesses with short element bursts: each burst starts at a
// line drawn from `sampler` (a line index below region.bytes / line size)
// and walks it element by element, into its successors when the burst runs
// past the line.  With a ZipfSampler it models "hot spectrum" structures
// (open lists, node attributes, score tables) whose reuse distances span
// every cache tier; with a HotColdSampler, a small hot set absorbing most
// accesses over a uniform background (astar's open list + grid mixture,
// the fields of small records).
template <class Sampler>
class BurstWalkKernel final : public SteppedKernel<BurstWalkKernel<Sampler>> {
 public:
  BurstWalkKernel(Region region, Sampler sampler, std::uint32_t burst_mean,
                  std::uint32_t write_ppm, std::uint32_t pc_base,
                  std::uint64_t seed);

 private:
  friend class SteppedKernel<BurstWalkKernel>;
  // The longest burst the step draws.
  static constexpr std::uint32_t kMaxBurst = 256;
  struct State {
    Xoshiro256 rng;
    std::uint32_t burst_left = 0;
    Addr burst_cursor = 0;

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.rng, s.burst_left, s.burst_cursor);
    }
  };
  template <class Emit>
  void step(State& s, Emit&& emit);
  bool state_ok(const State& s) const { return s.burst_left <= kMaxBurst; }

  Region region_;
  Sampler sampler_;
  std::uint32_t burst_mean_;
  std::uint32_t write_ppm_;
  std::uint32_t pc_base_;
  State state_;
};

// ------------------------------------------------------------- SparseGather
// CSR-style sparse kernel: sequential reads from an index region, gathers
// from a large vector region at skewed (hot/cold) random positions, and
// periodic sequential writes to a result region.  Models soplex / milc.
class SparseGatherKernel final : public SteppedKernel<SparseGatherKernel> {
 public:
  // Gather targets are drawn from a power-law over the vector when
  // zipf_k >= 1 (column popularity), or from the two-tier hot/cold sampler
  // when zipf_k == 0.
  // Each gather target is read as `gather_elems` consecutive elements
  // (complex numbers, coordinate pairs, ... — the source of gathers'
  // residual spatial locality).
  SparseGatherKernel(Region index_region, Region vector_region,
                     Region result_region, std::uint32_t gathers_per_index,
                     std::uint32_t hot_fraction_ppm,
                     std::uint32_t hot_access_ppm, std::uint32_t pc_base,
                     std::uint64_t seed, std::uint32_t zipf_k = 0,
                     std::uint32_t gather_elems = 1);

 private:
  friend SteppedKernel;
  struct State {
    Xoshiro256 rng;
    std::uint64_t index_cursor = 0;
    std::uint64_t result_cursor = 0;
    Addr gather_target;  // a line of the vector; starts at its first
    std::uint32_t phase = 0;  // 0: index; then g groups of gather_elems; write

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.rng, s.index_cursor, s.result_cursor, s.gather_target,
                      s.phase);
    }
  };
  template <class Emit>
  void step(State& s, Emit&& emit);
  bool state_ok(const State& s) const;

  Region index_region_, vector_region_, result_region_;
  std::uint32_t gathers_per_index_;
  std::uint32_t gather_elems_;
  std::uint32_t pc_base_;
  HotColdSampler sampler_;
  ZipfSampler zipf_;
  std::uint32_t zipf_k_;
  State state_;
};

// ---------------------------------------------------------------------- BFS
// Frontier-driven traversal: sequential frontier reads, then a burst of
// sequential edge-list reads at a random offset, with a random visited-map
// access (read, sometimes write) per edge.  Models Graph500/CombBLAS.
class BfsKernel final : public SteppedKernel<BfsKernel> {
 public:
  // The visited-map accesses follow a power law (`visited_zipf_k`): BFS
  // frontiers have community structure, so recently discovered vertices are
  // re-checked at every reuse distance.
  BfsKernel(Region frontier_region, Region edge_region, Region visited_region,
            std::uint32_t mean_degree, std::uint32_t visited_zipf_k,
            std::uint32_t pc_base, std::uint64_t seed);

 private:
  friend SteppedKernel;
  static constexpr std::uint32_t kMaxDegree = 512;  // longest edge run
  // Edge reads per visited-map check (the map is word-packed).
  static constexpr std::uint32_t kEdgesPerCheck = 3;
  struct State {
    Xoshiro256 rng;
    std::uint64_t frontier_cursor = 0;
    std::uint64_t edge_cursor = 0;
    std::uint32_t edges_left = 0;
    std::uint32_t visited_after = 0;  // emit a visited check every N edges

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.rng, s.frontier_cursor, s.edge_cursor, s.edges_left,
                      s.visited_after);
    }
  };
  template <class Emit>
  void step(State& s, Emit&& emit);
  bool state_ok(const State& s) const {
    return s.edges_left <= kMaxDegree && s.visited_after <= kEdgesPerCheck;
  }

  Region frontier_region_, edge_region_, visited_region_;
  std::uint32_t mean_degree_;
  std::uint32_t pc_base_;
  ZipfSampler visited_sampler_;
  State state_;
};

// ---------------------------------------------------------------------- SGD
// Stochastic gradient descent on a factor model: per step, pick a random
// (user, item) pair, stream both factor rows (reads), then write both back.
// Models the GraphLab probabilistic matrix factorization ("pmf").
class SgdKernel final : public SteppedKernel<SgdKernel> {
 public:
  // Ratings follow item/user popularity: rows are drawn from a power law
  // of skew `zipf_k` (1 = uniform).
  SgdKernel(Region user_region, Region item_region, std::uint32_t row_bytes,
            std::uint32_t pc_base, std::uint64_t seed,
            std::uint32_t zipf_k = 1);

 private:
  friend SteppedKernel;
  struct State {
    Xoshiro256 rng;
    Addr user_row, item_row;  // row starts in their regions
    std::uint32_t offset = 0;
    std::uint32_t phase = 0;  // 0/1: read user/item row, 2/3: write them

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.rng, s.user_row, s.item_row, s.offset, s.phase);
    }
  };
  template <class Emit>
  void step(State& s, Emit&& emit);
  bool state_ok(const State& s) const;

  Region user_region_, item_region_;
  std::uint32_t row_bytes_;
  std::uint32_t pc_base_;
  ZipfSampler user_sampler_, item_sampler_;
  State state_;
};

}  // namespace redhip
