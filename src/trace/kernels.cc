#include "trace/kernels.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"

namespace redhip {

// Each kernel's step is its whole state machine: it advances `s` by one
// reference, draws from `s.rng` in the kernel's fixed order, and hands the
// reference to `emit` (see SteppedKernel).  An emit argument may draw, but at
// most one per call: argument evaluation order is unspecified, so any further
// draw is sequenced into a statement before the call.

// ---------------------------------------------------------------- Streaming

StreamKernel::StreamKernel(Region region, std::uint32_t streams,
                           std::uint32_t stride_bytes, std::uint32_t write_ppm,
                           std::uint32_t pc_base, std::uint64_t seed,
                           std::uint32_t repeats)
    : region_(region),
      streams_(streams),
      stride_(stride_bytes),
      write_ppm_(write_ppm),
      pc_base_(pc_base),
      repeats_(repeats),
      state_{Xoshiro256(seed), 0, repeats} {
  REDHIP_CHECK(streams >= 1 && stride_bytes >= 1 && repeats >= 1);
  slice_ = region.bytes / streams;
  REDHIP_CHECK_MSG(slice_ >= stride_bytes, "stream slice smaller than stride");
  cursor_.resize(streams);
  // Start cursors at deterministic, distinct phases so streams do not start
  // line-aligned with each other.
  for (std::uint32_t i = 0; i < streams; ++i) {
    cursor_[i] = (slice_ / streams) * i;
  }
}

template <class Emit>
void StreamKernel::step(State& s, Emit&& emit) {
  const std::uint32_t i = s.turn;
  emit(region_.base + slice_ * i + cursor_[i], pc_base_ + i,
       s.rng.chance_ppm(write_ppm_));
  if (--s.repeat_left > 0) return;  // touch the same element again next step
  s.repeat_left = repeats_;
  s.turn = (s.turn + 1) % streams_;
  cursor_[i] += stride_;
  if (cursor_[i] + stride_ > slice_) cursor_[i] = 0;
}

// ------------------------------------------------------------------ Stencil

StencilKernel::StencilKernel(Region region, std::uint64_t nx, std::uint64_t ny,
                             std::uint64_t nz, std::uint32_t pc_base)
    : region_(region), nx_(nx), ny_(ny), nz_(nz), pc_base_(pc_base) {
  REDHIP_CHECK(nx >= 2 && ny >= 2 && nz >= 2);
  REDHIP_CHECK_MSG(nx * ny * nz * 8 <= region.bytes,
                   "stencil grid does not fit its region");
}

template <class Emit>
void StencilKernel::step(State& s, Emit&& emit) {
  constexpr std::uint32_t kElem = 8;
  const std::uint64_t cells = nx_ * ny_ * nz_;
  const std::uint64_t c = s.cell % cells;
  // Neighbour offsets in elements, clamped at the grid edge by wrapping
  // (edge effects are irrelevant at these grid sizes).
  const std::int64_t offsets[7] = {
      -static_cast<std::int64_t>(nx_ * ny_),  // -z
      -static_cast<std::int64_t>(nx_),        // -y
      -1,                                     // -x
      0,                                      // center
      1,                                      // +x
      static_cast<std::int64_t>(nx_),         // +y
      static_cast<std::int64_t>(nx_ * ny_),   // +z
  };
  if (s.point < 7) {
    const std::uint64_t elem =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(c) +
                                   offsets[s.point] +
                                   static_cast<std::int64_t>(cells)) %
        cells;
    emit(region_.base + elem * kElem, pc_base_ + s.point, false);
  } else {
    emit(region_.base + c * kElem, pc_base_ + 7, true);  // center write-back
  }
  if (++s.point > 7) {
    s.point = 0;
    ++s.cell;
  }
}

// ------------------------------------------------------------- PointerChase

PointerChaseKernel::PointerChaseKernel(Region region,
                                       std::uint32_t payload_lines,
                                       std::uint32_t write_ppm,
                                       std::uint32_t pc_base,
                                       std::uint64_t seed)
    : region_(region),
      payload_lines_(payload_lines),
      write_ppm_(write_ppm),
      pc_base_(pc_base),
      state_{Xoshiro256(seed)} {
  lines_ = round_up_pow2(region.bytes / kDefaultLineBytes) / 2;
  if (lines_ < 16) lines_ = 16;
  REDHIP_CHECK_MSG(lines_ * kDefaultLineBytes <= region.bytes,
                   "pointer-chase region too small");
  // Hull–Dobell: modulus 2^m, add odd, mul ≡ 1 (mod 4) → full period.
  state_.node = state_.rng.below(lines_);
  mul_ = 0xd1342543de82ef95ull % lines_ | 5;  // ...01 in binary, ≡1 mod 4
  mul_ = (mul_ & ~std::uint64_t{3}) | 1;
  add_ = state_.rng.next() | 1;
}

template <class Emit>
void PointerChaseKernel::step(State& s, Emit&& emit) {
  if (s.payload_left > 0) {
    // Node payload: element-granular sequential reads following the node
    // line (this is where mcf's limited spatial locality comes from).
    --s.payload_left;
    s.payload_cursor += 8;
    emit(region_.base + s.payload_cursor % (lines_ * kDefaultLineBytes),
         pc_base_ + 1, s.rng.chance_ppm(write_ppm_));
    return;
  }
  s.node = (mul_ * s.node + add_) & (lines_ - 1);
  emit(region_.base + s.node * kDefaultLineBytes, pc_base_, false);
  if (payload_lines_ > 0) {
    s.payload_left = payload_refs();
    s.payload_cursor = s.node * kDefaultLineBytes;
  }
}

// ----------------------------------------------------------------- BurstWalk

template <class Sampler>
BurstWalkKernel<Sampler>::BurstWalkKernel(Region region, Sampler sampler,
                                          std::uint32_t burst_mean,
                                          std::uint32_t write_ppm,
                                          std::uint32_t pc_base,
                                          std::uint64_t seed)
    : region_(region),
      sampler_(sampler),
      burst_mean_(burst_mean),
      write_ppm_(write_ppm),
      pc_base_(pc_base),
      state_{Xoshiro256(seed)} {}

template <class Sampler>
template <class Emit>
void BurstWalkKernel<Sampler>::step(State& s, Emit&& emit) {
  if (s.burst_left == 0) {
    s.burst_cursor = sampler_.sample(s.rng) * kDefaultLineBytes;
    s.burst_left =
        static_cast<std::uint32_t>(s.rng.burst(burst_mean_, kMaxBurst));
  }
  --s.burst_left;
  emit(region_.base + s.burst_cursor % region_.bytes,
       pc_base_ + (s.burst_left == 0 ? 0 : 1), s.rng.chance_ppm(write_ppm_));
  s.burst_cursor += 8;
}

// ------------------------------------------------------------- SparseGather

SparseGatherKernel::SparseGatherKernel(
    Region index_region, Region vector_region, Region result_region,
    std::uint32_t gathers_per_index, std::uint32_t hot_fraction_ppm,
    std::uint32_t hot_access_ppm, std::uint32_t pc_base, std::uint64_t seed,
    std::uint32_t zipf_k, std::uint32_t gather_elems)
    : index_region_(index_region),
      vector_region_(vector_region),
      result_region_(result_region),
      gathers_per_index_(gathers_per_index),
      gather_elems_(gather_elems),
      pc_base_(pc_base),
      sampler_(vector_region.bytes / kDefaultLineBytes, hot_fraction_ppm,
               hot_access_ppm),
      zipf_(vector_region.bytes / kDefaultLineBytes,
            zipf_k == 0 ? 1 : zipf_k),
      zipf_k_(zipf_k),
      state_{Xoshiro256(seed), 0, 0, vector_region.base} {
  REDHIP_CHECK(gathers_per_index >= 1);
  REDHIP_CHECK(gather_elems >= 1 && gather_elems <= 16);
}

template <class Emit>
void SparseGatherKernel::step(State& s, Emit&& emit) {
  const std::uint32_t gather_refs = gathers_per_index_ * gather_elems_;
  if (s.phase == 0) {
    emit(index_region_.at(s.index_cursor), pc_base_, false);
    s.index_cursor += 8;  // one 64-bit index per step
  } else if (s.phase <= gather_refs) {
    const std::uint32_t within = (s.phase - 1) % gather_elems_;
    if (within == 0) {
      const std::uint64_t line =
          zipf_k_ > 0 ? zipf_.sample(s.rng) : sampler_.sample(s.rng);
      s.gather_target = vector_region_.base + line * kDefaultLineBytes;
    }
    emit(s.gather_target + within * 8, pc_base_ + 1, false);
  } else {
    emit(result_region_.at(s.result_cursor), pc_base_ + 2, true);
    s.result_cursor += 8;
  }
  s.phase = (s.phase + 1) % (gather_refs + 2);
}

// ---------------------------------------------------------------------- BFS

BfsKernel::BfsKernel(Region frontier_region, Region edge_region,
                     Region visited_region, std::uint32_t mean_degree,
                     std::uint32_t visited_zipf_k, std::uint32_t pc_base,
                     std::uint64_t seed)
    : frontier_region_(frontier_region),
      edge_region_(edge_region),
      visited_region_(visited_region),
      mean_degree_(mean_degree),
      pc_base_(pc_base),
      visited_sampler_(visited_region.bytes / kDefaultLineBytes,
                       visited_zipf_k),
      state_{Xoshiro256(seed)} {
  REDHIP_CHECK(mean_degree >= 1);
}

template <class Emit>
void BfsKernel::step(State& s, Emit&& emit) {
  if (s.edges_left > 0 && s.visited_after == 0) {
    // Visited-map check: skewed random access, writes when the vertex is
    // newly discovered (~1/4 of checks).
    s.visited_after = kEdgesPerCheck;
    const std::uint64_t line = visited_sampler_.sample(s.rng);
    emit(visited_region_.base + line * kDefaultLineBytes, pc_base_ + 2,
         s.rng.chance_ppm(250'000));
    return;
  }
  if (s.edges_left > 0) {
    --s.edges_left;
    --s.visited_after;
    emit(edge_region_.at(s.edge_cursor), pc_base_ + 1, false);
    s.edge_cursor += 8;
    return;
  }
  // Pop the next frontier vertex and start its (random-length) edge run at
  // a random offset in the edge array.
  emit(frontier_region_.at(s.frontier_cursor), pc_base_, false);
  s.frontier_cursor += 8;
  s.edges_left =
      static_cast<std::uint32_t>(s.rng.burst(mean_degree_, kMaxDegree));
  s.edge_cursor = s.rng.below(edge_region_.bytes / 8) * 8;
  s.visited_after = kEdgesPerCheck;
}

// ---------------------------------------------------------------------- SGD

SgdKernel::SgdKernel(Region user_region, Region item_region,
                     std::uint32_t row_bytes, std::uint32_t pc_base,
                     std::uint64_t seed, std::uint32_t zipf_k)
    : user_region_(user_region),
      item_region_(item_region),
      row_bytes_(row_bytes),
      pc_base_(pc_base),
      user_sampler_(user_region.bytes / row_bytes, zipf_k),
      item_sampler_(item_region.bytes / row_bytes, zipf_k),
      state_{Xoshiro256(seed), user_region.base, item_region.base} {
  REDHIP_CHECK(row_bytes >= 8 && row_bytes % 8 == 0);
}

template <class Emit>
void SgdKernel::step(State& s, Emit&& emit) {
  if (s.offset == 0 && s.phase == 0) {
    // New (user, item) sample: popularity-weighted row in each matrix.
    s.user_row = user_region_.base + user_sampler_.sample(s.rng) * row_bytes_;
    s.item_row = item_region_.base + item_sampler_.sample(s.rng) * row_bytes_;
  }
  const Addr row = s.phase % 2 == 0 ? s.user_row : s.item_row;
  emit(row + s.offset, pc_base_ + s.phase, s.phase >= 2);
  s.offset += 8;
  if (s.offset >= row_bytes_) {
    s.offset = 0;
    s.phase = (s.phase + 1) % 4;
  }
}

// --------------------------------------------------------------- bulk loops

template <class K>
void SteppedKernel<K>::next_n(MemRef* out, std::size_t n) {
  K& k = static_cast<K&>(*this);
  typename K::State s = k.state_;
  for (std::size_t i = 0; i < n; ++i) {
    MemRef& m = out[i];
    k.step(s, [&m](Addr addr, std::uint32_t pc, bool is_write) {
      m.addr = addr;
      m.pc = pc;
      m.is_write = is_write;
    });
  }
  k.state_ = s;
}

template <class K>
void SteppedKernel<K>::skip_with_gaps(std::uint64_t n, Xoshiro256& gap_rng,
                                      std::uint64_t gap_bound) {
  K& k = static_cast<K&>(*this);
  typename K::State s = k.state_;
  Xoshiro256 grng = gap_rng;
  for (std::uint64_t i = 0; i < n; ++i) {
    grng.below(gap_bound);
    k.step(s, [](Addr, std::uint32_t, bool) {});
  }
  k.state_ = s;
  gap_rng = grng;
}

// ------------------------------------------------------------- checkpointing
// Mutable state only: each kernel's field list (kernels.h), which is its
// State, and for StreamKernel the cursors too.  Regions, weights, LCG constants
// and sampler tables are construction-time values the restored kernel was
// rebuilt with (the checkpoint key's config digest guarantees the same
// recipe).  The reader fail-latches, so a load reads everything and then
// checks r.ok() and the kernel's state_ok once.  Address-bearing fields the
// step does not reduce modulo a region are range-checked: a cursor, row or
// gather target outside its region would emit lines another core owns.  So
// are counters: one the step never produces would restore a different,
// in-region stream.

namespace {

// True when `addr` starts one of the whole `row_bytes` rows of `region`.
bool is_row_start(const Region& region, Addr addr, std::uint64_t row_bytes) {
  const std::uint64_t offset = addr - region.base;
  return addr >= region.base && offset % row_bytes == 0 &&
         offset / row_bytes < region.bytes / row_bytes;
}

}  // namespace

template <class K>
void SteppedKernel<K>::ckpt_save(ByteWriter& w) const {
  w.put(static_cast<const K&>(*this));
}

template <class K>
bool SteppedKernel<K>::ckpt_load(ByteReader& r) {
  K& k = static_cast<K&>(*this);
  r.get(k);
  return r.ok() && k.state_ok(k.state_);
}

bool StreamKernel::state_ok(const State& s) const {
  return s.turn < streams_ && s.repeat_left >= 1 &&
         s.repeat_left <= repeats_ &&
         std::all_of(cursor_.begin(), cursor_.end(),
                     [this](std::uint64_t c) { return c < slice_; });
}

bool SparseGatherKernel::state_ok(const State& s) const {
  return s.phase < gathers_per_index_ * gather_elems_ + 2 &&
         is_row_start(vector_region_, s.gather_target, kDefaultLineBytes);
}

bool SgdKernel::state_ok(const State& s) const {
  return s.offset < row_bytes_ && s.phase < 4 &&
         is_row_start(user_region_, s.user_row, row_bytes_) &&
         is_row_start(item_region_, s.item_row, row_bytes_);
}

template class SteppedKernel<StreamKernel>;
template class SteppedKernel<StencilKernel>;
template class SteppedKernel<PointerChaseKernel>;
template class SteppedKernel<BurstWalkKernel<ZipfSampler>>;
template class SteppedKernel<BurstWalkKernel<HotColdSampler>>;
template class SteppedKernel<SparseGatherKernel>;
template class SteppedKernel<BfsKernel>;
template class SteppedKernel<SgdKernel>;
template class BurstWalkKernel<ZipfSampler>;
template class BurstWalkKernel<HotColdSampler>;

}  // namespace redhip
