// MemRef and TraceSource — the interface between workloads and simulator.
//
// A trace record carries what the paper's pintool collected: the data
// address, whether it is a write, the instruction address (needed only by
// the PC-indexed stride prefetcher), and the number of non-memory
// instructions executed since the previous memory reference (charged at the
// application's average CPI).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "common/bytestream.h"
#include "common/types.h"

namespace redhip {

struct MemRef {
  Addr addr = 0;
  std::uint32_t pc = 0;
  std::uint16_t gap = 0;  // non-memory instructions before this reference
  bool is_write = false;

  // Serialized fields in on-disk order (common/bytestream.h): a checkpoint
  // stores the unconsumed refill-buffer tail as these.
  template <class S>
  static constexpr auto fields(S& s) {
    return std::tie(s.addr, s.pc, s.gap, s.is_write);
  }
  bool operator==(const MemRef&) const = default;
};

// A stream of memory references.  Sources may be finite (file traces) or
// unbounded (synthetic generators); the simulator bounds every run by a
// reference count, so `next` returning false simply ends that core early.
//
// Run-ahead: the simulator may call a source from a helper thread, ahead
// of the references it has consumed, and later rewind it with
// ckpt_load_state + skip (sim/ref_queue.h).  It does so only for
// SyntheticTrace, which owns all of its state.  Every other source (trace
// files, and wrappers that forward to another source or record into
// state of their own) is called only from the thread that runs the
// simulation, and only for references that thread consumes next.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual bool next(MemRef& out) = 0;

  // Fill up to `n` references into `out` and return how many were produced.
  // Returns fewer than `n` only when the trace ends mid-batch; 0 means the
  // trace is exhausted.  The reference sequence is exactly the sequence
  // `next` would have produced — batching is a pure amortization of the
  // per-reference virtual call, never a behavioural change (locked in by
  // tests/trace_batch_test).  The default implementation loops over next();
  // generators override it with block-filling fast paths.
  virtual std::size_t next_batch(MemRef* out, std::size_t n) {
    std::size_t filled = 0;
    while (filled < n && next(out[filled])) ++filled;
    return filled;
  }

  // Advance past `n` references without observing them, leaving the source
  // positioned exactly where `n` next() calls would have left it — how the
  // sampled run's fast-forward gaps move a trace, and how a checkpoint
  // restore re-synchronizes a source without state capture (rebuilt, then
  // skipped to the saved position).  The default drains next(); indexable
  // sources override with O(1) repositioning.
  virtual void skip(std::uint64_t n) {
    MemRef scratch;
    while (n > 0 && next(scratch)) --n;
  }

  // Serialize the source's complete mutable generator state, so a
  // checkpoint restore can reposition it in O(state) instead of replaying
  // skip(refs_done) from the origin — at billion-reference positions the
  // replay costs seconds, which is exactly the prefix a shared warm-state
  // snapshot exists to avoid paying.  Contract: a load must leave the
  // source emitting bit-identically what it emitted after the save.  The
  // state is the generator's own position, which may run ahead of what
  // the simulator has consumed; the codec stores the unconsumed
  // refill-buffer tail beside it, so the restored core resumes mid-batch
  // without touching the source.  Sources without state capture return
  // false from ckpt_save_state *writing nothing*; the codec then stores no
  // tail for that core and restores it by replaying skip(refs_done), which
  // costs time in proportion to the position.
  virtual bool ckpt_save_state(ByteWriter&) const { return false; }
  virtual bool ckpt_load_state(ByteReader&) { return false; }
};

// In-memory trace; the unit tests' workhorse.
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<MemRef> refs)
      : refs_(std::move(refs)) {}

  bool next(MemRef& out) override {
    if (pos_ >= refs_.size()) return false;
    out = refs_[pos_++];
    return true;
  }

  std::size_t next_batch(MemRef* out, std::size_t n) override {
    const std::size_t take = std::min(n, refs_.size() - pos_);
    std::copy_n(refs_.begin() + static_cast<std::ptrdiff_t>(pos_), take, out);
    pos_ += take;
    return take;
  }

  void skip(std::uint64_t n) override {
    pos_ += static_cast<std::size_t>(
        std::min<std::uint64_t>(n, refs_.size() - pos_));
  }

  bool ckpt_save_state(ByteWriter& w) const override {
    w.u64(pos_);
    return true;
  }

  bool ckpt_load_state(ByteReader& r) override {
    const std::uint64_t pos = r.u64();
    if (!r.ok() || pos > refs_.size()) return false;
    pos_ = static_cast<std::size_t>(pos);
    return true;
  }

  void rewind() { pos_ = 0; }
  std::size_t size() const { return refs_.size(); }

 private:
  std::vector<MemRef> refs_;
  std::size_t pos_ = 0;
};

}  // namespace redhip
