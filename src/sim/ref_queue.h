// RefQueue — one core's references, generated ahead of the run loop.
//
// A single-producer, single-consumer ring of kDepth batches.  The producer
// (the simulator's run-ahead thread) fills a batch from the core's
// TraceSource; the consumer (the run loop) copies references out in
// whatever amounts its refills ask for.  Each batch keeps the source's
// state from before its first reference (TraceSource::ckpt_save_state), so
// once the producer has stopped, rewind() puts the source back exactly
// where the consumer stands: load the front batch's state, then skip the
// references already taken from it.  The source then emits what it would
// have emitted had nobody run ahead.
//
// Synchronization: the producer publishes a filled slot by storing `tail_`
// with release; the consumer frees a drained slot by storing `head_` with
// release.  Each side reads the other's index with acquire, so a slot's
// contents, and the source writes made while filling it, are visible
// before the slot is, and a slot is not refilled while it is being read.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/bytestream.h"
#include "common/check.h"
#include "trace/mem_ref.h"

namespace redhip {

class RefQueue {
 public:
  static constexpr std::uint32_t kDepth = 8;
  static constexpr std::size_t kBatch = 256;

  RefQueue() : slots_(std::make_unique<Slot[]>(kDepth)) {
    // Room for a generator state up front (SyntheticTrace's is 104-172 B),
    // so the producer thread does not allocate and glibc gives it no arena
    // of its own.
    for (std::uint32_t i = 0; i < kDepth; ++i) slots_[i].state.reserve(512);
  }

  // Batches filled and not yet drained (either side).
  std::uint32_t queued() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  // --- Producer ---------------------------------------------------------
  // Requires queued() < kDepth.  Records `src`'s state, fills the tail slot
  // with `n` <= kBatch references and publishes it.  A run-ahead source
  // captures its state and never ends (a SyntheticTrace); one that does
  // not is a logic error, thrown rather than left to hang the consumer.
  void produce(TraceSource& src, std::size_t n) {
    const std::uint32_t tail = tail_.load(std::memory_order_relaxed);
    Slot& s = slots_[tail % kDepth];
    s.state.clear();
    REDHIP_CHECK_MSG(src.ckpt_save_state(s.state),
                     "run-ahead needs a source with state capture");
    s.len = static_cast<std::uint32_t>(src.next_batch(s.refs.data(), n));
    REDHIP_CHECK_MSG(s.len == n, "run-ahead needs an unbounded source");
    tail_.store(tail + 1, std::memory_order_release);
  }

  // --- Consumer ---------------------------------------------------------
  // Copies up to `want` queued references into `out` and returns how many:
  // fewer only when the queue ran empty.
  std::size_t take(MemRef* out, std::size_t want) {
    std::uint32_t head = head_.load(std::memory_order_relaxed);
    const std::uint32_t tail = tail_.load(std::memory_order_acquire);
    std::size_t got = 0;
    while (got < want && head != tail) {
      const Slot& s = slots_[head % kDepth];
      const std::size_t n = std::min<std::size_t>(want - got, s.len - front_);
      std::copy_n(s.refs.data() + front_, n, out + got);
      got += n;
      front_ += static_cast<std::uint32_t>(n);
      if (front_ == s.len) {
        front_ = 0;
        head_.store(++head, std::memory_order_release);
      }
    }
    return got;
  }

  // With the producer stopped (joined): put `src` back where the consumer
  // stands and drop every queued batch.  An empty queue means the producer
  // left the source there already.
  void rewind(TraceSource& src) {
    const std::uint32_t head = head_.load(std::memory_order_relaxed);
    const std::uint32_t tail = tail_.load(std::memory_order_relaxed);
    if (head != tail) {
      const ByteWriter& state = slots_[head % kDepth].state;
      ByteReader r(state.buffer().data(), state.buffer().size());
      REDHIP_CHECK(src.ckpt_load_state(r) && r.ok());
      src.skip(front_);
    }
    head_.store(tail, std::memory_order_relaxed);
    front_ = 0;
  }

 private:
  struct Slot {
    ByteWriter state;  // the source's state before refs[0]
    std::uint32_t len = 0;
    std::array<MemRef, kBatch> refs;
  };

  std::unique_ptr<Slot[]> slots_;
  // The indices count batches and wrap; slot = index % kDepth.
  alignas(64) std::atomic<std::uint32_t> head_{0};  // consumer's
  std::uint32_t front_ = 0;  // references taken from the head slot
  alignas(64) std::atomic<std::uint32_t> tail_{0};  // producer's
};

}  // namespace redhip
