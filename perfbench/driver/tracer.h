// Host-time spans recorded by the benchmark around its calls into the
// simulator's public functions.  Nothing here reaches inside the program:
// a span opens before a public call and closes after it returns, and the
// only spans below run() are the forwarding TraceSource's, which the engine
// calls through the public TraceSource interface.
//
// One Tracer belongs to one cell and one thread.  Spans are kept in memory
// and written out when the run ends.  Calls that happen once per refill
// batch (next_batch, skip) are aggregated per (parent, name) into a single
// record holding the call count, the summed busy time and the first start
// and last end, so tracing a long sampled run stays a few records.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/mem_ref.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  int parent = -1;         // index into the tracer's records, -1 = root
  double start_s = 0.0;    // relative to the tracer's origin
  double end_s = 0.0;
  double busy_s = 0.0;     // summed duration (== end - start unless aggregated)
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  // references produced / skipped, bytes written
};

class Tracer {
 public:
  Tracer(std::uint32_t cell, Clock::time_point origin)
      : cell_(cell), origin_(origin) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int open(const char* name);
  void close(int id, std::uint64_t items = 0);
  // One call of an aggregated child of the innermost open span.
  void add(const char* name, Clock::time_point t0, Clock::time_point t1,
           std::uint64_t items);

  const std::vector<SpanRecord>& records() const { return records_; }

  // Busy time minus the busy time of direct children.
  std::vector<double> self_times() const;
  // Summed self time and items of every record named `name`.
  double self_of(const char* name) const;
  double busy_of(const char* name) const;
  std::uint64_t items_of(const char* name) const;
  std::uint64_t calls_of(const char* name) const;

  // True when every span lies inside its parent and the self times of all
  // spans add up to the root spans' wall time.
  bool reconciles(std::string* why) const;

  void write_jsonl(std::FILE* f, const std::string& workload) const;

 private:
  double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  std::uint32_t cell_;
  Clock::time_point origin_;
  std::vector<SpanRecord> records_;
  std::vector<int> stack_;
  // Last aggregate looked up by add(): the hot path repeats it.
  int agg_parent_ = -2;
  const char* agg_name_ = nullptr;
  int agg_index_ = -1;
};

// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->close(id_, items_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_items(std::uint64_t n) { items_ = n; }

 private:
  Tracer* t_;
  int id_;
  std::uint64_t items_ = 0;
};

// Forwards every TraceSource call to the wrapped generator and records
// next_batch / skip as aggregated spans and the checkpoint state calls as
// individual ones.  The reference stream is the wrapped one, unchanged.
class TracedTrace final : public redhip::TraceSource {
 public:
  TracedTrace(std::unique_ptr<redhip::TraceSource> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool next(redhip::MemRef& out) override;
  std::size_t next_batch(redhip::MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n) override;
  bool ckpt_save_state(redhip::ByteWriter& w) const override;
  bool ckpt_load_state(redhip::ByteReader& r) override;

 private:
  std::unique_ptr<redhip::TraceSource> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench
