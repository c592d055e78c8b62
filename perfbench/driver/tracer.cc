#include "tracer.h"

#include <cmath>
#include <cstring>

namespace perfbench {

int Tracer::open(const char* name) {
  SpanRecord r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start_s = at(Clock::now());
  r.calls = 1;
  records_.push_back(std::move(r));
  const int id = static_cast<int>(records_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id, std::uint64_t items) {
  SpanRecord& r = records_[static_cast<std::size_t>(id)];
  r.end_s = at(Clock::now());
  r.busy_s = r.end_s - r.start_s;
  r.items += items;
  // Spans close in LIFO order; an exception unwinding several Span objects
  // closes them innermost first, so popping to `id` keeps the stack sound.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void Tracer::add(const char* name, Clock::time_point t0, Clock::time_point t1,
                 std::uint64_t items) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (parent != agg_parent_ || name != agg_name_) {
    agg_index_ = -1;
    for (std::size_t i = records_.size(); i-- > 0;) {
      const SpanRecord& r = records_[i];
      if (r.parent == parent && r.name == name) {
        agg_index_ = static_cast<int>(i);
        break;
      }
      if (static_cast<int>(i) == parent) break;  // older records can't match
    }
    if (agg_index_ < 0) {
      SpanRecord r;
      r.name = name;
      r.parent = parent;
      r.start_s = at(t0);
      records_.push_back(std::move(r));
      agg_index_ = static_cast<int>(records_.size()) - 1;
    }
    agg_parent_ = parent;
    agg_name_ = name;
  }
  SpanRecord& r = records_[static_cast<std::size_t>(agg_index_)];
  r.end_s = at(t1);
  r.busy_s += std::chrono::duration<double>(t1 - t0).count();
  ++r.calls;
  r.items += items;
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].busy_s;
  }
  for (const SpanRecord& r : records_) {
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= r.busy_s;
  }
  return self;
}

double Tracer::self_of(const char* name) const {
  const std::vector<double> self = self_times();
  double sum = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name == name) sum += self[i];
  }
  return sum;
}

double Tracer::busy_of(const char* name) const {
  double sum = 0.0;
  for (const SpanRecord& r : records_) {
    if (r.name == name) sum += r.busy_s;
  }
  return sum;
}

std::uint64_t Tracer::items_of(const char* name) const {
  std::uint64_t sum = 0;
  for (const SpanRecord& r : records_) {
    if (r.name == name) sum += r.items;
  }
  return sum;
}

std::uint64_t Tracer::calls_of(const char* name) const {
  std::uint64_t sum = 0;
  for (const SpanRecord& r : records_) {
    if (r.name == name) sum += r.calls;
  }
  return sum;
}

bool Tracer::reconciles(std::string* why) const {
  // Clock reads are monotonic, so a child can only exceed its parent by
  // rounding; anything beyond a microsecond is a nesting error.
  constexpr double kSlack = 1e-6;
  const std::vector<double> self = self_times();
  double self_sum = 0.0;
  double wall = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    if (self[i] < -kSlack) {
      *why = "span '" + r.name + "' has negative self time";
      return false;
    }
    if (r.parent >= 0) {
      const SpanRecord& p = records_[static_cast<std::size_t>(r.parent)];
      if (r.start_s < p.start_s - kSlack || r.end_s > p.end_s + kSlack) {
        *why = "span '" + r.name + "' lies outside its parent '" + p.name +
               "'";
        return false;
      }
    } else {
      wall += r.busy_s;
    }
    self_sum += self[i];
  }
  if (std::fabs(self_sum - wall) > kSlack * (1.0 + wall)) {
    *why = "layer self times do not add up to the cell wall time";
    return false;
  }
  return true;
}

void Tracer::write_jsonl(std::FILE* f, const std::string& workload) const {
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"cell\":%u,\"id\":%zu,\"parent\":%d,"
                 "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"busy_s\":%.9f,\"self_s\":%.9f,\"calls\":%llu,"
                 "\"items\":%llu}\n",
                 workload.c_str(), cell_, i, r.parent, r.name.c_str(),
                 r.start_s, r.end_s, r.busy_s, self[i],
                 static_cast<unsigned long long>(r.calls),
                 static_cast<unsigned long long>(r.items));
  }
}

bool TracedTrace::next(redhip::MemRef& out) {
  const auto t0 = Clock::now();
  const bool ok = inner_->next(out);
  tracer_->add("trace.gen", t0, Clock::now(), ok ? 1 : 0);
  return ok;
}

std::size_t TracedTrace::next_batch(redhip::MemRef* out, std::size_t n) {
  const auto t0 = Clock::now();
  const std::size_t got = inner_->next_batch(out, n);
  tracer_->add("trace.gen", t0, Clock::now(), got);
  return got;
}

void TracedTrace::skip(std::uint64_t n) {
  const auto t0 = Clock::now();
  inner_->skip(n);
  tracer_->add("trace.skip", t0, Clock::now(), n);
}

bool TracedTrace::ckpt_save_state(redhip::ByteWriter& w) const {
  const auto t0 = Clock::now();
  const bool ok = inner_->ckpt_save_state(w);
  tracer_->add("trace.state", t0, Clock::now(), 0);
  return ok;
}

bool TracedTrace::ckpt_load_state(redhip::ByteReader& r) {
  const auto t0 = Clock::now();
  const bool ok = inner_->ckpt_load_state(r);
  tracer_->add("trace.state", t0, Clock::now(), 0);
  return ok;
}

}  // namespace perfbench
