#include "prefetch/stride_prefetcher.h"

namespace redhip {

StridePrefetcher::StridePrefetcher(const StridePrefetcherConfig& config,
                                   std::uint32_t line_shift)
    : config_(config), line_shift_(line_shift) {
  config_.validate();
  table_.resize(config_.entries());
}

void StridePrefetcher::observe(std::uint32_t pc, Addr addr,
                               std::vector<LineAddr>& out) {
  ++events_.table_lookups;
  Entry& e = table_[index_of(pc)];
  const std::uint32_t tag = pc >> config_.index_bits;

  if (!e.valid || e.tag != tag) {
    e = {tag, true, State::kInitial, addr, 0};
    return;
  }

  const std::int64_t stride =
      static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(e.last_addr);
  const bool match = stride == e.stride && stride != 0;

  switch (e.state) {
    case State::kInitial:
      e.state = match ? State::kSteady : State::kTransient;
      break;
    case State::kTransient:
      e.state = match ? State::kSteady : State::kTransient;
      break;
    case State::kSteady:
      if (!match) e.state = State::kTransient;
      break;
  }
  if (!match) e.stride = stride;
  e.last_addr = addr;

  if (e.state != State::kSteady || e.stride == 0) return;

  // Emit `degree` distinct line addresses starting `distance` strides ahead.
  LineAddr last_emitted = ~LineAddr{0};
  const LineAddr own_line = addr >> line_shift_;
  for (std::uint32_t i = 0; i < config_.degree; ++i) {
    const std::int64_t delta =
        e.stride * static_cast<std::int64_t>(config_.distance + i);
    const Addr target = static_cast<Addr>(
        static_cast<std::int64_t>(addr) + delta);
    const LineAddr line = target >> line_shift_;
    if (line == own_line || line == last_emitted) continue;
    out.push_back(line);
    last_emitted = line;
  }
}

StridePrefetcher::State StridePrefetcher::state_of(std::uint32_t pc) const {
  const Entry& e = table_[index_of(pc)];
  return e.valid && e.tag == (pc >> config_.index_bits) ? e.state
                                                        : State::kInitial;
}

std::int64_t StridePrefetcher::stride_of(std::uint32_t pc) const {
  const Entry& e = table_[index_of(pc)];
  return e.valid && e.tag == (pc >> config_.index_bits) ? e.stride : 0;
}

}  // namespace redhip
