#include "probe.h"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t kWays = 16;
constexpr std::uint64_t kSets = 1 << 15;  // 2^15 sets x 16 ways x 8 B = 4 MiB
constexpr std::uint64_t kOps = 1 << 20;

}  // namespace

double probe_rate() {
  // Tag 0 marks an empty way; ranks are a per-set permutation of 0..15.
  std::vector<std::uint64_t> tags(kSets * kWays, 0);
  std::vector<std::uint8_t> rank(kSets * kWays);
  for (std::uint64_t i = 0; i < rank.size(); ++i) rank[i] = i % kWays;

  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t line = 1;
  std::uint64_t hits = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t op = 0; op < kOps; ++op) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Three in four references continue a short stream; the rest jump
    // within a footprint twice the table's capacity.
    line = (x & 3) != 0 ? line + 1 : ((x >> 8) & (2 * kSets * kWays - 1)) + 1;
    const std::uint64_t set = line & (kSets - 1);
    const std::uint64_t tag = line >> 15 | 1ull << 63;
    std::uint64_t* t = &tags[set * kWays];
    std::uint8_t* r = &rank[set * kWays];
    std::uint32_t way = kWays;
    for (std::uint32_t w = 0; w < kWays; ++w) {
      if (t[w] == tag) way = w;
    }
    if (way != kWays) {
      ++hits;
    } else {
      for (std::uint32_t w = 0; w < kWays; ++w) {
        if (r[w] == kWays - 1) way = w;
      }
      t[way] = tag;
    }
    const std::uint8_t old = r[way];
    for (std::uint32_t w = 0; w < kWays; ++w) r[w] += r[w] < old ? 1 : 0;
    r[way] = 0;
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (hits == kOps + 1) throw std::logic_error("unreachable");
  return static_cast<double>(kOps) / s;
}

}  // namespace perfbench
