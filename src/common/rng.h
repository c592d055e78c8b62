// Deterministic pseudo-random number generation.
//
// Every stochastic decision in the workload generators flows through these
// generators so that a (seed, config) pair reproduces a bit-identical trace
// on any platform.  We deliberately avoid std::mt19937/std::*_distribution:
// the engines are standardized but the distributions are not, and identical
// traces across standard libraries is a hard requirement (DESIGN.md
// invariant 5).
#pragma once

#include <cstdint>
#include <tuple>

#include "common/check.h"

namespace redhip {

// SplitMix64 (Steele, Lea, Flood) — used to seed and to derive independent
// substream seeds from a master seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256** 1.0 (Blackman, Vigna) — the workhorse generator.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
    // A zero state is the single invalid state; SplitMix64 cannot emit four
    // consecutive zeros, so no further handling is needed.
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) {
    REDHIP_DCHECK(bound > 0);
    // 128-bit multiply-shift; the rejection loop runs < 1 extra iteration in
    // expectation for any bound.
    while (true) {
      std::uint64_t x = next();
      __uint128_t m = static_cast<__uint128_t>(x) * bound;
      std::uint64_t lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  // Uniform in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    REDHIP_DCHECK(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  // Bernoulli(p) with p expressed in parts-per-million — integer-exact.
  bool chance_ppm(std::uint32_t ppm) { return below(1'000'000) < ppm; }

  // Uniform double in [0, 1) — only for reporting, never for trace decisions.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  // Geometric-ish burst length in [1, max] with mean roughly `mean`
  // (integer arithmetic; used for run lengths in generators).  Defined in
  // the header so burst-scheduling hot loops keep the generator state in
  // registers across the coin flips.
  std::uint64_t burst(std::uint64_t mean, std::uint64_t max) {
    REDHIP_DCHECK(mean > 0 && max > 0);
    if (mean >= max) return max;
    // Geometric with success probability 1/mean, truncated to [1, max].
    // Implemented by coin flips at ppm precision to stay integer-exact.
    const std::uint32_t stop_ppm =
        static_cast<std::uint32_t>(1'000'000 / mean);
    std::uint64_t len = 1;
    while (len < max && !chance_ppm(stop_ppm == 0 ? 1 : stop_ppm)) ++len;
    return len;
  }

  // Serialized fields (common/bytestream.h): the four state words.
  // Restoring them continues the exact output sequence the source
  // generator would have produced — the whole point of checkpointing a
  // stochastic stream.
  template <class S>
  static auto fields(S& g) {
    return std::tie(g.s_);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// Power-law ("Zipf-like") sampler over [0, n): the product-of-uniforms
// trick.  Multiplying k independent uniforms concentrates mass near zero
// with a smooth heavy tail spanning many decades — exactly the reuse-
// distance spectrum real workloads exhibit, which is what populates every
// cache tier (L1 hot fields through LLC-resident medium sets through
// off-chip cold data).  k = 1 is uniform; k = 3..4 is strongly skewed.
// Integer-only, hence bit-reproducible across platforms.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, std::uint32_t k) : n_(n), k_(k) {
    REDHIP_CHECK(n > 0 && k >= 1 && k <= 8);
  }

  std::uint64_t sample(Xoshiro256& rng) const {
    std::uint64_t idx = n_;
    for (std::uint32_t i = 0; i < k_; ++i) {
      // Multiply by a 16-bit uniform fraction; k rounds keep ample
      // precision for any realistic region size.
      idx = (idx * (rng.next() >> 48)) >> 16;
    }
    return idx < n_ ? idx : n_ - 1;
  }

  std::uint64_t size() const { return n_; }
  std::uint32_t skew() const { return k_; }

 private:
  std::uint64_t n_;
  std::uint32_t k_;
};

// Two-tier hot/cold sampler over [0, n): a small hot prefix absorbs a fixed
// fraction of accesses, the rest fall uniformly.  Simpler than ZipfSampler
// when a workload genuinely has one hot structure (e.g. a basis matrix)
// rather than a power-law spectrum.
class HotColdSampler {
 public:
  // hot_fraction_ppm: fraction of the range considered "hot";
  // hot_access_ppm:  fraction of accesses that go to the hot region.
  HotColdSampler(std::uint64_t n, std::uint32_t hot_fraction_ppm,
                 std::uint32_t hot_access_ppm)
      : n_(n),
        hot_n_(static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(n) * hot_fraction_ppm) / 1'000'000)),
        hot_access_ppm_(hot_access_ppm) {
    REDHIP_CHECK(n > 0);
    if (hot_n_ == 0) hot_n_ = 1;
  }

  std::uint64_t sample(Xoshiro256& rng) const {
    if (rng.chance_ppm(hot_access_ppm_)) return rng.below(hot_n_);
    return rng.below(n_);
  }

  std::uint64_t size() const { return n_; }
  std::uint64_t hot_size() const { return hot_n_; }

 private:
  std::uint64_t n_;
  std::uint64_t hot_n_;
  std::uint32_t hot_access_ppm_;
};

}  // namespace redhip
