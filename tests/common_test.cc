// Tests for src/common: bit ops, deterministic RNG, fixed-point CPI, CLI,
// the envelope checksum.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/bytestream.h"
#include "common/check.h"
#include "common/checksum.h"
#include "common/cli.h"
#include "common/fixed_point.h"
#include "common/rng.h"
#include "common/types.h"

namespace redhip {
namespace {

TEST(BitOps, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(std::uint64_t{1} << 63));
  EXPECT_FALSE(is_pow2((std::uint64_t{1} << 63) + 1));
}

TEST(BitOps, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(64), 6u);
  EXPECT_EQ(log2_exact(std::uint64_t{1} << 40), 40u);
  EXPECT_THROW(log2_exact(3), std::logic_error);
  EXPECT_THROW(log2_exact(0), std::logic_error);
}

TEST(BitOps, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1023), 9u);
  EXPECT_EQ(log2_floor(1024), 10u);
}

TEST(BitOps, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(0), 1u);
  EXPECT_EQ(round_up_pow2(1), 1u);
  EXPECT_EQ(round_up_pow2(2), 2u);
  EXPECT_EQ(round_up_pow2(3), 4u);
  EXPECT_EQ(round_up_pow2(1000), 1024u);
}

TEST(BitOps, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(6), 63u);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(BitOps, BitsExtract) {
  // 0b1101'0110 -> bits [1,4) = 0b011
  EXPECT_EQ(bits(0xD6, 1, 3), 0b011u);
  EXPECT_EQ(bits(0xD6, 4, 4), 0b1101u);
}

TEST(BitOps, XorFoldIsStableAndBounded) {
  const std::uint64_t v = 0x0123456789abcdefull;
  for (std::uint32_t w : {1u, 7u, 13u, 20u, 32u, 63u, 64u}) {
    const std::uint64_t h = xor_fold(v, w);
    EXPECT_LE(h, low_mask(w));
    EXPECT_EQ(h, xor_fold(v, w));  // deterministic
  }
  EXPECT_EQ(xor_fold(v, 64), v);
  EXPECT_EQ(xor_fold(0, 16), 0u);
}

TEST(BitOps, XorFoldDistinguishesHighBits) {
  // Two addresses differing only above bit 20 must fold differently
  // (this is what makes xor-hash better than bits-hash for the CBF).
  const std::uint64_t a = 0x100000;
  const std::uint64_t b = 0x300000;
  EXPECT_NE(xor_fold(a, 20), xor_fold(b, 20));
}

TEST(Rng, SplitMix64KnownSequenceIsDeterministic) {
  SplitMix64 a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(12346);
  EXPECT_NE(SplitMix64(12345).next(), c.next());
}

TEST(Rng, XoshiroDeterministicAcrossInstances) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 20}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowCoversSmallRangeUniformly) {
  Xoshiro256 rng(11);
  std::vector<int> counts(8, 0);
  const int kDraws = 80'000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(8)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 8 - kDraws / 40);
    EXPECT_LT(c, kDraws / 8 + kDraws / 40);
  }
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(5, 9));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 5u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(Rng, ChancePpmExtremes) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance_ppm(0));
    EXPECT_TRUE(rng.chance_ppm(1'000'000));
  }
}

TEST(Rng, ChancePpmApproximatesProbability) {
  Xoshiro256 rng(19);
  int hits = 0;
  const int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance_ppm(250'000) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.25, 0.01);
}

TEST(Rng, BurstBoundsAndMean) {
  Xoshiro256 rng(23);
  double sum = 0;
  const int kDraws = 20'000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t b = rng.burst(8, 100);
    EXPECT_GE(b, 1u);
    EXPECT_LE(b, 100u);
    sum += static_cast<double>(b);
  }
  EXPECT_NEAR(sum / kDraws, 8.0, 1.0);
}

TEST(Rng, BurstClampsToMax) {
  Xoshiro256 rng(29);
  EXPECT_EQ(rng.burst(50, 10), 10u);
}

TEST(HotCold, HotRegionAbsorbsConfiguredFraction) {
  Xoshiro256 rng(31);
  HotColdSampler s(1'000'000, /*hot_fraction_ppm=*/10'000,
                   /*hot_access_ppm=*/900'000);
  EXPECT_EQ(s.hot_size(), 10'000u);
  int hot = 0;
  const int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    if (s.sample(rng) < s.hot_size()) ++hot;
  }
  // 90% targeted + ~1% of the cold draws landing in the hot prefix.
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, 0.901, 0.02);
}

TEST(Zipf, UniformWhenKIsOne) {
  Xoshiro256 rng(41);
  ZipfSampler s(1000, 1);
  int low = 0;
  const int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    if (s.sample(rng) < 100) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / kDraws, 0.1, 0.02);
}

TEST(Zipf, HigherSkewConcentratesMass) {
  Xoshiro256 rng(43);
  const std::uint64_t n = 1 << 20;
  double prev_frac = 0.0;
  for (std::uint32_t k : {1u, 2u, 3u, 4u}) {
    ZipfSampler s(n, k);
    int top = 0;
    const int kDraws = 40'000;
    for (int i = 0; i < kDraws; ++i) {
      if (s.sample(rng) < n / 100) ++top;  // hottest 1%
    }
    const double frac = static_cast<double>(top) / kDraws;
    EXPECT_GT(frac, prev_frac) << "k=" << k;
    prev_frac = frac;
  }
  // With k=4 the hottest 1% should absorb roughly a third of the accesses
  // (product-of-uniforms: P(X < m) = (m/N) * sum_i ln^i(N/m)/i! ≈ 0.33 for
  // m/N = 0.01, k = 4).
  EXPECT_GT(prev_frac, 0.25);
}

TEST(Zipf, SamplesStayInRange) {
  Xoshiro256 rng(47);
  ZipfSampler s(77, 3);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_LT(s.sample(rng), 77u);
  }
}

TEST(Zipf, PopulatesEveryDecade) {
  // The design goal: reuse distances spanning all cache tiers.  Every
  // decade of the index space should receive some mass at k=3.
  Xoshiro256 rng(53);
  const std::uint64_t n = 1 << 20;
  ZipfSampler s(n, 3);
  int buckets[5] = {0, 0, 0, 0, 0};  // <n/10^4, <n/10^3, <n/10^2, <n/10, rest
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t v = s.sample(rng);
    if (v < n / 10'000) {
      ++buckets[0];
    } else if (v < n / 1000) {
      ++buckets[1];
    } else if (v < n / 100) {
      ++buckets[2];
    } else if (v < n / 10) {
      ++buckets[3];
    } else {
      ++buckets[4];
    }
  }
  for (int b = 0; b < 5; ++b) {
    EXPECT_GT(buckets[b], 300) << "decade " << b << " starved";
  }
}

TEST(CpiAccumulator, ExactWholeCycles) {
  CpiAccumulator cpi(100);  // CPI 1.0
  EXPECT_EQ(cpi.advance(7), 7u);
  EXPECT_EQ(cpi.advance(0), 0u);
}

TEST(CpiAccumulator, CarriesRemainderExactly) {
  CpiAccumulator cpi(150);  // CPI 1.5
  Cycles total = 0;
  for (int i = 0; i < 1000; ++i) total += cpi.advance(1);
  // 1000 instructions at CPI 1.5 = exactly 1500 cycles, no drift.
  EXPECT_EQ(total, 1500u);
}

TEST(CpiAccumulator, MatchesClosedFormOverRandomGaps) {
  CpiAccumulator cpi(137);
  Xoshiro256 rng(37);
  std::uint64_t instructions = 0;
  Cycles total = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t gap = rng.below(20);
    instructions += gap;
    total += cpi.advance(gap);
  }
  EXPECT_EQ(total, instructions * 137 / 100);
}

TEST(CpiAccumulator, RejectsZeroCpi) {
  EXPECT_THROW(CpiAccumulator(0), std::logic_error);
}

TEST(Check, ThrowsWithMessage) {
  try {
    REDHIP_CHECK_MSG(false, "contextual detail");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("contextual detail"),
              std::string::npos);
  }
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--scale", "4",    "--csv",
                        "--refs=123",      "pos1", "--flag"};
  CliOptions opts(7, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("scale", 0), 4);
  EXPECT_EQ(opts.get_int("refs", 0), 123);
  EXPECT_TRUE(opts.get_bool("csv", false));
  EXPECT_TRUE(opts.get_bool("flag", false));
  EXPECT_FALSE(opts.get_bool("absent", false));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos1");
}

TEST(Cli, EnvironmentFallback) {
  setenv("REDHIP_BENCH_SOMEOPT", "77", 1);
  const char* argv[] = {"prog"};
  CliOptions opts(1, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("someopt", 0), 77);
  // Command line wins over environment.
  const char* argv2[] = {"prog", "--someopt", "5"};
  CliOptions opts2(3, const_cast<char**>(argv2));
  EXPECT_EQ(opts2.get_int("someopt", 0), 5);
  unsetenv("REDHIP_BENCH_SOMEOPT");
}

TEST(Types, KibMibLiterals) {
  EXPECT_EQ(64_KiB, 65536u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, std::uint64_t{1} << 31);
}

std::vector<std::uint8_t> checksum_probe(std::size_t n) {
  std::vector<std::uint8_t> buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return buf;
}

// Pins the on-disk checksum.  The lengths cover the empty input, the
// byte, word and half-word tails, and one stripe either side of the
// four-lane loop's 32-byte boundary.  The values are the reference XXH64
// (seed 0); "abc" is the algorithm's published test vector.
TEST(Checksum64, KnownAnswers) {
  const std::vector<std::pair<std::size_t, std::uint64_t>> known = {
      {0, 0xef46db3751d8e999ull},  {1, 0xa96c7f0ce858bbb7ull},
      {7, 0x2744460dd675d2c0ull},  {31, 0x6711d55e306b5d8full},
      {32, 0x07f7b8e3bc5d6e25ull}, {33, 0x09f85eeb4e1cbe9full},
      {1000, 0x0bf0bdbcc82eb373ull},
  };
  for (const auto& [n, want] : known) {
    const std::vector<std::uint8_t> buf = checksum_probe(n);
    EXPECT_EQ(checksum64(buf.data(), buf.size()), want) << "length " << n;
  }
  const std::string abc = "abc";
  EXPECT_EQ(checksum64(abc.data(), abc.size()), 0x44bc2cf5ad770999ull);
}

// The digest does not depend on where the buffer starts: words are
// assembled byte by byte, never loaded through a cast pointer.
TEST(Checksum64, AlignmentIndependent) {
  const std::vector<std::uint8_t> buf = checksum_probe(1000);
  std::vector<std::uint8_t> shifted(buf.size() + 3);
  std::copy(buf.begin(), buf.end(), shifted.begin() + 3);
  EXPECT_EQ(checksum64(shifted.data() + 3, buf.size()),
            checksum64(buf.data(), buf.size()));
}

TEST(Checksum64, EverySingleBitFlipChangesTheDigest) {
  std::vector<std::uint8_t> buf = checksum_probe(1024);
  const std::uint64_t good = checksum64(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[i] = static_cast<std::uint8_t>(buf[i] ^ (1u << bit));
      ASSERT_NE(checksum64(buf.data(), buf.size()), good)
          << "byte " << i << " bit " << bit;
      buf[i] = static_cast<std::uint8_t>(buf[i] ^ (1u << bit));
    }
  }
}

// ------------------------------------------------------ bytestream records

enum class Shade : std::uint8_t { kDark, kLight };
constexpr Shade last_enumerator(Shade) { return Shade::kLight; }

struct Leaf {
  std::int64_t delta = 0;
  bool on = false;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.delta, s.on);
  }
  bool operator==(const Leaf&) const = default;
};

struct Tree {
  std::uint16_t tag = 0;
  Shade shade = Shade::kDark;
  std::uint32_t words[2] = {};
  double weight = 0.0;
  std::vector<Leaf> leaves;
  std::vector<std::uint64_t> ids;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.tag, s.shade, s.words, s.weight, s.leaves, s.ids);
  }
  bool operator==(const Tree&) const = default;
};

Tree sample_tree() {
  Tree t;
  t.tag = 0xbeef;
  t.shade = Shade::kLight;
  t.words[0] = 7;
  t.words[1] = 0xffffffffu;
  t.weight = -2.5;
  t.leaves = {{-3, true}, {1ll << 40, false}};
  t.ids = {1, 2, 3};
  return t;
}

// put writes each field at its own width, in field-list order, exactly as
// the hand-written calls it replaces would.
TEST(ByteStream, PutWritesFieldsInOrderAtTheirWidths) {
  const Tree t = sample_tree();
  ByteWriter by_hand;
  by_hand.put(t.tag);
  by_hand.put(std::uint8_t{1});
  by_hand.u32(t.words[0]);
  by_hand.u32(t.words[1]);
  by_hand.u64(std::bit_cast<std::uint64_t>(t.weight));
  by_hand.u64(2);
  by_hand.u64(static_cast<std::uint64_t>(-3));
  by_hand.boolean(true);
  by_hand.u64(std::uint64_t{1} << 40);
  by_hand.boolean(false);
  by_hand.u64(t.ids.size());
  for (const std::uint64_t id : t.ids) by_hand.u64(id);
  ByteWriter w;
  w.put(t);
  EXPECT_EQ(w.buffer(), by_hand.buffer());

  ByteReader r(w.buffer().data(), w.buffer().size());
  Tree back;
  r.get(back);
  EXPECT_TRUE(r.ok() && r.exhausted());
  EXPECT_EQ(back, t);
}

// get fails closed on values no writer produces.
TEST(ByteStream, GetRejectsValuesOutsideTheirType) {
  ByteWriter w;
  w.put(sample_tree());
  const std::vector<std::uint8_t> good = w.take();
  const auto loads = [](std::vector<std::uint8_t> bytes) {
    ByteReader r(bytes.data(), bytes.size());
    Tree t;
    r.get(t);
    return r.ok();
  };
  ASSERT_TRUE(loads(good));
  std::vector<std::uint8_t> bad = good;
  bad[2] = 2;  // the enum, one past its last enumerator
  EXPECT_FALSE(loads(bad));
  bad = good;
  bad[2 + 1 + 8 + 8 + 8 + 8] = 2;  // the first leaf's bool
  EXPECT_FALSE(loads(bad));
  bad = good;
  store_le64(bad.data() + 2 + 1 + 8 + 8, 1'000);  // more leaves than bytes
  EXPECT_FALSE(loads(bad));
  bad = good;
  store_le64(bad.data() + 2 + 1 + 8 + 8, kMaxVectorLen + 1);
  EXPECT_FALSE(loads(bad));
  bad = good;
  bad.pop_back();  // truncated
  EXPECT_FALSE(loads(bad));
}

}  // namespace
}  // namespace redhip
