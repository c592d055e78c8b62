// Tests for the text config-file loader.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "harness/config_file.h"
#include "model/case_gen.h"
#include "sim/config_digest.h"

namespace redhip {
namespace {

const char* kTableIText = R"(
# Table I, full size
cores = 8
freq_ghz = 3.7
scheme = redhip
inclusion = inclusive

[level]
size = 32K
ways = 4

[level]
size = 256K
ways = 8

[level]
size = 4M
ways = 16
banks = 4
split_tags = true

[level]
size = 64M
ways = 16
banks = 8
split_tags = true

[redhip]
table_bits = 4M
recal_interval = 1000000
recal_mode = rolling
banks = 4
)";

TEST(ConfigFile, ParsesTheTableIMachine) {
  const HierarchyConfig c = parse_config_text(kTableIText);
  EXPECT_EQ(c.cores, 8u);
  EXPECT_DOUBLE_EQ(c.freq_ghz, 3.7);
  EXPECT_EQ(c.scheme, Scheme::kRedhip);
  ASSERT_EQ(c.num_levels(), 4u);
  EXPECT_EQ(c.levels[0].geom.size_bytes, 32_KiB);
  EXPECT_EQ(c.levels[3].geom.size_bytes, 64_MiB);
  EXPECT_EQ(c.levels[3].geom.banks, 8u);
  EXPECT_EQ(c.redhip.table_bits, 4u * 1024 * 1024);
  EXPECT_EQ(c.redhip.recal_mode, RecalMode::kRolling);
  // Energy derivation happened: exact Table I numbers at the anchors.
  EXPECT_DOUBLE_EQ(c.levels[0].energy.data_energy_nj, 0.0144);
  EXPECT_DOUBLE_EQ(c.levels[3].energy.tag_energy_nj, 1.171);
}

TEST(ConfigFile, MatchesTheBuiltinFactory) {
  const HierarchyConfig parsed = parse_config_text(kTableIText);
  const HierarchyConfig built = HierarchyConfig::paper(Scheme::kRedhip);
  ASSERT_EQ(parsed.num_levels(), built.num_levels());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parsed.levels[i].geom.size_bytes,
              built.levels[i].geom.size_bytes);
    EXPECT_EQ(parsed.levels[i].geom.ways, built.levels[i].geom.ways);
    EXPECT_DOUBLE_EQ(parsed.levels[i].energy.data_energy_nj,
                     built.levels[i].energy.data_energy_nj);
  }
  EXPECT_EQ(parsed.redhip.table_bits, built.redhip.table_bits);
}

TEST(ConfigFile, SizeSuffixes) {
  const HierarchyConfig c = parse_config_text(R"(
[level]
size = 2048
ways = 2
[level]
size = 1M
ways = 4
)");
  EXPECT_EQ(c.levels[0].geom.size_bytes, 2048u);
  EXPECT_EQ(c.levels[1].geom.size_bytes, 1_MiB);
}

TEST(ConfigFile, CommentsAndWhitespaceIgnored) {
  const HierarchyConfig c = parse_config_text(
      "  cores =  4   # four cores\n"
      "[level]\n size=8K # tiny\n ways = 2\n"
      "[level]\nsize = 64K\nways = 4\n");
  EXPECT_EQ(c.cores, 4u);
  EXPECT_EQ(c.num_levels(), 2u);
}

TEST(ConfigFile, UnknownKeysAreErrorsWithLineNumbers) {
  try {
    parse_config_text("cores = 8\nwibble = 3\n");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("wibble"), std::string::npos);
  }
}

TEST(ConfigFile, RejectsBadValuesAndSections) {
  EXPECT_THROW(parse_config_text("[nonsense]\n"), std::logic_error);
  EXPECT_THROW(parse_config_text("scheme = warp-drive\n[level]\nsize=8K\n"),
               std::logic_error);
  EXPECT_THROW(parse_config_text("cores\n"), std::logic_error);
  EXPECT_THROW(parse_config_text("cores = 8\n"), std::logic_error)
      << "a machine with no levels must not validate";
}

TEST(ConfigFile, BadNumericValuesNameTheLineAndKey) {
  try {
    parse_config_text("cores = 8\nfreq_ghz = fast\n[level]\nsize=8K\n");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("key 'freq_ghz'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fast"), std::string::npos) << msg;
  }
  try {
    parse_config_text("[level]\nsize = 8K\nways = 2x\n");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("key 'ways'"), std::string::npos) << msg;
  }
  try {
    parse_config_text("prefetch = maybe\n[level]\nsize=8K\n");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("key 'prefetch'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bad boolean"), std::string::npos) << msg;
  }
}

// Integer keys go through one checked parser: a sign, a value past 2^64-1
// and a value past the key's own width are errors naming the line and the
// key, never a wrapped or truncated number (memory_latency = -1 once read
// as 2^64-1, and ways = 4294967300 as 4).
TEST(ConfigFile, IntegerKeysRejectSignsOverflowAndNarrowing) {
  struct Case {
    const char* text;
    const char* line;
    const char* key;
  };
  for (const Case& c : {
           Case{"memory_latency = -1\n[level]\nsize=8K\n", "line 1",
                "key 'memory_latency'"},
           Case{"[level]\nsize = 20000000000G\n", "line 2", "key 'size'"},
           Case{"[level]\nsize = 8K\nways = 4294967300\n", "line 3",
                "key 'ways'"},
       }) {
    try {
      parse_config_text(c.text);
      ADD_FAILURE() << c.text << " was accepted";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(c.line), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.key), std::string::npos) << msg;
    }
  }
  // The widest value that fits still parses, and suffixes take either case.
  const HierarchyConfig c = parse_config_text(
      "memory_latency = 18446744073709551615\n"
      "[level]\nsize = 16k\nways = 4\n[level]\nsize = 1m\n");
  EXPECT_EQ(c.memory_latency, 18'446'744'073'709'551'615ull);
  EXPECT_EQ(c.levels[0].geom.size_bytes, 16_KiB);
  EXPECT_EQ(c.levels[1].geom.size_bytes, 1_MiB);
}

TEST(ConfigFile, CoreCountOutsideOneTo256IsRejectedBeforeNarrowing) {
  // 2^32 + 1 would narrow to 1 core; 300 does not fit the scheduler's
  // one-byte core id.
  for (const std::string v : {"0", "300", "4294967297", "1K"}) {
    try {
      parse_config_text("\ncores = " + v + "\n[level]\nsize=8K\n");
      FAIL() << "cores = " << v << " should have thrown";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("key 'cores'"), std::string::npos) << msg;
      EXPECT_NE(msg.find(v), std::string::npos) << msg;
      EXPECT_NE(msg.find("[1, 256]"), std::string::npos) << msg;
    }
  }
  for (const std::string v : {"1", "256"}) {
    const HierarchyConfig c = parse_config_text(
        "cores = " + v + "\n[level]\nsize=8K\n[level]\nsize=64K\n");
    EXPECT_EQ(std::to_string(c.cores), v);
  }
}

TEST(ConfigFile, ValidateRejectsMoreCoresThanTheScheduler) {
  HierarchyConfig c = HierarchyConfig::scaled(8, Scheme::kBase);
  c.cores = HierarchyConfig::kMaxCores;
  EXPECT_NO_THROW(c.validate());
  c.cores = 300;
  EXPECT_THROW(c.validate(), std::logic_error);
}

// An exclusive ReDHiP machine gives each private level below L1 a PT
// scaled from the LLC's by capacity; a level that is not a power-of-two
// fraction of the LLC would get a PT the table cannot be built with, so
// validate() names the level instead of letting construction fail.
TEST(ConfigFile, ValidateRejectsExclusiveRedhipWithUnbuildableLevelPt) {
  // L1 8K, L2 `l2`, LLC 4M with a 256K-bit PT: the L2's PT gets
  // 256K * l2 / 4M bits.
  const auto machine = [](const std::string& inclusion, const std::string& l2,
                          const std::string& l2_ways) {
    return "scheme = redhip\ninclusion = " + inclusion +
           "\n[level]\nsize = 8K\nways = 2\n[level]\nsize = " + l2 +
           "\nways = " + l2_ways +
           "\n[level]\nsize = 4M\nways = 16\n[redhip]\ntable_bits = 256K\n";
  };
  EXPECT_NO_THROW(parse_config_text(machine("exclusive", "64K", "4")));
  try {
    parse_config_text(machine("exclusive", "96K", "6"));  // 6144 bits
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("L2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("6144 bits"), std::string::npos) << msg;
  }
  // Only exclusive ReDHiP sizes per-level tables.
  EXPECT_NO_THROW(parse_config_text(machine("inclusive", "96K", "6")));
}

TEST(ConfigFile, ParsesFaultAndAuditSections) {
  const HierarchyConfig c = parse_config_text(R"(
scheme = redhip
[level]
size = 8K
ways = 2
[level]
size = 64M
ways = 16
[fault]
enabled = true
rate_per_mref = 250
sites = pt_clear,recal_drop
seed = 777
transient = false
[audit]
enabled = true
policy = count-only
)");
  EXPECT_TRUE(c.fault.enabled);
  EXPECT_EQ(c.fault.rate_per_mref, 250u);
  EXPECT_EQ(c.fault.site_mask,
            static_cast<std::uint32_t>(FaultSite::kPtBitClear) |
                static_cast<std::uint32_t>(FaultSite::kRecalDrop));
  EXPECT_EQ(c.fault.seed, 777u);
  EXPECT_FALSE(c.fault.transient);
  EXPECT_TRUE(c.audit.enabled);
  EXPECT_EQ(c.audit.policy, RecoveryPolicy::kCountOnly);
}

TEST(ConfigFile, RejectsBadFaultAndAuditValues) {
  const char* kPrefix =
      "scheme = redhip\n[level]\nsize=8K\nways=2\n[level]\nsize=64M\nways=16\n";
  try {
    parse_config_text(std::string(kPrefix) + "[fault]\nsites = pt_clear,bogus\n");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
  }
  try {
    parse_config_text(std::string(kPrefix) + "[audit]\npolicy = panic\n");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("panic"), std::string::npos) << msg;
  }
  EXPECT_THROW(
      parse_config_text(std::string(kPrefix) + "[fault]\nwibble = 1\n"),
      std::logic_error);
}

TEST(ConfigFile, FaultAndAuditRoundTripThroughText) {
  HierarchyConfig original = HierarchyConfig::scaled(8, Scheme::kRedhip);
  original.fault.enabled = true;
  original.fault.rate_per_mref = 42;
  original.fault.site_mask = static_cast<std::uint32_t>(FaultSite::kPtBitSet);
  original.fault.seed = 12345;
  original.audit.enabled = true;
  original.audit.policy = RecoveryPolicy::kRecalibrate;
  const HierarchyConfig reparsed = parse_config_text(config_to_text(original));
  EXPECT_TRUE(reparsed.fault.enabled);
  EXPECT_EQ(reparsed.fault.rate_per_mref, 42u);
  EXPECT_EQ(reparsed.fault.site_mask, original.fault.site_mask);
  EXPECT_EQ(reparsed.fault.seed, 12345u);
  EXPECT_TRUE(reparsed.audit.enabled);
  EXPECT_EQ(reparsed.audit.policy, RecoveryPolicy::kRecalibrate);
}

TEST(ConfigFile, ValidationStillApplies) {
  // p <= k must be rejected just like a programmatic config.
  EXPECT_THROW(parse_config_text(R"(
scheme = redhip
[level]
size = 8K
ways = 2
[level]
size = 64M
ways = 16
[redhip]
table_bits = 1K
)"),
               std::logic_error);
}

// Each replacement policy's associativity limit is checked at parse time,
// naming the policy, not when the simulator builds its tag arrays.
TEST(ConfigFile, ReplacementAssociativityLimitsFailAtParse) {
  const auto text = [](const std::string& policy, std::uint32_t ways) {
    // Sixteen sets of `ways` 64-byte lines, then a plain LLC.
    return "scheme = base\n[level]\nsize = " + std::to_string(ways * 1024) +
           "\nways = " + std::to_string(ways) + "\nreplacement = " + policy +
           "\n[level]\nsize = 1M\nways = 16\n";
  };
  const std::pair<const char*, std::uint32_t> bad[] = {
      {"tree-plru", 3}, {"tree-plru", 64}, {"nru", 64}, {"lru", 256}};
  for (const auto& [policy, ways] : bad) {
    SCOPED_TRACE(std::string(policy) + " ways=" + std::to_string(ways));
    try {
      parse_config_text(text(policy, ways));
      ADD_FAILURE() << "accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(policy) + " "),
                std::string::npos)
          << e.what();
    }
  }
  const std::pair<const char*, std::uint32_t> edges[] = {
      {"tree-plru", 2}, {"tree-plru", 32}, {"nru", 32}, {"lru", 255}};
  for (const auto& [policy, ways] : edges) {
    EXPECT_NO_THROW(parse_config_text(text(policy, ways)))
        << policy << " ways=" << ways;
  }
}

TEST(ConfigFile, ZeroWaysFailsAtParse) {
  // Used to divide by zero in CacheGeometry::validate().
  EXPECT_THROW(parse_config_text("[level]\nsize = 1K\nways = 0\n"
                                 "[level]\nsize = 1M\nways = 16\n"),
               std::logic_error);
}

TEST(ConfigFile, RoundTripsThroughText) {
  const HierarchyConfig original = HierarchyConfig::scaled(8, Scheme::kCbf);
  const std::string text = config_to_text(original);
  const HierarchyConfig reparsed = parse_config_text(text);
  EXPECT_EQ(reparsed.cores, original.cores);
  EXPECT_EQ(reparsed.scheme, original.scheme);
  ASSERT_EQ(reparsed.num_levels(), original.num_levels());
  for (std::uint32_t i = 0; i < original.num_levels(); ++i) {
    EXPECT_EQ(reparsed.levels[i].geom.size_bytes,
              original.levels[i].geom.size_bytes);
    EXPECT_EQ(reparsed.levels[i].phased, original.levels[i].phased);
  }
  EXPECT_EQ(reparsed.redhip.recal_interval_l1_misses,
            original.redhip.recal_interval_l1_misses);
}

// config_to_text writes every key the parser accepts: for every machine
// the model test draws, the text parses back to the same config_digest.
// The failing-case printout of tests/model relies on it.
TEST(ConfigFile, EveryDrawnModelMachineRoundTripsThroughText) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const std::string text = config_to_text(model::draw_config(seed));
    const HierarchyConfig parsed = parse_config_text(text);
    const HierarchyConfig reparsed = parse_config_text(config_to_text(parsed));
    ASSERT_EQ(config_digest(reparsed), config_digest(parsed))
        << "seed " << seed << "\n" << text;
  }
  // Keys the text form used to drop.
  const HierarchyConfig c = parse_config_text(
      "model_writebacks = true\nseed = 99\nmemory_energy_nj = 0.125\n" +
      std::string(kTableIText) +
      "[auto_disable]\nenabled = true\n[cbf]\nindex_bits = 7\n"
      "[prefetcher]\ndegree = 3\n");
  const HierarchyConfig again = parse_config_text(config_to_text(c));
  EXPECT_TRUE(again.model_writebacks);
  EXPECT_EQ(again.seed, 99u);
  EXPECT_EQ(again.memory_energy_nj, 0.125);
  EXPECT_TRUE(again.auto_disable.enabled);
  EXPECT_EQ(again.cbf.index_bits, 7u);
  EXPECT_EQ(again.prefetcher.degree, 3u);
  EXPECT_EQ(config_digest(again), config_digest(c));
}

TEST(ConfigFile, LoadsFromDisk) {
  const std::string path = ::testing::TempDir() + "/machine.cfg";
  {
    std::ofstream out(path);
    out << kTableIText;
  }
  const HierarchyConfig c = load_config_file(path);
  EXPECT_EQ(c.levels[3].geom.size_bytes, 64_MiB);
  std::remove(path.c_str());
  EXPECT_THROW(load_config_file(path), std::logic_error);
}

}  // namespace
}  // namespace redhip
