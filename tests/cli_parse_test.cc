// 64-bit CLI parsing: ref counts past 2^31 and full-range u64 seeds must
// round-trip through the option layer (std::stoll alone would reject seeds
// above 2^63-1), and the retired --engine flag must be rejected.  Malformed
// numerics must surface as INVALID_ARGUMENT naming the flag and the value —
// the old bare std::stoull path silently wrapped `--refs=-1` to 2^64-1 and
// let std::invalid_argument escape with no indication of which flag was
// bad.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/cli.h"
#include "harness/experiment.h"

namespace redhip {
namespace {

CliOptions make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "test_binary");
  return CliOptions(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
}

TEST(CliParse, RefsPastInt32) {
  const auto cli = make_cli({"--refs=5000000000"});
  EXPECT_EQ(cli.get_uint64("refs", 0), 5'000'000'000ull);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);
  EXPECT_EQ(opts.refs_per_core, 5'000'000'000ull);
}

TEST(CliParse, SeedUsesFullU64Range) {
  // Above 2^63-1: would throw out_of_range through a signed parse.
  const auto cli = make_cli({"--seed=18446744073709551615"});
  EXPECT_EQ(cli.get_uint64("seed", 0), 18'446'744'073'709'551'615ull);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);
  EXPECT_EQ(opts.seed, 18'446'744'073'709'551'615ull);
}

TEST(CliParse, DefaultsSurviveAbsence) {
  const auto cli = make_cli({});
  EXPECT_EQ(cli.get_uint64("refs", 123), 123u);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);
  EXPECT_EQ(opts.refs_per_core, 1'000'000u);
  EXPECT_EQ(opts.seed, 42u);
}

TEST(CliParse, ZeroSkipSamplingPlanIsRejectedByValidation) {
  // The parse layer accepts the numbers; SamplingPlan::validate rejects the
  // zero-skip geometry with a diagnostic naming all three flags.
  const ExperimentOptions opts = ExperimentOptions::parse(
      make_cli({"--sample-mode=interval", "--sample-period=1000",
                "--sample-window=100", "--sample-warmup=900"}));
  const Status st = opts.sampling.validate(10'000);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument);
  for (const char* needle :
       {"--sample-warmup", "--sample-window", "--sample-period"}) {
    EXPECT_NE(st.to_string().find(needle), std::string::npos)
        << st.to_string();
  }
}

TEST(CliParse, RetiredEngineFlagIsRejected) {
  // There is one run loop; any --engine value (or the bare flag) is an
  // INVALID_ARGUMENT usage error rather than a silently ignored flag.
  for (const char* bad : {"--engine=fast", "--engine=reference",
                          "--engine=parallel", "--engine"}) {
    try {
      ExperimentOptions::parse(make_cli({bad}));
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("INVALID_ARGUMENT: --engine", 0), 0u)
          << bad << ": " << what;
      EXPECT_NE(what.find("one engine"), std::string::npos)
          << bad << ": " << what;
    }
  }
}

TEST(CliParse, NegativeUnsignedIsRejectedNotWrapped) {
  // std::stoull would parse "-1" as 2^64-1; that must be a usage error.
  const auto cli = make_cli({"--refs=-1"});
  const auto r = cli.try_get_uint64("refs", 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("--refs=-1"), std::string::npos)
      << r.status().message();
  EXPECT_THROW(cli.get_uint64("refs", 0), std::runtime_error);
  EXPECT_THROW(ExperimentOptions::parse(cli), std::runtime_error);
}

// --jobs and --scale once went through a signed parse and a cast:
// --jobs=-1 asked for SIZE_MAX workers and --scale=8589934600 (2^33 + 8)
// silently ran at scale 8.  Both are usage errors now.  Parse only; no
// pool is built.
TEST(CliParse, JobsAndScaleRejectNegativeAndOutOfRange) {
  for (const char* bad :
       {"--jobs=-1", "--jobs=8589934600", "--scale=-1",
        "--scale=8589934600", "--scale=0"}) {
    try {
      ExperimentOptions::parse(make_cli({bad}));
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      const std::string flag = std::string(bad).substr(0, 7);
      EXPECT_EQ(what.rfind("INVALID_ARGUMENT: " + flag, 0), 0u)
          << bad << ": " << what;
    }
  }
  const ExperimentOptions o =
      ExperimentOptions::parse(make_cli({"--jobs=4", "--scale=4294967295"}));
  EXPECT_EQ(o.jobs, 4u);
  EXPECT_EQ(o.scale, 4'294'967'295u);
}

TEST(CliParse, ExplicitPlusSignIsRejectedOnUnsigned) {
  const auto r = make_cli({"--seed=+7"}).try_get_uint64("seed", 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CliParse, TrailingGarbageIsRejected) {
  for (const char* bad :
       {"--refs=100x", "--refs=1e6", "--refs=10 ", "--refs=0x10"}) {
    const auto r = make_cli({bad}).try_get_uint64("refs", 0);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    // The diagnostic names the flag and echoes the offending value.
    EXPECT_NE(r.status().message().find("--refs="), std::string::npos) << bad;
  }
}

TEST(CliParse, SignedIntRejectsGarbageButTakesNegatives) {
  EXPECT_EQ(make_cli({"--scale=-4"}).get_int("scale", 0), -4);
  const auto r = make_cli({"--scale=4q"}).try_get_int("scale", 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("--scale=4q"), std::string::npos);
}

TEST(CliParse, IntegerOverflowIsAnErrorNotSilentClamp) {
  // One past 2^64-1.
  const auto r =
      make_cli({"--seed=18446744073709551616"}).try_get_uint64("seed", 0);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
}

TEST(CliParse, DoubleRejectsGarbageAndAcceptsScientific) {
  EXPECT_DOUBLE_EQ(make_cli({"--rate=2.5e3"}).get_double("rate", 0), 2500.0);
  for (const char* bad : {"--rate=fast", "--rate=1.5x", "--rate= 1.5"}) {
    const auto r = make_cli({bad}).try_get_double("rate", 0);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(CliParse, RepeatedFlagKeepsEveryOccurrenceInOrder) {
  const auto cli = make_cli(
      {"--axis=workload=mcf", "--axis=table-size=512K,64K", "--scale=4"});
  EXPECT_EQ(cli.get_all("axis"),
            (std::vector<std::string>{"workload=mcf", "table-size=512K,64K"}));
  EXPECT_TRUE(cli.get_all("nope").empty());
  // Scalar accessors still see the last occurrence.
  const auto last = make_cli({"--scale=4", "--scale=8"});
  EXPECT_EQ(last.get_int("scale", 0), 8);
}

}  // namespace
}  // namespace redhip
