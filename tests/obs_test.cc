// Tests for the observability layer (src/obs): the metrics registry, the
// JSONL event writer/reader pair, epoch boundary semantics (including the
// edge cases: refs not a multiple of the epoch, an epoch larger than the
// whole run, epoch = 1, and cycle-based epochs), the [obs] config-file
// section, and event-stream determinism — two runs of one spec must emit
// byte-identical, well-formed traces for every specialized run-loop
// instantiation.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/config_file.h"
#include "harness/experiment.h"
#include "harness/run.h"
#include "obs/events.h"
#include "obs/jsonl_reader.h"
#include "obs/metrics.h"
#include "sim/stats.h"

namespace redhip {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

RunSpec obs_spec(std::uint64_t refs_per_core, std::uint64_t epoch_refs,
                 const std::string& trace_path = "") {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 8;
  spec.refs_per_core = refs_per_core;
  spec.seed = 1234;
  spec.tweak = [epoch_refs, trace_path](HierarchyConfig& hc) {
    hc.obs.enabled = true;
    hc.obs.epoch_refs = epoch_refs;
    hc.obs.trace_path = trace_path;
  };
  return spec;
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, CountersArePerCoreAndSummable) {
  MetricsRegistry m(4);
  EXPECT_EQ(m.cores(), 4u);
  m.add(0, ObsCounter::kRefs);
  m.add(0, ObsCounter::kRefs, 9);
  m.add(3, ObsCounter::kRefs, 5);
  m.add(1, ObsCounter::kRecoveries);
  EXPECT_EQ(m.core_total(0, ObsCounter::kRefs), 10u);
  EXPECT_EQ(m.core_total(1, ObsCounter::kRefs), 0u);
  EXPECT_EQ(m.core_total(3, ObsCounter::kRefs), 5u);
  EXPECT_EQ(m.total(ObsCounter::kRefs), 15u);
  EXPECT_EQ(m.total(ObsCounter::kRecoveries), 1u);
  EXPECT_EQ(m.total(ObsCounter::kDisableFlips), 0u);
}

TEST(MetricsRegistry, LatencyBucketsArePowersOfTwo) {
  MetricsRegistry m(2);
  // Bucket i counts v with 2^(i-1) <= v < 2^i; bucket 0 counts v == 0.
  m.record_latency(0, 0);   // bucket 0
  m.record_latency(0, 1);   // bucket 1
  m.record_latency(0, 2);   // bucket 2
  m.record_latency(0, 3);   // bucket 2
  m.record_latency(1, 4);   // bucket 3
  m.record_latency(1, 7);   // bucket 3
  m.record_latency(1, 8);   // bucket 4
  const auto h = m.latency_histogram();
  ASSERT_EQ(h.size(), MetricsRegistry::kHistogramBuckets);
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[2], 2u);
  EXPECT_EQ(h[3], 2u);
  EXPECT_EQ(h[4], 1u);
  std::uint64_t sum = 0;
  for (std::uint64_t v : h) sum += v;
  EXPECT_EQ(sum, 7u);
}

// --- EventWriter <-> ObsJsonlReader round-trip -------------------------------

TEST(ObsEvents, WriterReaderRoundTrip) {
  StringEventSink sink;
  EventWriter("epoch")
      .field("index", std::uint64_t{3})
      .field("active", true)
      .emit(sink);
  EventWriter("run_end")
      .field("ref", std::uint64_t{1'000'000})
      .field("scheme", std::string("ReDHiP"))
      .array("latency_pow2", std::vector<std::uint64_t>{0, 12, 34})
      .emit(sink);

  const auto events = parse_jsonl(sink.str());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "epoch");
  EXPECT_EQ(events[0].num_at("index"), 3u);
  EXPECT_EQ(events[0].flag("active"), true);
  EXPECT_EQ(events[1].type, "run_end");
  EXPECT_EQ(events[1].num_at("ref"), 1'000'000u);
  EXPECT_EQ(events[1].str("scheme"), "ReDHiP");
  ASSERT_EQ(events[1].arrays.size(), 1u);
  EXPECT_EQ(events[1].arrays[0].first, "latency_pow2");
  EXPECT_EQ(events[1].arrays[0].second,
            (std::vector<std::uint64_t>{0, 12, 34}));
  // Absent keys: optional accessors return nullopt, num_at throws.
  EXPECT_FALSE(events[0].num("missing").has_value());
  EXPECT_THROW(events[0].num_at("missing"), std::out_of_range);
}

TEST(ObsEvents, StringEscapingRoundTrips) {
  StringEventSink sink;
  EventWriter("note")
      .field("text", std::string("a\"b\\c\nd\te"))
      .emit(sink);
  const auto events = parse_jsonl(sink.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].str("text"), "a\"b\\c\nd\te");
}

TEST(ObsEvents, ReaderRejectsMalformedLines) {
  // Not an object.
  EXPECT_THROW(parse_jsonl("42\n"), std::runtime_error);
  // Missing the "ev" discriminator.
  EXPECT_THROW(parse_jsonl("{\"ref\":1}\n"), std::runtime_error);
  // Truncated object.
  EXPECT_THROW(parse_jsonl("{\"ev\":\"epoch\",\"x\":1\n"), std::runtime_error);
  // Trailing garbage after the object.
  EXPECT_THROW(parse_jsonl("{\"ev\":\"epoch\"} extra\n"), std::runtime_error);
  // Nested objects are outside the dialect.
  EXPECT_THROW(parse_jsonl("{\"ev\":\"epoch\",\"o\":{\"x\":1}}\n"),
               std::runtime_error);
  // A good line followed by a bad one still throws (all-or-nothing).
  EXPECT_THROW(parse_jsonl("{\"ev\":\"epoch\"}\nnope\n"), std::runtime_error);
  // Missing files are an error, not an empty trace.
  EXPECT_THROW(load_jsonl_file("/nonexistent/redhip-trace.jsonl"),
               std::runtime_error);
}

// --- Epoch boundary semantics ------------------------------------------------

// 8 cores x 2,000 refs = 16,000 total; epochs of 3,000 give five full
// epochs plus a partial tail of 1,000.
TEST(ObsEpochs, PartialFinalEpochWhenRefsNotAMultiple) {
  const SimResult r = run_spec(obs_spec(2'000, 3'000));
  ASSERT_EQ(r.epochs.size(), 6u);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < r.epochs.size(); ++i) {
    const EpochSample& e = r.epochs[i];
    EXPECT_EQ(e.index, i);
    EXPECT_EQ(e.refs, i + 1 < r.epochs.size() ? 3'000u : 1'000u);
    EXPECT_EQ(e.fn, 0u);
    sum += e.refs;
    EXPECT_EQ(e.end_ref, sum);
  }
  EXPECT_EQ(sum, r.total_refs);
}

TEST(ObsEpochs, EpochLargerThanRunYieldsOnePartialEpoch) {
  const SimResult r = run_spec(obs_spec(2'000, 1'000'000));
  ASSERT_EQ(r.epochs.size(), 1u);
  EXPECT_EQ(r.epochs[0].refs, r.total_refs);
  EXPECT_EQ(r.epochs[0].end_ref, r.total_refs);
}

TEST(ObsEpochs, EpochOfOneRefClosesEveryReference) {
  const SimResult r = run_spec(obs_spec(50, 1));
  ASSERT_EQ(r.epochs.size(), r.total_refs);
  for (const EpochSample& e : r.epochs) EXPECT_EQ(e.refs, 1u);
}

TEST(ObsEpochs, CycleBasedEpochsCoverTheRun) {
  RunSpec spec = obs_spec(2'000, 0);
  spec.tweak = [](HierarchyConfig& hc) {
    hc.obs.enabled = true;
    hc.obs.epoch_refs = 0;
    hc.obs.epoch_cycles = 5'000;
  };
  const SimResult r = run_spec(spec);
  ASSERT_GE(r.epochs.size(), 2u);
  std::uint64_t sum = 0;
  std::uint64_t prev_end = 0;
  for (std::size_t i = 0; i < r.epochs.size(); ++i) {
    EXPECT_EQ(r.epochs[i].index, i);
    EXPECT_GE(r.epochs[i].end_cycles, prev_end);
    prev_end = r.epochs[i].end_cycles;
    sum += r.epochs[i].refs;
  }
  EXPECT_EQ(sum, r.total_refs);
}

TEST(ObsEpochs, EnablingObsDoesNotPerturbSimulatedStats) {
  RunSpec plain = obs_spec(5'000, 10'000);
  plain.tweak = nullptr;  // obs off
  const SimResult off = run_spec(plain);
  SimResult on = run_spec(obs_spec(5'000, 10'000));
  EXPECT_FALSE(on.epochs.empty());
  EXPECT_TRUE(off.epochs.empty());
  // Every simulated counter must be untouched by observation; only the
  // epoch series differs, so blank it before the bit-identity check.
  on.epochs.clear();
  EXPECT_TRUE(stats_identical(on, off));
}

TEST(ObsEpochs, RejectsAnEpochOfNothing) {
  RunSpec spec = obs_spec(1'000, 0);
  spec.tweak = [](HierarchyConfig& hc) {
    hc.obs.enabled = true;
    hc.obs.epoch_refs = 0;
    hc.obs.epoch_cycles = 0;
  };
  EXPECT_THROW(run_spec(spec), std::invalid_argument);
}

// --- [obs] config section ----------------------------------------------------

TEST(ObsConfigFile, ParsesAndRoundTripsTheObsSection) {
  const char* text = R"(
cores = 2
scheme = redhip

[level]
size = 32K
ways = 4

[level]
size = 4M
ways = 16

[obs]
enabled = true
epoch_refs = 250000
epoch_cycles = 0
trace_path = /tmp/redhip-events.jsonl
timing = false
)";
  const HierarchyConfig c = parse_config_text(text);
  EXPECT_TRUE(c.obs.enabled);
  EXPECT_EQ(c.obs.epoch_refs, 250'000u);
  EXPECT_EQ(c.obs.epoch_cycles, 0u);
  EXPECT_EQ(c.obs.trace_path, "/tmp/redhip-events.jsonl");
  EXPECT_FALSE(c.obs.timing);

  const HierarchyConfig again = parse_config_text(config_to_text(c));
  EXPECT_EQ(again.obs.enabled, c.obs.enabled);
  EXPECT_EQ(again.obs.epoch_refs, c.obs.epoch_refs);
  EXPECT_EQ(again.obs.epoch_cycles, c.obs.epoch_cycles);
  EXPECT_EQ(again.obs.trace_path, c.obs.trace_path);
  EXPECT_EQ(again.obs.timing, c.obs.timing);
}

TEST(ObsConfigFile, RejectsUnknownObsKeys) {
  const char* text = "[obs]\nenabled = true\nepoch = 5\n";
  EXPECT_THROW(parse_config_text(text), std::logic_error);
}

TEST(ObsConfigFile, TraceFileNamesAreSanitized) {
  EXPECT_EQ(trace_file_name(BenchmarkId::kMcf, "redhip"), "mcf-redhip.jsonl");
  EXPECT_EQ(trace_file_name(BenchmarkId::kMcf, "L4 (64M)/x"),
            "mcf-L4__64M__x.jsonl");
}

// --- Event-stream determinism ------------------------------------------------

// The JSONL trace — epochs, recalibration brackets, auto-disable flips,
// recovery actions — is a deterministic function of (config, seed): two
// runs of one spec emit the same bytes across every specialized run_loop
// instantiation (fault x prefetch x auto_disable).
TEST(ObsDeterminism, RepeatedRunsEmitByteIdenticalTraces) {
  const std::string dir = ::testing::TempDir();
  for (int mask = 0; mask < 8; ++mask) {
    const bool fault = mask & 1;
    const bool prefetch = mask & 2;
    const bool auto_disable = mask & 4;
    RunSpec spec;
    spec.bench = BenchmarkId::kMcf;
    spec.scheme = Scheme::kRedhip;
    spec.scale = 8;
    spec.refs_per_core = 20'000;
    spec.seed = 1234;
    spec.prefetch = prefetch;
    const std::string first_path =
        dir + "/obs-det-" + std::to_string(mask) + "-a.jsonl";
    const std::string second_path =
        dir + "/obs-det-" + std::to_string(mask) + "-b.jsonl";

    auto tweak_for = [&](const std::string& path) {
      return [fault, auto_disable, path](HierarchyConfig& hc) {
        if (fault) {
          hc.fault.enabled = true;
          hc.fault.rate_per_mref = 2'000;
          hc.audit.enabled = true;
        }
        if (auto_disable) {
          hc.auto_disable.enabled = true;
          hc.auto_disable.epoch_refs = 5'000;
        }
        hc.obs.enabled = true;
        hc.obs.epoch_refs = 20'000;
        hc.obs.trace_path = path;
      };
    };

    spec.tweak = tweak_for(first_path);
    const SimResult first = run_spec(spec);
    spec.tweak = tweak_for(second_path);
    const SimResult second = run_spec(spec);

    EXPECT_TRUE(stats_identical(first, second)) << "mask " << mask;
    EXPECT_EQ(first.epochs, second.epochs) << "mask " << mask;

    const std::string trace = slurp(first_path);
    EXPECT_EQ(trace, slurp(second_path)) << "mask " << mask;

    // The trace is well-formed and shaped as documented.
    const auto events = parse_jsonl(trace);
    ASSERT_GE(events.size(), 3u) << "mask " << mask;
    EXPECT_EQ(events.front().type, "run_begin");
    EXPECT_EQ(events.back().type, "run_end");
    EXPECT_EQ(events.back().num_at("ref"), first.total_refs);
    std::size_t epoch_events = 0;
    for (const ObsEvent& e : events) epoch_events += e.type == "epoch";
    EXPECT_EQ(epoch_events, first.epochs.size()) << "mask " << mask;
  }
}

}  // namespace
}  // namespace redhip
