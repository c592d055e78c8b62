// Tests for src/fault + the online invariant auditor: injector determinism,
// PT corruption semantics, auditor detection and recovery policies, and
// the bounded transient retry in the cell executor (run_matrix,
// sweep/sweep.h).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/tag_array.h"
#include "fault/fault.h"
#include "harness/experiment.h"
#include "harness/run.h"
#include "predict/redhip_table.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "trace/mem_ref.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

FaultConfig enabled_config(std::uint32_t rate = 1000,
                           std::uint32_t mask = kAllFaultSites,
                           std::uint64_t seed = 7) {
  FaultConfig f;
  f.enabled = true;
  f.rate_per_mref = rate;
  f.site_mask = mask;
  f.seed = seed;
  return f;
}

// ------------------------------------------------------------ site parsing

TEST(FaultSites, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_fault_sites("pt_clear"),
            static_cast<std::uint32_t>(FaultSite::kPtBitClear));
  EXPECT_EQ(parse_fault_sites("pt_clear,pt_set,recal_drop,trace"),
            kAllFaultSites);
  EXPECT_EQ(parse_fault_sites("all"), kAllFaultSites);
  EXPECT_EQ(fault_sites_to_string(kAllFaultSites),
            "pt_clear,pt_set,recal_drop,trace");
  EXPECT_EQ(parse_fault_sites(fault_sites_to_string(
                static_cast<std::uint32_t>(FaultSite::kRecalDrop) |
                static_cast<std::uint32_t>(FaultSite::kTraceAddr))),
            static_cast<std::uint32_t>(FaultSite::kRecalDrop) |
                static_cast<std::uint32_t>(FaultSite::kTraceAddr));
  EXPECT_THROW(parse_fault_sites("pt_clear,bogus"), std::logic_error);
}

TEST(FaultConfigTest, ValidateRejectsNonsense) {
  FaultConfig f = enabled_config();
  f.site_mask = 0;
  EXPECT_THROW(f.validate(), std::logic_error);
  f = enabled_config();
  f.site_mask = 1u << 17;
  EXPECT_THROW(f.validate(), std::logic_error);
  f = enabled_config();
  f.rate_per_mref = 0;
  EXPECT_THROW(f.validate(), std::logic_error);
  f = enabled_config();
  f.rate_per_mref = 2'000'000;
  EXPECT_THROW(f.validate(), std::logic_error);
  FaultConfig off;  // disabled configs are never inspected
  off.rate_per_mref = 0;
  EXPECT_NO_THROW(off.validate());
}

TEST(HierarchyConfigTest, PtFaultSitesRequireARedhipTable) {
  HierarchyConfig c = HierarchyConfig::scaled(32, Scheme::kBase);
  c.fault = enabled_config(
      100, static_cast<std::uint32_t>(FaultSite::kPtBitClear));
  EXPECT_THROW(c.validate(), std::logic_error)
      << "PT bit flips make no sense without a prediction table";
  c.fault.site_mask = static_cast<std::uint32_t>(FaultSite::kTraceAddr);
  EXPECT_NO_THROW(c.validate()) << "trace perturbation works on any scheme";
  HierarchyConfig r = HierarchyConfig::scaled(32, Scheme::kRedhip);
  r.fault = enabled_config(
      100, static_cast<std::uint32_t>(FaultSite::kPtBitClear));
  EXPECT_NO_THROW(r.validate());
}

// --------------------------------------------------------------- injector

TEST(FaultInjector, DeterministicAcrossInstances) {
  FaultInjector a(enabled_config());
  FaultInjector b(enabled_config());
  for (int i = 0; i < 50'000; ++i) {
    const auto site = static_cast<FaultSite>(1u << (i % 4));
    ASSERT_EQ(a.fires(site), b.fires(site)) << "diverged at draw " << i;
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.pick(1 << 20), b.pick(1 << 20));
  }
}

TEST(FaultInjector, MaskedSiteNeverFires) {
  FaultInjector inj(enabled_config(
      1'000'000, static_cast<std::uint32_t>(FaultSite::kPtBitSet)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.fires(FaultSite::kPtBitClear));
    EXPECT_TRUE(inj.fires(FaultSite::kPtBitSet)) << "rate 1e6 ppm = always";
  }
}

TEST(FaultInjector, SitesUseIndependentStreams) {
  // Masking one site off must not shift another site's fault sequence.
  FaultInjector all(enabled_config(50'000, kAllFaultSites));
  FaultInjector only_set(enabled_config(
      50'000, static_cast<std::uint32_t>(FaultSite::kPtBitSet)));
  for (int i = 0; i < 20'000; ++i) {
    all.fires(FaultSite::kPtBitClear);  // advance the clear stream
    ASSERT_EQ(all.fires(FaultSite::kPtBitSet),
              only_set.fires(FaultSite::kPtBitSet))
        << "diverged at draw " << i;
  }
}

TEST(FaultInjector, PerturbFlipsOneLowAddressBitAtTheConfiguredRate) {
  FaultInjector inj(enabled_config(
      100'000, static_cast<std::uint32_t>(FaultSite::kTraceAddr)));
  const int kN = 50'000;
  int perturbed = 0;
  for (int i = 0; i < kN; ++i) {
    MemRef ref{0xABCD'0000'1234'5678ull, 0, 0, false};
    const MemRef before = ref;
    if (inj.maybe_perturb(ref)) {
      ++perturbed;
      const std::uint64_t diff = ref.addr ^ before.addr;
      EXPECT_NE(diff, 0u);
      EXPECT_EQ(diff & (diff - 1), 0u) << "exactly one bit flips";
      EXPECT_LT(diff, std::uint64_t{1} << 40)
          << "flips stay inside the workload's address span";
    } else {
      EXPECT_EQ(ref, before);
    }
  }
  EXPECT_NEAR(static_cast<double>(perturbed) / kN, 0.1, 0.01);
  EXPECT_EQ(inj.stats().trace_refs_perturbed,
            static_cast<std::uint64_t>(perturbed));
}

// ------------------------------------------------- PT corruption semantics

TEST(RedhipTableFaults, CorruptBitsReportWhetherTheyFlipped) {
  RedhipConfig pc;
  pc.table_bits = 1 << 12;
  pc.recal_interval_l1_misses = 0;
  RedhipTable t(pc);
  EXPECT_FALSE(t.corrupt_clear_bit(5)) << "clearing a 0 bit is invisible";
  EXPECT_TRUE(t.corrupt_set_bit(5));
  EXPECT_TRUE(t.test_bit(5));
  EXPECT_FALSE(t.corrupt_set_bit(5)) << "setting a 1 bit is invisible";
  EXPECT_TRUE(t.corrupt_clear_bit(5));
  EXPECT_FALSE(t.test_bit(5));
  EXPECT_TRUE(t.corrupt_set_bit((1 << 12) + 5))
      << "indexes wrap through the table mask";
  EXPECT_TRUE(t.test_bit(5));
}

TEST(RedhipTableFaults, ClearBreaksTheInvariantAndRecalibrationRestoresIt) {
  // The acceptance scenario in miniature: a 1→0 flip makes a resident line
  // predicted-absent (a would-be false negative); rebuilding from the tag
  // array restores the conservative superset exactly.
  CacheGeometry g;
  g.size_bytes = 64_KiB;
  g.ways = 16;
  TagArray llc(g);
  RedhipConfig pc;
  pc.table_bits = 1 << 12;
  pc.recal_interval_l1_misses = 0;
  RedhipTable t(pc);
  const LineAddr line = 0x2b3;
  llc.fill(line);
  t.on_fill(line);
  ASSERT_EQ(t.query(line), Prediction::kPresent);

  ASSERT_TRUE(t.corrupt_clear_bit(t.index_of(line)));
  EXPECT_EQ(t.query(line), Prediction::kAbsent)
      << "the broken invariant: resident line predicted absent";
  EXPECT_TRUE(llc.contains(line));

  t.recalibrate(llc);
  EXPECT_EQ(t.query(line), Prediction::kPresent)
      << "recalibration must restore the no-false-negative property";
}

TEST(RedhipTableFaults, DroppedRecalChunksLeaveStaleBitsButStallIsPaid) {
  CacheGeometry g;
  g.size_bytes = 64_KiB;
  g.ways = 16;  // 64 sets
  TagArray llc(g);
  RedhipConfig pc;
  pc.table_bits = 1 << 12;
  pc.recal_interval_l1_misses = 0;
  pc.banks = 4;
  RedhipTable t(pc);
  t.on_fill(0x123);  // stale: never filled into the LLC
  int drops = 0;
  t.set_recal_chunk_filter([&drops](std::uint64_t, std::uint64_t) {
    ++drops;
    return true;
  });
  const Cycles stall = t.recalibrate_sets(llc, 0, 64);
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(stall, 64u / 4u) << "hardware ran; only the result was lost";
  EXPECT_EQ(t.query(0x123), Prediction::kPresent)
      << "stale 1s survive a dropped chunk (conservative, energy-only)";
  t.set_recal_chunk_filter(nullptr);
  t.recalibrate_sets(llc, 0, 64);
  EXPECT_EQ(t.query(0x123), Prediction::kAbsent);
}

// --------------------------------------------- auditor, single-step driven

// Same tiny machine as sim_test, ReDHiP over the LLC.
HierarchyConfig tiny_redhip(RecoveryPolicy policy) {
  HierarchyConfig c;
  c.cores = 1;
  c.scheme = Scheme::kRedhip;
  auto mk = [](std::uint64_t size, std::uint32_t ways, Cycles td, Cycles dd,
               double te, double de) {
    LevelSpec l;
    l.geom.size_bytes = size;
    l.geom.ways = ways;
    l.energy = LevelEnergyParams{"", td, dd, te, de, 0.1};
    return l;
  };
  c.levels = {mk(1_KiB, 2, 0, 2, 0.0, 1.0), mk(4_KiB, 4, 0, 6, 0.0, 2.0),
              mk(16_KiB, 4, 9, 12, 3.0, 9.0), mk(64_KiB, 8, 13, 22, 4.0, 20.0)};
  c.redhip.table_bits = 1 << 13;
  c.redhip.recal_interval_l1_misses = 0;  // no scheduled recalibration
  c.audit.enabled = true;
  c.audit.policy = policy;
  return c;
}

MulticoreSimulator make_sim(const HierarchyConfig& c) {
  std::vector<std::unique_ptr<TraceSource>> traces;
  traces.push_back(std::make_unique<VectorTraceSource>(std::vector<MemRef>{}));
  return MulticoreSimulator(c, std::move(traces), {100});
}

MemRef ref_at(Addr addr) { return MemRef{addr, 0, 0, false}; }

// Fault the PT by hand, then observe detection + recovery on the next
// access — fully deterministic, no RNG anywhere.
TEST(InvariantAuditor, DetectsInjectedClearAndEmergencyRecalRestores) {
  auto sim = make_sim(tiny_redhip(RecoveryPolicy::kRecalibrate));
  RedhipTable* pt = sim.llc_redhip_for_test();
  ASSERT_NE(pt, nullptr);

  const Addr victim = 0x4000;  // line 0x100
  sim.access_for_test(0, ref_at(victim));
  // Evict it from L1 (2-way) and L2 (4-way) with same-set fills; the L3/LLC
  // copies and the PT bit survive.
  for (int k = 1; k <= 4; ++k) {
    sim.access_for_test(0, ref_at(victim + k * (16u << 6)));
  }
  const LineAddr line = victim >> 6;
  ASSERT_TRUE(sim.level_array_for_test(3, 0).contains(line));
  ASSERT_FALSE(sim.level_array_for_test(0, 0).contains(line));
  ASSERT_FALSE(sim.level_array_for_test(1, 0).contains(line));
  ASSERT_EQ(pt->query(line), Prediction::kPresent);

  // The single-event upset: PT bit 1→0.  The table now under-approximates
  // the LLC — exactly the state the structural argument says cannot happen.
  ASSERT_TRUE(pt->corrupt_clear_bit(pt->index_of(line)));
  ASSERT_EQ(pt->query(line), Prediction::kAbsent);

  const std::uint64_t checks_before = sim.audit_checks_for_test();
  sim.access_for_test(0, ref_at(victim));
  EXPECT_GT(sim.audit_checks_for_test(), checks_before);
  EXPECT_EQ(sim.invariant_violations_for_test(), 1u);
  EXPECT_EQ(sim.recovery_recals_for_test(), 1u);
  EXPECT_TRUE(pt->test_bit(pt->index_of(line)))
      << "emergency recalibration must restore the bit from the tag array";
  // And the invariant holds again: the same prediction is now correct.
  EXPECT_EQ(pt->query(line), Prediction::kPresent);
}

TEST(InvariantAuditor, CountOnlyDetectsButDoesNotRecover) {
  auto sim = make_sim(tiny_redhip(RecoveryPolicy::kCountOnly));
  RedhipTable* pt = sim.llc_redhip_for_test();
  const Addr victim = 0x4000;
  sim.access_for_test(0, ref_at(victim));
  for (int k = 1; k <= 4; ++k) {
    sim.access_for_test(0, ref_at(victim + k * (16u << 6)));
  }
  const LineAddr line = victim >> 6;
  ASSERT_TRUE(pt->corrupt_clear_bit(pt->index_of(line)));

  sim.access_for_test(0, ref_at(victim));
  EXPECT_EQ(sim.invariant_violations_for_test(), 1u);
  EXPECT_EQ(sim.recovery_recals_for_test(), 0u);
  EXPECT_FALSE(pt->test_bit(pt->index_of(line)))
      << "count-only must leave the corrupted bit in place";
}

TEST(InvariantAuditor, AbortRetryThrowsTransientForTransientFaults) {
  HierarchyConfig c = tiny_redhip(RecoveryPolicy::kAbortRetry);
  c.fault = enabled_config(
      1, static_cast<std::uint32_t>(FaultSite::kPtBitClear));
  c.fault.transient = true;
  auto sim = make_sim(c);
  RedhipTable* pt = sim.llc_redhip_for_test();
  const Addr victim = 0x4000;
  sim.access_for_test(0, ref_at(victim));
  for (int k = 1; k <= 4; ++k) {
    sim.access_for_test(0, ref_at(victim + k * (16u << 6)));
  }
  ASSERT_TRUE(pt->corrupt_clear_bit(pt->index_of(victim >> 6)));
  EXPECT_THROW(sim.access_for_test(0, ref_at(victim)), TransientFaultError);
}

// --------------------------------------------------- end-to-end via run()

RunSpec faulted_spec(RecoveryPolicy policy, std::uint32_t rate,
                     std::uint32_t sites, std::uint64_t fault_seed = 7) {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 32;
  spec.refs_per_core = 20'000;
  spec.tweak = [=](HierarchyConfig& c) {
    c.audit.enabled = true;
    c.audit.policy = policy;
    c.fault.enabled = true;
    c.fault.rate_per_mref = rate;
    c.fault.site_mask = sites;
    c.fault.seed = fault_seed;
  };
  return spec;
}

TEST(FaultEndToEnd, RecalibratePolicyDetectsAndRecovers) {
  const SimResult r = run_spec(faulted_spec(
      RecoveryPolicy::kRecalibrate, 20'000,
      static_cast<std::uint32_t>(FaultSite::kPtBitClear)));
  EXPECT_GT(r.fault.pt_bits_cleared, 0u);
  EXPECT_GT(r.fault.audit_checks, 0u);
  EXPECT_GT(r.fault.invariant_violations, 0u)
      << "at this rate some cleared bit must cover a resident line";
  EXPECT_EQ(r.fault.recovery_recalibrations, r.fault.invariant_violations)
      << "every violation triggers one emergency recalibration";
  EXPECT_GT(r.fault.recovery_stall_cycles, 0u);
}

TEST(FaultEndToEnd, CountOnlyPolicyObservesMoreViolations) {
  const SimResult r = run_spec(faulted_spec(
      RecoveryPolicy::kCountOnly, 20'000,
      static_cast<std::uint32_t>(FaultSite::kPtBitClear)));
  EXPECT_GT(r.fault.invariant_violations, 0u);
  EXPECT_EQ(r.fault.recovery_recalibrations, 0u);
  EXPECT_EQ(r.fault.recovery_stall_cycles, 0u);
  const SimResult rec = run_spec(faulted_spec(
      RecoveryPolicy::kRecalibrate, 20'000,
      static_cast<std::uint32_t>(FaultSite::kPtBitClear)));
  EXPECT_GE(r.fault.invariant_violations, rec.fault.invariant_violations)
      << "recovery scrubs corruption; counting alone lets it keep biting";
}

TEST(FaultEndToEnd, SetFaultsAndDroppedChunksCostEnergyNotCorrectness) {
  RunSpec spec = faulted_spec(
      RecoveryPolicy::kCountOnly, 50'000,
      static_cast<std::uint32_t>(FaultSite::kPtBitSet) |
          static_cast<std::uint32_t>(FaultSite::kRecalDrop));
  const SimResult r = run_spec(spec);
  EXPECT_GT(r.fault.pt_bits_set, 0u);
  EXPECT_GT(r.fault.audit_checks, 0u);
  EXPECT_EQ(r.fault.invariant_violations, 0u)
      << "0→1 flips and stale 1s are conservative: never a false negative";
}

TEST(FaultEndToEnd, TracePerturbationIsCountedAndDeterministic) {
  const std::uint32_t site =
      static_cast<std::uint32_t>(FaultSite::kTraceAddr);
  const SimResult a =
      run_spec(faulted_spec(RecoveryPolicy::kCountOnly, 10'000, site));
  const SimResult b =
      run_spec(faulted_spec(RecoveryPolicy::kCountOnly, 10'000, site));
  EXPECT_GT(a.fault.trace_refs_perturbed, 0u);
  EXPECT_EQ(a.fault.trace_refs_perturbed, b.fault.trace_refs_perturbed);
  EXPECT_EQ(a.exec_cycles, b.exec_cycles) << "faulted runs reproduce exactly";
}

TEST(FaultEndToEnd, AuditAloneIsZeroCost) {
  // The auditor only reads state the simulator already has; with no faults
  // injected every observable except its own counters is bit-identical.
  RunSpec plain;
  plain.bench = BenchmarkId::kMcf;
  plain.scheme = Scheme::kRedhip;
  plain.scale = 32;
  plain.refs_per_core = 20'000;
  RunSpec audited = plain;
  audited.tweak = [](HierarchyConfig& c) {
    c.audit.enabled = true;
    c.audit.policy = RecoveryPolicy::kRecalibrate;
  };
  const SimResult p = run_spec(plain);
  const SimResult a = run_spec(audited);
  EXPECT_EQ(p.exec_cycles, a.exec_cycles);
  EXPECT_DOUBLE_EQ(p.energy.total_j(), a.energy.total_j());
  EXPECT_EQ(p.predictor.predicted_absent, a.predictor.predicted_absent);
  EXPECT_EQ(p.fault.audit_checks, 0u);
  EXPECT_GT(a.fault.audit_checks, 0u);
  EXPECT_EQ(a.fault.invariant_violations, 0u);
}

// --------------------------------------------------- bounded retry plumbing

// A fault seed (found by sweep, stable by construction: every layer is
// deterministic) whose rate-400 pt_clear stream causes a violation on the
// first attempt but not under run_matrix's attempt-1 reseed (+0x9e3779b9).
constexpr std::uint64_t kRetrySeed = 5;

TEST(TransientRetry, RunSpecSurfacesTheAbort) {
  EXPECT_THROW(run_spec(faulted_spec(
                   RecoveryPolicy::kAbortRetry, 20'000,
                   static_cast<std::uint32_t>(FaultSite::kPtBitClear))),
               TransientFaultError);
}

TEST(TransientRetry, DeterministicFaultsAreNotRetryable) {
  RunSpec spec = faulted_spec(
      RecoveryPolicy::kAbortRetry, 20'000,
      static_cast<std::uint32_t>(FaultSite::kPtBitClear));
  auto base = spec.tweak;
  spec.tweak = [base](HierarchyConfig& c) {
    base(c);
    c.fault.transient = false;
  };
  try {
    run_spec(spec);
    FAIL() << "a violation at this rate is certain";
  } catch (const TransientFaultError&) {
    FAIL() << "non-transient faults must not be classed retryable";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not retryable"), std::string::npos);
  }
}

TEST(TransientRetry, MatrixRetriesWithAReseededFaultStream) {
  // A rate low enough that the violation depends on the fault seed: the
  // first attempt aborts, a reseeded attempt completes.  The constants are
  // pinned by the determinism of the whole stack; see the assertions.
  ExperimentOptions o;
  o.scale = 32;
  o.refs_per_core = 20'000;
  o.benches = {BenchmarkId::kMcf};
  o.jobs = 1;
  SchemeColumn col;
  col.label = "faulted";
  col.scheme = Scheme::kRedhip;
  col.tweak = [](HierarchyConfig& c) {
    c.audit.enabled = true;
    c.audit.policy = RecoveryPolicy::kAbortRetry;
    c.fault.enabled = true;
    c.fault.rate_per_mref = 400;
    c.fault.site_mask = static_cast<std::uint32_t>(FaultSite::kPtBitClear);
    c.fault.seed = kRetrySeed;
  };
  // Pin the premise: attempt 0's seed aborts, attempt 1's reseed survives.
  EXPECT_THROW(
      run_spec(faulted_spec(RecoveryPolicy::kAbortRetry, 400,
                            static_cast<std::uint32_t>(FaultSite::kPtBitClear),
                            kRetrySeed)),
      TransientFaultError);
  const SimResult reseeded = run_spec(faulted_spec(
      RecoveryPolicy::kAbortRetry, 400,
      static_cast<std::uint32_t>(FaultSite::kPtBitClear),
      kRetrySeed + 0x9e3779b9ull));
  EXPECT_EQ(reseeded.fault.invariant_violations, 0u);

  const auto results = run_matrix(o, {col});
  EXPECT_EQ(results[0][0].fault.invariant_violations, 0u)
      << "the matrix must have completed on the retried attempt";
  EXPECT_EQ(results[0][0].exec_cycles, reseeded.exec_cycles);
}

}  // namespace
}  // namespace redhip
