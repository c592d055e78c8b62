// Ablation — fault-rate x recovery-policy sweep.
//
// ReDHiP's energy win rests on one invariant: the prediction table is a
// conservative superset of LLC contents, so a predicted-absent bypass never
// hides on-chip data.  This bench injects PT bit flips (both polarities)
// and dropped recalibration chunks at increasing rates, with the online
// invariant auditor shadow-checking every bypass, and measures what each
// recovery policy costs:
//
//   count-only   — detect and count violations, serve the line from memory
//                  (graceful degradation; no recovery action)
//   recalibrate  — emergency full recalibration on the first violation,
//                  stall + energy charged like any other recalibration
//
// Columns report violations observed, emergency recalibrations, and the
// perf/energy deltas against the fault-free ReDHiP run at the same seed —
// rate 0 is the zero-overhead-off control and must match it exactly.
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);
  const auto rate =
      static_cast<std::uint32_t>(cli.get_int("fault-rate", 200));

  auto faulted = [rate](RecoveryPolicy policy, std::uint32_t scale) {
    return [policy, rate, scale](HierarchyConfig& c) {
      c.audit.enabled = true;
      c.audit.policy = policy;
      if (rate * scale == 0) return;  // fault-free control, auditor still on
      c.fault.enabled = true;
      c.fault.rate_per_mref = rate * scale;
      c.fault.site_mask = static_cast<std::uint32_t>(FaultSite::kPtBitClear) |
                          static_cast<std::uint32_t>(FaultSite::kPtBitSet) |
                          static_cast<std::uint32_t>(FaultSite::kRecalDrop);
    };
  };
  const std::vector<SchemeColumn> columns = {
      {"ReDHiP", Scheme::kRedhip},
      {"audit, no faults", Scheme::kRedhip, InclusionPolicy::kInclusive,
       false, faulted(RecoveryPolicy::kCountOnly, 0)},
      {"count-only @1x", Scheme::kRedhip, InclusionPolicy::kInclusive, false,
       faulted(RecoveryPolicy::kCountOnly, 1)},
      {"recalibrate @1x", Scheme::kRedhip, InclusionPolicy::kInclusive, false,
       faulted(RecoveryPolicy::kRecalibrate, 1)},
      {"count-only @10x", Scheme::kRedhip, InclusionPolicy::kInclusive, false,
       faulted(RecoveryPolicy::kCountOnly, 10)},
      {"recalibrate @10x", Scheme::kRedhip, InclusionPolicy::kInclusive,
       false, faulted(RecoveryPolicy::kRecalibrate, 10)},
  };
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Ablation — fault tolerance (base rate %u faults/Mref/site, PT flips "
      "+ dropped recal chunks)\n",
      rate);
  TablePrinter t({"benchmark", "column", "injected", "violations",
                  "recoveries", "recal stalls", "cycles vs clean",
                  "dyn energy vs clean"});
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    const SimResult& clean = results[b][0];
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const SimResult& r = results[b][c];
      const Comparison cmp = compare(clean, r);
      t.add_row({to_string(opts.benches[b]), columns[c].label,
                 std::to_string(r.fault.injected_total()),
                 std::to_string(r.fault.invariant_violations),
                 std::to_string(r.fault.recovery_recalibrations),
                 std::to_string(r.fault.recovery_stall_cycles),
                 pct_delta(1.0 / cmp.speedup), pct(cmp.dyn_energy_ratio)});
    }
  }
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\nexpected: the audited fault-free column matches plain ReDHiP "
      "bit-for-bit; count-only rides out violations at a small latency "
      "cost per hit; recalibrate pays stall + energy per violation but "
      "scrubs every injected 1->0 flip\n");
  return 0;
}
