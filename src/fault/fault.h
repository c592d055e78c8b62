// Fault injection — deterministic corruption of the structures ReDHiP's
// correctness argument rests on (DESIGN.md "Fault model & recovery").
//
// The paper's central invariant is that the prediction table is a
// conservative superset of LLC contents, so a predicted-absent bypass can
// never hide on-chip data.  That invariant is *structural* only while the
// hardware behaves: a single-event upset flipping a PT bit 1→0 silently
// breaks it, a 0→1 flip merely costs energy (a lingering false positive),
// a lost recalibration set-range leaves stale 1s (conservative, so again
// energy-only), and a corrupted trace record models input-side damage.
// The FaultInjector produces each of these, seeded and per-site
// deterministic: a (config, seed) pair reproduces the exact same fault
// sequence on any platform, which is what makes recovery testable.
//
// Everything here is opt-in and zero-overhead when disabled: the simulator
// only constructs an injector when `FaultConfig::enabled` is set, and all
// hot-path hooks are guarded by a null check on that pointer.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "trace/mem_ref.h"

namespace redhip {

// Injection sites, combinable as a bitmask.
enum class FaultSite : std::uint32_t {
  kPtBitClear = 1u << 0,  // flip a PT bit 1→0: breaks no-false-negative
  kPtBitSet = 1u << 1,    // flip a PT bit 0→1: a lingering false positive
  kRecalDrop = 1u << 2,   // drop an in-flight recalibration set-range
  kTraceAddr = 1u << 3,   // flip one address bit of a trace record
};
inline constexpr std::uint32_t kAllFaultSites =
    static_cast<std::uint32_t>(FaultSite::kPtBitClear) |
    static_cast<std::uint32_t>(FaultSite::kPtBitSet) |
    static_cast<std::uint32_t>(FaultSite::kRecalDrop) |
    static_cast<std::uint32_t>(FaultSite::kTraceAddr);
std::string to_string(FaultSite site);

// "pt_clear,pt_set" → mask.  Throws std::logic_error naming the bad token.
std::uint32_t parse_fault_sites(const std::string& csv);
std::string fault_sites_to_string(std::uint32_t mask);

struct FaultConfig {
  bool enabled = false;
  // Expected faults per million simulated references, per enabled site
  // (per-Mref is exactly ppm-per-reference, evaluated integer-exact).
  std::uint32_t rate_per_mref = 100;
  std::uint32_t site_mask = kAllFaultSites;
  std::uint64_t seed = 0xfa175eed;
  // Treat injected faults as transient host-side events: a run aborted by
  // the auditor (RecoveryPolicy::kAbortRetry) is eligible for a reseeded
  // bounded retry in the cell executor (run_sweep, under run_matrix)
  // instead of failing the whole matrix.
  bool transient = true;

  void validate() const;
};

// Everything a faulted run reports; lives in SimResult::fault.  All zeros
// when injection and auditing are off.
struct FaultStats {
  // Injection side.
  std::uint64_t pt_bits_cleared = 0;   // 1→0 flips that actually flipped
  std::uint64_t pt_bits_set = 0;       // 0→1 flips that actually flipped
  std::uint64_t recal_chunks_dropped = 0;
  std::uint64_t trace_refs_perturbed = 0;
  // Audit side.
  std::uint64_t audit_checks = 0;           // bypasses shadow-checked
  std::uint64_t invariant_violations = 0;   // bypass would have hidden data
  std::uint64_t recovery_recalibrations = 0;
  std::uint64_t recovery_stall_cycles = 0;

  // Serialized fields in on-disk order (common/bytestream.h).
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.pt_bits_cleared, s.pt_bits_set, s.recal_chunks_dropped,
                    s.trace_refs_perturbed, s.audit_checks,
                    s.invariant_violations, s.recovery_recalibrations,
                    s.recovery_stall_cycles);
  }
  std::uint64_t injected_total() const {
    return pt_bits_cleared + pt_bits_set + recal_chunks_dropped +
           trace_refs_perturbed;
  }
  bool operator==(const FaultStats&) const = default;
};

// Thrown by the invariant auditor under RecoveryPolicy::kAbortRetry.
// The cell executor (run_sweep, under run_matrix) treats it as retryable
// (bounded, reseeded) when
// FaultConfig::transient is set; every other exception fails the matrix.
class TransientFaultError : public std::runtime_error {
 public:
  explicit TransientFaultError(const std::string& what)
      : std::runtime_error(what) {}
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  // One Bernoulli draw on `site`'s private stream: does a fault land here?
  // Each site owns an independent substream, so masking one site off never
  // shifts another site's fault sequence.
  bool fires(FaultSite site);

  // Uniform in [0, bound) on the shared payload stream — used to pick the
  // PT bit index / address bit to corrupt once a site has fired.
  std::uint64_t pick(std::uint64_t bound);

  // Flip one bit of `ref.addr` (bits 0..39: the span the workload
  // generators populate).  Returns true when the record was perturbed.
  bool maybe_perturb(MemRef& ref);

  bool site_enabled(FaultSite site) const {
    return (config_.site_mask & static_cast<std::uint32_t>(site)) != 0;
  }
  const FaultConfig& config() const { return config_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  // Serialized fields in on-disk order (common/bytestream.h): the five
  // substream cursors plus the stats block are the injector's complete
  // checkpoint state — restoring them continues the exact fault sequence
  // the interrupted run would have produced.
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.pt_clear_, s.pt_set_, s.recal_drop_, s.trace_addr_,
                    s.payload_, s.stats_);
  }

 private:
  Xoshiro256& stream(FaultSite site);

  FaultConfig config_;
  Xoshiro256 pt_clear_;
  Xoshiro256 pt_set_;
  Xoshiro256 recal_drop_;
  Xoshiro256 trace_addr_;
  Xoshiro256 payload_;
  FaultStats stats_;
};

}  // namespace redhip
