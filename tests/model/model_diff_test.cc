// Differential test: MulticoreSimulator::run() against the independent
// whole-hierarchy model (hierarchy_model.h) on seeded random machines and
// reference streams (case_gen.h).  Every simulated counter, every core's
// clock, every set's contents in LRU order with their dirty and prefetched
// bits, and every bit of the shared-LLC ReDHiP table must agree.
//
// On a mismatch the test prints the case seed, the machine as
// config_to_text, and the first diverging reference: bisection over
// prefix runs — every core's stream cut to what it executed within the
// model's first g references, which both sides then run from scratch —
// finds the g where the two states first differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/config_file.h"
#include "model/case_gen.h"
#include "model/hierarchy_model.h"
#include "sim/simulator.h"

namespace redhip::model {
namespace {

constexpr std::uint64_t kCases = 1000;

// How a run ended: normally, by the auditor's abort-retry exception
// (transient or not), or by a broken internal check (std::logic_error).
struct Outcome {
  enum Kind { kOk, kTransientFault, kRuntimeError, kLogicError } kind = kOk;
  std::string what;
  bool operator==(const Outcome& o) const { return kind == o.kind; }
};

template <typename Fn>
Outcome catch_outcome(Fn&& fn) {
  try {
    fn();
    return {};
  } catch (const TransientFaultError& e) {
    return {Outcome::kTransientFault, e.what()};
  } catch (const std::runtime_error& e) {
    return {Outcome::kRuntimeError, e.what()};
  } catch (const std::logic_error& e) {
    return {Outcome::kLogicError, e.what()};
  }
}

std::string describe(const LevelEvents& e) {
  std::ostringstream os;
  os << "{tag " << e.tag_probes << " data " << e.data_probes << " fills "
     << e.fills << " inval " << e.invalidations << " wb " << e.writebacks
     << " acc " << e.accesses << " hit " << e.hits << " miss " << e.misses
     << " evict " << e.evictions << " skip " << e.skipped << "}";
  return os.str();
}

std::string describe(const PredictorEvents& e) {
  std::ostringstream os;
  os << "{lookups " << e.lookups << " updates " << e.updates << " recals "
     << e.recalibrations << " sets_read " << e.recal_sets_read
     << " words " << e.recal_words_written << " absent "
     << e.predicted_absent << " present " << e.predicted_present << " fp "
     << e.false_positives << " tp " << e.true_positives << "}";
  return os.str();
}

// Resident lines of one engine set, MRU first.  The checkpoint form of
// the array carries each way's LRU rank (bits 60..63, 0 = MRU) and its
// prefetched (bit 1) and dirty (bit 2) flags; visit_valid_in_set yields
// the valid ways' lines in the same way order.
std::vector<ModelLine> engine_set(const TagArray& arr,
                                  const std::vector<std::uint64_t>& entries,
                                  std::uint64_t set) {
  std::vector<LineAddr> lines;
  arr.visit_valid_in_set(set, [&](LineAddr l) { lines.push_back(l); });
  std::vector<std::pair<std::uint64_t, ModelLine>> ranked;
  std::size_t next = 0;
  for (std::uint32_t w = 0; w < arr.ways(); ++w) {
    const std::uint64_t e = entries[set * arr.ways() + w];
    if ((e & 1) == 0) continue;
    ranked.push_back({e >> 60, {lines.at(next++), (e & 4) != 0, (e & 2) != 0}});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ModelLine> out;
  for (const auto& r : ranked) out.push_back(r.second);
  return out;
}

std::string describe(const std::vector<ModelLine>& set) {
  std::ostringstream os;
  os << "[";
  for (const ModelLine& l : set) {
    os << " " << std::hex << l.line << std::dec << (l.dirty ? "d" : "")
       << (l.prefetched ? "p" : "");
  }
  os << " ]";
  return os.str();
}

// The first state difference between the engine and the model, or "".
std::string compare_state(MulticoreSimulator& sim, const HierarchyModel& m) {
  const HierarchyConfig& c = sim.config();
  for (std::uint32_t lvl = 0; lvl < c.num_levels(); ++lvl) {
    const bool llc = lvl + 1 == c.num_levels();
    for (CoreId core = 0; core < (llc ? 1 : c.cores); ++core) {
      const TagArray& arr = sim.level_array_for_test(lvl, core);
      if (arr.sets() != m.sets(lvl)) return "set count differs";
      const std::vector<std::uint64_t> entries = arr.ckpt_entries();
      for (std::uint64_t s = 0; s < arr.sets(); ++s) {
        const std::vector<ModelLine> got = engine_set(arr, entries, s);
        const std::vector<ModelLine>& want = m.set_contents(lvl, core, s);
        if (got != want) {
          return "L" + std::to_string(lvl + 1) + " core " +
                 std::to_string(core) + " set " + std::to_string(s) +
                 ": engine " + describe(got) + " model " + describe(want);
        }
      }
    }
  }
  if (RedhipTable* pt = sim.llc_redhip_for_test()) {
    const std::vector<bool>& bits = m.pt_bits();
    for (std::uint64_t i = 0; i < bits.size(); ++i) {
      if (pt->test_bit(i) != bits[i]) {
        return "PT bit " + std::to_string(i) + ": engine " +
               std::to_string(pt->test_bit(i)) + " model " +
               std::to_string(bits[i]);
      }
    }
  }
  return "";
}

std::string compare_results(const SimResult& e, const ModelResult& m) {
  for (std::size_t lvl = 0; lvl < m.levels.size(); ++lvl) {
    if (!(e.levels[lvl] == m.levels[lvl])) {
      return "L" + std::to_string(lvl + 1) + " events: engine " +
             describe(e.levels[lvl]) + " model " + describe(m.levels[lvl]);
    }
  }
  if (!(e.predictor == m.predictor)) {
    return "predictor events: engine " + describe(e.predictor) + " model " +
           describe(m.predictor);
  }
  const auto num = [](const char* what, std::uint64_t a, std::uint64_t b) {
    return a == b ? std::string()
                  : std::string(what) + ": engine " + std::to_string(a) +
                        " model " + std::to_string(b);
  };
  const PrefetchEvents& ep = e.prefetch;
  const PrefetchEvents& mp = m.prefetch;
  for (const std::string& d :
       {num("prefetch table lookups", ep.table_lookups, mp.table_lookups),
        num("prefetch issued", ep.issued, mp.issued),
        num("prefetch useful", ep.useful, mp.useful),
        num("prefetch useless", ep.useless, mp.useless),
        num("prefetch redundant", ep.redundant, mp.redundant),
        num("memory accesses", e.memory_accesses, m.memory_accesses),
        num("demand memory accesses", e.demand_memory_accesses,
            m.demand_memory_accesses),
        num("memory writebacks", e.memory_writebacks, m.memory_writebacks),
        num("recal stall", e.recal_stall_cycles, m.recal_stall_cycles),
        num("predictor disabled refs", e.predictor_disabled_refs,
            m.predictor_disabled_refs),
        num("total refs", e.total_refs, m.total_refs)}) {
    if (!d.empty()) return d;
  }
  if (!(e.fault == m.fault)) return "fault stats differ";
  if (e.core_cycles != m.core_cycles) {
    for (std::size_t c = 0; c < m.core_cycles.size(); ++c) {
      if (e.core_cycles[c] != m.core_cycles[c]) {
        return num(("core " + std::to_string(c) + " cycles").c_str(),
                   e.core_cycles[c], m.core_cycles[c]);
      }
    }
  }
  return "";
}

// Run both sides on `k` (every stream cut to `limit` when given) and
// return the first difference, or "".
std::string run_and_compare(const Case& k,
                            const std::vector<std::uint64_t>* limit,
                            std::vector<CoreId>* schedule = nullptr) {
  MulticoreSimulator sim(k.config, make_sources(k.traces, limit),
                         k.cpi_centi);
  HierarchyModel model(k.config, make_sources(k.traces, limit), k.cpi_centi);
  SimResult er;
  ModelResult mr;
  const Outcome eo =
      catch_outcome([&] { er = sim.run(k.refs_per_core); });
  const Outcome mo =
      catch_outcome([&] { mr = model.run(k.refs_per_core); });
  if (schedule != nullptr) *schedule = model.schedule();
  if (!(eo == mo) || eo.kind == Outcome::kLogicError) {
    return "run outcome differs: engine '" + eo.what + "' model '" + mo.what +
           "'";
  }
  if (eo.kind == Outcome::kOk) {
    const std::string d = compare_results(er, mr);
    if (!d.empty()) return d;
  }
  return compare_state(sim, model);
}

// Everything a reader needs to reproduce and locate a mismatch.
std::string explain_mismatch(const Case& k, const std::string& diff) {
  std::vector<CoreId> schedule;
  run_and_compare(k, nullptr, &schedule);
  const auto prefix = [&](std::uint64_t g) {
    std::vector<std::uint64_t> limit(k.config.cores, 0);
    for (std::uint64_t i = 0; i < g; ++i) ++limit[schedule[i]];
    return limit;
  };
  // Invariant: the states agree after `lo` references and differ after
  // `hi`.  The empty prefix agrees; the full run (or the model's whole
  // schedule, if the difference only shows afterwards) differs.
  std::uint64_t lo = 0;
  std::uint64_t hi = schedule.size();
  std::string at_hi = diff;
  {
    const std::vector<std::uint64_t> all = prefix(hi);
    const std::string d = run_and_compare(k, &all);
    if (!d.empty()) at_hi = d;
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const std::vector<std::uint64_t> limit = prefix(mid);
    const std::string d = run_and_compare(k, &limit);
    if (d.empty()) {
      lo = mid;
    } else {
      hi = mid;
      at_hi = d;
    }
  }
  std::ostringstream os;
  os << "case seed " << k.seed << ", " << k.refs_per_core
     << " refs/core\n"
     << "full run: " << diff << "\n";
  if (hi > 0 && hi <= schedule.size()) {
    const CoreId core = schedule[hi - 1];
    std::uint64_t nth = 0;
    for (std::uint64_t i = 0; i + 1 < hi; ++i) nth += schedule[i] == core;
    os << "first diverging reference: #" << hi - 1 << " (core " << core
       << ", its reference #" << nth << "): " << at_hi << "\n";
  }
  os << "machine:\n" << config_to_text(k.config);
  return os.str();
}

TEST(ModelDiff, RandomMachinesMatchTheModel) {
  const auto start = std::chrono::steady_clock::now();
  // Coverage of the drawn space, checked at the end so the generator
  // cannot silently narrow.
  std::set<std::pair<int, int>> scheme_inclusion;
  std::set<std::uint32_t> depths, ways, core_counts;
  int prefetch = 0, auto_disable = 0, writebacks = 0, faults = 0, audits = 0;
  int shared_memo_slots = 0;  // L1s with more sets than the memo has slots
  int aborted = 0;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const Case k = draw_case(seed);
    const HierarchyConfig& c = k.config;
    scheme_inclusion.insert(
        {static_cast<int>(c.scheme), static_cast<int>(c.inclusion)});
    depths.insert(c.num_levels());
    for (const LevelSpec& l : c.levels) ways.insert(l.geom.ways);
    core_counts.insert(c.cores);
    prefetch += c.prefetch;
    auto_disable += c.auto_disable.enabled;
    writebacks += c.model_writebacks;
    faults += c.fault.enabled;
    audits += c.audit.enabled;
    shared_memo_slots += c.levels[0].geom.sets() > 64;

    const std::string diff = run_and_compare(k, nullptr);
    if (!diff.empty()) {
      ADD_FAILURE() << explain_mismatch(k, diff);
      return;  // one fully explained failure beats a thousand lines
    }
    if (c.audit.enabled &&
        c.audit.policy == RecoveryPolicy::kAbortRetry) {
      ++aborted;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("%llu cases in %.2f s\n",
              static_cast<unsigned long long>(kCases), seconds);
  // Six schemes on inclusive and hybrid, three on exclusive.
  EXPECT_EQ(scheme_inclusion.size(), 6u + 6u + 3u);
  EXPECT_EQ(depths.size(), 4u);  // 2..5 levels
  EXPECT_EQ(ways.size(), 16u);   // 1..16 ways
  EXPECT_GT(*core_counts.rbegin(), 8u);  // past the directory gate
  EXPECT_EQ(*core_counts.begin(), 1u);
  EXPECT_GT(prefetch, 50);
  EXPECT_GT(auto_disable, 50);
  EXPECT_GT(writebacks, 50);
  EXPECT_GT(faults, 50);
  EXPECT_GT(audits, 50);
  EXPECT_GT(aborted, 10);
  EXPECT_GT(shared_memo_slots, 100);
}

// The engine's L1 memo has one slot per L1 set up to 64 sets; this L1 has
// 128, so sets 1 and 65 share slot 1.  Writes ping-pong between line A (set
// 1) and line B (set 65), each line twice in a row: the first reference
// takes the slot from the other line, the second is a memo hit, and a
// write must dirty the L1 copy either way (B's first reference is a read,
// so a dirty latch left over from A would skip it).  Then an LLC conflict
// back-invalidates A while A still holds the slot, and A is written again:
// a memo that kept A would count a hit the model does not see.
TEST(ModelDiff, L1SetsSharingAMemoSlotMatchTheModel) {
  Case k;
  k.config = parse_config_text(R"(
cores = 1
scheme = base
inclusion = inclusive
model_writebacks = true
[level]
size = 8K
ways = 1
[level]
size = 4K
ways = 4
)");
  ASSERT_EQ(k.config.levels[0].geom.sets(), 128u);
  ASSERT_EQ(k.config.llc().geom.sets(), 16u);
  const Addr base = Addr{1} << 30;
  const auto ref = [&](LineAddr line, bool write) {
    MemRef r;
    r.addr = base + line * 64;
    r.pc = 0x1000;
    r.gap = 3;
    r.is_write = write;
    return r;
  };
  // L1 sets 1 and 65 share memo slot 1; lines 17, 33, 49 and 81 fill the
  // rest of LLC set 1 from other slots.
  const LineAddr a = 1, b = 65;
  std::vector<MemRef> t;
  for (int i = 0; i < 20; ++i) {
    t.push_back(ref(a, true));
    t.push_back(ref(a, true));
    t.push_back(ref(b, false));
    t.push_back(ref(b, true));
  }
  t.push_back(ref(17, false));
  t.push_back(ref(33, false));
  for (int i = 0; i < 4; ++i) t.push_back(ref(a, true));  // memo hits
  t.push_back(ref(49, false));  // evicts A, LRU in LLC set 1
  for (int i = 0; i < 4; ++i) t.push_back(ref(a, true));
  t.push_back(ref(b, true));
  t.push_back(ref(81, false));
  t.push_back(ref(a, false));
  k.traces.push_back(t);
  k.cpi_centi.push_back(100);
  k.refs_per_core = t.size();
  const std::string diff = run_and_compare(k, nullptr);
  EXPECT_TRUE(diff.empty()) << explain_mismatch(k, diff);
}

}  // namespace
}  // namespace redhip::model
