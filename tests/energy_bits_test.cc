// Priced energy must not depend on the instruction set the simulator was
// built for.  With FMA available (-march=native), a compiler may contract
// the ledger's multiply-adds and change the last bit of a level's energy;
// src/CMakeLists.txt turns contraction off for every simulator target.
// These cells are ones where contraction did change a bit.  The values are
// pinned as exact bit patterns (hex floats), because json_report prints six
// significant digits and the golden corpus cannot see a last-bit change.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/run.h"

namespace redhip {
namespace {

std::string bits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Every priced double of a run, in a fixed order: per-level dynamic energy,
// then predictor, recalibration, prefetcher, memory, leakage, elapsed time.
std::vector<std::string> priced_bits(const SimResult& r) {
  std::vector<std::string> out;
  for (double j : r.energy.level_dynamic_j) out.push_back(bits(j));
  for (double v : {r.energy.predictor_dynamic_j, r.energy.recalibration_j,
                   r.energy.prefetcher_j, r.energy.memory_j,
                   r.energy.leakage_j, r.elapsed_seconds}) {
    out.push_back(bits(v));
  }
  return out;
}

struct PinnedCell {
  BenchmarkId bench;
  Scheme scheme;
  std::vector<std::string> expected;
};

TEST(EnergyBits, PricedEnergyIsIdenticalOnEveryIsa) {
  const std::vector<PinnedCell> cells = {
      {BenchmarkId::kBwaves,
       Scheme::kBase,
       {"0x1.a56bf1328f83p-19", "0x1.eaa4e8ea1c5bbp-21",
        "0x1.6705dca708132p-17", "0x1.da8f68cd6b1a7p-14", "0x0p+0", "0x0p+0",
        "0x0p+0", "0x0p+0", "0x1.1a29d110b5fc7p-12",
        "0x1.d62506e67b6dap-12"}},
      {BenchmarkId::kBwaves,
       Scheme::kRedhip,
       {"0x1.a56bf1328f83p-19", "0x1.8b5453efb3c7fp-25",
        "0x1.a1a6b8ae67b08p-22", "0x1.ecf18855f9472p-19",
        "0x1.dd66bb2d4d2fep-21", "0x1.16e3bbb415d6fp-21", "0x0p+0", "0x0p+0",
        "0x1.0ef1cd48543e2p-12", "0x1.c2fb67bfd7c6dp-12"}},
      {BenchmarkId::kLbm,
       Scheme::kRedhip,
       {"0x1.a56bf1328f83p-19", "0x1.19c6ffe97d6b1p-24",
        "0x1.a274bb48a1a22p-21", "0x1.15ad475ab756dp-17",
        "0x1.c78cd1b707eafp-21", "0x1.07aaec6d32023p-21", "0x0p+0", "0x0p+0",
        "0x1.65644dd267896p-13", "0x1.296f9a7843f11p-12"}},
  };
  for (const PinnedCell& cell : cells) {
    RunSpec spec;
    spec.bench = cell.bench;
    spec.scheme = cell.scheme;
    spec.scale = 8;
    spec.refs_per_core = 120'000;
    spec.seed = 42;
    const std::vector<std::string> got = priced_bits(run_spec(spec));
    std::string printed;
    for (const std::string& s : got) printed += "\"" + s + "\", ";
    EXPECT_EQ(got, cell.expected)
        << to_string(cell.bench) << "/" << to_string(cell.scheme)
        << " priced as {" << printed << "}";
  }
}

}  // namespace
}  // namespace redhip
