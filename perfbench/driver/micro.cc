#include "micro.h"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/tag_array.h"
#include "predict/redhip_table.h"
#include "prefetch/stride_prefetcher.h"

namespace perfbench {

using namespace redhip;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void measure_layers(const RunSpec& spec, std::uint64_t refs_per_core,
                    MicroTotals& acc) {
  const HierarchyConfig config = resolved_config(spec);
  constexpr std::size_t kChunk = 256;

  std::vector<std::unique_ptr<TraceSource>> traces;
  for (CoreId c = 0; c < config.cores; ++c) {
    traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
  }
  std::vector<MemRef> refs(refs_per_core * config.cores);
  std::size_t n = 0;
  for (std::uint64_t done = 0; done < refs_per_core; done += kChunk) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk,
                                                         refs_per_core - done));
    for (auto& t : traces) n += t->next_batch(&refs[n], want);
  }
  refs.resize(n);

  const CacheGeometry& geom = config.llc().geom;
  const std::uint32_t shift = geom.line_shift();
  std::vector<LineAddr> lines(refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    lines[i] = refs[i].addr >> shift;
  }

  // Untimed warm-up replay: a demand LLC that fills on every miss, and the
  // PT trained on those fills.  Its misses are the fill stream below.
  TagArray llc(geom, config.seed);
  RedhipTable pt(config.redhip);
  std::vector<LineAddr> misses;
  for (LineAddr line : lines) {
    if (!llc.lookup(line).hit) {
      llc.fill(line);
      pt.on_fill(line);
      misses.push_back(line);
    }
  }
  if (misses.empty()) throw std::runtime_error("layer replay had no misses");

  std::uint64_t sink = 0;
  auto t0 = Clock::now();
  for (LineAddr line : lines) sink += llc.lookup(line).hit;
  acc.lookup_s += since(t0);
  acc.lookups += lines.size();

  TagArray fresh(geom, config.seed);
  TagArray::FillResult fr;
  t0 = Clock::now();
  for (LineAddr line : misses) sink += fresh.fill_if_absent(line, false, false, &fr);
  acc.fill_s += since(t0);
  acc.fills += misses.size();

  t0 = Clock::now();
  for (LineAddr line : lines) sink += pt.query(line) == Prediction::kPresent;
  acc.query_s += since(t0);
  acc.queries += lines.size();

  RedhipTable pt_fresh(config.redhip);
  t0 = Clock::now();
  for (LineAddr line : misses) pt_fresh.on_fill(line);
  acc.pt_fill_s += since(t0);
  acc.pt_fills += misses.size();
  sink += pt_fresh.bits_set();

  t0 = Clock::now();
  sink += pt.recalibrate(llc);
  acc.recal_s += since(t0);
  ++acc.recals;

  StridePrefetcher pf(config.prefetcher);
  std::vector<LineAddr> issued;
  issued.reserve(4096 + 64);
  t0 = Clock::now();
  for (const MemRef& r : refs) {
    pf.observe(r.pc, r.addr, issued);
    if (issued.size() >= 4096) {
      sink += issued.size();
      issued.clear();
    }
  }
  acc.observe_s += since(t0);
  acc.observes += refs.size();

  // Keep every timed loop's result observable.
  if (sink == 0xFFFFFFFFFFFFFFFFull) throw std::runtime_error("unreachable");
}

}  // namespace perfbench
