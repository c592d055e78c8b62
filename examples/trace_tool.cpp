// trace_tool — command-line utility for the binary trace format.
//
//   trace_tool gen --bench mcf --core 0 --refs 500000 --out mcf0.trace
//       Generate a synthetic workload trace file.
//   trace_tool info --in mcf0.trace
//       Print header and summary statistics (address footprint, write
//       fraction, gap distribution) of a trace file.
//   trace_tool convert --in refs.txt --out refs.trace
//       Convert a text trace (one "R|W <addr-hex> <pc-hex> <gap>" per line,
//       the natural output of a pintool) to the binary format.
//
// Run with no arguments for a self-demo (gen + info on a temp file).
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "common/cli.h"
#include "harness/report.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

using namespace redhip;

namespace {

int cmd_gen(const CliOptions& opts, const std::string& out) {
  const std::string bench_name = opts.get("bench", "mcf");
  const BenchmarkId bench = benchmark_from_name(bench_name).value();
  const CoreId core = static_cast<CoreId>(opts.get_int("core", 0));
  const std::uint64_t refs =
      static_cast<std::uint64_t>(opts.get_int("refs", 100'000));
  const std::uint32_t scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 8));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));

  auto src = make_workload(bench, core, scale, seed);
  TraceWriter writer(out);
  MemRef m;
  for (std::uint64_t i = 0; i < refs && src->next(m); ++i) writer.append(m);
  writer.finish();
  std::printf("wrote %llu records of %s (core %u, scale 1/%u) to %s\n",
              static_cast<unsigned long long>(writer.records_written()),
              to_string(bench).c_str(), core, scale, out.c_str());
  return 0;
}

int cmd_info(const std::string& in) {
  FileTraceSource src(in);
  std::printf("%s: %llu records\n", in.c_str(),
              static_cast<unsigned long long>(src.record_count()));

  MemRef m;
  std::uint64_t reads = 0, writes = 0, gaps = 0;
  std::set<LineAddr> lines;
  std::set<std::uint32_t> pcs;
  Addr lo = ~Addr{0}, hi = 0;
  std::map<std::uint16_t, std::uint64_t> gap_hist;
  while (src.next(m)) {
    (m.is_write ? writes : reads) += 1;
    gaps += m.gap;
    ++gap_hist[m.gap];
    lines.insert(m.addr >> kDefaultLineShift);
    pcs.insert(m.pc);
    lo = std::min(lo, m.addr);
    hi = std::max(hi, m.addr);
  }
  const double total = static_cast<double>(reads + writes);
  if (total == 0) {
    std::printf("empty trace\n");
    return 0;
  }
  TablePrinter t({"statistic", "value"});
  t.add_row({"reads", std::to_string(reads)});
  t.add_row({"writes", std::to_string(writes)});
  t.add_row({"write fraction", pct(static_cast<double>(writes) / total)});
  t.add_row({"distinct lines", std::to_string(lines.size())});
  t.add_row({"footprint",
             fixed(static_cast<double>(lines.size() * kDefaultLineBytes) /
                       (1024.0 * 1024.0),
                   1) + " MB"});
  t.add_row({"distinct PCs", std::to_string(pcs.size())});
  t.add_row({"mean gap", fixed(static_cast<double>(gaps) / total, 2)});
  char span[64];
  std::snprintf(span, sizeof(span), "0x%" PRIx64 "..0x%" PRIx64, lo, hi);
  t.add_row({"address span", span});
  t.print();
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out) {
  std::ifstream text(in);
  if (!text.good()) {
    std::fprintf(stderr, "cannot open %s\n", in.c_str());
    return 1;
  }
  TraceWriter writer(out);
  std::string kind;
  std::uint64_t addr, pc, gap;
  std::uint64_t line_no = 0;
  while (text >> kind >> std::hex >> addr >> pc >> std::dec >> gap) {
    ++line_no;
    if (kind != "R" && kind != "W") {
      std::fprintf(stderr, "line %llu: expected R or W, got '%s'\n",
                   static_cast<unsigned long long>(line_no), kind.c_str());
      return 1;
    }
    writer.append(MemRef{addr, static_cast<std::uint32_t>(pc),
                         static_cast<std::uint16_t>(gap), kind == "W"});
  }
  writer.finish();
  std::printf("converted %llu records -> %s\n",
              static_cast<unsigned long long>(writer.records_written()),
              out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts(argc, argv);
  const auto& pos = opts.positional();
  const std::string cmd = pos.empty() ? "demo" : pos[0];

  if (cmd == "gen") {
    return cmd_gen(opts, opts.get("out", "out.trace"));
  }
  if (cmd == "info") {
    return cmd_info(opts.get("in", "out.trace"));
  }
  if (cmd == "convert") {
    return cmd_convert(opts.get("in", "in.txt"), opts.get("out", "out.trace"));
  }
  if (cmd == "demo") {
    std::printf("trace_tool self-demo (see the header comment for usage)\n\n");
    const char* argv_gen[] = {"trace_tool", "--refs", "50000"};
    CliOptions gen_opts(3, const_cast<char**>(argv_gen));
    const std::string tmp = "/tmp/redhip_trace_tool_demo.trace";
    cmd_gen(gen_opts, tmp);
    std::printf("\n");
    cmd_info(tmp);
    std::remove(tmp.c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s' (gen | info | convert)\n",
               cmd.c_str());
  return 1;
}
