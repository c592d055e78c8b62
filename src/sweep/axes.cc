#include "sweep/axes.h"

#include <algorithm>
#include <cstdlib>

#include "common/bitops.h"
#include "common/parse_number.h"
#include "energy/cacti_lite.h"

namespace redhip {
namespace {

[[noreturn]] void axis_error(const std::string& axis, const std::string& what) {
  Status(StatusCode::kInvalidArgument, "--axis " + axis + ": " + what)
      .throw_if_error();
  std::abort();  // unreachable: the Status above is never OK
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// "512K" / "2M" / "64" with binary (KiB/MiB/GiB) magnitudes — sizes.
bool parse_size_bytes(const std::string& v, std::uint64_t& out) {
  return parse_magnitude(v, 1024, out);
}

// "10K" / "1M" / "250000" with decimal (1e3/1e6/1e9) magnitudes — counts,
// matching Fig. 12's interval labels.
bool parse_count(const std::string& v, std::uint64_t& out) {
  return parse_magnitude(v, 1000, out);
}

SweepAxis workload_axis(const std::string& axis, std::vector<std::string> vals,
                        const ExperimentOptions& opts) {
  SweepAxis out{"workload", {}};
  std::vector<BenchmarkId> ids;
  if (vals.size() == 1 && vals[0] == "all") {
    ids = opts.benches;
  } else {
    for (const std::string& v : vals) {
      Result<BenchmarkId> id = benchmark_from_name(v);
      if (!id.ok()) axis_error(axis, id.status().message());
      ids.push_back(id.value());
    }
  }
  for (BenchmarkId id : ids) {
    out.values.push_back({to_string(id), [id](RunSpec& s) { s.bench = id; }});
  }
  return out;
}

SweepAxis scheme_axis(const std::string& axis,
                      const std::vector<std::string>& vals) {
  static const Scheme kAll[] = {Scheme::kBase,   Scheme::kPhased,
                                Scheme::kCbf,    Scheme::kRedhip,
                                Scheme::kOracle, Scheme::kPartialTag};
  SweepAxis out{"scheme", {}};
  for (const std::string& v : vals) {
    const Scheme* match = nullptr;
    for (const Scheme& s : kAll) {
      if (to_string(s) == v) {
        match = &s;
        break;
      }
    }
    if (match == nullptr) axis_error(axis, "unknown scheme '" + v + "'");
    const Scheme s = *match;
    out.values.push_back({v, [s](RunSpec& spec) { spec.scheme = s; }});
  }
  return out;
}

SweepAxis inclusion_axis(const std::string& axis,
                         const std::vector<std::string>& vals) {
  static const InclusionPolicy kAll[] = {InclusionPolicy::kInclusive,
                                         InclusionPolicy::kHybrid,
                                         InclusionPolicy::kExclusive};
  SweepAxis out{"inclusion", {}};
  for (const std::string& v : vals) {
    const InclusionPolicy* match = nullptr;
    for (const InclusionPolicy& p : kAll) {
      if (to_string(p) == v) {
        match = &p;
        break;
      }
    }
    if (match == nullptr) axis_error(axis, "unknown inclusion policy '" + v + "'");
    const InclusionPolicy p = *match;
    out.values.push_back({v, [p](RunSpec& spec) { spec.inclusion = p; }});
  }
  return out;
}

SweepAxis prefetch_axis(const std::string& axis,
                        const std::vector<std::string>& vals) {
  SweepAxis out{"prefetch", {}};
  for (const std::string& v : vals) {
    bool on = false;
    if (v == "on" || v == "1" || v == "true") {
      on = true;
    } else if (v != "off" && v != "0" && v != "false") {
      axis_error(axis, "expected on/off, got '" + v + "'");
    }
    out.values.push_back({v, [on](RunSpec& spec) { spec.prefetch = on; }});
  }
  return out;
}

// Fig. 11's design points: the PT resized relative to its 512K default,
// accuracy effect only (the energy parameters stay at the default table's
// pricing, mirroring the paper's "ignore the prediction overhead" for
// these results).
SweepAxis table_size_axis(const std::string& axis,
                          const std::vector<std::string>& vals) {
  SweepAxis out{"table-size", {}};
  constexpr std::uint64_t kDefaultBytes = 512ull << 10;
  for (const std::string& v : vals) {
    std::uint64_t bytes = 0;
    if (!parse_size_bytes(v, bytes) || !is_pow2(bytes)) {
      axis_error(axis, "expected a power-of-two size (e.g. 512K, 2M), got '" +
                           v + "'");
    }
    out.values.push_back({v, [bytes](RunSpec& spec) {
      chain_tweak(spec, [bytes](HierarchyConfig& c) {
        c.redhip.table_bits =
            bytes >= kDefaultBytes
                ? c.redhip.table_bits * (bytes / kDefaultBytes)
                : c.redhip.table_bits / (kDefaultBytes / bytes);
      });
    }});
  }
  return out;
}

// Fig. 12's design points: a paper-scale interval divided by `scale` like
// the rest of the machine; "inf" = never recalibrate, "1" = every miss.
SweepAxis recal_interval_axis(const std::string& axis,
                              const std::vector<std::string>& vals,
                              const ExperimentOptions& opts) {
  SweepAxis out{"recal-interval", {}};
  for (const std::string& v : vals) {
    std::uint64_t interval = 0;
    if (v != "inf" && !parse_count(v, interval)) {
      axis_error(axis, "expected a count (e.g. 1M, 10K) or inf, got '" + v +
                           "'");
    }
    const std::uint32_t scale = opts.scale;
    out.values.push_back({v, [interval, scale](RunSpec& spec) {
      chain_tweak(spec, [interval, scale](HierarchyConfig& c) {
        c.redhip.recal_interval_l1_misses =
            interval == 0 ? 0
                          : std::max<std::uint64_t>(1, interval / scale);
      });
    }});
  }
  return out;
}

SweepAxis depth_axis(const std::string& axis,
                     const std::vector<std::string>& vals,
                     const ExperimentOptions& opts) {
  SweepAxis out{"depth", {}};
  for (const std::string& v : vals) {
    std::uint64_t depth = 0;
    if (!parse_count(v, depth) || depth < 2 || depth > 5) {
      axis_error(axis, "supported depths are 2..5, got '" + v + "'");
    }
    const std::uint32_t d = static_cast<std::uint32_t>(depth);
    const std::uint32_t scale = opts.scale;
    out.values.push_back({v, [d, scale](RunSpec& spec) {
      chain_tweak(spec, [d, scale](HierarchyConfig& c) {
        c = HierarchyConfig::with_depth(d, scale, c.scheme);
      });
    }});
  }
  return out;
}

// Paper-scale LLC capacity; the predictors re-derive against the new LLC
// exactly as HierarchyConfig::with_depth does.
SweepAxis llc_capacity_axis(const std::string& axis,
                            const std::vector<std::string>& vals,
                            const ExperimentOptions& opts) {
  SweepAxis out{"llc-capacity", {}};
  for (const std::string& v : vals) {
    std::uint64_t bytes = 0;
    if (!parse_size_bytes(v, bytes) || !is_pow2(bytes)) {
      axis_error(axis, "expected a power-of-two size (e.g. 64M), got '" + v +
                           "'");
    }
    const std::uint32_t scale = opts.scale;
    out.values.push_back({v, [bytes, scale](RunSpec& spec) {
      chain_tweak(spec, [bytes, scale](HierarchyConfig& c) {
        LevelSpec& llc = c.levels.back();
        llc.geom.size_bytes = bytes / scale;
        llc.energy = CactiLite::cache_params(llc.geom.size_bytes, true);
        c.size_predictors_from_llc();
      });
    }});
  }
  return out;
}

// Statistical sampling: "off" or "period/window[/warmup]" in decimal counts
// (e.g. "6M/10K/100K"; an omitted warmup means none — see DESIGN.md
// "Statistical sampling" for why that biases the windows).  The plan's fit
// against refs_per_core is validated by run_spec at run time (refs may
// themselves be swept); only the shape is checked here.
SweepAxis sample_axis(const std::string& axis,
                      const std::vector<std::string>& vals) {
  SweepAxis out{"sample", {}};
  for (const std::string& v : vals) {
    SamplingPlan plan;
    if (v != "off") {
      std::vector<std::string> parts;
      std::size_t start = 0;
      while (start <= v.size()) {
        const std::size_t slash = v.find('/', start);
        const std::size_t end = slash == std::string::npos ? v.size() : slash;
        parts.push_back(v.substr(start, end - start));
        if (slash == std::string::npos) break;
        start = slash + 1;
      }
      if (parts.size() < 2 || parts.size() > 3 ||
          !parse_count(parts[0], plan.period_refs) ||
          !parse_count(parts[1], plan.window_refs) ||
          (parts.size() >= 3 && !parse_count(parts[2], plan.warmup_refs))) {
        axis_error(axis,
                   "expected off or period/window[/warmup] counts "
                   "(e.g. 6M/10K/100K), got '" + v + "'");
      }
      plan.mode = SampleMode::kInterval;
    }
    out.values.push_back({v, [plan](RunSpec& s) { s.sampling = plan; }});
  }
  return out;
}

// `max` bounds the value to what the RunSpec field can hold.
SweepAxis numeric_axis(const std::string& axis, const std::string& name,
                       const std::vector<std::string>& vals, std::uint64_t max,
                       void (*set)(RunSpec&, std::uint64_t)) {
  SweepAxis out{name, {}};
  for (const std::string& v : vals) {
    std::uint64_t value = 0;
    if (!parse_count(v, value) || value > max) {
      axis_error(axis, "expected a number in [0, " + std::to_string(max) +
                           "], got '" + v + "'");
    }
    out.values.push_back({v, [set, value](RunSpec& s) { set(s, value); }});
  }
  return out;
}

}  // namespace

SweepAxis make_named_axis(const std::string& axis_spec,
                          const ExperimentOptions& opts) {
  const std::size_t eq = axis_spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    axis_error(axis_spec, "expected name=v1,v2,...");
  }
  const std::string name = axis_spec.substr(0, eq);
  const std::vector<std::string> vals = split_csv(axis_spec.substr(eq + 1));
  if (vals.empty()) axis_error(axis_spec, "no values");

  if (name == "workload") return workload_axis(axis_spec, vals, opts);
  if (name == "scheme") return scheme_axis(axis_spec, vals);
  if (name == "inclusion") return inclusion_axis(axis_spec, vals);
  if (name == "prefetch") return prefetch_axis(axis_spec, vals);
  if (name == "table-size") return table_size_axis(axis_spec, vals);
  if (name == "recal-interval") {
    return recal_interval_axis(axis_spec, vals, opts);
  }
  if (name == "depth") return depth_axis(axis_spec, vals, opts);
  if (name == "llc-capacity") return llc_capacity_axis(axis_spec, vals, opts);
  if (name == "sample") return sample_axis(axis_spec, vals);
  constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
  if (name == "scale") {
    return numeric_axis(axis_spec, "scale", vals, 0xFFFF'FFFFu,
                        [](RunSpec& s, std::uint64_t v) {
                          s.scale = static_cast<std::uint32_t>(v);
                        });
  }
  if (name == "refs") {
    return numeric_axis(
        axis_spec, "refs", vals, kU64Max,
        [](RunSpec& s, std::uint64_t v) { s.refs_per_core = v; });
  }
  if (name == "seed") {
    return numeric_axis(axis_spec, "seed", vals, kU64Max,
                        [](RunSpec& s, std::uint64_t v) { s.seed = v; });
  }

  std::string known;
  for (const std::string& k : known_axis_names()) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  axis_error(axis_spec, "unknown axis '" + name + "' (known: " + known + ")");
}

SweepSpec make_sweep_spec(const ExperimentOptions& opts,
                          const std::vector<std::string>& axis_specs) {
  SweepSpec spec;
  spec.base.scheme = Scheme::kRedhip;
  spec.base.scale = opts.scale;
  spec.base.refs_per_core = opts.refs_per_core;
  spec.base.seed = opts.seed;
  spec.base.sampling = opts.sampling;
  for (const std::string& axis : axis_specs) {
    spec.axes.push_back(make_named_axis(axis, opts));
  }
  return spec;
}

const std::vector<std::string>& known_axis_names() {
  static const std::vector<std::string> kNames = {
      "workload", "scheme", "inclusion",    "prefetch", "table-size",
      "recal-interval", "depth", "llc-capacity", "sample", "scale",
      "refs", "seed"};
  return kNames;
}

}  // namespace redhip
