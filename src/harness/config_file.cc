#include "harness/config_file.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "energy/cacti_lite.h"

namespace redhip {
namespace {

[[noreturn]] void fail(int line_no, const std::string& msg) {
  std::ostringstream os;
  os << "config line " << line_no << ": " << msg;
  throw std::logic_error(os.str());
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

// "32K" / "4M" / "1G" / plain integers.  `key` makes the diagnostic name
// the offending key, not just the line.
std::uint64_t parse_size(const std::string& v, int line_no,
                         const std::string& key) {
  if (v.empty()) fail(line_no, "key '" + key + "': empty numeric value");
  std::uint64_t mult = 1;
  std::string digits = v;
  const char suffix = static_cast<char>(std::toupper(v.back()));
  if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
    mult = suffix == 'K' ? 1_KiB : suffix == 'M' ? 1_MiB : 1_GiB;
    digits = v.substr(0, v.size() - 1);
  }
  std::uint64_t parsed = 0;
  std::size_t pos = 0;
  try {
    parsed = std::stoull(digits, &pos);
  } catch (const std::exception&) {
    fail(line_no, "key '" + key + "': bad numeric value: " + v);
  }
  if (pos != digits.size()) {
    fail(line_no, "key '" + key + "': bad numeric value: " + v);
  }
  return parsed * mult;
}

double parse_double(const std::string& v, int line_no,
                    const std::string& key) {
  double parsed = 0.0;
  std::size_t pos = 0;
  try {
    parsed = std::stod(v, &pos);
  } catch (const std::exception&) {
    fail(line_no, "key '" + key + "': bad floating-point value: " + v);
  }
  if (pos != v.size()) {
    fail(line_no, "key '" + key + "': bad floating-point value: " + v);
  }
  return parsed;
}

bool parse_bool(const std::string& v, int line_no, const std::string& key) {
  const std::string l = lower(v);
  if (l == "true" || l == "1" || l == "yes" || l == "on") return true;
  if (l == "false" || l == "0" || l == "no" || l == "off") return false;
  fail(line_no, "key '" + key + "': bad boolean: " + v);
}

Scheme parse_scheme(const std::string& v, int line_no) {
  const std::string l = lower(v);
  if (l == "base") return Scheme::kBase;
  if (l == "phased") return Scheme::kPhased;
  if (l == "cbf") return Scheme::kCbf;
  if (l == "redhip") return Scheme::kRedhip;
  if (l == "oracle") return Scheme::kOracle;
  if (l == "partial-tag" || l == "partialtag") return Scheme::kPartialTag;
  fail(line_no, "unknown scheme: " + v);
}

InclusionPolicy parse_inclusion(const std::string& v, int line_no) {
  const std::string l = lower(v);
  if (l == "inclusive") return InclusionPolicy::kInclusive;
  if (l == "hybrid") return InclusionPolicy::kHybrid;
  if (l == "exclusive") return InclusionPolicy::kExclusive;
  fail(line_no, "unknown inclusion policy: " + v);
}

ReplacementKind parse_replacement(const std::string& v, int line_no) {
  const std::string l = lower(v);
  if (l == "lru") return ReplacementKind::kLru;
  if (l == "tree-plru" || l == "plru") return ReplacementKind::kTreePlru;
  if (l == "nru") return ReplacementKind::kNru;
  if (l == "random") return ReplacementKind::kRandom;
  fail(line_no, "unknown replacement policy: " + v);
}

struct PendingLevel {
  CacheGeometry geom;
  bool phased = false;
  bool split_tags = false;
};

}  // namespace

HierarchyConfig parse_config_text(const std::string& text) {
  HierarchyConfig c;
  c.levels.clear();

  std::vector<PendingLevel> levels;
  std::string section;  // "" = top level
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;

  auto finalize_levels = [&] {
    for (const auto& pl : levels) {
      LevelSpec spec;
      spec.geom = pl.geom;
      spec.energy = CactiLite::cache_params(
          pl.geom.size_bytes, pl.split_tags);
      spec.phased = pl.phased;
      c.levels.push_back(spec);
    }
  };

  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(line_no, "unterminated section header");
      section = lower(trim(line.substr(1, line.size() - 2)));
      if (section == "level") {
        levels.emplace_back();
        levels.back().geom.ways = 1;
      } else if (section != "redhip" && section != "cbf" &&
                 section != "prefetcher" && section != "auto_disable" &&
                 section != "partial_tag" && section != "fault" &&
                 section != "audit" && section != "obs") {
        fail(line_no, "unknown section: [" + section + "]");
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key = value");
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) fail(line_no, "empty value for " + key);

    if (section.empty()) {
      if (key == "cores") {
        const std::uint64_t cores = parse_size(value, line_no, key);
        if (cores < 1 || cores > HierarchyConfig::kMaxCores) {
          fail(line_no, "key 'cores': " + value + " is outside [1, " +
                            std::to_string(HierarchyConfig::kMaxCores) + "]");
        }
        c.cores = static_cast<std::uint32_t>(cores);
      } else if (key == "freq_ghz") {
        c.freq_ghz = parse_double(value, line_no, key);
      } else if (key == "scheme") {
        c.scheme = parse_scheme(value, line_no);
      } else if (key == "inclusion") {
        c.inclusion = parse_inclusion(value, line_no);
      } else if (key == "memory_latency") {
        c.memory_latency = parse_size(value, line_no, key);
      } else if (key == "memory_energy_nj") {
        c.memory_energy_nj = parse_double(value, line_no, key);
      } else if (key == "prefetch") {
        c.prefetch = parse_bool(value, line_no, key);
      } else if (key == "charge_fill_energy") {
        c.charge_fill_energy = parse_bool(value, line_no, key);
      } else if (key == "model_writebacks") {
        c.model_writebacks = parse_bool(value, line_no, key);
      } else if (key == "seed") {
        c.seed = parse_size(value, line_no, key);
      } else {
        fail(line_no, "unknown key: " + key);
      }
    } else if (section == "level") {
      PendingLevel& pl = levels.back();
      if (key == "size") {
        pl.geom.size_bytes = parse_size(value, line_no, key);
      } else if (key == "ways") {
        pl.geom.ways = static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "banks") {
        pl.geom.banks = static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "line_bytes") {
        pl.geom.line_bytes =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "replacement") {
        pl.geom.replacement = parse_replacement(value, line_no);
      } else if (key == "phased") {
        pl.phased = parse_bool(value, line_no, key);
      } else if (key == "split_tags") {
        pl.split_tags = parse_bool(value, line_no, key);
      } else {
        fail(line_no, "unknown [level] key: " + key);
      }
    } else if (section == "redhip") {
      if (key == "table_bits") {
        c.redhip.table_bits = parse_size(value, line_no, key);
      } else if (key == "recal_interval") {
        c.redhip.recal_interval_l1_misses = parse_size(value, line_no, key);
      } else if (key == "banks") {
        c.redhip.banks =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "recal_mode") {
        const std::string l = lower(value);
        if (l == "batch") {
          c.redhip.recal_mode = RecalMode::kBatch;
        } else if (l == "rolling") {
          c.redhip.recal_mode = RecalMode::kRolling;
        } else {
          fail(line_no, "unknown recal_mode: " + value);
        }
      } else {
        fail(line_no, "unknown [redhip] key: " + key);
      }
    } else if (section == "cbf") {
      if (key == "index_bits") {
        c.cbf.index_bits =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "counter_bits") {
        c.cbf.counter_bits =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else {
        fail(line_no, "unknown [cbf] key: " + key);
      }
    } else if (section == "partial_tag") {
      if (key == "partial_bits") {
        c.partial_tag.partial_bits =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else {
        fail(line_no, "unknown [partial_tag] key: " + key);
      }
    } else if (section == "prefetcher") {
      if (key == "index_bits") {
        c.prefetcher.index_bits =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "degree") {
        c.prefetcher.degree =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "distance") {
        c.prefetcher.distance =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else {
        fail(line_no, "unknown [prefetcher] key: " + key);
      }
    } else if (section == "fault") {
      if (key == "enabled") {
        c.fault.enabled = parse_bool(value, line_no, key);
      } else if (key == "rate_per_mref") {
        c.fault.rate_per_mref =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "sites") {
        try {
          c.fault.site_mask = parse_fault_sites(value);
        } catch (const std::exception& e) {
          fail(line_no, "key 'sites': " + std::string(e.what()));
        }
      } else if (key == "seed") {
        c.fault.seed = parse_size(value, line_no, key);
      } else if (key == "transient") {
        c.fault.transient = parse_bool(value, line_no, key);
      } else {
        fail(line_no, "unknown [fault] key: " + key);
      }
    } else if (section == "audit") {
      if (key == "enabled") {
        c.audit.enabled = parse_bool(value, line_no, key);
      } else if (key == "policy") {
        const std::string l = lower(value);
        if (l == "count-only") {
          c.audit.policy = RecoveryPolicy::kCountOnly;
        } else if (l == "recalibrate") {
          c.audit.policy = RecoveryPolicy::kRecalibrate;
        } else if (l == "abort-retry") {
          c.audit.policy = RecoveryPolicy::kAbortRetry;
        } else {
          fail(line_no, "key 'policy': unknown recovery policy: " + value);
        }
      } else {
        fail(line_no, "unknown [audit] key: " + key);
      }
    } else if (section == "obs") {
      if (key == "enabled") {
        c.obs.enabled = parse_bool(value, line_no, key);
      } else if (key == "epoch_refs") {
        c.obs.epoch_refs = parse_size(value, line_no, key);
      } else if (key == "epoch_cycles") {
        c.obs.epoch_cycles = parse_size(value, line_no, key);
      } else if (key == "trace_path") {
        c.obs.trace_path = value;
      } else if (key == "timing") {
        c.obs.timing = parse_bool(value, line_no, key);
      } else {
        fail(line_no, "unknown [obs] key: " + key);
      }
    } else if (section == "auto_disable") {
      if (key == "enabled") {
        c.auto_disable.enabled = parse_bool(value, line_no, key);
      } else if (key == "epoch_refs") {
        c.auto_disable.epoch_refs = parse_size(value, line_no, key);
      } else if (key == "min_l1_miss_ppm") {
        c.auto_disable.min_l1_miss_ppm =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else if (key == "min_bypass_ppm") {
        c.auto_disable.min_bypass_ppm =
            static_cast<std::uint32_t>(parse_size(value, line_no, key));
      } else {
        fail(line_no, "unknown [auto_disable] key: " + key);
      }
    }
  }

  if (levels.empty()) {
    throw std::logic_error("config defines no [level] sections");
  }
  finalize_levels();
  // Default predictor energy against the defined structures.
  c.redhip.energy = CactiLite::pt_params(std::max<std::uint64_t>(
      8, c.redhip.table_bits / 8));
  c.cbf.energy = c.redhip.energy;
  c.partial_tag.energy = CactiLite::pt_params(std::max<std::uint64_t>(
      8, c.levels.back().geom.lines() * (c.partial_tag.partial_bits + 1) / 8));
  c.validate();
  return c;
}

HierarchyConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  REDHIP_CHECK_MSG(in.good(), "cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_config_text(buf.str());
}

std::string config_to_text(const HierarchyConfig& config) {
  // Doubles print in their shortest round-trip form, so reparsing yields
  // the same bits.
  const auto real = [](double v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
  };
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  std::ostringstream os;
  os << "cores = " << config.cores << "\n";
  os << "freq_ghz = " << real(config.freq_ghz) << "\n";
  os << "scheme = " << [&] {
    std::string s = to_string(config.scheme);
    for (char& ch : s) ch = static_cast<char>(std::tolower(ch));
    return s == "partialtag" ? std::string("partial-tag") : s;
  }() << "\n";
  os << "inclusion = " << to_string(config.inclusion) << "\n";
  os << "memory_latency = " << config.memory_latency << "\n";
  os << "memory_energy_nj = " << real(config.memory_energy_nj) << "\n";
  os << "prefetch = " << flag(config.prefetch) << "\n";
  os << "charge_fill_energy = " << flag(config.charge_fill_energy) << "\n";
  os << "model_writebacks = " << flag(config.model_writebacks) << "\n";
  os << "seed = " << config.seed << "\n";
  for (const auto& lvl : config.levels) {
    os << "\n[level]\n";
    os << "size = " << lvl.geom.size_bytes << "\n";
    os << "ways = " << lvl.geom.ways << "\n";
    os << "banks = " << lvl.geom.banks << "\n";
    os << "line_bytes = " << lvl.geom.line_bytes << "\n";
    os << "replacement = " << to_string(lvl.geom.replacement) << "\n";
    os << "phased = " << flag(lvl.phased) << "\n";
    os << "split_tags = " << flag(lvl.energy.tag_energy_nj > 0) << "\n";
  }
  os << "\n[redhip]\n";
  os << "table_bits = " << config.redhip.table_bits << "\n";
  os << "recal_interval = " << config.redhip.recal_interval_l1_misses << "\n";
  os << "recal_mode = " << to_string(config.redhip.recal_mode) << "\n";
  os << "banks = " << config.redhip.banks << "\n";
  os << "\n[cbf]\n";
  os << "index_bits = " << config.cbf.index_bits << "\n";
  os << "counter_bits = " << config.cbf.counter_bits << "\n";
  os << "\n[partial_tag]\n";
  os << "partial_bits = " << config.partial_tag.partial_bits << "\n";
  os << "\n[prefetcher]\n";
  os << "index_bits = " << config.prefetcher.index_bits << "\n";
  os << "degree = " << config.prefetcher.degree << "\n";
  os << "distance = " << config.prefetcher.distance << "\n";
  os << "\n[auto_disable]\n";
  os << "enabled = " << flag(config.auto_disable.enabled) << "\n";
  os << "epoch_refs = " << config.auto_disable.epoch_refs << "\n";
  os << "min_l1_miss_ppm = " << config.auto_disable.min_l1_miss_ppm << "\n";
  os << "min_bypass_ppm = " << config.auto_disable.min_bypass_ppm << "\n";
  os << "\n[fault]\n";
  os << "enabled = " << flag(config.fault.enabled) << "\n";
  os << "rate_per_mref = " << config.fault.rate_per_mref << "\n";
  // An empty mask has no textual form (the parser rejects empty values);
  // it is only valid on a disabled fault config.
  if (config.fault.site_mask != 0) {
    os << "sites = " << fault_sites_to_string(config.fault.site_mask) << "\n";
  }
  os << "seed = " << config.fault.seed << "\n";
  os << "transient = " << flag(config.fault.transient) << "\n";
  os << "\n[audit]\n";
  os << "enabled = " << flag(config.audit.enabled) << "\n";
  os << "policy = " << to_string(config.audit.policy) << "\n";
  os << "\n[obs]\n";
  os << "enabled = " << flag(config.obs.enabled) << "\n";
  os << "epoch_refs = " << config.obs.epoch_refs << "\n";
  os << "epoch_cycles = " << config.obs.epoch_cycles << "\n";
  if (!config.obs.trace_path.empty()) {
    os << "trace_path = " << config.obs.trace_path << "\n";
  }
  os << "timing = " << flag(config.obs.timing) << "\n";
  return os.str();
}

}  // namespace redhip
