#include "common/cli.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "common/parse_number.h"

namespace redhip {
namespace {

std::string to_env_name(const std::string& prefix, const std::string& name) {
  std::string out = prefix;
  for (char c : name) {
    out += (c == '-') ? '_' : static_cast<char>(std::toupper(c));
  }
  return out;
}

Status bad_value(const std::string& name, const std::string& value,
                 const std::string& why) {
  return Status(StatusCode::kInvalidArgument,
                "--" + name + "=" + value + ": " + why);
}

// Strict integral parse: the whole string, no sign for unsigned types, no
// leading whitespace (std::from_chars already rejects both, but the sign
// case gets its own diagnostic because `--refs=-1` is the classic typo that
// std::stoull would wrap to 2^64-1).
template <typename T>
Result<T> parse_integer(const std::string& name, const std::string& value) {
  if (value.empty()) {
    return bad_value(name, value, "expected a decimal integer");
  }
  if constexpr (!std::is_signed_v<T>) {
    if (value[0] == '-' || value[0] == '+') {
      return bad_value(name, value,
                       "unsigned flag does not accept a sign");
    }
  }
  T out{};
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec == std::errc::result_out_of_range) {
    return bad_value(name, value, "integer out of range");
  }
  if (ec != std::errc() || ptr != end) {
    return bad_value(name, value, "expected a decimal integer");
  }
  return out;
}

}  // namespace

CliOptions::CliOptions(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)].push_back(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg].push_back(argv[++i]);
    } else {
      values_[arg].push_back("1");  // bare flag
    }
  }
}

std::string CliOptions::get(const std::string& name,
                            const std::string& def) const {
  auto it = values_.find(name);
  if (it != values_.end()) return it->second.back();
  if (const char* env = std::getenv(to_env_name(env_prefix_, name).c_str())) {
    return env;
  }
  return def;
}

std::vector<std::string> CliOptions::get_all(const std::string& name) const {
  auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  if (const char* env = std::getenv(to_env_name(env_prefix_, name).c_str())) {
    return {env};
  }
  return {};
}

Result<std::int64_t> CliOptions::try_get_int(const std::string& name,
                                             std::int64_t def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  return parse_integer<std::int64_t>(name, v);
}

Result<std::uint64_t> CliOptions::try_get_uint64(const std::string& name,
                                                 std::uint64_t def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  return parse_integer<std::uint64_t>(name, v);
}

Result<double> CliOptions::try_get_double(const std::string& name,
                                          double def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  double out = 0.0;
  const std::errc ec = parse_real(v, out);
  if (ec == std::errc::result_out_of_range) {
    return bad_value(name, v, "number out of range");
  }
  if (ec != std::errc()) return bad_value(name, v, "expected a number");
  return out;
}

std::int64_t CliOptions::get_int(const std::string& name,
                                 std::int64_t def) const {
  return try_get_int(name, def).value();
}

std::uint64_t CliOptions::get_uint64(const std::string& name,
                                     std::uint64_t def) const {
  return try_get_uint64(name, def).value();
}

double CliOptions::get_double(const std::string& name, double def) const {
  return try_get_double(name, def).value();
}

bool CliOptions::get_bool(const std::string& name, bool def) const {
  std::string v = get(name, "");
  if (v.empty()) return def;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

bool CliOptions::has(const std::string& name) const {
  if (values_.count(name)) return true;
  return std::getenv(to_env_name(env_prefix_, name).c_str()) != nullptr;
}

}  // namespace redhip
