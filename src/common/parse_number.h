// Checked parsers for numbers in text: sweep axis values, config-file
// keys and command-line flags.  Each takes the whole string or nothing:
// no sign on an unsigned value, no leading space, no trailing text, no
// wraparound.  (std::stoull accepts "-1" and returns 2^64-1.)
#pragma once

#include <cerrno>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <system_error>

namespace redhip {

// A decimal integer with an optional K/M/G suffix worth unit^1/2/3.
// Fails closed on malformed text and on a value past 2^64-1 (the multiply
// is checked, so "20000000000G" is an error rather than a wrapped number).
inline bool parse_magnitude(const std::string& v, std::uint64_t unit,
                            std::uint64_t& out) {
  if (v.empty()) return false;
  std::uint64_t mult = 1;
  std::size_t digits = v.size();
  switch (v.back()) {
    case 'K': mult = unit; --digits; break;
    case 'M': mult = unit * unit; --digits; break;
    case 'G': mult = unit * unit * unit; --digits; break;
    default: break;
  }
  if (digits == 0) return false;
  std::uint64_t base = 0;
  const char* begin = v.data();
  const auto [ptr, ec] = std::from_chars(begin, begin + digits, base);
  if (ec != std::errc() || ptr != begin + digits) return false;
  return !__builtin_mul_overflow(base, mult, &out);
}

// A floating-point number (strtod's grammar) spanning the whole string.
// Returns std::errc::invalid_argument for anything else, leading space
// included, and std::errc::result_out_of_range on overflow.
inline std::errc parse_real(const std::string& v, double& out) {
  if (v.empty() || std::isspace(static_cast<unsigned char>(v[0]))) {
    return std::errc::invalid_argument;
  }
  errno = 0;
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size()) return std::errc::invalid_argument;
  if (errno == ERANGE) return std::errc::result_out_of_range;
  return std::errc();
}

}  // namespace redhip
