// ObsJsonlReader — parses the flat-object JSONL dialect EventWriter emits.
//
// This is deliberately not a general JSON parser: every trace line is one
// object whose values are unsigned integers, booleans, strings, or arrays
// of unsigned integers, with no nesting.  Tests use it to round-trip event
// traces and to compare fast vs reference streams structurally;
// scripts/plot_epochs.py is the Python-side consumer of the same schema.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace redhip {

// One parsed trace line.  Field order is preserved (it is part of the
// byte-identity contract between uninterrupted and restored runs).
struct ObsEvent {
  std::string type;  // the "ev" field
  std::vector<std::pair<std::string, std::uint64_t>> nums;
  std::vector<std::pair<std::string, bool>> bools;
  std::vector<std::pair<std::string, std::string>> strings;
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> arrays;

  std::optional<std::uint64_t> num(const std::string& key) const;
  // Throws std::out_of_range when the key is absent.
  std::uint64_t num_at(const std::string& key) const;
  std::optional<std::string> str(const std::string& key) const;
  std::optional<bool> flag(const std::string& key) const;
};

// Parses a whole trace (file contents or StringEventSink buffer).  Throws
// std::runtime_error on any malformed line — a trace that does not parse is
// a bug, not data.
std::vector<ObsEvent> parse_jsonl(const std::string& text);

// Convenience: read + parse a trace file.  Throws if the file is missing.
std::vector<ObsEvent> load_jsonl_file(const std::string& path);

}  // namespace redhip
