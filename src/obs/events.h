// Structured event tracing — JSONL, one flat object per line.
//
// The stream is deterministic: the same (config, seed) emits a
// byte-identical trace on every run, and a checkpoint-restored run emits
// the same bytes as an uninterrupted one, so every field is a deterministic
// function of the simulated run — never a host timestamp, pointer, or
// wall-clock value.  Schema in
// DESIGN.md "Observability".
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

namespace redhip {

// Where event lines go.  Implementations must not reorder or buffer lines
// across flush(); the writer emits exactly one '\n'-terminated line per
// event.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void write_line(const std::string& line) = 0;
  virtual void flush() {}
};

// Appends to an on-disk JSONL file (truncating any previous trace).
// Throws std::runtime_error if the file cannot be opened.
class FileEventSink final : public EventSink {
 public:
  explicit FileEventSink(const std::string& path);
  void write_line(const std::string& line) override;
  void flush() override;

 private:
  std::ofstream out_;
};

// Decorator that keeps a byte-exact copy of every line while forwarding to
// an optional inner sink.  The checkpoint subsystem wraps the collector's
// sink with one of these: the captured prefix is serialized into each
// checkpoint, and a restored run writes it again after its own run_begin
// line, so the resumed run's JSONL output is byte-identical to an
// uninterrupted run's.
class CaptureEventSink final : public EventSink {
 public:
  explicit CaptureEventSink(std::unique_ptr<EventSink> inner)
      : inner_(std::move(inner)) {}
  void write_line(const std::string& line) override {
    buffer_ += line;
    if (inner_) inner_->write_line(line);
  }
  void flush() override {
    if (inner_) inner_->flush();
  }
  const std::string& captured() const { return buffer_; }

 private:
  std::unique_ptr<EventSink> inner_;
  std::string buffer_;
};

// Collects lines in memory (tests, stream-equivalence oracles).
class StringEventSink final : public EventSink {
 public:
  void write_line(const std::string& line) override { buffer_ += line; }
  const std::string& str() const { return buffer_; }

 private:
  std::string buffer_;
};

// Builds one flat JSON object.  Key order is emission order, values are
// integers, doubles, booleans, strings, or arrays of integers — the exact
// subset ObsJsonlReader parses back.
class EventWriter {
 public:
  explicit EventWriter(const std::string& event_type) {
    os_ << "{\"ev\":\"" << event_type << '"';
  }
  EventWriter& field(const char* key, std::uint64_t v) {
    os_ << ",\"" << key << "\":" << v;
    return *this;
  }
  EventWriter& field(const char* key, std::int64_t v) {
    os_ << ",\"" << key << "\":" << v;
    return *this;
  }
  EventWriter& field(const char* key, bool v) {
    os_ << ",\"" << key << "\":" << (v ? "true" : "false");
    return *this;
  }
  // Doubles print with the default ostream precision (as json_report does).
  // Deterministic: the emitted values are simulated state, and identical
  // doubles format identically.
  EventWriter& field(const char* key, double v) {
    os_ << ",\"" << key << "\":" << v;
    return *this;
  }
  EventWriter& field(const char* key, const std::string& v);
  template <typename Container>
  EventWriter& array(const char* key, const Container& values) {
    os_ << ",\"" << key << "\":[";
    bool first = true;
    for (const auto v : values) {
      if (!first) os_ << ',';
      first = false;
      os_ << static_cast<std::uint64_t>(v);
    }
    os_ << ']';
    return *this;
  }
  // Terminates the object and writes it to `sink` as one line.
  void emit(EventSink& sink) {
    os_ << "}\n";
    sink.write_line(os_.str());
  }

 private:
  std::ostringstream os_;
};

}  // namespace redhip
