#include "ckpt/checkpoint_io.h"

#include <csignal>
#include <ctime>
#include <filesystem>

#include "common/bytestream.h"
#include "common/file_io.h"
#include "common/fnv.h"

namespace redhip {

namespace {

constexpr FileEnvelope kEnvelope{"RDHPCKPT", kCkptSchemaVersion, "checkpoint"};

std::atomic<bool> g_stop_requested{false};

// Cumulative CPU nanoseconds and call count of save_checkpoint since the
// last ckpt_profile_reset().  Relaxed atomics: readers only look between
// runs, never mid-save.
std::atomic<std::uint64_t> g_save_cpu_ns{0};
std::atomic<std::uint64_t> g_save_count{0};

void handle_shutdown_signal(int) {
  // Async-signal-safe: a lock-free atomic exchange, std::signal, and
  // nothing else.  The first signal requests a graceful stop (the run
  // notices at its next safe boundary, checkpoints, and exits 75).  A
  // second signal restores the default disposition for both shutdown
  // signals, so a third one kills the process outright — an operator
  // hammering Ctrl-C on a run stuck before its next safe boundary is
  // asking to leave, not to queue another polite request.
  if (g_stop_requested.exchange(true, std::memory_order_relaxed)) {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
}

// CPU time consumed so far by the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t ckpt_key(const std::string& bench, std::uint32_t scale,
                       std::uint64_t seed, std::uint64_t config_dig) {
  Fnv1a h;
  h.str("redhip-ckpt");
  h.u32(kCkptSchemaVersion);
  h.str(bench);
  h.u32(scale);
  h.u64(seed);
  h.u64(config_dig);
  return h.digest();
}

Status save_checkpoint(const MulticoreSimulator& sim, const std::string& path,
                       std::uint64_t key) {
  const std::uint64_t t0 = thread_cpu_ns();
  ByteWriter w;
  w.reserve(sim.ckpt_size_hint());
  sim.ckpt_serialize(w);
  // The payload goes to disk from the writer's buffer; only the 36 bytes
  // of framing around it are built separately.
  const std::string_view payload(
      reinterpret_cast<const char*>(w.buffer().data()), w.buffer().size());
  const EnvelopeFrame frame = frame_envelope(kEnvelope, key, payload);
  const Status st =
      write_file_atomic(path, {frame.head(), payload, frame.tail()});
  g_save_cpu_ns.fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);
  g_save_count.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status load_checkpoint(const std::string& path, std::uint64_t key,
                       MulticoreSimulator& sim) {
  Result<std::string> payload = open_envelope(kEnvelope, key, path);
  if (!payload.ok()) return payload.status();
  ByteReader r(reinterpret_cast<const std::uint8_t*>(payload.value().data()),
               payload.value().size());
  if (!sim.ckpt_restore_payload(r)) {
    return Status(StatusCode::kDataLoss,
                  std::string(kEnvelope.what) + " entry " + path +
                      ": payload does not match this configuration");
  }
  if (!r.exhausted()) {
    return Status(StatusCode::kDataLoss, std::string(kEnvelope.what) +
                                             " entry " + path +
                                             ": trailing bytes after payload");
  }
  return Status::Ok();
}

bool evict_checkpoint(const std::string& path) {
  std::error_code ec;
  return std::filesystem::remove(path, ec) && !ec;
}

void ckpt_profile_reset() {
  g_save_cpu_ns.store(0, std::memory_order_relaxed);
  g_save_count.store(0, std::memory_order_relaxed);
}

double ckpt_profile_save_cpu_seconds() {
  return static_cast<double>(g_save_cpu_ns.load(std::memory_order_relaxed)) /
         1e9;
}

std::uint64_t ckpt_profile_save_count() {
  return g_save_count.load(std::memory_order_relaxed);
}

const std::atomic<bool>* install_shutdown_flag() {
  std::signal(SIGTERM, handle_shutdown_signal);
  std::signal(SIGINT, handle_shutdown_signal);
  return &g_stop_requested;
}

}  // namespace redhip
