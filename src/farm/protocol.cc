#include "farm/protocol.h"

#include "common/bytestream.h"
#include "common/fnv.h"
#include "sweep/axes.h"
#include "sweep/config_digest.h"
#include "sweep/result_cache.h"

namespace redhip {
namespace {

void write_string_list(ByteWriter& w, const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const std::string& s : v) w.str(s);
}

bool read_string_list(ByteReader& r, std::vector<std::string>& v) {
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > kMaxVectorLen) return false;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.str());
  return r.ok();
}

void write_job(ByteWriter& w, const FarmJob& job) {
  w.str(job.bench);
  w.u8(job.scheme);
  w.u8(job.inclusion);
  w.u8(job.engine);
  w.u32(job.scale);
  w.u64(job.refs_per_core);
  w.boolean(job.prefetch);
  w.u64(job.seed);
  w.u8(static_cast<std::uint8_t>(job.sampling.mode));
  w.u64(job.sampling.period_refs);
  w.u64(job.sampling.window_refs);
  w.u64(job.sampling.warmup_refs);
  w.f64(job.cell_timeout);
  write_string_list(w, job.benches);
  write_string_list(w, job.axis_specs);
}

// Fails closed on an enum byte outside its type's range: build_sweep_spec
// casts these bytes straight into the enums, and an engine no switch
// matches would run nothing and report a zeroed result.
bool read_job(ByteReader& r, FarmJob& job) {
  job.bench = r.str();
  job.scheme = r.u8();
  job.inclusion = r.u8();
  job.engine = r.u8();
  job.scale = r.u32();
  job.refs_per_core = r.u64();
  job.prefetch = r.boolean();
  job.seed = r.u64();
  const std::uint8_t mode = r.u8();
  job.sampling.mode = static_cast<SampleMode>(mode);
  job.sampling.period_refs = r.u64();
  job.sampling.window_refs = r.u64();
  job.sampling.warmup_refs = r.u64();
  job.cell_timeout = r.f64();
  if (job.scheme > static_cast<std::uint8_t>(Scheme::kPartialTag) ||
      job.inclusion > static_cast<std::uint8_t>(InclusionPolicy::kExclusive) ||
      job.engine > static_cast<std::uint8_t>(SimEngine::kReference) ||
      mode > static_cast<std::uint8_t>(SampleMode::kInterval)) {
    return false;
  }
  return read_string_list(r, job.benches) &&
         read_string_list(r, job.axis_specs) && r.ok();
}

Status malformed(const char* what) {
  return Status(StatusCode::kDataLoss,
                std::string("farm payload: malformed ") + what);
}

BenchmarkId bench_by_name(const std::string& name) {
  for (BenchmarkId id : all_benchmarks()) {
    if (to_string(id) == name) return id;
  }
  Status(StatusCode::kInvalidArgument, "farm job: unknown benchmark '" +
                                           name + "' (build drift?)")
      .throw_if_error();
  return BenchmarkId::kBwaves;  // unreachable
}

}  // namespace

std::string serialize_job(const FarmJob& job) {
  ByteWriter w;
  write_job(w, job);
  const std::vector<std::uint8_t>& buf = w.buffer();
  return std::string(buf.begin(), buf.end());
}

Result<FarmJob> deserialize_job(const std::string& payload) {
  ByteReader r(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size());
  FarmJob job;
  if (!read_job(r, job) || !r.exhausted()) return malformed("job");
  return job;
}

SweepSpec build_sweep_spec(const FarmJob& job) {
  SweepSpec spec;
  spec.base.bench = bench_by_name(job.bench);
  spec.base.scheme = static_cast<Scheme>(job.scheme);
  spec.base.inclusion = static_cast<InclusionPolicy>(job.inclusion);
  spec.base.engine = static_cast<SimEngine>(job.engine);
  spec.base.scale = job.scale;
  spec.base.refs_per_core = job.refs_per_core;
  spec.base.prefetch = job.prefetch;
  spec.base.seed = job.seed;
  spec.base.sampling = job.sampling;

  // The context make_named_axis consumes: both sides must resolve
  // "workload=all" and scale-relative axis values identically.
  ExperimentOptions opts;
  opts.scale = job.scale;
  opts.refs_per_core = job.refs_per_core;
  opts.seed = job.seed;
  opts.engine = static_cast<SimEngine>(job.engine);
  opts.sampling = job.sampling;
  opts.benches.clear();
  for (const std::string& name : job.benches) {
    opts.benches.push_back(bench_by_name(name));
  }
  for (const std::string& axis : job.axis_specs) {
    spec.axes.push_back(make_named_axis(axis, opts));
  }
  return spec;
}

std::uint64_t cells_digest(const std::vector<SweepCell>& cells) {
  Fnv1a h;
  h.str("redhip-farm-cells");
  h.u32(kSweepCacheSchemaVersion);
  h.u64(cells.size());
  for (const SweepCell& cell : cells) h.u64(cell.key);
  return h.digest();
}

std::string encode_welcome(const FarmJob& job, std::uint64_t cell_count,
                           std::uint64_t keys_digest) {
  ByteWriter w;
  write_job(w, job);
  w.u64(cell_count);
  w.u64(keys_digest);
  const std::vector<std::uint8_t>& buf = w.buffer();
  return std::string(buf.begin(), buf.end());
}

Result<Welcome> decode_welcome(const std::string& payload) {
  ByteReader r(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size());
  Welcome out;
  if (!read_job(r, out.job)) return malformed("welcome");
  out.cell_count = r.u64();
  out.keys_digest = r.u64();
  if (!r.ok() || !r.exhausted()) return malformed("welcome");
  return out;
}

std::string encode_assign(std::uint64_t index, std::uint64_t key) {
  ByteWriter w;
  w.u64(index);
  w.u64(key);
  const std::vector<std::uint8_t>& buf = w.buffer();
  return std::string(buf.begin(), buf.end());
}

Result<CellAssign> decode_assign(const std::string& payload) {
  ByteReader r(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size());
  CellAssign out;
  out.index = r.u64();
  out.key = r.u64();
  if (!r.ok() || !r.exhausted()) return malformed("assign");
  return out;
}

std::string encode_result(std::uint64_t index, std::uint64_t key,
                          const Status& status, const SimResult& result) {
  ByteWriter w;
  w.u64(index);
  w.u64(key);
  w.boolean(status.ok());
  if (status.ok()) {
    // The result travels in the exact .rdc payload codec, so what the
    // coordinator persists is byte-identical to what a local simulation
    // would have persisted.
    w.str(serialize_result(result));
  } else {
    w.u8(static_cast<std::uint8_t>(status.code()));
    w.str(status.message());
  }
  const std::vector<std::uint8_t>& buf = w.buffer();
  return std::string(buf.begin(), buf.end());
}

Result<CellResult> decode_result(const std::string& payload) {
  ByteReader r(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size());
  CellResult out;
  out.index = r.u64();
  out.key = r.u64();
  const bool ok = r.boolean();
  if (ok) {
    const std::string body = r.str();
    if (!r.ok() || !r.exhausted()) return malformed("result");
    Result<SimResult> res = deserialize_result(body);
    if (!res.ok()) return res.status();
    out.result = std::move(res).value();
  } else {
    const StatusCode code = static_cast<StatusCode>(r.u8());
    const std::string message = r.str();
    if (!r.ok() || !r.exhausted()) return malformed("result");
    if (code == StatusCode::kOk) return malformed("result status");
    out.status = Status(code, message);
  }
  return out;
}

}  // namespace redhip
