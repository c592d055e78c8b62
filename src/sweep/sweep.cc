#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "ckpt/checkpoint_io.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "sim/ckpt_control.h"
#include "sim/config_digest.h"
#include "sweep/config_digest.h"

namespace redhip {

std::size_t SweepSpec::cells() const {
  std::size_t n = 1;
  for (const SweepAxis& axis : axes) n *= axis.values.size();
  return n;
}

void chain_tweak(RunSpec& spec, std::function<void(HierarchyConfig&)> extra) {
  auto prev = std::move(spec.tweak);
  spec.tweak = [prev = std::move(prev),
                extra = std::move(extra)](HierarchyConfig& hc) {
    if (prev) prev(hc);
    extra(hc);
  };
}

std::size_t SweepOutcome::cell_index(
    const std::vector<std::size_t>& coord) const {
  REDHIP_CHECK(coord.size() == axis_labels.size());
  std::size_t index = 0;
  for (std::size_t a = 0; a < coord.size(); ++a) {
    REDHIP_CHECK(coord[a] < axis_labels[a].size());
    index = index * axis_labels[a].size() + coord[a];
  }
  return index;
}

std::vector<SweepCell> expand(const SweepSpec& spec) {
  for (const SweepAxis& axis : spec.axes) {
    REDHIP_CHECK_MSG(!axis.values.empty(),
                     "sweep axis '" + axis.name + "' has no values");
  }
  std::vector<SweepCell> cells;
  cells.reserve(spec.cells());
  std::vector<std::size_t> coord(spec.axes.size(), 0);
  for (std::size_t n = spec.cells(); n > 0; --n) {
    SweepCell cell;
    cell.spec = spec.base;
    cell.coord = coord;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const AxisValue& v = spec.axes[a].values[coord[a]];
      cell.labels.push_back(v.label);
      if (v.apply) v.apply(cell.spec);
    }
    cell.key = sweep_cache_key(cell.spec);
    cells.push_back(std::move(cell));
    // Odometer, last axis fastest.
    for (std::size_t a = coord.size(); a-- > 0;) {
      if (++coord[a] < spec.axes[a].values.size()) break;
      coord[a] = 0;
    }
  }
  return cells;
}

namespace {

// Bounded retry budget for a cell aborted by a transient injected fault
// (TransientFaultError under RecoveryPolicy::kAbortRetry).
constexpr std::uint32_t kMaxTransientAttempts = 3;

// One cell.  A transient injected fault reseeds the fault stream (nothing
// else) and tries again, bounded by kMaxTransientAttempts; the reseed
// changes the config digest, so a checkpoint from the aborted attempt
// misses on key and the retry cold-starts.  A deadline abort retries once
// with the original spec (a timeout is usually host contention, not the
// cell, and an interval checkpoint from the first attempt — same key —
// shortens the retry); a second timeout lands in cell.status instead of
// hanging or zeroing the sweep.
void run_cell_with_retry(SweepCell& cell) {
  std::uint32_t fault_attempt = 0;
  bool deadline_retried = false;
  for (;;) {
    RunSpec spec = cell.spec;
    if (fault_attempt > 0) {
      chain_tweak(spec, [fault_attempt](HierarchyConfig& hc) {
        hc.fault.seed += fault_attempt * 0x9e3779b9ull;
      });
    }
    try {
      cell.result = run_spec(spec);
      return;
    } catch (const TransientFaultError&) {
      if (++fault_attempt >= kMaxTransientAttempts) throw;
    } catch (const DeadlineExceededError& e) {
      if (!deadline_retried) {
        deadline_retried = true;
        continue;
      }
      std::string where;
      for (const std::string& label : cell.labels) {
        if (!where.empty()) where += '/';
        where += label;
      }
      cell.status =
          Status(StatusCode::kDeadlineExceeded, where + ": " + e.what());
      return;
    }
  }
}

}  // namespace

SweepOutcome run_sweep(const SweepSpec& spec, const SweepRunOptions& opt) {
  const auto start = std::chrono::steady_clock::now();
  SweepOutcome out;
  for (const SweepAxis& axis : spec.axes) {
    out.axis_names.push_back(axis.name);
    std::vector<std::string> labels;
    for (const AxisValue& v : axis.values) labels.push_back(v.label);
    out.axis_labels.push_back(std::move(labels));
  }
  out.cells = expand(spec);
  out.stats.cells = out.cells.size();

  std::unique_ptr<ResultCache> cache;
  if (!opt.cache_dir.empty()) {
    cache = std::make_unique<ResultCache>(opt.cache_dir);
    // Writers killed mid-store leave `.tmp` files behind (the rename never
    // happened).  Collect stale ones once per sweep so the cache directory
    // cannot grow without bound across crash/restart cycles.
    const std::size_t removed = cache->gc_orphan_temps();
    if (removed > 0) {
      std::fprintf(stderr, "sweep: removed %zu orphaned temp file%s from %s\n",
                   removed, removed == 1 ? "" : "s", opt.cache_dir.c_str());
    }
  }

  // Warm pass: serve every resumable cell from the cache; a corrupt entry
  // is evicted here and re-simulated below — never trusted.
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < out.cells.size(); ++i) {
    SweepCell& cell = out.cells[i];
    if (cache && opt.resume) {
      Result<SimResult> cached = cache->load(cell.key);
      if (cached.ok()) {
        cell.result = std::move(cached).value();
        cell.from_cache = true;
        ++out.stats.cache_hits;
        continue;
      }
      if (cached.status().code() == StatusCode::kDataLoss) {
        cache->discard(cell.key);
      }
    }
    missing.push_back(i);
  }

  // Checkpoint wiring for the cells that will actually simulate.  The file
  // name is the hex ckpt_key, which deliberately excludes refs_per_core:
  // cells that differ only in their ref count share one file, so a
  // warmup checkpoint (opt.warmup_refs) written by the first such cell
  // serves every later one — the shared-warmup-prefix optimization.
  if (!opt.ckpt_dir.empty()) {
    std::filesystem::create_directories(opt.ckpt_dir);
    for (std::size_t i : missing) {
      SweepCell& cell = out.cells[i];
      // The digest folds the sampling plan exactly like run_spec's envelope
      // key does: an exact cell and a sampled cell (or two different plans)
      // must land in different files, or each would keep DATA_LOSS-evicting
      // the other's checkpoint.  Sampled cells additionally write shareable
      // per-window warm snapshots next to this file (window_snapshot_path),
      // which cells differing only in refs restore for free.
      const std::uint64_t key =
          ckpt_key(to_string(cell.spec.bench), cell.spec.scale, cell.spec.seed,
                   config_digest(resolved_config(cell.spec)) ^
                       sampling_digest(cell.spec.sampling));
      char name[32];
      std::snprintf(name, sizeof(name), "%016llx.ckpt",
                    static_cast<unsigned long long>(key));
      cell.spec.ckpt_path =
          (std::filesystem::path(opt.ckpt_dir) / name).string();
      cell.spec.ckpt_interval_refs = opt.ckpt_interval;
      cell.spec.ckpt_save_at_refs = opt.warmup_refs;
      cell.spec.ckpt_restore = true;
    }
  }
  // Longest-estimated-job first.  Sweep cells can differ
  // in refs *and* scale (a scale axis is the common case), so the whole-run
  // estimate — per-reference cost x refs / scale — orders them; sorting on
  // the per-reference cost alone used to leave a scale-1 heavyweight at the
  // back of the queue running alone after every other cell drained.
  std::stable_sort(missing.begin(), missing.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimated_run_cost(out.cells[a].spec) >
                            estimated_run_cost(out.cells[b].spec);
                   });

  std::vector<std::function<void()>> tasks;
  tasks.reserve(missing.size());
  const auto submit_time = std::chrono::steady_clock::now();
  const double cell_timeout = opt.cell_timeout;
  for (std::size_t i : missing) {
    tasks.push_back([&out, i, &cache, submit_time, cell_timeout] {
      SweepCell& cell = out.cells[i];
      const double queue_wait =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        submit_time)
              .count();
      // The per-cell wall-clock budget is applied here, when the cell
      // starts executing — never at enqueue time.  A cell that sat in the
      // queue behind long jobs gets its full budget; queue wait is reported
      // (queue_wait_seconds) but never charged against the deadline.
      if (cell_timeout > 0.0) cell.spec.deadline_seconds = cell_timeout;
      // A stop requested while this cell sat in the queue: leave it for the
      // resumed sweep rather than building its machine only to checkpoint
      // it at the first safe boundary.
      const std::atomic<bool>* stop = cell.spec.stop_flag;
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
        throw GracefulShutdownRequest("stop requested before the cell started");
      }
      run_cell_with_retry(cell);
      if (!cell.status.ok()) return;  // timed out twice; nothing to persist
      cell.result.queue_wait_seconds = queue_wait;
      // Persist immediately (atomic temp+rename): a kill from here on
      // cannot cost this cell again.
      if (cache) cache->store(cell.key, cell.result).throw_if_error();
    });
  }
  out.stats.simulated = tasks.size();
  ThreadPool::run_all(std::move(tasks), opt.jobs);

  out.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

std::vector<std::vector<SimResult>> run_matrix(
    const ExperimentOptions& opts, const std::vector<SchemeColumn>& columns,
    SweepStats* stats) {
  SweepSpec spec;
  spec.base.scale = opts.scale;
  spec.base.refs_per_core = opts.refs_per_core;
  spec.base.seed = opts.seed;
  spec.base.sampling = opts.sampling;

  SweepAxis bench_axis{"workload", {}};
  for (BenchmarkId id : opts.benches) {
    bench_axis.values.push_back(
        {to_string(id), [id](RunSpec& s) { s.bench = id; }});
  }
  spec.axes.push_back(std::move(bench_axis));

  const bool tracing = !opts.trace_events.empty();
  if (tracing) std::filesystem::create_directories(opts.trace_events);
  SweepAxis column_axis{"column", {}};
  for (const SchemeColumn& col : columns) {
    const std::string trace_dir = opts.trace_events;
    const std::uint64_t epoch_refs = opts.obs_epoch_refs;
    auto apply = [col, tracing, trace_dir, epoch_refs](RunSpec& s) {
      s.scheme = col.scheme;
      s.inclusion = col.inclusion;
      s.prefetch = col.prefetch;
      if (col.tweak) chain_tweak(s, col.tweak);
      if (tracing) {
        // The workload axis has already run, so s.bench names this cell.
        const std::string path =
            (std::filesystem::path(trace_dir) /
             trace_file_name(s.bench, col.label))
                .string();
        chain_tweak(s, [path, epoch_refs](HierarchyConfig& hc) {
          hc.obs.enabled = true;
          hc.obs.epoch_refs = epoch_refs;
          hc.obs.trace_path = path;
        });
      }
    };
    column_axis.values.push_back({col.label, std::move(apply)});
  }
  spec.axes.push_back(std::move(column_axis));

  SweepRunOptions ro;
  // Event-trace runs must actually simulate (the trace file is a side
  // effect of the run), so the cache is bypassed entirely under tracing.
  ro.cache_dir = tracing ? "" : opts.cache_dir;
  ro.resume = opts.resume;
  ro.jobs = opts.jobs;
  ro.ckpt_dir = opts.ckpt_dir;
  ro.ckpt_interval = opts.ckpt_interval;
  ro.cell_timeout = opts.cell_timeout;
  SweepOutcome out = run_sweep(spec, ro);
  if (stats != nullptr) *stats = out.stats;

  std::vector<std::vector<SimResult>> results(
      opts.benches.size(), std::vector<SimResult>(columns.size()));
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      SweepCell& cell = out.cells[b * columns.size() + c];
      // The matrix interface has no per-cell status channel; surface a
      // doubly-timed-out cell as an exception rather than a zeroed row.
      cell.status.throw_if_error();
      results[b][c] = std::move(cell.result);
    }
  }
  return results;
}

}  // namespace redhip
