#!/usr/bin/env bash
# Profile the simulator's per-reference critical path and print a
# top-symbols table.
#
# Drives `bench_speed` without its checkpoint leg (it would pollute the
# profile with code the run loop never runs) over the full workload matrix at a reduced ref count, then reports
# where the host cycles went:
#
#   * If `perf` is available: perf record -g over the run, then
#     `perf report --stdio` truncated to the top TOP symbols.
#   * Otherwise (containers routinely lack perf_event access or the tool
#     itself): the uninstrumented build runs under a SIGPROF program-counter
#     sampler (scripts/sigprof_sampler.cc, loaded with LD_PRELOAD), and
#     scripts/sigprof_report.py resolves the samples with `addr2line -i`.
#     Code inlined into the run loop is charged to the inlined function, and
#     nothing is instrumented, so unlike a gprof -pg build small leaf
#     functions are not inflated and inlining is not blocked.
#
# Both profile a Release build (-O3, LTO) with -g added: the build a user
# runs, plus line tables.
#
# The table is printed to stdout and saved to $BUILD_DIR/profile-report.txt
# so before/after captures can be diffed; the summarized before/after for
# the current fast-path work lives in DESIGN.md ("Profiling the fast
# path").
#
#   BUILD_DIR=DIR     build directory (default build-profile)
#   TOP=N             rows of the symbol table to keep (default 15)
#   REDHIP_NATIVE=0   portable ISA instead of -march=native
#
# Usage: scripts/profile.sh [--sampled] [--refs=N] [--scale=N] [extra flags]
# Defaults to --refs=400000 --scale=8 — long enough for the tag arrays to
# reach steady-state occupancy, short enough for a minutes-scale turnaround.
#
# --sampled profiles the *sampled* hot path instead: it drives `quickstart`
# under an interval plan whose wall time is dominated by the skip + warm
# phases (period 1M, warmup 100k, window 10k per core), so the table ranks
# skip_with_gaps and the warm loop rather than the measured-window run loop.
# Extra flags go to quickstart.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-profile}
TOP=${TOP:-15}
NATIVE=${REDHIP_NATIVE:-1}

native_flag=OFF
[[ "$NATIVE" == 1 ]] && native_flag=ON

sampled=0
fwd_user=()
for arg in "$@"; do
  if [[ "$arg" == --sampled ]]; then sampled=1; else fwd_user+=("$arg"); fi
done

if [[ "$sampled" == 1 ]]; then
  target=quickstart
  binary=examples/quickstart
  # Warm phases dominate this plan's wall time (skip runs an order of
  # magnitude faster per reference), which is the path being profiled.
  run_args=(--refs=4000000 --scale=8 --sample-mode=interval
            --sample-period=1000000 --sample-window=10000
            --sample-warmup=100000)
else
  target=bench_speed
  binary=bench/bench_speed
  run_args=(--refs=400000 --scale=8 --skip-ckpt
            --out="$BUILD_DIR/profile-bench.json")
fi
run_args+=(${fwd_user[@]+"${fwd_user[@]}"})

report="$BUILD_DIR/profile-report.txt"

build() {
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
        -DREDHIP_NATIVE=$native_flag -DCMAKE_CXX_FLAGS="-g" >/dev/null
  cmake --build "$BUILD_DIR" --target "$target" -j "$(nproc)"
}

mkdir -p "$BUILD_DIR"

if command -v perf >/dev/null 2>&1 &&
    perf record -o /dev/null -- true >/dev/null 2>&1; then
  echo "== profiling with perf record (cycles, call graph) =="
  build
  perf record -o "$BUILD_DIR/perf.data" -g --call-graph=dwarf \
      -- "$BUILD_DIR/$binary" "${run_args[@]}"
  {
    echo "# perf report — top $TOP symbols (self overhead)"
    perf report -i "$BUILD_DIR/perf.data" --stdio --no-children \
        --percent-limit 0.5 2>/dev/null | grep -v '^#' | grep -v '^$' \
        | head -n "$TOP"
  } | tee "$report"
else
  echo "== perf unavailable; sampling with SIGPROF (LD_PRELOAD) =="
  build
  sampler="$(cd "$BUILD_DIR" && pwd)/libsigprof.so"
  c++ -O2 -shared -fPIC -o "$sampler" scripts/sigprof_sampler.cc -ldl
  rm -f "$BUILD_DIR"/sigprof.out.*
  SIGPROF_OUT="$BUILD_DIR/sigprof.out" LD_PRELOAD="$sampler" \
      "$BUILD_DIR/$binary" "${run_args[@]}"
  python3 scripts/sigprof_report.py --top "$TOP" "$BUILD_DIR"/sigprof.out.* \
      | tee "$report"
fi

echo
echo "full table: $report"
