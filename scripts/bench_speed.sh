#!/usr/bin/env bash
# Build the tracked speed benchmark and measure end-to-end simulation speed,
# writing BENCH_speed.json at the repo root.
#
# The base + redhip matrix runs REPEAT times and the JSON reports best-of-N
# alongside median-of-N — both for the aggregate matrix wall time and per
# run: every runs[] row carries host_seconds (min) / host_seconds_median and
# the matching mrefs_per_s / mrefs_per_s_median pair.  Optionally a
# pre-PR wall time measured from the seed binary on the same machine is
# passed via PRE_PR_WALL (seconds); the checked-in BENCH_speed.json's
# provenance is recorded in its own config block (cpu model, core count,
# compiler flags — filled in below).
#
# Cells run sequentially (--jobs=1) so per-cell wall times are clean: cells
# sharing the host's cores would time each other's cache and memory
# traffic, not their own.
#
# Because this is a same-host measurement, the build is tuned for the host:
# -march=native plus a two-pass profile-guided build (instrument, run a
# short training matrix, rebuild with the profile).  Together they are worth
# ~25% on the measurement machine.  Both are env-switchable so CI smoke runs
# can use a plain Release build:
#
#   REDHIP_PGO=0      skip the PGO double build (single Release build)
#   REDHIP_NATIVE=0   portable ISA instead of -march=native
#   TRAIN_REFS=N      refs/core for the PGO training matrix (default 200000
#                     — enough for the tag arrays to reach steady-state
#                     occupancy, so the eviction branches are weighted the
#                     way the real measurement exercises them)
#   BUILD_DIR=DIR     build directory (default build-bench)
#   PRE_PR_WALL=SECS  optional external baseline wall time
#   PRE_PR_NOTE=TEXT  provenance note for that baseline
#   REPEAT=N          measurements per leg (default 3; the JSON carries
#                     best and median)
#   JOBS=N            concurrent matrix cells (default 1; see above)
#   SAMPLED_REFS=N    refs/core for the statistical-sampling leg (default
#                     62500000 = 500M aggregate at 8 cores; 0 skips the
#                     leg).  The leg enforces >= 8x cold sampled-vs-exact,
#                     >= 25x for a run resuming the cell's shared warm
#                     snapshot, and CI coverage of the exact metrics — see
#                     bench_speed.cpp.
#
# Usage: scripts/bench_speed.sh [--quick] [--refs=N] [--scale=N] ...
#   --quick: smoke configuration — refs=100k, single repeat (pair with
#   REDHIP_PGO=0 for a fast turnaround).  Extra flags are forwarded to the
#   bench_speed binary.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
PGO=${REDHIP_PGO:-1}
NATIVE=${REDHIP_NATIVE:-1}
TRAIN_REFS=${TRAIN_REFS:-200000}
REPEAT=${REPEAT:-3}
JOBS=${JOBS:-1}
SAMPLED_REFS=${SAMPLED_REFS:-62500000}

quick=0
fwd=()
for arg in "$@"; do
  if [[ "$arg" == "--quick" ]]; then quick=1; else fwd+=("$arg"); fi
done
if [[ "$quick" == 1 ]]; then
  REPEAT=1
  fwd=(--refs=100000 "${fwd[@]}")
  # Smoke scale: a short sampled leg (5 windows over 5M refs/core) still
  # exercises the gates, but only demands the 5x that holds without PGO.
  # The 100k warmup is not negotiable at smoke scale — it is what keeps the
  # window estimates unbiased (DESIGN.md "Statistical sampling").
  SAMPLED_REFS=5000000
  fwd+=(--sampled-period=1000000 --sampled-window=10000
        --sampled-warmup=100000 --sampled-min-speedup=5
        --sampled-min-resumed-speedup=8)
fi

native_flag=OFF
[[ "$NATIVE" == 1 ]] && native_flag=ON

configure_and_build() {
  # $1: extra compiler/linker flags (empty for a plain build)
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
        -DREDHIP_NATIVE=$native_flag -DCMAKE_CXX_FLAGS="$1" >/dev/null
  cmake --build "$BUILD_DIR" --target bench_speed -j "$(nproc)"
}

if [[ "$PGO" == 1 ]]; then
  prof_dir=$PWD/$BUILD_DIR/pgo-profiles
  rm -rf "$prof_dir"
  echo "== PGO pass 1/2: instrumented build + training matrix =="
  configure_and_build "-fprofile-generate=$prof_dir"
  mkdir -p "$prof_dir"
  # Train on the same matrix shape the measurement runs (every workload,
  # both columns), just with few references per core.  A sampled leg rides
  # along so the skip/warm loops get profile coverage too — without it
  # -fprofile-use marks them cold and deoptimizes exactly the code the
  # sampled speedup gate measures (observed: skip throughput dropped ~40%
  # and the sampled leg ran slower than a plain Release build).  The skip
  # volume is sized to register as hot next to the matrix's ~50M access
  # iterations, not just nonzero: gcc's FDO withholds the aggressive loop
  # optimizations from merely-warm functions.
  "$BUILD_DIR/bench/bench_speed" --refs="$TRAIN_REFS" --scale=8 --jobs=1 \
      --sampled-refs=5000000 --sampled-period=2500000 \
      --sampled-window=10000 --sampled-warmup=100000 \
      --out="$prof_dir/train.json" >/dev/null
  echo "== PGO pass 2/2: optimized rebuild =="
  configure_and_build "-fprofile-use=$prof_dir -fprofile-correction"
else
  configure_and_build ""
fi

# Host metadata for the config block: this JSON is committed, so it must
# say what machine and toolchain produced its numbers.
cpu_model=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo \
              2>/dev/null || true)
[[ -n "$cpu_model" ]] || cpu_model="unknown ($(uname -m))"
flags="-O3"
[[ "$NATIVE" == 1 ]] && flags="$flags -march=native"
[[ "$PGO" == 1 ]] && flags="$flags -fprofile-use"

args=(--out=BENCH_speed.json
      --jobs="$JOBS"
      --repeat="$REPEAT"
      --cpu-model="$cpu_model"
      --compiler-flags="$flags")
if [[ "$SAMPLED_REFS" != 0 ]]; then
  args+=(--sampled-refs="$SAMPLED_REFS")
  # The full-scale leg carries the headline claims.  Cold sampled runs are
  # skip-bound (the gap replay is a serial RNG chain, ~2 draws per skipped
  # reference on the scheduler stream), so the cold gate sits at 8x — the
  # ratio moves with how fast PGO makes the *exact* leg, not just the skip
  # path.  The >= 25x claim belongs to snapshot reuse: every cell after the
  # first in a sweep restores the deepest shared warm snapshot instead of
  # re-skipping and re-warming the prefix.
  [[ "$quick" == 1 ]] || args+=(--sampled-min-speedup=8
                                --sampled-min-resumed-speedup=25)
fi
if [[ -n "${PRE_PR_WALL:-}" ]]; then
  args+=(--pre-pr-wall="$PRE_PR_WALL"
         --pre-pr-note="${PRE_PR_NOTE:-}")
fi

"$BUILD_DIR/bench/bench_speed" "${args[@]}" "${fwd[@]}"
