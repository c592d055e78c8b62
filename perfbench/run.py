#!/usr/bin/env python3
"""Build the simulator from source and run one workload of the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-deep --seed 42 --seconds 25 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it print
every metric by name with its unit.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics from a separate traced pass.

Other modes:
    --self-test   tiny-length run of every workload (see README.md)
    --record      rewrite perfbench/expected.txt for the recorded seed

The build goes to $CARGO_TARGET_DIR (default .bench_build) in the checkout;
results land in <build>/results/, one JSON file per run with the host
record, and spans of traced runs in a matching .spans.jsonl file.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(BENCH_DIR, "expected.txt")
WORKLOADS = ["exact-deep", "exact-stream", "sampled-resume", "sweep-jobs4"]
RECORDED_SEED = 42
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(d)


def checkout_env():
    """The environment for every child: temporary files (the compiler's
    included) stay inside the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then let the build tool decide what is stale."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    env = checkout_env()
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(cmake_dir, "perfbench"), cmake_dir


def cmake_cache(cmake_dir):
    out = {}
    try:
        with open(os.path.join(cmake_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line and not line.startswith(("#", "//")):
                    key, _, value = line.rstrip("\n").partition("=")
                    out[key.split(":")[0]] = value
    except OSError:
        pass
    return out


def source_digest():
    """sha256 over the simulator and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_record(cmake_dir, seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cache = cmake_cache(cmake_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": nproc,
        "loadavg_at_start": os.getloadavg(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_RELEASE", "")])),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def run_binary(binary, workload, seed, seconds, trace, tiny=False,
               expected=EXPECTED, extra=()):
    """Runs one workload; returns (result, report, stdout lines) or raises."""
    root = build_dir()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    work = os.path.join(root, "work", f"{workload}-{os.getpid()}")
    results = os.path.join(root, "results")
    os.makedirs(results, exist_ok=True)
    base = os.path.join(results, f"{workload}-s{seed}-t{trace}-{stamp}-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", work,
           "--report", base + ".report.json"]
    if expected and os.path.exists(expected):
        cmd += ["--expected", expected]
    if trace:
        cmd += ["--spans", base + ".spans.jsonl"]
    if tiny:
        cmd += ["--tiny", "1"]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=checkout_env())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench binary exited with {proc.returncode}")
    if "--record" in extra:
        return None
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    with open(base + ".report.json") as f:
        report = json.load(f)
    return result, report, lines, base


def measure(args):
    binary, cmake_dir = build()
    host = host_record(cmake_dir, args.seed)
    if host["build_type"] != "Release":
        log(f"WARNING: build type '{host['build_type']}' is not Release")
    result, report, lines, base = run_binary(
        binary, args.workload, args.seed, args.seconds, args.trace)
    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "result": result, "report": report}
    with open(base + ".json", "w") as f:
        json.dump(record, f, indent=1)
    os.remove(base + ".report.json")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"host {host['cpu_model']} x{host['nproc']}  "
          f"build {host['build_type']}  result {base}.json")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


def benchmark_metrics():
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def self_test():
    """Tiny-length run of every workload in both modes, checking the
    metric names and units, a clean gate, and that a wrong stored digest
    is caught."""
    binary, _ = build()
    expected_metrics = benchmark_metrics()
    problems = []
    with tempfile.NamedTemporaryFile("w+", suffix=".txt", dir=build_dir(),
                                     delete=False) as tmp:
        stored = tmp.name
    try:
        for w in WORKLOADS:
            open(stored, "w").close()
            run_binary(binary, w, RECORDED_SEED, 1, 0, tiny=True,
                       expected=None, extra=["--record", stored])
            for trace in (0, 1):
                result, _, _, _ = run_binary(binary, w, RECORDED_SEED, 1,
                                             trace, tiny=True, expected=stored)
                metrics = result["metrics"]
                for m in expected_metrics[trace]:
                    got = metrics.get(m["name"])
                    if got is None or got.get("unit") != m["unit"]:
                        problems.append(f"{w} trace={trace}: metric {m['name']} "
                                        f"missing or not in {m['unit']}")
                if set(metrics) != {m["name"] for m in expected_metrics[trace]}:
                    problems.append(f"{w} trace={trace}: unexpected metrics "
                                    f"{sorted(metrics)}")
                if result["failed"] != 0 or not result["correct"]:
                    problems.append(f"{w} trace={trace}: failed={result['failed']}")
                if trace == 1 and metrics.get("failed_frac", {}).get("value") != 0:
                    problems.append(f"{w}: failed_frac is not 0")
            # One deliberately wrong stored digest must fail the gate.
            with open(stored) as f:
                entries = f.read().splitlines()
            i = next(k for k, e in enumerate(entries) if e.startswith("digest "))
            head, digest = entries[i].rsplit(" ", 1)
            entries[i] = f"{head} {int(digest, 16) ^ 1:016x}"
            with open(stored, "w") as f:
                f.write("\n".join(entries) + "\n")
            result, _, _, _ = run_binary(binary, w, RECORDED_SEED, 1, 1,
                                         tiny=True, expected=stored)
            if not result["metrics"]["failed_frac"]["value"] > 0:
                problems.append(f"{w}: a wrong stored digest left failed_frac at 0")
            log(f"self-test {w}: done")
    finally:
        os.remove(stored)
    for p in problems:
        log(f"self-test FAILED: {p}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def record_expected(workloads):
    """Rewrites the entries of `workloads` in expected.txt from full-length
    runs at the recorded seed, keeping every other workload's entries."""
    binary, _ = build()
    kept = []
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            kept = [line for line in f
                    if not line.startswith("#") and line.split()[1] not in workloads]
    tmp = EXPECTED + ".new"
    with open(tmp, "w") as f:
        f.write("# Simulated-outcome digests of every cell at the recorded seed\n"
                "# and the exact values the sampled CIs must cover.  Written by\n"
                "# `python3 perfbench/run.py --record`; see README.md.\n")
        f.writelines(kept)
    for w in workloads:
        log(f"recording {w}")
        run_binary(binary, w, RECORDED_SEED, 1, 0, expected=None,
                   extra=["--record", tmp])
    os.replace(tmp, EXPECTED)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=RECORDED_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.record:
        return record_expected([args.workload] if args.workload else WORKLOADS)
    if not args.workload:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(str(e))
        sys.exit(1)
