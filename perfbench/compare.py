#!/usr/bin/env python3
"""Compare a parent and a changed checkout on the benchmark.

    python3 perfbench/compare.py --parent ../parent --change . [--pairs 10]
        [--workloads exact-deep,sweep-jobs4] [--trace 0] [--out pairs.json]
    python3 perfbench/compare.py --load pairs.json

Runs alternating pairs: pair i runs both checkouts on seed (seed0 + i),
parent first on even pairs and change first on odd ones, each with the
benchmark's own run length.  Each checkout builds in its own build
directory.  For every workload and metric it prints each side's median and
quartiles, the fraction of pairs the change won (ties count for neither)
and a verdict:

  gain          at least ten pairs, the change won at least 9/10 of them
                and the medians differ by more than the parent's
                interquartile distance
  regression    the change's median is worse than the parent's by more than
                the metric's bound
  unresolved    the parent's own spread (IQR / median) exceeds the bound,
                unless every change run beats every parent run
  within bound  none of the above

A gain does not count when the change failed more operations than the
parent.  Per-layer metrics (--trace 1) have no bound and get no verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10  # fewer pairs never support a gain


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    p = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                       text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {p.returncode}")
    return json.loads(p.stdout.splitlines()[-1])


def collect(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2 == 1:
            order.reverse()
        row = {"seed": seed, "first": order[0][0], "results": {}}
        for w in workloads:
            row["results"][w] = {}
            for side, path in order:
                row["results"][w][side] = run_once(
                    path, w, seed, spec["run_seconds"], args.trace)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {w} done",
                  file=sys.stderr, flush=True)
        pairs.append(row)
    return {"trace": args.trace, "pairs": pairs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, parent, change, pairs_won, n_pairs, failed_more):
    if "bound" not in metric:
        return "-"
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = (cm - pm) if lower else (pm - cm)
    spread = (p3 - p1) / pm if pm else float("inf")
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if worse > metric["bound"] * abs(pm):
        return "regression"
    if (n_pairs >= MIN_PAIRS and pairs_won >= 0.9 * n_pairs
            and -worse > (p3 - p1) and not failed_more):
        return "gain"
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "within bound"


def report(data, spec):
    metrics = spec["end_to_end"] if data["trace"] == 0 else spec["per_layer"]
    pairs = data["pairs"]
    workloads = list(pairs[0]["results"]) if pairs else []
    header = (f"{'metric':28s} {'workload':15s} {'parent med [q1, q3]':34s} "
              f"{'change med [q1, q3]':34s} {'won':>6s}  verdict")
    print(header)
    print("-" * len(header))
    for m in metrics:
        for w in workloads:
            par, chg, won, n = [], [], 0, 0
            fails = {"parent": 0, "change": 0}
            for row in pairs:
                r = row["results"].get(w)
                if not r:
                    continue
                pv = r["parent"]["metrics"][m["name"]]["value"]
                cv = r["change"]["metrics"][m["name"]]["value"]
                fails["parent"] += r["parent"]["failed"]
                fails["change"] += r["change"]["failed"]
                par.append(pv)
                chg.append(cv)
                n += 1
                if cv != pv and ((cv < pv) == (m["better"] == "lower")):
                    won += 1
            if not n:
                continue
            p1, pm, p3 = quartiles(par)
            c1, cm, c3 = quartiles(chg)
            v = verdict(m, par, chg, won, n, fails["change"] > fails["parent"])
            print(f"{m['name']:28s} {w:15s} "
                  f"{pm:11.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:11.5g} [{c1:9.5g}, {c3:9.5g}] "
                  f"{won:3d}/{n:<2d}  {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--load", default="")
    args = ap.parse_args()
    spec = load_spec(os.path.dirname(BENCH_DIR))
    if args.load:
        with open(args.load) as f:
            data = json.load(f)
    else:
        if not (args.parent and args.change):
            ap.error("--parent and --change are required unless --load is given")
        args.parent = os.path.abspath(args.parent)
        args.change = os.path.abspath(args.change)
        data = collect(args, spec)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(data, f, indent=1)
    report(data, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
