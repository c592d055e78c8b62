#!/usr/bin/env python3
"""Diff two BENCH_speed.json files and emit a markdown report.

Used by the speed-smoke CI job to compare the freshly measured
BENCH_speed.json against the checked-in baseline (copied aside before the
run overwrites it), and usable locally the same way:

    python3 scripts/bench_diff.py baseline.json current.json \
        [--out BENCH_diff.md] [--warn-threshold 10]

The comparison is on throughput (Mrefs/s): per-engine aggregate plus every
(bench, column) run row joined across the two files.  Wall-clock seconds
are deliberately not compared — the two files may come from different ref
counts (CI smoke runs are tiny) or different hosts, where seconds mean
nothing but the ratio of rates is still a trend signal; when the configs
differ the report says so up front.

Report-only by design: when the fast-engine aggregate regresses by more
than --warn-threshold percent the script prints a GitHub Actions
`::warning::` annotation and still exits 0.  Shared runners are far too
noisy for a hard gate — the authoritative number is bench_speed.sh on a
quiet dedicated host — but the warning makes a real regression visible on
the PR without blocking it.  Exit status is non-zero only for malformed
input (missing file, missing fast_engine block).
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")


def pct(new, old):
    if old <= 0:
        return 0.0
    return (new / old - 1.0) * 100.0


def config_note(base, cur):
    keys = ("scale", "refs_per_core", "seed", "repeat", "cpu_model",
            "compiler_flags")
    diffs = []
    bc, cc = base.get("config", {}), cur.get("config", {})
    for k in keys:
        if bc.get(k) != cc.get(k):
            diffs.append(f"{k}: {bc.get(k)!r} -> {cc.get(k)!r}")
    return diffs


def engine_rows(doc, engine):
    block = doc.get(engine)
    if not isinstance(block, dict):
        return None, {}
    rows = {}
    for run in block.get("runs", []):
        rows[(run.get("bench"), run.get("column"))] = run.get("mrefs_per_s")
    return block, rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--out", default="BENCH_diff.md")
    ap.add_argument("--warn-threshold", type=float, default=10.0,
                    help="fast-engine aggregate regression (percent) that "
                         "triggers a report-only warning")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    lines = ["# BENCH_speed diff", ""]
    notes = config_note(base, cur)
    if notes:
        lines.append("Configs differ — absolute rates are cross-config "
                     "trend signals, not like-for-like:")
        lines.extend(f"- {n}" for n in notes)
        lines.append("")

    warn = None
    for engine in ("fast_engine", "reference_engine"):
        bblock, brows = engine_rows(base, engine)
        cblock, crows = engine_rows(cur, engine)
        if cblock is None and bblock is None:
            continue
        lines.append(f"## {engine}")
        if bblock is None or cblock is None:
            lines.append("present in only one file; skipping.")
            lines.append("")
            continue
        b_agg = bblock.get("mrefs_per_s", 0.0)
        c_agg = cblock.get("mrefs_per_s", 0.0)
        delta = pct(c_agg, b_agg)
        lines.append(f"aggregate: {b_agg:.3f} -> {c_agg:.3f} Mrefs/s "
                     f"({delta:+.1f}%)")
        lines.append("")
        lines.append("| bench | column | baseline | current | delta |")
        lines.append("|---|---|---:|---:|---:|")
        for key in sorted(set(brows) | set(crows)):
            b, c = brows.get(key), crows.get(key)
            if b is None or c is None:
                lines.append(f"| {key[0]} | {key[1]} | "
                             f"{'-' if b is None else f'{b:.3f}'} | "
                             f"{'-' if c is None else f'{c:.3f}'} | - |")
            else:
                lines.append(f"| {key[0]} | {key[1]} | {b:.3f} | {c:.3f} | "
                             f"{pct(c, b):+.1f}% |")
        lines.append("")
        if engine == "fast_engine":
            if b_agg <= 0:
                sys.exit("bench_diff: baseline has no fast_engine rate")
            if delta < -args.warn_threshold:
                warn = (f"fast-engine aggregate regressed {delta:+.1f}% "
                        f"({b_agg:.3f} -> {c_agg:.3f} Mrefs/s, threshold "
                        f"{args.warn_threshold:.0f}%)")

    warns = [warn] if warn else []
    warns.extend(sampling_section(base, cur, lines, args.warn_threshold))

    report = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(report)
    sys.stdout.write(report)
    for w in warns:
        # Report-only: annotate the job, do not fail it (see module doc).
        print(f"::warning title=bench_speed regression::{w}")
    print(f"wrote {args.out}")
    return 0


def sampling_section(base, cur, lines, threshold):
    """Compare the sampled-vs-exact block; returns warning strings.

    The sampling block's headline number is `speedup` (exact wall seconds /
    sampled wall seconds) — the figure skip/warm-path work moves.  Wall
    seconds themselves are host-dependent, but their in-file ratio is not,
    so a shrinking speedup on the same plan geometry is a genuine
    warm/skip-path regression even on a noisy runner.  Warm-phase
    throughput (warm_mrefs_per_s) gets the same treatment when both files
    carry it.
    """
    bs, cs = base.get("sampling"), cur.get("sampling")
    if not isinstance(bs, dict) and not isinstance(cs, dict):
        return []
    lines.append("## sampling")
    if not isinstance(bs, dict) or not isinstance(cs, dict):
        lines.append("present in only one file; skipping.")
        lines.append("")
        return []
    warns = []
    geometry = ("bench", "refs_per_core", "period_refs", "window_refs",
                "warmup_refs")
    geo_diffs = [f"{k}: {bs.get(k)!r} -> {cs.get(k)!r}"
                 for k in geometry if bs.get(k) != cs.get(k)]
    if geo_diffs:
        lines.append("plan geometry differs — speedup is a cross-plan trend "
                     "signal, not like-for-like:")
        lines.extend(f"- {n}" for n in geo_diffs)
    b_sp, c_sp = bs.get("speedup", 0.0), cs.get("speedup", 0.0)
    lines.append(f"sampled-vs-exact speedup: {b_sp:.2f}x -> {c_sp:.2f}x "
                 f"({pct(c_sp, b_sp):+.1f}%)")
    b_rs, c_rs = bs.get("resumed_speedup"), cs.get("resumed_speedup")
    if b_rs is not None or c_rs is not None:
        lines.append(f"resumed (snapshot-reuse) speedup: "
                     f"{'-' if b_rs is None else f'{b_rs:.2f}x'} -> "
                     f"{'-' if c_rs is None else f'{c_rs:.2f}x'}")
    for k, unit in (("duty_cycle", ""), ("warm_mrefs_per_s", " Mrefs/s")):
        if k in bs or k in cs:
            b, c = bs.get(k), cs.get(k)
            lines.append(f"{k}: "
                         f"{'-' if b is None else f'{b:.3f}'} -> "
                         f"{'-' if c is None else f'{c:.3f}'}{unit}")
    lines.append("")
    if b_sp > 0 and not geo_diffs and pct(c_sp, b_sp) < -threshold:
        warns.append(f"sampled-vs-exact speedup regressed "
                     f"{pct(c_sp, b_sp):+.1f}% ({b_sp:.2f}x -> {c_sp:.2f}x, "
                     f"threshold {threshold:.0f}%)")
    b_w, c_w = bs.get("warm_mrefs_per_s"), cs.get("warm_mrefs_per_s")
    if b_w and c_w and not geo_diffs and pct(c_w, b_w) < -threshold:
        warns.append(f"warm-phase throughput regressed "
                     f"{pct(c_w, b_w):+.1f}% ({b_w:.3f} -> {c_w:.3f} "
                     f"Mrefs/s, threshold {threshold:.0f}%)")
    if b_rs and c_rs and not geo_diffs and pct(c_rs, b_rs) < -threshold:
        warns.append(f"resumed (snapshot-reuse) speedup regressed "
                     f"{pct(c_rs, b_rs):+.1f}% ({b_rs:.2f}x -> {c_rs:.2f}x, "
                     f"threshold {threshold:.0f}%)")
    return warns


if __name__ == "__main__":
    sys.exit(main())
