#!/usr/bin/env python3
"""Turn scripts/sigprof_sampler.cc output into a ranked symbol table.

    python3 scripts/sigprof_report.py [--top N] SAMPLES [SAMPLES ...]

Each SAMPLES file holds `<count> <object> 0x<offset>` lines (one process
each; pass every file a run left behind).  Offsets are resolved per object
with one `addr2line -f -i -C` call.  With -i, addr2line prints the whole
inline chain of an address, innermost frame first, so two tables come out:

  self (inline-aware)  samples charged to the innermost frame — a function
                       inlined into the run loop keeps its own row (compiler
                       intrinsics are charged to their caller)
  containing function  samples charged to the outermost frame, the function
                       the code was actually emitted in

Rows are sorted by samples; percentages are of all samples, unresolved ones
included (they show up as "?").
"""

import argparse
import collections
import subprocess
import sys


def load(paths):
    counts = collections.Counter()  # (object, offset) -> samples
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("#") or not line.strip():
                    continue
                n, obj, off = line.split()
                counts[(obj, int(off, 16))] += int(n)
    return counts


def resolve(obj, offsets):
    """Map offset -> inline chain (innermost first) of function names."""
    if obj == "?":
        return {off: ["?"] for off in offsets}
    try:
        out = subprocess.run(
            ["addr2line", "-e", obj, "-f", "-i", "-C", "-a"],
            input="".join(f"0x{off:x}\n" for off in offsets),
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"sigprof_report: addr2line failed on {obj}: {e}")
    chains = {}
    current = None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        # Function-name line followed by its file:line line.
        chains[current].append(line)
        i += 2
    short = obj.rsplit("/", 1)[-1]
    for off in offsets:
        # Compiler intrinsics (_mm512_*, __builtin_*) are one instruction
        # each; charge them to the function that used them.
        chain = [f for f in chains.get(off, [])
                 if f != "??" and not f.startswith(("_mm", "__builtin"))]
        chains[off] = chain or [f"{short}+0x{off:x}"]
    return chains


def table(title, counter, total, top):
    print(f"# {title}")
    print(f"{'samples':>8} {'pct':>6}  function")
    for name, n in counter.most_common(top):
        print(f"{n:>8} {100.0 * n / total:>5.1f}%  {name}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples", nargs="+")
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args()

    counts = load(args.samples)
    total = sum(counts.values())
    if total == 0:
        sys.exit("sigprof_report: no samples (did the program exit normally?)")
    by_obj = collections.defaultdict(list)
    for obj, off in counts:
        by_obj[obj].append(off)

    self_t = collections.Counter()
    outer_t = collections.Counter()
    for obj, offsets in by_obj.items():
        chains = resolve(obj, sorted(offsets))
        for off in offsets:
            n = counts[(obj, off)]
            self_t[chains[off][0]] += n
            outer_t[chains[off][-1]] += n

    print(f"# {total} samples")
    table("self (inline-aware)", self_t, total, args.top)
    table("containing function", outer_t, total, args.top)


if __name__ == "__main__":
    main()
