#!/usr/bin/env python3
"""Compare two sets of perfbench runs, refusing when their host stamps differ.

usage: python3 perfbench/compare.py BASE NEW

BASE and NEW each hold the standard output of one or more perfbench runs (every run
prints a `{"record": ...}` line). For every workload and mode present in both, the
script prints each metric's median and quartiles on both sides and the change of the
medians. It exits with 2, comparing nothing, when any run's host stamp (CPU model,
nproc, SIMD tier, GEMM engine, REALM_FORCE_SCALAR) differs from the others, or when the
two sides were run on different seeds.
"""

import json
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "simd_tier", "gemm_engine", "force_scalar")


def records(path):
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith('{"record":'):
                yield json.loads(line)["record"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = [list(records(p)) for p in argv[1:]]
    if not all(sides):
        print("compare: each file needs at least one record line", file=sys.stderr)
        return 2
    stamps = {tuple(r[k] for k in HOST_KEYS) for side in sides for r in side}
    if len(stamps) != 1:
        print("compare: refusing, host stamps differ:", file=sys.stderr)
        for stamp in sorted(stamps, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, stamp)), file=sys.stderr)
        return 2
    groups = [{} for _ in sides]
    for group, side in zip(groups, sides):
        for r in side:
            group.setdefault((r["workload"], r["trace"]), []).append(r)
    for key in sorted(set(groups[0]) & set(groups[1])):
        base, new = groups[0][key], groups[1][key]
        seeds = [sorted(r["seed"] for r in runs) for runs in (base, new)]
        if seeds[0] != seeds[1]:
            print(f"compare: refusing {key[0]}: the sides ran different seeds", file=sys.stderr)
            return 2
        revs = [sorted({r["git_rev"] for r in runs}) for runs in (base, new)]
        print(f"== {key[0]} ({'traced' if key[1] else 'untraced'}), {len(base)} vs {len(new)} runs, "
              f"rev {','.join(revs[0])} -> {','.join(revs[1])}")
        print(f"{'metric':34s} {'unit':8s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} {'change':>8s}")
        for name, first in base[0]["metrics"].items():
            b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{name:34s} {first['unit']:8s} {fmt(bq):>32s} {fmt(nq):>32s} {change:>+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
