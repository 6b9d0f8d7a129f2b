#!/usr/bin/env python3
"""Compare two sets of llp_bench records.

    python3 llp_bench/compare.py A.jsonl B.jsonl [--benchmark BENCHMARK.json]

A and B are JSON-lines files written by llp_bench --record (run.py appends
to .bench_build/records.jsonl); A is the parent, B the change. For every
workload and metric the table gives each side's median, quartiles and run
count, the change of the median, and a verdict under the bound that
BENCHMARK.json fixes for the metric:

  same        the medians differ by no more than the bound
  better      B improved by more than the bound
  WORSE       B regressed by more than the bound
  unresolved  either side's spread (quartile distance over median) exceeds
              the bound, and not every B run beats every A run

Per-layer metrics (traced records) have no bound and get no verdict. Runs
of the same workload and seed must also produce the same output checksums;
any change is flagged. Exit status 1 when a metric is WORSE or a checksum
changed, else 0.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    records = []
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{n}: {e}")
    return records


def by_metric(records):
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            out[(r["workload"], r["traced"])][name].append(m["value"])
    return out


def summary(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) >= 2 else (med, med, med)
    return med, q1, q3


def verdict(a, b, better, bound):
    ma, qa1, qa3 = summary(a)
    mb, qb1, qb3 = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb - ma) / ma  # > 0: B is worse
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb))
    b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound:
        return "better" if b_wins else "unresolved"
    if change > bound:
        return "WORSE"
    if change < -bound:
        return "better"
    return "same"


def checksums(records):
    out = {}
    for r in records:
        if r["traced"]:
            continue
        for label, c in r.get("details", {}).get("configs", {}).items():
            out.setdefault((r["workload"], r["seed"], label), set()).add(
                c["checksum"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--benchmark",
                    default=str(Path(__file__).resolve().parent.parent /
                                "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({k: m["better"] for k, m in bounds.items()})

    ra, rb = load(args.a), load(args.b)
    ma, mb = by_metric(ra), by_metric(rb)
    bad = False
    print(f"{'workload':16} {'metric':34} {'A median [q1, q3] n':>32} "
          f"{'B median [q1, q3] n':>32} {'change':>8}  verdict")
    for key in sorted(set(ma) & set(mb)):
        workload, traced = key
        for name in sorted(set(ma[key]) & set(mb[key])):
            a, b = ma[key][name], mb[key][name]
            sa, sb = summary(a), summary(b)
            change = (sb[0] - sa[0]) / sa[0] if sa[0] else float("nan")
            v = "-"
            if not traced and name in bounds:
                v = verdict(a, b, better[name], bounds[name]["bound"])
                bad |= v == "WORSE"
            cell = lambda s, n: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] {n}"
            print(f"{workload:16} {name:34} {cell(sa, len(a)):>32} "
                  f"{cell(sb, len(b)):>32} {change:+8.2%}  {v}")
    ca, cb = checksums(ra), checksums(rb)
    for k in sorted(set(ca) & set(cb)):
        if ca[k] != cb[k] or len(ca[k]) > 1:
            bad = True
            print(f"CHECKSUM CHANGED {k[0]} seed {k[1]} {k[2]}: "
                  f"{sorted(ca[k])} -> {sorted(cb[k])}")
    for name, rs in (("A", ra), ("B", rb)):
        failed = [r for r in rs if not r["correct"]]
        if failed:
            bad = True
            print(f"{name}: {len(failed)} of {len(rs)} runs failed their checks")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
