#!/usr/bin/env python3
"""Compares two sets of benchmark results.

Usage:

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result records as perfbench/run.py appends them to
.bench_out/results.jsonl (run each side ten or more times, with different
seeds). For every workload and end-to-end metric it prints both sides'
medians and quartiles and a verdict, using the bounds in BENCHMARK.json:

  worse       the change's median is worse than the base's by more than
              the metric's bound (a regression; exit code 1)
  better      the quartile ranges do not overlap, in the better direction
  unresolved  the base's own spread (quartile distance / median) exceeds
              the bound, so the runs cannot tell
  same        none of the above

It refuses (exit code 2) to compare results whose machine fingerprints
differ, or that mix fingerprints within one side.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    records = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0 and rec["result"]["correct"]:
                    records.append(rec)
    return records


def fingerprint(records, path):
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(prints) != 1:
        sys.exit(f"compare.py: {path} holds {len(prints)} machine "
                 "fingerprints; refusing to compare")
    return prints.pop()


def value(record, name):
    return record["result"]["metrics"][name]["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    if not base or not change:
        print("compare.py: no correct end-to-end results to compare",
              file=sys.stderr)
        return 2
    fb, fc = fingerprint(base, argv[1]), fingerprint(change, argv[2])
    if fb != fc:
        print(f"compare.py: fingerprints differ, refusing to compare\n"
              f"  base:   {fb}\n  change: {fc}", file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]

    regressions = 0
    print(f"fingerprint {fb}")
    for workload in sorted({r["workload"] for r in base}):
        b_runs = [r for r in base if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not c_runs:
            continue
        print(f"{workload} ({len(b_runs)} base runs, "
              f"{len(c_runs)} change runs)")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            bq = quartiles([value(r, name) for r in b_runs])
            cq = quartiles([value(r, name) for r in c_runs])
            delta = (cq[1] - bq[1]) / bq[1]
            worse_by = -delta if higher else delta
            if worse_by > bound:
                verdict = "worse"
                regressions += 1
            elif (cq[0] > bq[2]) if higher else (cq[2] < bq[0]):
                verdict = "better"
            elif (bq[2] - bq[0]) / bq[1] > bound:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:18} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f"  change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
                  f"  {delta:+.1%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
