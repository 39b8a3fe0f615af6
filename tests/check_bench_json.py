#!/usr/bin/env python3
"""Runs a bench binary with --json-out and checks the results document.

Usage: check_bench_json.py BENCH OUT.json KIND=COUNT [KIND=COUNT ...]

The document must parse, hold exactly the given record kinds ("runs",
"serve", "attack", "chaos", "tenants", "ddp") with the given record
counts, and every record must carry the fields scripts/bench_all.sh
reads. Exits non-zero with a message on the first violation.
"""

import json
import subprocess
import sys

# Dotted paths into each record kind that scripts/bench_all.sh reads.
FIELDS = {
    "runs": ["device", "error", "train.train_time_s", "train.steps",
             "train.plan.arena_bytes", "train.plan.replayed_steps"],
    "serve": ["latency.p99_s"],
    "attack": ["craft.p95_s"],
    "chaos": ["scenario", "supervised", "goodput_rps", "offered_rps",
              "degradation.p99_inflation", "degradation.recovery_s",
              "events.crashes", "events.restarts"],
    "tenants": ["scenario", "slo", "shed", "goodput_rps", "latency.p99_s"],
    "ddp": ["scenario", "workers", "shards", "step_time_s", "speedup",
            "scaling_efficiency", "bitwise_match", "dp_stalls"],
}


def fail(message):
    print(f"check_bench_json: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) < 4:
        fail(__doc__)
    bench, out = sys.argv[1], sys.argv[2]
    expected = {}
    for spec in sys.argv[3:]:
        kind, _, count = spec.partition("=")
        if kind not in FIELDS or not count.isdigit():
            fail(f"bad KIND=COUNT argument {spec!r}")
        expected[kind] = int(count)

    run = subprocess.run([bench, f"--json-out={out}"], check=False)
    if run.returncode != 0:
        fail(f"{bench} exited {run.returncode}")
    with open(out) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"top level is {type(doc).__name__}, not an object keyed by kind")
    if sorted(doc) != sorted(expected):
        fail(f"kinds {sorted(doc)}, expected {sorted(expected)}")
    for kind, count in expected.items():
        records = doc[kind]
        if len(records) != count:
            fail(f"{len(records)} {kind} records, expected {count}")
        for i, record in enumerate(records):
            for path in FIELDS[kind]:
                node = record
                for key in path.split("."):
                    if not isinstance(node, dict) or key not in node:
                        fail(f"{kind}[{i}] has no {path}")
                    node = node[key]
    print(f"check_bench_json: {out} ok "
          + ", ".join(f"{k}={n}" for k, n in expected.items()))


if __name__ == "__main__":
    main()
