#!/usr/bin/env python3
"""Summarises a span file written by a traced benchmark run.

    python3 hostbench/spans.py .bench_build/hostbench/spans-gcmc_app-1.jsonl

Prints, per span name: count, total ms, self ms and median ms. A span's self
time is its duration minus the time its child spans cover.
"""
import json
import statistics
import sys
from collections import defaultdict


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        spans = [json.loads(line) for line in f]
    child_us = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_us[s["parent"]] += s["dur_us"]
    by_name = defaultdict(list)
    for s in spans:
        # Op spans are named "op:<op>"; group them per workload op kind.
        name = "op" if s["name"].startswith("op:") else s["name"]
        by_name[name].append((s["dur_us"], s["dur_us"] - child_us[s["id"]]))
    print(f"{'span':34s} {'count':>6s} {'total_ms':>10s} {'self_ms':>10s} {'median_ms':>10s}")
    for name, rows in sorted(by_name.items(), key=lambda kv: -sum(r[0] for r in kv[1])):
        total = sum(r[0] for r in rows) / 1000
        self_ms = sum(r[1] for r in rows) / 1000
        med = statistics.median(r[0] for r in rows) / 1000
        print(f"{name:34s} {len(rows):6d} {total:10.2f} {self_ms:10.2f} {med:10.3f}")


if __name__ == "__main__":
    main()
