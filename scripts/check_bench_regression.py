#!/usr/bin/env python3
"""Guard against solver performance regressions.

Usage: check_bench_regression.py <baseline.json> <current.json> [--limit PCT]

Compares two BENCH_*.json files (the format written by the perf_*
binaries' JSON tee, see docs/PERFORMANCE.md) benchmark-by-benchmark.
Throughput benchmarks (those reporting items_per_second, e.g. the
simulator's events/s) are compared on baseline/current throughput, which
stays meaningful when the work per iteration varies or the benchmark
measures real time across worker threads; the rest are compared on
cpu_time. A benchmark run with --benchmark_repetitions has one row per
repetition under one name; it is summarized by the median of those
rows (aggregate rows are skipped). Either way a ratio > 1 means "slower
now". Because the
baseline is committed from a different machine than the CI runner, raw
numbers are not comparable; instead each benchmark's ratio is normalized
by the median ratio across all shared benchmarks. The median captures
the machine-speed difference; a benchmark whose normalized ratio exceeds
1 + limit (default 20%) has slowed down relative to its peers and fails
the check.

Benchmarks present in only one file are reported but do not fail — new
benchmarks have no baseline yet, and retired ones no current number.
Standard library only. Exits 0 when within limits, 1 otherwise.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    reps = {}
    for b in doc["benchmarks"]:
        # Aggregate rows (name_mean, name_median, ...) would double-count.
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        reps.setdefault(b["name"], []).append(
            (float(b["cpu_time"]), float(ips) if ips else None))
    # The median repetition, so one disturbed repetition moves nothing.
    out = {}
    for name, rows in reps.items():
        rates = [r for _, r in rows if r]
        out[name] = (statistics.median(t for t, _ in rows),
                     statistics.median(rates) if rates else None)
    return out


def slowdown_ratio(base, curr):
    """current-vs-baseline slowdown (> 1 means slower now).

    Throughput benchmarks compare on items/s — events or firings per
    second — so the ratio tracks delivered work even when iteration
    counts or thread timing differ; time-only benchmarks fall back to
    cpu_time.
    """
    (base_time, base_ips), (curr_time, curr_ips) = base, curr
    if base_ips and curr_ips:
        return base_ips / curr_ips
    return curr_time / base_time


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--limit", type=float, default=20.0,
                    help="allowed slowdown in percent after normalization "
                         "(default 20)")
    args = ap.parse_args(argv[1:])

    base = load(args.baseline)
    curr = load(args.current)

    shared = sorted(set(base) & set(curr))
    for name in sorted(set(base) - set(curr)):
        print(f"note: `{name}` only in baseline (retired?)")
    for name in sorted(set(curr) - set(base)):
        print(f"note: `{name}` only in current (no baseline yet)")
    if len(shared) < 3:
        print(f"error: only {len(shared)} shared benchmark(s); need >= 3 "
              f"for a meaningful median normalization")
        return 1

    ratios = {n: slowdown_ratio(base[n], curr[n]) for n in shared
              if base[n][0] > 0}
    median = statistics.median(ratios.values())
    print(f"median current/baseline ratio: {median:.3f} "
          f"(machine-speed normalization factor)")

    threshold = 1.0 + args.limit / 100.0
    failures = 0
    for name in shared:
        norm = ratios[name] / median
        flag = ""
        if norm > threshold:
            flag = f"  <-- REGRESSION (> {args.limit:.0f}%)"
            failures += 1
        print(f"  {name}: {norm - 1.0:+.1%} vs peers{flag}")
    if failures:
        print(f"\ncheck_bench_regression: {failures} benchmark(s) slowed "
              f"down more than {args.limit:.0f}% relative to the rest.")
        return 1
    print("check_bench_regression: no regression beyond "
          f"{args.limit:.0f}%.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
