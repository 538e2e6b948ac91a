#!/usr/bin/env python3
"""Validate a latol metrics document against the documented schema.

Usage: check_metrics.py <metrics.json>
       check_metrics.py --prom <metrics.txt>

Checks the JSON written by `latol run/profile --metrics-out` (and the
smaller `analyze`/`sweep` variants) against DESIGN.md §9; the run,
profile and analyze documents carry the writer's own
`process.peak_rss_kb`. With --prom, checks a Prometheus text exposition
scraped from the daemon's GET /metrics instead (DESIGN.md §11):
well-formed sample lines, a # TYPE declaration per metric, counters
named *_total / *_count, and the always-present serve and process
gauges. Standard library only, so CI can run it without installing
anything. Exits 0 when the document is valid, 1 with a list of
violations otherwise.
"""

import json
import re
import sys

FORMAT = "latol-metrics-v2"

STAGE_KEYS = ["expand_seconds", "solve_seconds", "validate_seconds",
              "wall_seconds"]
CACHE_KEYS = ["hits", "misses", "evictions", "preloaded"]
POINT_NUMBERS = ["iterations", "residual", "residual_history_length",
                 "littles_law_error", "flow_balance_error"]
POINT_FLAGS = ["converged", "degraded"]

errors = []


def fail(msg):
    errors.append(msg)


def require(obj, key, types, where):
    if not isinstance(obj, dict) or key not in obj:
        fail(f"{where}: missing `{key}`")
        return None
    value = obj[key]
    # bool is an int subclass in Python; never accept it where a number
    # is required, and only accept it where a flag is.
    if types is bool:
        if not isinstance(value, bool):
            fail(f"{where}.{key}: expected bool, got {type(value).__name__}")
            return None
    elif isinstance(value, bool) or not isinstance(value, types):
        fail(f"{where}.{key}: expected {types}, got {type(value).__name__}")
        return None
    return value


def check_point(point, where):
    require(point, "solver", str, where)
    for key in POINT_FLAGS:
        require(point, key, bool, where)
    for key in POINT_NUMBERS:
        require(point, key, (int, float), where)


def check_process(doc):
    """`process.peak_rss_kb`: the writing process's own peak RSS."""
    process = require(doc, "process", dict, "$")
    if process is not None:
        rss = require(process, "peak_rss_kb", int, "$.process")
        if rss is not None and rss <= 0:
            fail(f"$.process.peak_rss_kb: expected > 0, got {rss}")


def check_scenario_doc(doc):
    """The full document of `latol run/profile --metrics-out`."""
    check_process(doc)
    require(doc, "scenario", str, "$")
    require(doc, "scenario_hash", str, "$")
    require(doc, "build", str, "$")
    stages = require(doc, "stages", dict, "$")
    if stages is not None:
        for key in STAGE_KEYS:
            require(stages, key, (int, float), "$.stages")
    cache = require(doc, "cache", dict, "$")
    if cache is not None:
        for key in CACHE_KEYS:
            require(cache, key, int, "$.cache")
    points = require(doc, "points", list, "$")
    if points is not None:
        for i, point in enumerate(points):
            where = f"$.points[{i}]"
            if not isinstance(point, dict):
                fail(f"{where}: expected object")
                continue
            require(point, "index", int, where)
            require(point, "cache_hit", bool, where)
            check_point(point, where)
    warnings = require(doc, "warnings", list, "$")
    if warnings is not None:
        for i, warning in enumerate(warnings):
            where = f"$.warnings[{i}]"
            if not isinstance(warning, dict):
                fail(f"{where}: expected object")
                continue
            require(warning, "point", int, where)
            require(warning, "message", str, where)
    if "registry" in doc:
        registry = doc["registry"]
        for section in ("counters", "gauges", "timers"):
            require(registry, section, dict, "$.registry")
        histograms = require(registry, "histograms", dict, "$.registry")
        if histograms is not None:
            for name, hist in histograms.items():
                check_histogram(hist, f"$.registry.histograms[{name}]")


def check_histogram(hist, where):
    """One log-bucket histogram: parallel `le`/`buckets` arrays where
    `le[i]` is the inclusive upper bound of `buckets[i]` (the final null
    bound is the overflow bucket), and the counts total `count`."""
    if not isinstance(hist, dict):
        fail(f"{where}: expected object")
        return
    count = require(hist, "count", (int, float), where)
    require(hist, "sum", (int, float), where)
    le = require(hist, "le", list, where)
    buckets = require(hist, "buckets", list, where)
    if le is None or buckets is None:
        return
    if len(le) != len(buckets):
        fail(f"{where}: le/buckets length mismatch "
             f"({len(le)} vs {len(buckets)})")
        return
    if not le or le[-1] is not None:
        fail(f"{where}: last `le` bound must be null (overflow bucket)")
    previous = 0.0
    for i, bound in enumerate(le[:-1]):
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            fail(f"{where}.le[{i}]: expected number")
            return
        if bound <= previous:
            fail(f"{where}.le[{i}]: bounds must increase "
                 f"({bound} after {previous})")
        previous = bound
    total = 0
    for i, n in enumerate(buckets):
        if isinstance(n, bool) or not isinstance(n, (int, float)) or n < 0:
            fail(f"{where}.buckets[{i}]: expected non-negative count")
            return
        total += n
    if count is not None and total != count:
        fail(f"{where}: bucket counts total {total}, count says {count}")


def check_command_doc(doc, command):
    """The smaller documents of `latol analyze/sweep --metrics-out`."""
    require(doc, "build", str, "$")
    if command == "analyze":
        check_process(doc)
        point = require(doc, "point", dict, "$")
        if point is not None:
            check_point(point, "$.point")
        require(doc, "warnings", list, "$")
    elif command == "sweep":
        points = require(doc, "points", list, "$")
        if points is not None:
            for i, point in enumerate(points):
                check_point(point, f"$.points[{i}]")
    else:
        fail(f"$.command: unknown command `{command}`")


PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# A histogram bucket sample: name{le="<bound>"} — the only label latol
# emits.
PROM_BUCKET = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)\{le="(?P<le>[^"]+)"\}$')
PROM_REQUIRED = ["latol_serve_queue_depth", "latol_serve_in_flight",
                 "latol_process_peak_rss_kb"]


def parse_prom_value(text):
    if text in ("NaN", "+Inf", "-Inf"):
        return 0.0
    return float(text)  # raises ValueError on junk


def histogram_base(name):
    """The declared histogram a series name belongs to, or None."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[:-len(suffix)]
    return None


def check_prom_text(text):
    """A Prometheus exposition from the daemon's GET /metrics."""
    declared = {}  # metric name -> TYPE
    sampled = set()
    hist_buckets = {}  # base -> last cumulative bucket value
    hist_counts = {}  # base -> value of base_count
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    fail(f"{where}: malformed TYPE declaration")
                    continue
                _, _, name, kind = parts
                if not PROM_NAME.match(name):
                    fail(f"{where}: illegal metric name `{name}`")
                if kind not in ("counter", "gauge", "histogram"):
                    fail(f"{where}: unexpected metric type `{kind}`")
                if name in declared:
                    fail(f"{where}: duplicate TYPE for `{name}`")
                declared[name] = kind
            continue
        parts = line.split()
        if len(parts) != 2:
            fail(f"{where}: expected `name value`, got `{line}`")
            continue
        name, value = parts
        labels = None
        bucket = PROM_BUCKET.match(name)
        if bucket is not None:
            name = bucket.group("name")
            labels = bucket.group("le")
        if not PROM_NAME.match(name):
            fail(f"{where}: illegal metric name `{name}`")
            continue
        try:
            number = parse_prom_value(value)
        except ValueError:
            fail(f"{where}: `{name}` has non-numeric value `{value}`")
            continue
        sampled.add(name)
        base = histogram_base(name)
        if base is not None and declared.get(base) == "histogram":
            # Histogram series: buckets carry the le label and must be
            # cumulative; _sum/_count are bare.
            sampled.add(base)
            if name.endswith("_bucket"):
                if labels is None:
                    fail(f"{where}: `{name}` needs an le label")
                    continue
                if labels != "+Inf":
                    try:
                        float(labels)
                    except ValueError:
                        fail(f"{where}: `{name}` has bad le `{labels}`")
                previous = hist_buckets.get(base, 0.0)
                if number < previous:
                    fail(f"{where}: `{name}` buckets not cumulative "
                         f"({value} after {previous})")
                hist_buckets[base] = number
                if labels == "+Inf":
                    hist_counts.setdefault(base, None)
            elif name.endswith("_count"):
                hist_counts[base] = number
            continue
        if labels is not None:
            fail(f"{where}: unexpected label on `{name}`")
            continue
        if name not in declared:
            fail(f"{where}: `{name}` sampled without a TYPE declaration")
            continue
        if declared[name] == "counter":
            if not (name.endswith("_total") or name.endswith("_count")
                    or name.endswith("_seconds_total")):
                fail(f"{where}: counter `{name}` must end in _total/_count")
            if number < 0:
                fail(f"{where}: counter `{name}` is negative ({value})")
    for base, count in hist_counts.items():
        if count is not None and hist_buckets.get(base) != count:
            fail(f"histogram `{base}`: +Inf bucket "
                 f"{hist_buckets.get(base)} != count {count}")
    for name in declared:
        if name not in sampled:
            fail(f"TYPE declared for `{name}` but no sample followed")
    for name in PROM_REQUIRED:
        if name not in sampled:
            fail(f"required serve metric `{name}` is missing")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--prom":
        try:
            with open(sys.argv[2], encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"check_metrics: cannot read {sys.argv[2]}: {e}",
                  file=sys.stderr)
            return 1
        check_prom_text(text)
        if errors:
            for error in errors:
                print(f"check_metrics: {error}", file=sys.stderr)
            print(f"check_metrics: {sys.argv[2]}: "
                  f"{len(errors)} violation(s)", file=sys.stderr)
            return 1
        print(f"check_metrics: {sys.argv[2]}: ok")
        return 0
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_metrics: cannot read {sys.argv[1]}: {e}",
              file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        print("check_metrics: document is not a JSON object",
              file=sys.stderr)
        return 1
    if doc.get("format") != FORMAT:
        fail(f"$.format: expected `{FORMAT}`, got `{doc.get('format')}`")
    elif "command" in doc:
        check_command_doc(doc, doc["command"])
    else:
        check_scenario_doc(doc)
    if errors:
        for error in errors:
            print(f"check_metrics: {error}", file=sys.stderr)
        print(f"check_metrics: {sys.argv[1]}: {len(errors)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"check_metrics: {sys.argv[1]}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
