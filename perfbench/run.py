#!/usr/bin/env python3
"""The latol benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the shipped `latol` CLI
and the layer harness (Release, warnings not fatal) into
.bench_build/perfbench. With --trace 0 it times the CLI and prints the
end-to-end metrics; with --trace 1 it repeats the workload, then drives each
layer's public functions through the traced harness and prints the
per-layer metrics. Either way it checks the program's outputs, and its last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. perfbench/README.md says
what every workload and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Tally, run_process  # noqa: E402
from serve_mix import (run_serve_mix, serve_layer_metrics,  # noqa: E402
                       session, trace_inputs)
from simulate import run_simulate  # noqa: E402
from sweeps import run_scaling, run_surface  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"

WORKLOADS = {
    "surface": run_surface,
    "scaling": run_scaling,
    "serve_mix": run_serve_mix,
    "simulate": run_simulate,
}
# Worker threads per workload: `latol run --workers`, the daemon's
# max_concurrent, and the harness's parallel loops. scaling runs short
# commands whose fresh thread pool must wake every core at once, so on a
# shared machine its wall time swings with how many cores are free; one
# worker (the pool thread plus the caller) keeps it steady. The surface
# keeps at most two rows in flight per block, so it never uses more than
# about two threads either way.
WORKERS = {"surface": min(4, os.cpu_count() or 1), "scaling": 1,
           "serve_mix": 2, "simulate": 1}

PROBE_SECONDS = 2.0


@dataclass
class Context:
    seed: int
    seconds: float
    workers: int
    latol: str
    harness: str
    workdir: str


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build of the two targets."""
    if not (BUILD_DIR / "build.ninja").exists() and \
            not (BUILD_DIR / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--parallel",
                    str(os.cpu_count() or 1), "--target", "latol",
                    "perfbench_layers"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (str(BUILD_DIR / "latol" / "cli" / "latol"),
            str(BUILD_DIR / "perfbench_layers"))


def source_identity():
    """The commit when the checkout is a git repository, otherwise a hash
    of src/ so results from different code never look alike."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
        if head:
            return head
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def compiler_identity():
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
            out = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout
            return out.splitlines()[0] if out else cxx
    return "unknown"


def issue_metrics(workload, tally):
    """The workload's metrics under the names of the benchmark's design
    table (README.md), for people reading the log."""
    e2e = tally.end_to_end()
    out = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
           "fail_frac": (tally.failed / max(tally.attempted, 1), "ratio")}
    if workload in ("surface", "scaling"):
        out["points_per_s"] = (e2e["ops_per_s"][0], "points/s")
        out["cpu_ms_per_point"] = (e2e["cpu_us_per_op"][0] / 1e3, "ms")
    for name, value in tally.extras.items():
        if isinstance(value, tuple):
            out[name] = value
    return out


def print_report(workload, tally, meta):
    print(f"# workload {workload}: " + json.dumps(meta))
    for name, (value, unit) in issue_metrics(workload, tally).items():
        print(f"#   {name} = {value:.6g} {unit}")
    counts = {k: v for k, v in tally.extras.items()
              if not isinstance(v, tuple)}
    print(f"#   attempted = {tally.attempted}, failed = {tally.failed}, "
          f"latency samples = {len(tally.latencies_ms)}, "
          f"set-up samples = {len(tally.setup_s)}, " + json.dumps(counts))
    rates = sorted(ops / wall for ops, wall, _ in tally.passes)
    print(f"#   {len(rates)} passes, ops/s per pass: min {rates[0]:.6g}, "
          f"median {rates[len(rates) // 2]:.6g}, max {rates[-1]:.6g}")
    for problem in tally.problems:
        print(f"#   problem: {problem}")


# --- traced run ------------------------------------------------------------------

PER_LAYER_UNITS = {
    "topo.traffic.build_us": "us", "core.model.build_us": "us",
    "core.network.build_us": "us", "core.tolerance.ideal_us": "us",
    "qn.workspace.bind_us": "us", "qn.amva.solve_us": "us",
    "qn.amva.iterations": "count", "qn.amva.slots": "count",
    "qn.robust.degraded_ratio": "ratio", "exp.grid.config_at_us": "us",
    "exp.cache.hit_ratio": "ratio", "exp.cache.hit_us": "us",
    "exp.cache.miss_us": "us", "exp.row.emit_us": "us",
    "exp.scenario.load_us": "us", "exp.stream.concurrency": "ratio",
    "io.json.parse_us": "us", "io.json.dump_us": "us",
    "serve.http.head_parse_us": "us",
    "sim.des.events": "count", "sim.stpn.firings": "count",
    "sim.des.ns_per_event": "ns", "sim.stpn.ns_per_firing": "ns",
    "sim.stpn.compile_ms": "ms", "sim.rep.discarded_ratio": "ratio",
    "obs.trace_overhead_frac": "ratio", "obs.littles_law_gap_frac": "ratio",
}


def layer_plan(ctx, workload, tally):
    """Harness inputs for the workload. serve_mix brings its own requests
    and replies; the others add a short probe of the serve mix so the
    request-path layers are measured on every workload."""
    inputs = tally.trace_inputs
    serve = inputs.get("serve")
    requests = list(inputs.get("requests", []))
    responses = list(inputs.get("responses", []))
    if serve is None:
        probe = Tally()
        warmup, records, metrics = session(ctx, PROBE_SECONDS, probe, 1)
        serve = serve_layer_metrics(records, metrics)
        probed = trace_inputs(warmup + records)
        requests += probed["requests"]
        responses += probed["responses"]
        for doc in inputs.get("bodies", []):
            payload = json.dumps(doc)
            requests.append({"head": "POST /v1/scenario HTTP/1.1\r\nHost: "
                             f"perfbench\r\nContent-Length: {len(payload)}",
                             "body": payload})
    sim = inputs.get("sim") or [{
        "base": inputs.get("sim_base", {"k": 4}), "time": 20000,
        "seeds": [ctx.seed, ctx.seed + 1], "reps": 2}]
    plan = {"workers": ctx.workers, "scenarios": inputs["scenarios"],
            "block_points": inputs.get("block_points", 0),
            "requests": requests, "responses": responses, "sim": sim}
    return plan, serve


def traced(ctx, workload, tally):
    plan, serve = layer_plan(ctx, workload, tally)
    plan_path = os.path.join(ctx.workdir, "plan.json")
    out_path = os.path.join(ctx.workdir, "layers.json")
    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload}-{ctx.seed}.json"
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)
    run = run_process([ctx.harness, "layers", plan_path, out_path,
                       str(spans_path)])
    if run.returncode != 0:
        raise RuntimeError(f"layer harness failed: {run.output[-500:]}")
    with open(out_path, encoding="utf-8") as f:
        harness = json.load(f)
    metrics = {name: (harness[name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    metrics.update(serve)
    # CPU over wall of the untraced workload pass: the serve daemon's over
    # the closed-loop window, the CLI commands' over their own wall time.
    wall = tally.window_s if workload == "serve_mix" else tally.process_wall_s
    metrics["util.threads_busy"] = (tally.cpu_s / wall, "ratio")
    print(f"# traced: spans in {spans_path.relative_to(ROOT)}; cache hit "
          f"ratio {harness['exp.cache.hits']:.0f} of "
          f"{harness['exp.cache.lookups']:.0f} lookups; Little's law: "
          f"{harness['littles.points_per_s']:.6g} points/s x "
          f"{harness['littles.latency_s']:.6g} s = "
          f"{harness['littles.in_flight']:.4f} in flight vs "
          f"{harness['littles.threads_busy']:.4f} threads busy")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        latol, harness = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    workers = WORKERS[args.workload]
    work_root = ROOT / ".bench_build" / "work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, args.seconds, workers, latol, harness,
                  str(workdir))
    meta = {"build_type": BUILD_TYPE, "compiler": compiler_identity(),
            "commit": source_identity(), "nproc": os.cpu_count(),
            "workers": workers, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    try:
        started = time.perf_counter()
        tally = WORKLOADS[args.workload](ctx)
        print_report(args.workload, tally, meta)
        if args.trace:
            metrics = traced(ctx, args.workload, tally)
        else:
            metrics = tally.end_to_end()
        log(f"{args.workload} seed {args.seed} done in "
            f"{time.perf_counter() - started:.1f} s")
    except Exception as e:  # noqa: BLE001 - report, never print a result
        log(f"{args.workload} failed: {type(e).__name__}: {e}")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
