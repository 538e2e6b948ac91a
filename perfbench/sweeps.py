"""The two sweep workloads: `surface` (streamed, warm-started, per-point
overhead bound) and `scaling` (cold, materialised, large symmetric
machines). Both run the shipped `latol run` and check its rows."""

import csv
import json
import os

from common import Tally, rng_for, run_process

# --- surface ---------------------------------------------------------------

SURFACE_THREADS = [1, 2, 3, 4, 5, 6, 8]
SURFACE_P_REMOTE = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8]
SURFACE_LATENCY = {"from": 1, "to": 50, "steps": 1961}
SURFACE_COLUMNS = ["n_t", "p_remote", "memory_latency", "U_p", "S_obs",
                   "lambda_net", "tol_network", "solver", "converged"]


def surface_base(seed, threads):
    """Seed 0 is scenarios/tolerance_surface.json. Other seeds draw the
    runlength, switch delay and locality from Table 1's ranges, once per
    `threads` slice, so a run averages seven draws."""
    if seed == 0:
        return {"runlength": 10}
    r = rng_for(seed, "surface", threads)
    return {"runlength": round(r.uniform(10, 20), 3),
            "switch_delay": round(r.uniform(10, 20), 3),
            "p_sw": round(r.uniform(0.3, 0.7), 3)}


def surface_doc(base, threads, latency=SURFACE_LATENCY):
    """One `threads` slice of the 7 x 8 x 1961 tolerance surface. The seven
    slices together are the whole grid; each keeps all eight p_remote rows
    of its thread count, so ideal solves hit the cache as in one run."""
    return {
        "name": f"surface_t{threads}",
        "base": base,
        "axes": [{"param": "threads", "values": [threads]},
                 {"param": "p_remote", "values": SURFACE_P_REMOTE},
                 {"param": "memory_latency", "range": latency}],
        "outputs": {"network_tolerance": True, "columns": SURFACE_COLUMNS},
        "solver": {"warm_start": True},
    }


def surface_pass(seed, pass_no):
    return [surface_doc(surface_base(seed, t), t) for t in SURFACE_THREADS]


# --- scaling ---------------------------------------------------------------

# (topology, pattern, sizes): P grows as k^2 on the tori, k on the ring and
# 2^k on the hypercube, so every family reaches 100+ nodes.
SCALING_FAMILIES = [
    ("torus", "geometric", [6, 7, 8, 9, 10, 11, 12]),
    ("torus", "uniform", [6, 7, 8, 9, 10, 11, 12]),
    ("ring", "geometric", [36, 64, 100, 144]),
    ("hypercube", "geometric", [5, 6, 7]),
]
# Every pass uses the same thread counts and draws p_remote once per
# stratum, so every seed spans low to high remote traffic and costs about
# the same while no point repeats.
SCALING_THREADS = [2, 5, 8]
P_REMOTE_STRATA = [(0.05, 0.25), (0.25, 0.45), (0.45, 0.65)]


def scaling_doc(seed, pass_no, family):
    topology, pattern, sizes = family
    r = rng_for(seed, "scaling", pass_no, topology, pattern)
    p_remote = [round(r.uniform(lo, hi), 4) for lo, hi in P_REMOTE_STRATA]
    return {
        "name": f"scaling_{topology}_{pattern}",
        "base": {"topology": topology, "pattern": pattern},
        "axes": [{"param": "k", "values": sizes},
                 {"param": "threads", "values": SCALING_THREADS},
                 {"param": "p_remote", "values": p_remote}],
        "outputs": {"network_tolerance": True},
    }


def scaling_pass(seed, pass_no):
    return [scaling_doc(seed, pass_no, f) for f in SCALING_FAMILIES]


# --- running and checking ----------------------------------------------------

# CSV column -> scenario base key, for re-solving a row independently.
_BASE_KEY = {"n_t": "threads", "threads": "threads", "k": "k",
             "p_remote": "p_remote", "memory_latency": "memory_latency"}
CHECK_ROWS_PER_RUN = 2
CHECK_REL_TOL = 1e-8


def run_scenario(ctx, doc, stream, tally, checks, rng):
    """One `latol run` of `doc`; adds its cost to the tally and queues
    sampled rows for the independent re-solve."""
    name = doc["name"]
    path = os.path.join(ctx.workdir, name + ".json")
    out = os.path.join(ctx.workdir, "out_" + name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    argv = [ctx.latol, "run", path, "--format", "csv", "--out", out,
            "--no-cache", "--workers", str(ctx.workers)]
    if stream:
        argv.append("--stream")
    run = run_process(argv)
    tally.add_process(run)
    try:
        with open(os.path.join(out, name + ".manifest.json"),
                  encoding="utf-8") as f:
            manifest = json.load(f)
        with open(os.path.join(out, name + ".csv"), encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    except (OSError, ValueError) as e:
        tally.attempted += 1
        tally.failed += 1
        tally.problem(f"{name}: exit {run.returncode}, no output ({e})")
        return run.wall_s
    points = manifest["grid_points"]
    tally.ops += points
    tally.attempted += points
    tally.setup_s.append(run.wall_s - manifest["stages"]["solve_seconds"])
    for key in ("solves", "cache_hits"):
        tally.extras[key] = tally.extras.get(key, 0) + manifest[key]
    tally.extras["iterations"] = (tally.extras.get("iterations", 0)
                                  + manifest.get("warm", {}).get(
                                      "total_iterations", 0))
    bad = [r for r in rows if r["solver"] != "amva" or r["converged"] != "1"]
    bad_count = max(len(bad), manifest["degraded_points"]
                    + manifest["failed_points"], points - len(rows))
    if run.returncode != 0 or bad_count:
        tally.failed += max(bad_count, 1)
        tally.problem(f"{name}: exit {run.returncode}, {bad_count} unclean "
                      f"of {points} points")
    for row in rng.sample(rows, min(CHECK_ROWS_PER_RUN, len(rows))):
        base = dict(doc["base"])
        for column, key in _BASE_KEY.items():
            if column in row:
                value = float(row[column])
                base[key] = int(value) if key in ("threads", "k") else value
        checks.append((name, base, float(row["U_p"]),
                       float(row["tol_network"])))
    return run.wall_s


def verify_rows(ctx, checks, tally):
    """Re-solve sampled rows through plain qn::solve_amva (the layer
    harness) and hold the CLI's U_p and tol_network to 1e-8 relative."""
    if not checks:
        return
    src = os.path.join(ctx.workdir, "check_points.json")
    dst = os.path.join(ctx.workdir, "check_out.json")
    with open(src, "w", encoding="utf-8") as f:
        json.dump([base for _, base, _, _ in checks], f)
    run = run_process([ctx.harness, "check", src, dst])
    if run.returncode != 0:
        tally.failed += len(checks)
        tally.problem(f"re-solve failed: {run.output.strip()[-300:]}")
        return
    with open(dst, encoding="utf-8") as f:
        solved = json.load(f)
    for (name, base, up, tol), ref in zip(checks, solved):
        for what, got, want in (("U_p", up, ref["U_p"]),
                                ("tol_network", tol, ref["tol_network"])):
            if abs(got - want) > CHECK_REL_TOL * abs(want):
                tally.failed += 1
                tally.problem(f"{name} {base}: CLI {what} {got!r} vs plain "
                              f"AMVA {want!r}")


def run_sweeps(ctx, make_pass, stream):
    """Whole passes until the measured command time reaches the budget."""
    tally = Tally()
    checks = []
    pass_no = 0
    while tally.window_s < ctx.seconds:
        rng = rng_for(ctx.seed, "check", pass_no)
        ops, wall, cpu = tally.ops, tally.window_s, tally.cpu_s
        for doc in make_pass(ctx.seed, pass_no):
            tally.window_s += run_scenario(ctx, doc, stream, tally, checks,
                                           rng)
        tally.end_pass(tally.ops - ops, tally.window_s - wall,
                       tally.cpu_s - cpu, wait=True)
        pass_no += 1
    verify_rows(ctx, checks, tally)
    tally.extras["passes"] = pass_no
    tally.extras["checked_rows"] = len(checks)
    return tally


def run_surface(ctx):
    tally = run_sweeps(ctx, surface_pass, stream=True)
    base = surface_base(ctx.seed, 8)
    # Harness inputs: one slice cut to 491 points per row at the workload's
    # own spacing, and streamed in blocks scaled by the same 491/1961, so
    # warm starts, ideal-cache sharing and rows per block look the same.
    slice_doc = surface_doc(base, 8, {"from": 1, "to": 13.25, "steps": 491})
    tally.trace_inputs = {
        "block_points": 4096 * 491 // 1961,
        "scenarios": [slice_doc],
        "bodies": surface_pass(ctx.seed, 0),
        "sim_base": dict(base, threads=8),
    }
    return tally


def run_scaling(ctx):
    tally = run_sweeps(ctx, scaling_pass, stream=False)
    docs = scaling_pass(ctx.seed, 0)
    small = json.loads(json.dumps(docs[0]))
    small["axes"][0]["values"] = [6, 9, 12]
    small["axes"][1]["values"] = small["axes"][1]["values"][::2]
    small["axes"][2]["values"] = small["axes"][2]["values"][::2]
    tally.trace_inputs = {
        "scenarios": [small],
        "bodies": docs,
        "sim_base": {"k": 6, "threads": small["axes"][1]["values"][0],
                     "p_remote": small["axes"][2]["values"][0]},
    }
    return tally
