"""The `simulate` workload: `latol simulate` DES and STPN runs on the
paper's 4x4 machine and a 6x6 one, seeded from the workload seed."""

import re

from common import Tally, run_process

# (k, simulated time units for the DES, for the STPN): horizons sized so
# every command takes about 0.1 s, so a pass of four is short and a run
# gives about twenty per-pass samples.
SIM_MACHINES = [(4, 165000, 50000), (6, 60000, 10000)]
# EXPERIMENTS.md: simulated rates and latencies sit within 3.7% of the
# model, and AMVA's U_p runs ~3% low; 5% leaves room for seed noise.
UP_DEV_LIMIT_PCT = 5.0
SETUP_SAMPLES = 9

_COUNT = re.compile(r"time units, (\d+) (events|firings)")
_UP_ROW = re.compile(r"^\|\s*U_p\s*\|\s*([-\d.e+]+)\s*\|\s*([-\d.e+]+)\s*\|"
                     r"\s*([-\d.e+]+)\s*\|", re.M)


def simulate_argv(ctx, k, time_units, seed, petri):
    argv = [ctx.latol, "simulate", "--k", str(k), "--time", str(time_units),
            "--seed", str(seed)]
    return argv + (["--petri"] if petri else [])


def parse_simulation(output):
    """(kernel steps, U_p deviation %) from `latol simulate` output, or
    None when either is missing."""
    count = _COUNT.search(output)
    up = _UP_ROW.search(output)
    if not count or not up:
        return None
    return int(count.group(1)), float(up.group(3))


def run_simulate(ctx):
    tally = Tally()
    steps = {"des": [0, 0.0], "stpn": [0, 0.0]}
    first = {}
    pass_no = 0
    while tally.window_s < ctx.seconds:
        seed = ctx.seed + pass_no
        ops, wall, cpu = tally.ops, tally.window_s, tally.cpu_s
        for k, des_time, stpn_time in SIM_MACHINES:
            for petri in (False, True):
                argv = simulate_argv(ctx, k, stpn_time if petri else des_time,
                                     seed, petri)
                run = run_process(argv)
                tally.add_process(run)
                tally.window_s += run.wall_s
                tally.attempted += 1
                parsed = parse_simulation(run.output)
                if run.returncode != 0 or parsed is None:
                    tally.failed += 1
                    tally.problem(f"{' '.join(argv[1:])}: exit "
                                  f"{run.returncode}")
                    continue
                count, dev = parsed
                kind = "stpn" if petri else "des"
                steps[kind][0] += count
                steps[kind][1] += run.wall_s
                tally.ops += count
                first.setdefault((k, petri), (argv, count))
                if abs(dev) > UP_DEV_LIMIT_PCT:
                    tally.failed += 1
                    tally.problem(f"{' '.join(argv[1:])}: U_p deviates "
                                  f"{dev}% from the model")
        tally.end_pass(tally.ops - ops, tally.window_s - wall,
                       tally.cpu_s - cpu, wait=True)
        pass_no += 1
    # Per-seed kernel counts must repeat exactly.
    for argv, count in first.values():
        parsed = parse_simulation(run_process(argv).output)
        if parsed is None or parsed[0] != count:
            tally.failed += 1
            tally.problem(f"{' '.join(argv[1:])}: count {count} did not "
                          f"repeat ({parsed})")
    # Set-up: launch, model solve, STPN net build and compile, no horizon.
    for i in range(SETUP_SAMPLES):
        run = run_process(simulate_argv(ctx, SIM_MACHINES[-1][0], 1,
                                        ctx.seed + i, True))
        tally.setup_s.append(run.wall_s)
    tally.extras.update({
        "des_events_per_s": (steps["des"][0] / steps["des"][1], "events/s"),
        "stpn_firings_per_s": (steps["stpn"][0] / steps["stpn"][1],
                               "firings/s"),
        "passes": pass_no,
    })
    tally.trace_inputs = {
        "scenarios": [{"name": f"simulate_k{k}", "base": {"k": k},
                       "axes": [{"param": "p_remote",
                                 "values": [0.1, 0.2, 0.3]}],
                       "outputs": {"network_tolerance": True}}
                      for k, _, _ in SIM_MACHINES],
        "bodies": [],
        "sim": [{"base": {"k": k}, "time": t / 2,
                 "seeds": [ctx.seed, ctx.seed + 1], "reps": 2}
                for k, _, t in SIM_MACHINES],
    }
    return tally
