"""Shared pieces of the benchmark: timed child processes, percentiles, and
the per-pass tally every workload fills in."""

import os
import random
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field

# A single child process may not run longer than this; the benchmark as a
# whole must finish well inside its own 180-second limit.
PROCESS_TIMEOUT_S = 120.0


@dataclass
class ProcessRun:
    returncode: int
    output: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(argv, cwd=None, timeout=PROCESS_TIMEOUT_S):
    """Run argv to completion; wall time, user+sys CPU and peak RSS come
    from wait4 on the child itself, so they count only that process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(proc.returncode, output.decode("utf-8", "replace"),
                      wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)


def reap(proc):
    """wait4 a Popen child; returns (returncode, cpu_s, peak_rss_mb)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def percentile(values, q):
    """Linear-interpolated percentile q (1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(count):
    """The highest percentile up to 99 that leaves at least ten samples
    beyond it, and never below the median."""
    return max(50, min(99, int(100 * (1 - 10 / count)))) if count else 50


def rng_for(seed, *salt):
    """Deterministic generator for (workload seed, stream name, ...)."""
    return random.Random(":".join(str(s) for s in (seed,) + salt))


@dataclass
class Tally:
    """What the measured passes of a workload produced.

    Each pass adds (operations, wall s, CPU s); throughput and CPU per
    operation are medians over passes, so one disturbed pass does not move
    them. Latencies are the user-visible waits in milliseconds: HTTP
    requests, or whole passes of CLI commands."""
    ops: float = 0.0
    window_s: float = 0.0
    passes: list = field(default_factory=list)
    cpu_s: float = 0.0
    process_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    # Issue-named metrics of this workload: name -> (value, unit).
    extras: dict = field(default_factory=dict)
    # Inputs and outputs the traced run replays through the layer harness.
    trace_inputs: dict = field(default_factory=dict)

    def add_process(self, run):
        self.cpu_s += run.cpu_s
        self.process_wall_s += run.wall_s
        self.peak_rss_mb = max(self.peak_rss_mb, run.peak_rss_mb)

    def problem(self, message):
        if len(self.problems) < 20:
            self.problems.append(message)

    def end_pass(self, ops, wall_s, cpu_s, wait=False):
        """Close a pass; `wait` also records its wall time as a latency
        sample (CLI workloads, where the user waits for the whole pass)."""
        self.passes.append((ops, wall_s, cpu_s))
        if wait:
            self.latencies_ms.append(1e3 * wall_s)

    def end_to_end(self):
        lat = self.latencies_ms
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_s": (statistics.median(o / w for o, w, _ in self.passes),
                          "1/s"),
            "cpu_us_per_op": (statistics.median(1e6 * c / o
                                                for o, _, c in self.passes),
                              "us"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "latency_p50_ms": (statistics.median(lat), "ms"),
            "latency_tail_ms": (percentile(lat, tail_percentile(len(lat))),
                                "ms"),
        }
