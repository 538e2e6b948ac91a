"""The `serve_mix` workload: a closed loop of two client connections against
`latol serve` (max_concurrent 2, default queue_limit, no deadlines)."""

import functools
import hashlib
import itertools
import json
import os
import selectors
import signal
import socket
import statistics
import subprocess
import threading
import time

from common import Tally, percentile, reap, rng_for, run_process

CLIENTS = 2
SETUP_SAMPLES = 9
BUCKET_S = 0.5
# Untimed loop before the window: the pool scenarios' first (cold) solves
# and the daemon's first-touch costs fall here.
WARMUP_S = 1.0
# Requests prepared per second of window, well above the observed rate
# (~350-500/s); later ones are built on the fly.
PREPARED_PER_S = 1000
CLI_COMPARISONS = 6
# The mix is dealt in blocks of 20 requests, shuffled per block by the
# seed: 7 pool scenarios (35%), 2 fresh scenarios (10%), 8 symmetric-torus
# commands (40%), 3 mesh or hotspot commands (15%). Fixed shares, and
# command parameters dealt in whole cycles of their combinations, keep the
# cost of a run nearly the same for every seed; the seed decides the
# order, the pool grids and the fresh grids' runlengths.
# Sorted by latency, the pool reads (~0.4 ms) and the k = 4 analyze
# commands (~0.7 ms) fill the lowest 42%; the fresh grids and the k = 4
# tolerance commands, symmetric or not (~1.5 ms each), fill the next 22%.
# The median
# falls inside that second cluster, not in the gap below it, so a small
# shift in ranks moves it little.
BLOCK = (["scenario_hit"] * 7 + ["scenario_miss"] * 2 + ["command_sym"] * 8
         + ["command_asym"] * 3)
CLASSES = sorted(set(BLOCK))
# Command combinations: (k, variant, threads, p_remote). Symmetric tori run
# analyze or tolerance; the asymmetric class runs tolerance on a mesh or
# with a hotspot at node 0.
SIZES = [4, 6, 8]
THREADS = [2, 4, 8]
P_REMOTE = [0.1, 0.2, 0.4]
COMBOS = {
    "command_sym": list(itertools.product(SIZES, ["analyze", "tolerance"],
                                          THREADS, P_REMOTE)),
    "command_asym": list(itertools.product(
        SIZES, ["mesh", "hotspot 0.1", "hotspot 0.2"], THREADS, P_REMOTE)),
}

# --- request generation --------------------------------------------------------

def pool_scenario(seed, i):
    r = rng_for(seed, "pool", i)
    return {
        "name": f"pool{i}",
        "base": {"k": r.choice([2, 3, 4]),
                 "runlength": r.choice([10, 20]),
                 "switch_delay": r.choice([10, 20])},
        "axes": [{"param": "threads", "values": sorted(r.sample(range(1, 9),
                                                                3))},
                 {"param": "p_remote",
                  "values": sorted(r.sample([0.1, 0.2, 0.3, 0.4, 0.5], 3))}],
        "outputs": {"network_tolerance": True},
    }


def fresh_scenario(r, index):
    """A grid no earlier request asked for: a continuous draw of the
    runlength makes its cache keys new. Its shape is fixed (the paper's
    4x4 torus, six points), so every miss costs about the same."""
    return {
        "name": f"fresh{index}",
        "base": {"k": 4,
                 "runlength": round(r.uniform(5, 25), 6)},
        "axes": [{"param": "threads", "values": [2, 4, 8]},
                 {"param": "p_remote", "values": [0.1, 0.3]}],
        "outputs": {"network_tolerance": True},
    }


@functools.lru_cache(maxsize=None)
def combo_cycle(seed, cls, cycle):
    """Cycle `cycle` of a command class: every combination once, in an
    order the seed shuffles."""
    combos = list(COMBOS[cls])
    rng_for(seed, cls, cycle).shuffle(combos)
    return combos


def command_request(seed, cls, ordinal):
    """(command, params) of a class's request number `ordinal`. Each cycle
    deals every combination of the class once, so the tail of the mix
    (the k = 8 commands) has the same make-up for every seed."""
    cycle, pos = divmod(ordinal, len(COMBOS[cls]))
    k, variant, threads, p_remote = combo_cycle(seed, cls, cycle)[pos]
    params = {"k": k, "threads": threads, "p_remote": p_remote}
    if variant == "mesh":
        params["topology"] = "mesh"
    elif variant.startswith("hotspot"):
        params["hotspot_node"] = 0
        params["hotspot_fraction"] = float(variant.split(" ")[1])
    command = "analyze" if variant == "analyze" else "tolerance"
    return command, params


def command_args(params):
    args = []
    for key, value in params.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    return args


def make_request(seed, index):
    """Request `index` of the seeded sequence: (class, target, body dict,
    key, command params). Requests with equal keys must get equal
    answers."""
    block, slot = divmod(index, len(BLOCK))
    order = list(BLOCK)
    rng_for(seed, "block", block).shuffle(order)
    cls = order[slot]
    ordinal = block * BLOCK.count(cls) + order[:slot].count(cls)
    r = rng_for(seed, "request", index)
    if cls == "scenario_hit":
        i = r.randrange(8)
        return cls, "/v1/scenario", pool_scenario(seed, i), f"pool{i}", None
    if cls == "scenario_miss":
        return cls, "/v1/scenario", fresh_scenario(r, index), None, None
    command, params = command_request(seed, cls, ordinal)
    args = command_args(params)
    key = command + " " + " ".join(args)
    return cls, "/v1/" + command, {"args": args}, key, params


def prepare(seed, index):
    """Request `index` ready to send: (class, target, key, params, head,
    payload, wire bytes)."""
    cls, target, body, key, params = make_request(seed, index)
    payload = json.dumps(body).encode()
    head = (f"POST {target} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Length: {len(payload)}")
    return (cls, target, key, params, head, payload,
            head.encode() + b"\r\n\r\n" + payload)


# --- HTTP and the daemon ----------------------------------------------------------

def exchange(port, wire, timeout=60.0):
    """Send one request on its own connection; the raw reply (b"" when the
    connection fails)."""
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=timeout) as s:
            s.sendall(wire)
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return b""
    return b"".join(chunks)


def parse_reply(raw):
    """(status, headers, body) of a raw reply; status 0 when malformed."""
    head_bytes, _, body = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split(" ")[1])
    except (IndexError, ValueError):
        return 0, {}, b""
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(": ")
        if sep:
            headers[name.lower()] = value
    return status, headers, body


def get(port, target):
    return parse_reply(exchange(
        port, f"GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode()))


class Daemon:
    """`latol serve` with its log in a file (so it never blocks on a pipe).
    start() returns the set-up time: launch until the first 200 from
    /healthz."""

    def __init__(self, ctx, name):
        self.ctx = ctx
        self.config = os.path.join(ctx.workdir, name + ".json")
        self.log = os.path.join(ctx.workdir, name + ".log")
        with open(self.config, "w", encoding="utf-8") as f:
            json.dump({"port": 0, "max_concurrent": CLIENTS}, f)
        self.proc = None
        self.port = None

    def start(self):
        t0 = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen([self.ctx.latol, "serve",
                                          self.config],
                                         stdout=log, stderr=subprocess.STDOUT)
        deadline = t0 + 30.0
        while self.port is None and time.perf_counter() < deadline:
            with open(self.log, encoding="utf-8", errors="replace") as f:
                for line in f:
                    if "listening on" in line:
                        self.port = int(line.rsplit(":", 1)[1].split()[0])
            if self.proc.poll() is not None:
                break
            if self.port is None:
                time.sleep(0.0005)
        while self.port is not None and time.perf_counter() < deadline:
            if get(self.port, "/healthz")[0] == 200:
                return time.perf_counter() - t0
        self.stop()
        raise RuntimeError("latol serve did not come up")

    def stop(self):
        """SIGTERM drain; returns (exit code, CPU s, peak RSS MB)."""
        if self.proc.returncode is not None:  # already reaped by poll()
            return self.proc.returncode, 0.0, 0.0
        self.proc.send_signal(signal.SIGTERM)
        killer = threading.Timer(30.0, self.proc.kill)
        killer.start()
        try:
            return reap(self.proc)
        finally:
            killer.cancel()


def scrape(port):
    """Prometheus text from /metrics as {name: value}."""
    status, _, body = get(port, "/metrics")
    values = {}
    if status == 200:
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                values[name] = float(value)
    return values


# --- the closed loop --------------------------------------------------------------

def process_cpu_s(pid):
    """User+sys CPU seconds of a running process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Exchange:
    """One request in flight on a non-blocking connection of its own."""

    def __init__(self, port, index, request):
        self.index = index
        self.request = request
        self.sent = 0
        self.chunks = []
        self.t0 = time.perf_counter()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.sock.connect_ex(("127.0.0.1", port))

    def on_writable(self):
        """Send what the socket takes; True once the request is out."""
        wire = self.request[6]
        self.sent += self.sock.send(wire[self.sent:])
        return self.sent == len(wire)

    def on_readable(self):
        """Read what arrived; True once the daemon has closed."""
        chunk = self.sock.recv(65536)
        self.chunks.append(chunk)
        return not chunk


def closed_loop(ctx, daemon, first, seconds, tally=None):
    """CLIENTS connections from one thread, each sending the next request
    of the seeded sequence (from index `first`) as soon as its previous one
    completes. With a tally, every BUCKET_S closes a pass: requests
    completed, wall time and daemon CPU. Returns the records in request
    order and the window's wall time."""
    # One thread waits on every connection, so a reply is timed as soon as
    # it lands: no thread hand-off or interpreter lock between the daemon's
    # close and the clock. Requests are built before the window and replies
    # parsed after it.
    count = int(seconds * PREPARED_PER_S)
    prepared = [prepare(ctx.seed, i) for i in range(first, first + count)]
    records = {}
    selector = selectors.DefaultSelector()
    next_index = first
    start = time.perf_counter()
    stop_at = start + seconds
    give_up = stop_at + 60.0

    def launch():
        nonlocal next_index
        index, next_index = next_index, next_index + 1
        request = prepared[index - first] if index - first < count else \
            prepare(ctx.seed, index)
        ex = Exchange(daemon.port, index, request)
        selector.register(ex.sock, selectors.EVENT_WRITE, ex)

    def finish(ex, raw):
        records[ex.index] = ex.request[:6] + (time.perf_counter() - ex.t0,
                                              raw)
        selector.unregister(ex.sock)
        ex.sock.close()
        if time.perf_counter() < stop_at:
            launch()

    for _ in range(CLIENTS):
        launch()
    mark = (start, 0, process_cpu_s(daemon.proc.pid))
    next_mark = start + BUCKET_S
    try:
        while selector.get_map():
            now = time.perf_counter()
            if now > give_up:
                for key in list(selector.get_map().values()):
                    finish(key.data, b"")
                break
            for key, events in selector.select(max(next_mark - now, 0.0)):
                ex = key.data
                try:
                    if events & selectors.EVENT_WRITE:
                        if ex.on_writable():
                            selector.modify(ex.sock, selectors.EVENT_READ, ex)
                    elif ex.on_readable():
                        finish(ex, b"".join(ex.chunks))
                except BlockingIOError:
                    pass
                except OSError:
                    finish(ex, b"")
            if time.perf_counter() >= next_mark:
                now = (time.perf_counter(), len(records),
                       process_cpu_s(daemon.proc.pid))
                if tally is not None and now[1] > mark[1]:
                    tally.end_pass(now[1] - mark[1], now[0] - mark[0],
                                   now[2] - mark[2])
                    mark = now
                next_mark = now[0] + BUCKET_S
    finally:
        for key in list(selector.get_map().values()):
            key.data.sock.close()
        selector.close()
    window = time.perf_counter() - start
    out = []
    for i in sorted(records):
        cls, target, key, params, head, payload, latency, raw = records[i]
        status, headers, reply = parse_reply(raw)
        out.append((cls, target, key, params, head, payload, latency, status,
                    headers.get("x-latol-exit"), reply))
    return out, window


def check_records(ctx, records, tally):
    """Every request must answer 200 with X-Latol-Exit 0; equal requests
    must get equal results; scenario rows must be clean; a sample of
    command bodies must be byte-identical to the CLI."""
    first_body = {}
    first_results = {}
    for (cls, target, key, _, _, _, _, status, exit_code, reply) in records:
        ok = status == 200 and exit_code == "0"
        if ok and target == "/v1/scenario":
            try:
                results = json.loads(reply)["results"]
                rows = results["rows"]
                ok = bool(rows) and all(r["solver"] == "amva"
                                        and r["converged"] for r in rows)
            except (ValueError, KeyError, TypeError):
                ok = False
            if ok and key is not None:
                ok = first_results.setdefault(key, results) == results
        elif ok:
            digest = hashlib.sha1(reply).digest()
            ok = first_body.setdefault(key, (digest, reply))[0] == digest
        if not ok:
            tally.failed += 1
            tally.problem(f"{target} {key or ''}: status {status}, exit "
                          f"{exit_code}, or body mismatch")
    compared = 0
    for key, (_, reply) in first_body.items():
        if compared == CLI_COMPARISONS:
            break
        run = run_process([ctx.latol] + key.split(" "))
        compared += 1
        if run.output.encode() != reply:
            tally.failed += 1
            tally.problem(f"/v1/{key}: body differs from the CLI")
    tally.extras["cli_comparisons"] = compared


def session(ctx, seconds, tally, setup_samples):
    """Launch the daemon setup_samples times (set-up time each), drive the
    closed loop against the last launch (WARMUP_S untimed, then `seconds`
    timed), scrape /metrics, drain. Returns the warm-up and the timed
    records."""
    for i in range(setup_samples - 1):
        probe = Daemon(ctx, f"serve_setup{i}")
        tally.setup_s.append(probe.start())
        probe.stop()
    daemon = Daemon(ctx, "serve")
    tally.setup_s.append(daemon.start())
    try:
        warmup, _ = closed_loop(ctx, daemon, 0, WARMUP_S)
        before = scrape(daemon.port)
        records, window = closed_loop(ctx, daemon, len(warmup), seconds,
                                      tally)
        # Counters over the timed window only.
        metrics = {name: value - before.get(name, 0.0)
                   for name, value in scrape(daemon.port).items()}
    finally:
        code, cpu, rss = daemon.stop()
    if code != 0:
        tally.failed += 1
        tally.problem(f"latol serve drained with exit {code}")
    tally.cpu_s += cpu
    tally.peak_rss_mb = max(tally.peak_rss_mb, rss)
    tally.window_s += window
    tally.ops += len(records)
    tally.attempted += len(warmup) + len(records)
    tally.latencies_ms += [1e3 * rec[6] for rec in records]
    return warmup, records, metrics


def serve_layer_metrics(records, metrics):
    """The daemon's per-layer figures: shed count, queue wait (client
    latency minus the server's own request latency), per-class p50."""
    client_mean = statistics.fmean(rec[6] for rec in records)
    count = metrics.get("latol_serve_request_latency_seconds_count", 0.0)
    server_mean = (metrics.get("latol_serve_request_latency_seconds_sum", 0.0)
                   / count) if count else 0.0
    out = {
        "serve.queue_wait_ms": (1e3 * (client_mean - server_mean), "ms"),
        "serve.shed": (metrics.get("latol_serve_shed_total", 0.0), "count"),
    }
    for cls in CLASSES:
        lat = [1e3 * rec[6] for rec in records if rec[0] == cls]
        out[f"serve.{cls}.p50_ms"] = (statistics.median(lat) if lat
                                      else float("nan"), "ms")
    return out


def run_serve_mix(ctx):
    tally = Tally()
    warmup, records, metrics = session(ctx, ctx.seconds, tally,
                                       SETUP_SAMPLES)
    check_records(ctx, warmup + records, tally)
    lat = tally.latencies_ms
    p99 = percentile(lat, 99)
    tally.extras.update({
        "req_p50_ms": (statistics.median(lat), "ms"),
        "req_p99_ms": (p99, "ms"),
        "req_per_s": (len(records) / tally.window_s, "req/s"),
        "req_samples": len(lat),
        "req_beyond_p99": sum(1 for v in lat if v > p99),
    })
    tally.trace_inputs = trace_inputs(warmup + records)
    tally.trace_inputs["serve"] = serve_layer_metrics(records, metrics)
    return tally


def trace_inputs(records, limit=64):
    """Harness inputs from the first requests of a session: their heads and
    bodies, the JSON replies, and the configurations they solve."""
    scenarios = {}
    requests, responses = [], []
    for (_, target, key, params, head, payload, _, _, _, reply) in \
            records[:limit]:
        requests.append({"head": head, "body": payload.decode()})
        if target == "/v1/scenario":
            responses.append(reply.decode())
            body = json.loads(payload)
            scenarios.setdefault(body["name"], body)
        elif params is not None:
            scenarios.setdefault(key, {"name": "command", "base": params,
                                       "outputs": {"network_tolerance":
                                                   True}})
    return {"scenarios": list(scenarios.values()), "requests": requests,
            "responses": responses}
