#!/usr/bin/env python3
"""End-to-end smoke test of the `latol serve` daemon.

Usage: serve_smoke.py <path-to-latol-binary> [--metrics-out FILE]

Standard library only, so CI can run it against sanitizer builds without
installing anything. Exercises the daemon the way the robustness suite
describes (DESIGN.md §11):

 1. start `latol serve` on an ephemeral port, parse the port from its
    startup line;
 2. happy paths: /healthz, /v1/analyze (checked byte-identical to the
    CLI), /v1/scenario, /metrics;
 3. fault corpus: malformed request, oversized declared body, truncated
    request with mid-body disconnect, unknown path, bad flags;
 4. admission: a concurrent burst at 4x the worker count must answer
    every connection with 200 or 503 (never hang, never crash);
 5. deadline: an effectively-expired X-Deadline-Ms must return 504;
 6. drain: SIGTERM must stop the daemon with exit code 0.

Exits 0 when every check passes, 1 otherwise. With --metrics-out the
final /metrics scrape is written to FILE (for check_metrics.py --prom).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

FAILURES = []


def check(ok, what):
    marker = "ok" if ok else "FAIL"
    print(f"serve_smoke: [{marker}] {what}")
    if not ok:
        FAILURES.append(what)


def raw_request(port, payload, timeout=30.0):
    """Send raw bytes, return the raw response (b"" on connection error)."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
            s.sendall(payload)
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)
    except OSError:
        return b""


def http_request(port, method, target, body=b"", headers=(), timeout=30.0):
    """Return (status, header_dict, body_bytes); status 0 on failure."""
    head = f"{method} {target} HTTP/1.1\r\nHost: smoke\r\n"
    for name, value in headers:
        head += f"{name}: {value}\r\n"
    head += f"Content-Length: {len(body)}\r\n\r\n"
    raw = raw_request(port, head.encode() + body, timeout)
    if b"\r\n\r\n" not in raw:
        return 0, {}, b""
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split(" ")[1])
    except (IndexError, ValueError):
        return 0, {}, b""
    hdrs = {}
    for line in lines[1:]:
        if ": " in line:
            name, value = line.split(": ", 1)
            hdrs[name.lower()] = value
    return status, hdrs, body_bytes


def start_server(latol, config_path):
    proc = subprocess.Popen(
        [latol, "serve", config_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30.0
    port = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        print(f"serve_smoke: server: {line.rstrip()}")
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1].split()[0])
            break
    return proc, port


def drain_stdout(proc):
    """Keep the server's pipe drained so logging never blocks it."""
    def pump():
        for line in proc.stdout:
            print(f"serve_smoke: server: {line.rstrip()}")
    t = threading.Thread(target=pump, daemon=True)
    t.start()
    return t


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    latol = sys.argv[1]
    metrics_out = None
    if "--metrics-out" in sys.argv[2:]:
        metrics_out = sys.argv[sys.argv.index("--metrics-out") + 1]

    workdir = tempfile.mkdtemp(prefix="latol_serve_smoke.")
    config_path = os.path.join(workdir, "serve.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump({
            "port": 0,
            "max_concurrent": 2,
            "queue_limit": 4,
            "read_timeout_s": 5.0,
            "cache_path": os.path.join(workdir, "cache.json"),
        }, f)

    proc, port = start_server(latol, config_path)
    check(port is not None, "server started and printed its port")
    if port is None:
        proc.kill()
        return 1
    pump = drain_stdout(proc)

    # --- happy paths ---
    status, hdrs, body = http_request(port, "GET", "/healthz")
    check(status == 200 and body.startswith(b"ok ") and body.endswith(b"\n"),
          "GET /healthz answers ok + build version")
    first_id = hdrs.get("x-latol-request-id", "")
    check(len(first_id) == 23 and first_id[16] == "-",
          f"response carries X-Latol-Request-Id (got `{first_id}`)")
    status, hdrs, _ = http_request(port, "GET", "/healthz")
    check(hdrs.get("x-latol-request-id", "") not in ("", first_id),
          "request ids are unique per request")

    args = ["analyze", "--k", "3", "--threads", "4"]
    cli = subprocess.run([latol] + args, capture_output=True, timeout=120)
    status, hdrs, body = http_request(
        port, "POST", "/v1/analyze",
        json.dumps({"args": args[1:]}).encode())
    check(status == 200 and hdrs.get("x-latol-exit") == "0",
          "POST /v1/analyze answers 200 with exit 0")
    check(body == cli.stdout,
          "POST /v1/analyze body is byte-identical to the CLI")

    scenario = {
        "name": "smoke", "base": {"k": 2},
        "axes": [{"param": "p_remote", "values": [0.1, 0.2]}],
    }
    status, _, body = http_request(
        port, "POST", "/v1/scenario", json.dumps(scenario).encode())
    ok = status == 200
    if ok:
        doc = json.loads(body)
        ok = "results" in doc and "manifest" in doc
    check(ok, "POST /v1/scenario answers results + manifest")

    # Open workloads through the daemon (DESIGN.md 12): the mixed
    # open/closed solve via /v1/analyze, and a FESC scenario sweep.
    args = ["analyze", "--k", "2", "--open-arrival", "0.01"]
    cli = subprocess.run([latol] + args, capture_output=True, timeout=120)
    status, hdrs, body = http_request(
        port, "POST", "/v1/analyze",
        json.dumps({"args": args[1:]}).encode())
    check(status == 200 and b"open request latency" in body,
          "POST /v1/analyze with open arrivals reports open metrics")
    check(body == cli.stdout,
          "open-arrival analyze body is byte-identical to the CLI")
    open_scenario = {
        "name": "smoke-open", "base": {"k": 2},
        "solver": {"method": "fesc"},
        "axes": [{"param": "threads", "values": [2, 4]}],
        "outputs": {"columns": ["n_t", "U_p", "solver", "converged"]},
    }
    status, _, body = http_request(
        port, "POST", "/v1/scenario", json.dumps(open_scenario).encode())
    ok = status == 200
    if ok:
        doc = json.loads(body)
        ok = "results" in doc and "fesc" in json.dumps(doc)
    check(ok, "POST /v1/scenario solves a fesc-method scenario")

    # --- fault corpus ---
    status, _, _ = http_request(port, "GET", "/nowhere")
    check(status == 404, "unknown path answers 404")
    raw = raw_request(port, b"GARBAGE\r\n\r\n")
    check(b" 400 " in raw, "malformed request line answers 400")
    raw = raw_request(
        port, b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
    check(b" 413 " in raw, "oversized declared body answers 413")
    try:  # truncated request + disconnect: must not poison the server
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 50\r\n\r\npar")
    except OSError:
        pass
    status, _, _ = http_request(port, "GET", "/healthz")
    check(status == 200, "server healthy after mid-request disconnect")
    status, _, _ = http_request(
        port, "POST", "/v1/analyze",
        json.dumps({"args": ["--trace", "/tmp/x"]}).encode())
    check(status == 400, "file-writing flags are rejected with 400")
    status, _, _ = http_request(
        port, "POST", "/v1/analyze",
        json.dumps({"args": ["--trace-out", "/tmp/x"]}).encode())
    check(status == 400, "--trace-out is rejected over HTTP with 400")

    # --- admission: burst at 4x capacity ---
    results = []
    lock = threading.Lock()

    def burst_one():
        status, _, _ = http_request(
            port, "POST", "/v1/analyze",
            json.dumps({"args": ["--k", "4"]}).encode(), timeout=120.0)
        with lock:
            results.append(status)

    threads = [threading.Thread(target=burst_one) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
    answered = [s for s in results if s in (200, 503)]
    check(len(results) == 8 and len(answered) == 8,
          f"burst of 8 all answered 200 or 503 (got {sorted(results)})")

    # --- deadline ---
    start = time.monotonic()
    status, hdrs, _ = http_request(
        port, "POST", "/v1/analyze",
        json.dumps({"args": ["--k", "4"]}).encode(),
        headers=[("X-Deadline-Ms", "0.001")])
    elapsed = time.monotonic() - start
    check(status == 504, "expired deadline answers 504")
    check(elapsed < 10.0, f"deadline answered promptly ({elapsed:.2f}s)")

    # --- metrics ---
    status, _, body = http_request(port, "GET", "/metrics")
    text = body.decode("utf-8", "replace")
    check(status == 200 and "latol_serve_queue_depth" in text
          and "latol_serve_requests_total" in text,
          "GET /metrics exposes serve metrics")
    check("# TYPE latol_serve_request_latency_seconds histogram" in text
          and 'latol_serve_request_latency_seconds_bucket{le="+Inf"}' in text
          and "latol_serve_request_latency_seconds_count" in text,
          "GET /metrics exposes the request-latency histogram")
    check("latol_process_uptime_seconds" in text
          and "latol_process_peak_rss_kb" in text
          and "latol_serve_accepted_total" in text,
          "GET /metrics exposes process gauges and accept counters")
    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as f:
            f.write(text)

    # --- graceful drain ---
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = -1
    pump.join(timeout=10)
    check(code == 0, f"SIGTERM drains with exit code 0 (got {code})")
    check(os.path.exists(os.path.join(workdir, "cache.json")),
          "drain flushed the solve cache file")

    if FAILURES:
        print(f"serve_smoke: {len(FAILURES)} check(s) failed",
              file=sys.stderr)
        return 1
    print("serve_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
