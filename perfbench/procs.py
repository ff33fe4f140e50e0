"""Processes under test: launch, readiness, /proc readings, /metricz scrapes."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTEN = re.compile(r"http://127\.0\.0\.1:(\d+)")


def program_env() -> dict:
    """Environment for a child that runs the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # The port line is read from a file while the server runs.
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One ``repro serve`` process (or router + workers with --cluster).

    stdout goes to a file that is scanned for the announced ports; the
    per-request stderr log goes to /dev/null, never to an unread pipe.
    """

    def __init__(self, args: list[str], workdir: Path, *, spans: Path | None = None):
        self.stdout_path = workdir / f"server-{time.monotonic_ns()}.out"
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(spans), "serve", *args]
        self.launched = time.perf_counter()
        self._out = open(self.stdout_path, "w")
        self.proc = subprocess.Popen(
            cmd,
            cwd=str(workdir),
            env=program_env(),
            stdout=self._out,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
        )
        self.port = None
        self.worker_ports: list[int] = []

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until the port is announced and /healthz answers 200."""
        deadline = time.perf_counter() + timeout_s
        while self.port is None:
            self._check_alive()
            text = self.stdout_path.read_text()
            ports = [int(p) for p in _LISTEN.findall(text)]
            if "router on" in text:
                # Cluster: router line first, then one line per shard.
                if len(ports) >= 2 and "endpoints:" in text:
                    self.port, self.worker_ports = ports[0], ports[1:]
            elif ports:
                self.port = ports[0]
            if time.perf_counter() > deadline:
                raise RuntimeError("server never announced its port")
            time.sleep(0.002)
        while True:
            self._check_alive()
            try:
                status, _ = request("127.0.0.1", self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited early with code {self.proc.returncode}")

    def pids(self) -> list[int]:
        """The server process and all its descendants (cluster workers)."""
        found, queue = [], [self.proc.pid]
        while queue:
            pid = queue.pop()
            found.append(pid)
            try:
                children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
            except OSError:
                continue
            queue.extend(int(c) for c in children)
        return found

    def peak_rss_mb(self) -> float:
        return sum(_status_kb(pid, "VmHWM") for pid in self.pids()) / 1024.0

    def rss_mb(self) -> float:
        return sum(_status_kb(pid, "VmRSS") for pid in self.pids()) / 1024.0

    def threads(self) -> int:
        return sum(int(_status_kb(pid, "Threads")) for pid in self.pids())

    def cpu_s(self) -> float:
        return sum(_cpu_s(pid) for pid in self.pids())

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGINT (clean shutdown: spans are dumped), then SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                for pid in reversed(self.pids()):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.proc.wait()
        self._out.close()


def _status_kb(pid: int, field: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def _cpu_s(pid: int) -> float:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def request(host, port, method, path, body: bytes | None = None, timeout=30.0):
    """One request on a fresh connection; returns (status, body bytes)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def post_json(port, path, payload) -> tuple[int, dict]:
    status, body = request("127.0.0.1", port, "POST", path, json.dumps(payload).encode())
    return status, json.loads(body or b"{}")


# Label values may hold braces (endpoint="/runs/{id}/leaderboard").
_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[^"}]|"[^"]*")*\})?\s+(\S+)')


def scrape(port: int) -> dict:
    """Parse ``/metricz?format=prometheus`` into {(name, labels): value}."""
    status, body = request("127.0.0.1", port, "GET", "/metricz?format=prometheus")
    if status != 200:
        raise RuntimeError(f"/metricz answered {status}")
    out = {}
    for line in body.decode().splitlines():
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            out[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return out


def delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def series_sum(samples: dict, name: str, label_filter: str = "") -> float:
    return sum(v for (n, labels), v in samples.items() if n == name and label_filter in labels)


def histogram_quantile(samples: dict, name: str, q: float, label_filter: str = "") -> float:
    """Quantile (seconds) from cumulative ``_bucket`` deltas, linear within a bucket."""
    buckets: dict[float, float] = {}
    for (n, labels), v in samples.items():
        if n != name + "_bucket" or label_filter not in labels:
            continue
        le = re.search(r'le="([^"]+)"', labels).group(1)
        bound = float("inf") if le == "+Inf" else float(le)
        buckets[bound] = buckets.get(bound, 0.0) + v
    if not buckets:
        return 0.0
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    if total <= 0:
        return 0.0
    target = q * total
    prev_bound, prev_count = 0.0, 0.0
    for bound in bounds:
        count = buckets[bound]
        if count >= target:
            if bound == float("inf"):
                return prev_bound
            span = count - prev_count
            frac = (target - prev_count) / span if span > 0 else 1.0
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_count = bound, count
    return prev_bound
