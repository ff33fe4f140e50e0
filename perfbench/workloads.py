"""The three server workloads: query-warm, routed-query, ingest-mixed.

Each starts the program through the public ``repro serve`` CLI in its
own process (traced runs go through ``launch.py``), drives it from this
process with ``loadgen``, and checks every answer against the reference
computed in ``inputs``.
"""

from __future__ import annotations

import json
import random
import statistics
import threading
import time
from pathlib import Path

import inputs
import layers
from loadgen import Request, closed_loop, open_loop
from procs import Server, delta, histogram_quantile, post_json, request, scrape

LANES = 2  # generator threads and connections: nproc of the 2-core reference machine
SETUP_REPEATS = 5  # server launches per run; setup_s is their median
# The query workloads' open loop: one GET per 100 ms on each of the 2
# keep-alive connections.  A GET that falls into the 44 ms Nagle and
# delayed-ACK stall (README.md, "Anchors") is then followed by more idle
# time than the 40 ms ACK timeout, so the connection leaves the stall
# with the next GET.  At 36 rps (56 ms apart) a stalled connection
# mostly stays stalled, and each run measured one state or the other
# by chance.
QUERY_RATE = 20.0
QUERY_OPEN_SHARE = 0.85  # of the run; the rest is the closed-loop capacity phase
# ingest-mixed's traffic, derived in README.md ("ingest-mixed traffic").
# Two closed-loop callers register the pool at 70-88 runs/s on the
# reference machine (median 78 over 10 seeds; register_capacity_per_s).
# Registrations arrive at under a quarter of that: the machine's speed
# swings by up to 2x, and at half capacity a slow spell would saturate
# the server and the backlog, not the write path, would set the latency.
# 18/s over the 17 s open loop of a 20 s run gives about 306
# registrations, above the 200 a p95 needs.  GETs arrive at the same
# rate, so the read rows rest on as many samples; more reads make the
# server's peak memory depend on thread timing (one thread per
# connection).
REGISTER_RATE = 18.0
READ_RATE = REGISTER_RATE
INGEST_OPEN_SHARE = 0.85
LAG_BOUND_MS = 50.0  # generator lateness (p99) beyond which a run is invalid
ENDPOINTS = ("leaderboard", "contributions", "weights")


class Outcome:
    """What one workload run measured and found wrong."""

    def __init__(self) -> None:
        self.e2e: dict = {}
        self.table: list = []  # (name, value, unit, samples)
        self.layers: dict = layers.empty()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, results) -> None:
        self.attempted += len(results)
        bad = [r for r in results if not r["ok"]]
        self.failed += len(bad)
        for r in bad[:3]:
            self.problems.append(f"{r['request'].kind} {r['request'].path}: {r['detail']}")

    def count_closed(self, counter) -> None:
        """Add a closed-loop phase's completions and failures."""
        self.attempted += counter.ok + counter.failed
        self.failed += counter.failed
        self.problems.extend(counter.failures[:3])


def _get(run_id: str, log, endpoint: str) -> Request:
    return Request("query", "GET", f"/runs/{run_id}/{endpoint}", log.checker(run_id, endpoint))


def _register(server: Server, runs) -> None:
    for run_id, log in runs:
        status, body = post_json(server.port, "/runs", log.spec(run_id))
        if status != 201 or body.get("epochs") != log.epochs:
            raise RuntimeError(f"setup registration of {run_id} failed: {status} {body}")


def _warm(server: Server, runs) -> None:
    for run_id, log in runs:
        for endpoint in ENDPOINTS:
            status, body = request("127.0.0.1", server.port, "GET", f"/runs/{run_id}/{endpoint}")
            if status != 200 or not log.checker(run_id, endpoint)(json.loads(body)):
                raise RuntimeError(f"setup query {run_id}/{endpoint} answered wrongly")


def _launch(args, workdir, runs, spans=None) -> tuple[Server, float]:
    server = Server(args, workdir, spans=spans)
    try:
        server.wait_ready()
        _register(server, runs)
        _warm(server, runs)
    except BaseException:  # also on interrupt: never leave a server behind
        server.stop()
        raise
    return server, time.perf_counter() - server.launched


def _setups(make_args, workdir, runs, repeats) -> tuple[Server, list[float]]:
    """Launch ``repeats`` times; keep the last server, report every setup."""
    times = []
    server = None
    for i in range(repeats):
        if server is not None:
            server.stop()
        server, took = _launch(make_args(f"s{i}"), workdir, runs)
        times.append(took)
    return server, times


class ThreadSampler:
    """Peak thread count of the server, sampled every ``every`` sends."""

    def __init__(self, server: Server, every: int = 25) -> None:
        self.server, self.every, self.n, self.peak = server, every, 0, 0
        self._lock = threading.Lock()

    def __call__(self, req):
        with self._lock:
            self.n += 1
            sample = self.n % self.every == 0
        if sample:
            self.peak = max(self.peak, self.server.threads())
        return req


def _query_arrivals(runs, rng: random.Random, seconds: float):
    count = int(QUERY_RATE * seconds)
    arrivals = []
    for i in range(count):
        run_id, log = rng.choice(runs)
        arrivals.append((i / QUERY_RATE, _get(run_id, log, rng.choice(ENDPOINTS))))
    return arrivals


def query(seed: int, seconds: float, trace: bool, workdir: Path, *, cluster: bool) -> Outcome:
    """query-warm (single process) or routed-query (router + 1 worker)."""
    outcome = Outcome()
    logs = inputs.query_logs(workdir, seed)
    runs = [(f"q{i}", log) for i, log in enumerate(logs)]
    rng = random.Random(seed)

    def make_args(tag):
        if cluster:
            return ["--cluster", "1", "--router-port", "0", "--wal-dir", str(workdir / f"wal-{tag}")]
        return ["--port", "0"]

    if trace:
        return _traced_query(seconds, workdir, runs, make_args, outcome, rng, cluster)

    server, setups = _setups(make_args, workdir, runs, SETUP_REPEATS)
    count_port = server.worker_ports[0] if cluster else server.port
    try:
        before = scrape(count_port)
        results, conns = open_loop(
            server.port, _query_arrivals(runs, rng, seconds * QUERY_OPEN_SHARE),
            lanes=LANES, keepalive=True,
        )
        served = layers.http_requests(delta(before, scrape(count_port)))
        requests = [r for _, r in _query_arrivals(runs, rng, 60.0)]
        counter = closed_loop(
            server.port, lambda i: requests[i % len(requests)],
            callers=LANES, keepalive=True, seconds=seconds * (1 - QUERY_OPEN_SHARE),
        )
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    outcome.count(results)
    outcome.count_closed(counter)
    gen = _check_generator(results, conns, served, outcome)
    q = layers.client_summary(results, "query")
    outcome.e2e = {
        "setup_s": statistics.median(setups),
        "p50_ms": q["p50"],
        "tail_ms": q["tail"],
        "throughput_per_s": counter.rate(),
        "peak_rss_mb": peak,
    }
    outcome.table = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("query_p50_ms", q["p50"], "ms", q["n"]),
        (f"query_p{q['tail_p']:g}_ms", q["tail"], "ms", q["n"]),
        ("query_capacity_rps", counter.rate(), "1/s", counter.ok),
        ("failed_ratio", outcome.failed / max(1, outcome.attempted), "ratio", outcome.attempted),
        ("peak_rss_mb", peak, "MB", 1),
    ] + _rows(gen)
    return outcome


def _check_generator(results, connections: int, served: float, outcome: Outcome) -> dict:
    """The open loop's generator counts and the server's count of the
    same requests (``/metricz`` RED delta).  A generator that fell
    behind its schedule, or counts that disagree, make the run invalid."""
    gen = layers.generator(results, connections)
    gen["http.requests"] = served
    if gen["gen.lag_p99_ms"] > LAG_BOUND_MS:
        outcome.problems.append(
            f"invalid run: generator lag p99 {gen['gen.lag_p99_ms']:.1f} ms "
            f"exceeds {LAG_BOUND_MS} ms"
        )
    if int(served) != len(results):
        outcome.problems.append(
            f"invalid run: server counted {int(served)} requests, generator sent {len(results)}"
        )
    return gen


def _rows(values: dict) -> list:
    return [(name, value, layers.PER_LAYER[name], None) for name, value in values.items()]


def _traced_query(seconds, workdir, runs, make_args, outcome, rng, cluster) -> Outcome:
    """Untraced then traced half-runs of the open loop; per-layer metrics."""
    half = seconds / 2
    server, _ = _launch(make_args("plain"), workdir, runs)
    try:
        plain, _ = open_loop(server.port, _query_arrivals(runs, rng, half),
                             lanes=LANES, keepalive=True)
    finally:
        server.stop()
    spans = workdir / "spans.json"
    server, _ = _launch(make_args("traced"), workdir, runs, spans=spans)
    worker_port = server.worker_ports[0] if cluster else server.port
    try:
        before = scrape(worker_port)
        router_before = scrape(server.port) if cluster else None
        cpu_before = server.cpu_s()
        sampler = ThreadSampler(server)
        window = [time.perf_counter()]
        results, conns = open_loop(server.port, _query_arrivals(runs, rng, half),
                                   lanes=LANES, keepalive=True, prepare=sampler)
        window.append(time.perf_counter())
        cpu = server.cpu_s() - cpu_before
        worker = delta(before, scrape(worker_port))
        router = delta(router_before, scrape(server.port)) if cluster else None
        rss = server.rss_mb()
    finally:
        server.stop()
    outcome.count(plain)
    outcome.count(results)
    out = outcome.layers
    out.update(_check_generator(results, conns, layers.http_requests(worker), outcome))
    out.update(layers.from_spans(spans, window))
    out.update(layers.from_scrapes(worker, router=router))
    client_p50 = layers.client_summary(results, "query")["p50"]
    # Time no server accounts for: the client's view minus the front door's.
    front = out["router.server_p50_ms"] if cluster else out["http.server_p50_ms"]
    out["http.unattributed_p50_ms"] = client_p50 - front
    out["http.threads_peak"] = float(sampler.peak)
    out["proc.cpu_ms_per_request"] = cpu * 1e3 / max(1, len(results))
    out["proc.rss_mb"] = rss
    out["trace.overhead_ratio"] = client_p50 / layers.client_summary(plain, "query")["p50"]
    return outcome


def _wal_bytes(wal_dir: Path) -> int:
    return sum(p.stat().st_size for p in wal_dir.glob("**/*") if p.is_file())


class Registrations:
    """Runs whose ``POST /runs`` answered 201 correctly, in completion order."""

    def __init__(self, warm) -> None:
        self._lock = threading.Lock()
        self.done = list(warm)

    def post(self, run_id: str, log, kind: str = "register") -> Request:
        def check(payload: dict) -> bool:
            ok = payload.get("run_id") == run_id and payload.get("epochs") == log.epochs
            if ok:
                with self._lock:
                    self.done.append((run_id, log))
            return ok

        body = json.dumps(log.spec(run_id)).encode()
        return Request(kind, "POST", "/runs", check, body=body, expect_status=201)

    def latest(self):
        with self._lock:
            return self.done[-1]


def _ingest_arrivals(pool, warm, regs: Registrations, rng: random.Random, seconds, tag):
    """A fixed share of POSTs cycling through the pool in seeded order;
    GETs alternate between warm runs and, resolved at send time, the
    most recently registered run.

    With equal rates, arrivals alternate GET, POST, so lane 0 carries
    every GET and lane 1 every POST.  A GET then never waits in the
    generator behind a registration: its latency shows only what the
    registrations cost it inside the server."""
    arrivals, cycle, gets = [], [], 0
    rate = REGISTER_RATE + READ_RATE
    share = REGISTER_RATE / rate
    for i in range(int(rate * seconds)):
        offset = i / rate
        if int((i + 1) * share) > int(i * share):
            if not cycle:
                cycle = rng.sample(pool, len(pool))
            arrivals.append((offset, regs.post(f"{tag}{i}", cycle.pop())))
            continue
        gets += 1
        if gets % 2:
            run_id, log = rng.choice(warm)
            arrivals.append((offset, _get(run_id, log, rng.choice(ENDPOINTS))))
        else:
            arrivals.append((offset, Request("query", "GET", rng.choice(ENDPOINTS), None)))
    return arrivals


def _resolver(regs: Registrations, sampler=None):
    def prepare(req: Request) -> Request:
        if sampler is not None:
            sampler(req)
        if req.check is not None:
            return req
        run_id, log = regs.latest()
        return _get(run_id, log, req.path)

    return prepare


def _recovery_check(wal_dir: Path, regs: Registrations, outcome: Outcome) -> None:
    """Replay the WAL into a fresh service: every 201 restored, right answers."""
    from repro.serve.service import EvaluationService
    from repro.serve.wal import RecoveryError, WriteAheadLog, recover

    service = EvaluationService()
    wal = WriteAheadLog(wal_dir)
    try:
        try:
            report = recover(service, wal)
        except RecoveryError as exc:
            outcome.problems.append(f"WAL recovery failed: {exc}")
            return
        if report.runs_restored != len(regs.done):
            outcome.problems.append(
                f"WAL recovery restored {report.runs_restored} runs, "
                f"{len(regs.done)} were acknowledged"
            )
        wrong = [run_id for run_id, log in regs.done
                 if not log.checker(run_id, "leaderboard")(service.leaderboard(run_id))]
        if wrong:
            outcome.failed += len(wrong)
            outcome.problems.append(f"recovered leaderboards differ for {wrong[:3]}")
    finally:
        wal.close()
        service.close()


def _ingest_phase(server, pool, warm, rng, seconds, tag, *, sampler=None):
    regs = Registrations(warm)
    arrivals = _ingest_arrivals(pool, warm, regs, rng, seconds, tag)
    results, conns = open_loop(server.port, arrivals, lanes=LANES, keepalive=False,
                               prepare=_resolver(regs, sampler))
    return regs, results, conns


def ingest(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """ingest-mixed: registrations and reads on one WAL-backed server."""
    outcome = Outcome()
    pool = inputs.pool_logs(workdir, seed)
    hfl = [log for log in pool if log.kind == "hfl"]
    vfl = [log for log in pool if log.kind == "vfl"]
    warm = [("warm-hfl", hfl[0]), ("warm-vfl", vfl[0])]
    rng = random.Random(seed)

    def make_args(tag):
        return ["--port", "0", "--wal-dir", str(workdir / f"wal-{tag}")]

    if trace:
        return _traced_ingest(seconds, workdir, pool, warm, make_args, outcome, rng)

    server, setups = _setups(make_args, workdir, warm, SETUP_REPEATS)
    try:
        before = scrape(server.port)
        regs, results, conns = _ingest_phase(
            server, pool, warm, rng, seconds * INGEST_OPEN_SHARE, "r")
        served = layers.http_requests(delta(before, scrape(server.port)))
        # Peak memory before the capacity phase, whose registration count
        # (and so the registry's size) varies with the server's speed.
        peak = server.peak_rss_mb()
        capacity = closed_loop(
            server.port, lambda i: regs.post(f"c{i}", pool[i % len(pool)]),
            callers=LANES, keepalive=False, seconds=seconds * (1 - INGEST_OPEN_SHARE),
        )
    finally:
        server.stop()
    outcome.count(results)
    outcome.count_closed(capacity)
    gen = _check_generator(results, conns, served, outcome)
    _recovery_check(workdir / f"wal-s{SETUP_REPEATS - 1}", regs, outcome)
    q = layers.client_summary(results, "query")
    w = layers.client_summary(results, "register")
    outcome.e2e = {
        "setup_s": statistics.median(setups),
        "p50_ms": w["p50"],
        "tail_ms": w["tail"],
        "throughput_per_s": capacity.rate(),
        "peak_rss_mb": peak,
    }
    outcome.table = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("query_p50_ms", q["p50"], "ms", q["n"]),
        (f"query_p{q['tail_p']:g}_ms", q["tail"], "ms", q["n"]),
        ("register_p50_ms", w["p50"], "ms", w["n"]),
        (f"register_p{w['tail_p']:g}_ms", w["tail"], "ms", w["n"]),
        ("register_capacity_per_s", capacity.rate(), "1/s", capacity.ok),
        ("failed_ratio", outcome.failed / max(1, outcome.attempted), "ratio", outcome.attempted),
        ("peak_rss_mb", peak, "MB", 1),
    ] + _rows(gen)
    return outcome


def _traced_ingest(seconds, workdir, pool, warm, make_args, outcome, rng) -> Outcome:
    half = seconds / 2
    server, _ = _launch(make_args("plain"), workdir, warm)
    try:
        regs, plain, _ = _ingest_phase(server, pool, warm, rng, half, "p")
    finally:
        server.stop()
    outcome.count(plain)
    _recovery_check(workdir / "wal-plain", regs, outcome)
    spans = workdir / "spans.json"
    wal_dir = workdir / "wal-traced"
    server, _ = _launch(make_args("traced"), workdir, warm, spans=spans)
    try:
        before, wal_before, cpu_before = scrape(server.port), _wal_bytes(wal_dir), server.cpu_s()
        sampler = ThreadSampler(server)
        window = [time.perf_counter()]
        regs, results, conns = _ingest_phase(server, pool, warm, rng, half, "t",
                                             sampler=sampler)
        window.append(time.perf_counter())
        cpu = server.cpu_s() - cpu_before
        worker = delta(before, scrape(server.port))
        rss = server.rss_mb()
    finally:
        server.stop()
    outcome.count(results)
    _recovery_check(wal_dir, regs, outcome)
    out = outcome.layers
    out.update(_check_generator(results, conns, layers.http_requests(worker), outcome))
    out.update(layers.from_spans(spans, window, largest_hfl=str(max(
        (log for log in pool if log.kind == "hfl"), key=lambda log: log.path.stat().st_size
    ).path)))
    out.update(layers.from_scrapes(worker))
    # GETs on both sides: the server's all-request p50 is a registration's.
    client_p50 = layers.client_summary(results, "query")["p50"]
    server_p50 = histogram_quantile(worker, "repro_http_request_duration_seconds", 0.5,
                                    'endpoint="/runs/{id}/') * 1e3
    out["http.unattributed_p50_ms"] = client_p50 - server_p50
    out["http.threads_peak"] = float(sampler.peak)
    out["wal.bytes"] = float(_wal_bytes(wal_dir) - wal_before)
    out["proc.cpu_ms_per_request"] = cpu * 1e3 / max(1, len(results))
    out["proc.rss_mb"] = rss
    out["trace.overhead_ratio"] = (layers.client_summary(results, "register")["p50"]
                                   / layers.client_summary(plain, "register")["p50"])
    return outcome
