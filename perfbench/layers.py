"""Per-layer metrics of a traced run, from spans and /metricz deltas.

Every run reports every name in ``PER_LAYER``; a layer the workload
bypasses reads 0 (no work done there), which is the "flat on" row of
the workload table in README.md.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from measure import blocked_summary, percentile, self_time
from procs import histogram_quantile, series_sum
from tracer import self_times

PER_LAYER = {
    "gen.sent": "count", "gen.ok": "count", "gen.failed": "count",
    "gen.lag_p99_ms": "ms", "gen.connections": "count",
    "http.requests": "count", "http.server_p50_ms": "ms", "http.server_p99_ms": "ms",
    "http.unattributed_p50_ms": "ms", "http.accept_ms": "ms", "http.self_ms": "ms",
    "http.threads_peak": "count",
    "router.server_p50_ms": "ms", "router.hop_p50_ms": "ms", "router.proxy_errors": "count",
    "service.query_calls": "count", "service.query_self_us": "us",
    "service.register_ms": "ms", "service.ingest_ms": "ms", "service.admission_shed": "count",
    "cache.hits": "count", "cache.misses": "count", "cache.hit_ratio": "ratio",
    "cache.evictions": "count", "cache.digest_us": "us",
    "io.load_ms": "ms", "io.load_mb": "MB", "io.self_rank_largest_hfl": "rank",
    "data.validation_ms": "ms",
    "valgrad.calls": "count", "valgrad.ms": "ms", "valgrad.memo_hit_ratio": "ratio",
    "estimator.ingest_us.digfl": "us", "estimator.ingest_us.gtg_shapley": "us",
    "estimator.ingest_us.dpvs": "us",
    "estimator.coalition_evaluations": "count", "estimator.coalition_hit_ratio": "ratio",
    "digfl.alg2_ms": "ms", "digfl.alg1_ms": "ms", "digfl.eq27_ms": "ms",
    "wal.appends": "count", "wal.appends_per_register": "count",
    "wal.appends_minus_epochs": "count",
    "wal.append_p50_ms": "ms", "wal.append_p99_ms": "ms", "wal.bytes": "bytes",
    "proc.cpu_ms_per_request": "ms", "proc.rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def empty() -> dict:
    return {name: 0.0 for name in PER_LAYER}


def _mean(values, scale=1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def generator(results, connections: int) -> dict:
    ok = sum(1 for r in results if r["ok"])
    lags = [r["lag_ms"] for r in results]
    return {
        "gen.sent": float(len(results)),
        "gen.ok": float(ok),
        "gen.failed": float(len(results) - ok),
        "gen.lag_p99_ms": percentile(lags, 99.0) if lags else 0.0,
        "gen.connections": float(connections),
    }


def from_spans(path: Path, window=None, *, largest_hfl: str | None = None) -> dict:
    """Span-derived layer metrics (self times, per-call means, counts).

    ``window`` (perf_counter start, end; CLOCK_MONOTONIC is shared by
    every process) keeps only spans that started inside the timed phase,
    so set-up registrations do not count as the workload's layer work.
    """
    payload = json.loads(Path(path).read_text())
    spans = self_times(payload["spans"])
    if window is not None:
        spans = [s for s in spans if window[0] <= s["start"] <= window[1]]
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def durs(name):
        return [s["dur_ms"] for s in by_name[name]]

    out = {
        "http.accept_ms": _mean(durs("http.accept")),
        "http.self_ms": _mean(handler_self_ms(spans)),
        "service.query_calls": float(len(by_name["service.query"])),
        "service.query_self_us": _mean([s["self_ms"] for s in by_name["service.query"]], 1e3),
        "service.register_ms": _mean(durs("serve.register")),
        "service.ingest_ms": _mean(durs("service.ingest")),
        "cache.digest_us": _mean(durs("cache.digest"), 1e3),
        "io.load_ms": _mean(durs("io.load")),
        "io.load_mb": _mean([Path(s["arg"]).stat().st_size / 1e6
                             for s in by_name["io.load"] if s["arg"]]),
        "data.validation_ms": _mean(durs("data.validation")),
        "estimator.ingest_us.digfl": _mean(
            durs("estimator.ingest.digfl") + durs("estimator.ingest.digfl_vfl"), 1e3),
        "estimator.ingest_us.gtg_shapley": _mean(durs("estimator.ingest.gtg_shapley"), 1e3),
        "estimator.ingest_us.dpvs": _mean(durs("estimator.ingest.dpvs"), 1e3),
        "digfl.alg2_ms": _mean(durs("digfl.alg2")),
        "digfl.alg1_ms": _mean(durs("digfl.alg1")),
        "digfl.eq27_ms": _mean(durs("digfl.eq27")),
    }
    out.update(valgrad(by_name))
    appends = durs("wal.append")
    out["wal.appends"] = float(len(appends))
    per_register = registration_counts(spans)
    if per_register:
        out["wal.appends_per_register"] = _mean([a for a, _ in per_register])
        out["wal.appends_minus_epochs"] = _mean([a - e for a, e in per_register])
    if appends:
        out["wal.append_p50_ms"] = percentile(appends, 50.0)
        out["wal.append_p99_ms"] = percentile(appends, 99.0)
    if largest_hfl is not None:
        out["io.self_rank_largest_hfl"] = io_self_rank(spans, largest_hfl)
    return out


def handler_self_ms(spans) -> list[float]:
    """Per request: handle_one_request from the start of parsing to its
    end, minus its other children.  The time before parsing is the
    handler blocked reading the next request line of a keep-alive
    connection, which is the client's idle time, not the handler's."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = []
    for span in spans:
        if span["name"] != "http.request":
            continue
        kids = children[span["id"]]
        parse = [k for k in kids if k["name"] == "http.parse"]
        if not parse:
            continue  # the connection closed: no request was read
        others = [(k["start"], k["end"]) for k in kids if k["name"] != "http.parse"]
        out.append(self_time(parse[0]["start"], span["end"], others) * 1e3)
    return out


def valgrad(by_name) -> dict:
    """Gradient computations, their mean time, and the memo's hit ratio."""
    computed = len(by_name["valgrad.compute"])
    hfl_records = sum(
        len(by_name[n]) for n in ("estimator.ingest.digfl", "estimator.ingest.gtg_shapley",
                                  "estimator.ingest.dpvs")
    )
    return {
        "valgrad.calls": float(computed),
        "valgrad.ms": _mean([s["dur_ms"] for s in by_name["valgrad.compute"]]),
        "valgrad.memo_hit_ratio": (
            max(0.0, 1.0 - computed / hfl_records) if hfl_records else 0.0
        ),
    }


def registration_counts(spans) -> list[tuple[int, int]]:
    """(WAL appends, epochs ingested) under each ``POST /runs``."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = []
    for span in spans:
        if span["name"] != "serve.register":
            continue
        counts = defaultdict(int)
        stack = list(children[span["id"]])
        while stack:
            node = stack.pop()
            counts[node["name"]] += 1
            stack.extend(children[node["id"]])
        out.append((counts["wal.append"], counts["service.ingest"]))
    return out


def io_self_rank(spans, log_path: str) -> float:
    """Rank of io.load's self time among the layers of the registrations
    of ``log_path`` (1 = the largest self time)."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    totals = defaultdict(float)
    for span in spans:
        if span["name"] != "serve.register":
            continue
        if not any(c["name"] == "io.load" and c["arg"] == log_path
                   for c in children[span["id"]]):
            continue
        stack = [span]
        while stack:
            node = stack.pop()
            totals[node["name"]] += node["self_ms"]
            stack.extend(children[node["id"]])
    if "io.load" not in totals:
        return 0.0
    ranked = sorted(totals, key=totals.get, reverse=True)
    return float(ranked.index("io.load") + 1)


def from_scrapes(worker: dict, *, router: dict | None = None) -> dict:
    """Server-side counters from /metricz deltas (worker and router)."""
    http_p50 = histogram_quantile(worker, "repro_http_request_latency_seconds", 0.5) * 1e3
    hits = series_sum(worker, "repro_serve_cache_events_total", 'event="hits"')
    misses = series_sum(worker, "repro_serve_cache_events_total", 'event="misses"')
    out = {
        "http.server_p50_ms": http_p50,
        "http.server_p99_ms": histogram_quantile(
            worker, "repro_http_request_latency_seconds", 0.99) * 1e3,
        "service.admission_shed": series_sum(worker, "repro_serve_admission_shed_total"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": series_sum(worker, "repro_serve_cache_events_total",
                                      'event="evictions"'),
    }
    if router is not None:
        # The router labels its own series worker="router", merged ones by shard.
        own = {k: v for k, v in router.items() if 'worker="router"' in k[1]}
        router_p50 = histogram_quantile(own, "repro_router_request_latency_seconds", 0.5) * 1e3
        out["router.server_p50_ms"] = router_p50
        out["router.hop_p50_ms"] = router_p50 - http_p50
        out["router.proxy_errors"] = series_sum(own, "repro_router_proxy_errors_total")
    return out


def http_requests(samples: dict) -> float:
    """Query and registration requests counted by the RED series."""
    return sum(
        v for (name, labels), v in samples.items()
        if name == "repro_http_requests_total"
        and ('endpoint="/runs/{id}/' in labels or 'endpoint="/runs"' in labels)
    )


def client_summary(results, kind: str) -> dict:
    """Latency of one request kind, in schedule order, by blocks."""
    ordered = sorted((r for r in results if r["request"].kind == kind),
                     key=lambda r: r["intended"])
    return blocked_summary([r["latency_ms"] for r in ordered])
