"""Pure measurement helpers shared by the benchmark's workloads.

Nothing here touches sockets, processes or the repro package, so every
rule the benchmark reports by is unit-tested in ``test_measure.py``:

* the percentile rule (report the highest percentile that still has at
  least ten samples beyond it), and its median across 100-sample blocks,
* open-loop latency charged from the *intended* send time, so a stalled
  server is charged to every arrival queued behind the stall,
* span self time (duration minus the union of its children),
* the closed-loop capacity counter.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

# Candidate percentiles, highest first.  The rule picks the first one
# that leaves at least MIN_BEYOND samples above it.
CANDIDATE_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# Latencies are summarized per block of at least this many consecutive
# samples; capacity windows are cut into SLICES equal time slices.
BLOCK_SAMPLES = 100
SLICES = 3


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with >= 10 samples beyond it.

    1000 samples give p99 (10 beyond), 200 give p95, 500 give p98.
    ``None`` when even the median has fewer than ten samples above it.
    """
    for p in CANDIDATE_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values) -> dict:
    """Median, tail (by the percentile rule) and sample count."""
    values = list(values)
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    tail_p = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else max(values),
    }


def blocked_summary(values) -> dict:
    """``summarize`` per block of consecutive samples, then the median
    across blocks.

    The samples are cut into ``len // BLOCK_SAMPLES`` blocks of nearly
    equal size (100 to 199 samples, so each block's tail is its p90 by
    the percentile rule).  A hiccup of the machine confined to a minority
    of blocks moves neither the reported median nor the tail.  ``n``
    counts every sample.
    """
    values = list(values)
    blocks = len(values) // BLOCK_SAMPLES
    if blocks < 2:
        return summarize(values)
    cuts = [i * len(values) // blocks for i in range(blocks + 1)]
    parts = [summarize(values[a:b]) for a, b in zip(cuts, cuts[1:])]
    return {
        "n": len(values),
        "p50": statistics.median(p["p50"] for p in parts),
        "tail_p": parts[0]["tail_p"],
        "tail": statistics.median(p["tail"] for p in parts),
    }


def run_lane(arrivals, send, *, clock=time.perf_counter, sleep=time.sleep, start=None):
    """Drive one open-loop lane (one connection) through its arrivals.

    ``arrivals`` are ``(offset_s, request)`` pairs in schedule order;
    ``send(request)`` performs one request synchronously and returns a
    ``(ok, detail)`` pair.  A request is sent at its intended time or, if
    the lane is still busy with an earlier one, as soon as that returns.
    Latency is measured from the intended time, so a stall is charged to
    every arrival queued behind it (no coordinated omission).  ``lag`` is
    the generator's own lateness: how long after it *could* send (the
    later of the intended time and the previous completion) it did.
    """
    start = clock() if start is None else start
    results = []
    free_at = start
    for offset, request in arrivals:
        intended = start + offset
        now = clock()
        if now < intended:
            sleep(intended - now)
        sent = clock()
        ok, detail = send(request)
        done = clock()
        results.append(
            {
                "request": request,
                "intended": intended,
                "ok": ok,
                "detail": detail,
                "latency_ms": (done - intended) * 1e3,
                "lag_ms": max(0.0, sent - max(intended, free_at)) * 1e3,
            }
        )
        free_at = done
    return results


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so overlapping
    children (work fanned out to threads) are not subtracted twice.
    """
    clipped = [
        (max(s, start), min(e, end)) for s, e in children if e > start and s < end
    ]
    return (end - start) - union_length(clipped)


class CapacityCounter:
    """Correct completions per second from closed-loop callers.

    Callers ``record(ok, detail)`` after each request; only correct
    completions that finish inside the window count, and each failure's
    detail is kept.  ``rate()`` splits the window, from ``start()`` to
    ``stop()``, into ``SLICES`` equal slices and reports the median slice's rate,
    so a hiccup of the machine in one slice does not move it.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.ok = 0
        self.failed = 0
        self.failures: list[str] = []
        self._done: list[float] = []
        self._started = None
        self._stopped = None

    def start(self) -> None:
        self._started = self._clock()

    def stop(self) -> None:
        self._stopped = self._clock()

    def running(self) -> bool:
        return self._started is not None and self._stopped is None

    def record(self, ok: bool, detail: str = "") -> None:
        with self._lock:
            if not self.running():
                return
            if ok:
                self.ok += 1
                self._done.append(self._clock())
            else:
                self.failed += 1
                self.failures.append(detail)

    def rate(self) -> float:
        if self._started is None or self._stopped is None:
            raise ValueError("capacity window not closed")
        width = (self._stopped - self._started) / SLICES
        if width <= 0:
            return 0.0
        counts = [0] * SLICES
        for t in self._done:
            counts[min(SLICES - 1, int((t - self._started) / width))] += 1
        return statistics.median(counts) / width
