"""Tests for the benchmark's own measurement rules.

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

from measure import (
    CapacityCounter,
    blocked_summary,
    percentile,
    run_lane,
    self_time,
    summarize,
    tail_percentile,
)
from tracer import SpanRecorder, self_times


class FakeClock:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------ percentile rule


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 98.0), (200, 95.0), (199, 90.0), (500, 98.0),
     (10000, 99.9), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_p99_for_1000_and_p95_for_200():
    thousand = summarize(range(1, 1001))
    assert (thousand["tail_p"], thousand["tail"], thousand["n"]) == (99.0, 990, 1000)
    two_hundred = summarize(range(1, 201))
    assert (two_hundred["tail_p"], two_hundred["tail"]) == (95.0, 190)
    assert two_hundred["p50"] == 100


def test_blocked_summary_ignores_a_hiccup_in_one_block():
    steady = [1.0] * 200
    hiccup = [1.0] * 150 + [50.0] * 50
    result = blocked_summary(steady + hiccup + steady)
    # 600 samples make 6 blocks of 100, each summarized at p90.
    assert (result["n"], result["tail_p"]) == (600, 90.0)
    assert (result["p50"], result["tail"]) == (1.0, 1.0)
    # Over all 600 samples at once the hiccup owns the p95.
    assert summarize(steady + hiccup + steady)["tail"] == 50.0


def test_blocked_summary_spreads_the_remainder_over_the_blocks():
    # 350 samples make 3 blocks of 116-117; no sample is dropped, so the
    # high values at the end land in the last block's p90.
    values = [1.0] * 300 + [2.0] * 50
    result = blocked_summary(values)
    assert (result["n"], result["tail_p"]) == (350, 90.0)
    assert (result["p50"], result["tail"]) == (1.0, 1.0)
    assert blocked_summary([1.0] * 200 + [2.0] * 199)["tail"] == 2.0


def test_blocked_summary_of_too_few_samples_is_the_plain_summary():
    assert blocked_summary([3.0, 1.0]) == summarize([3.0, 1.0])
    assert blocked_summary(range(199)) == summarize(range(199))


def test_percentile_is_nearest_rank_and_order_free():
    assert percentile([5, 1, 4, 2, 3], 50.0) == 3
    assert percentile([5, 1, 4, 2, 3], 100.0) == 5
    assert percentile([7], 99.0) == 7
    with pytest.raises(ValueError):
        percentile([], 50.0)


# ------------------------------------------- latency from intended send time


def _lane(service_times, interval=0.010):
    clock = FakeClock()
    times = iter(service_times)

    def send(request):
        clock.sleep(next(times))
        return True, "ok"

    arrivals = [(i * interval, i) for i in range(len(service_times))]
    return run_lane(arrivals, send, clock=clock, sleep=clock.sleep, start=clock())


def test_fast_server_latency_is_service_time():
    results = _lane([0.001] * 5)
    assert [round(r["latency_ms"], 6) for r in results] == [1.0] * 5
    assert all(r["lag_ms"] == 0 for r in results)


def test_stall_is_charged_to_arrivals_queued_behind_it():
    # A 1 s stall on the first request; the next four were due 10 ms
    # apart and each is served in 1 ms as soon as the lane frees up.
    results = _lane([1.0, 0.001, 0.001, 0.001, 0.001])
    latencies = [round(r["latency_ms"], 6) for r in results]
    assert latencies == [1000.0, 991.0, 982.0, 973.0, 964.0]
    # Sending late because the server was busy is not generator lag.
    assert all(r["lag_ms"] == 0 for r in results)


def test_generator_lag_counts_only_its_own_lateness():
    clock = FakeClock()

    def late_sleep(seconds):
        clock.sleep(seconds + 0.005)  # the sender oversleeps by 5 ms

    def send(request):
        clock.sleep(0.001)
        return True, "ok"

    results = run_lane([(0.0, 0), (0.1, 1)], send, clock=clock, sleep=late_sleep,
                       start=clock())
    assert round(results[1]["lag_ms"], 6) == 5.0
    assert round(results[1]["latency_ms"], 6) == 6.0


# --------------------------------------------------------------- span self time


def test_self_time_subtracts_union_of_overlapping_children():
    # Parent 0..10; children 1..4 and 3..6 overlap (union 1..6), 8..9.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(0.0, 10.0, [(-5.0, 2.0), (9.0, 20.0), (30.0, 40.0)]) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(0.0)


def test_recorded_spans_nest_per_thread_and_yield_self_times():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def child():
        clock.sleep(2.0)

    def parent():
        clock.sleep(1.0)
        wrapped_child()
        clock.sleep(3.0)

    wrapped_child = recorder.wrap("child", child)
    recorder.wrap("parent", parent)()
    spans = {s["name"]: s for s in self_times(recorder.spans)}
    assert spans["child"]["parent"] == spans["parent"]["id"]
    assert spans["parent"]["dur_ms"] == pytest.approx(6000.0)
    assert spans["parent"]["self_ms"] == pytest.approx(4000.0)
    assert sorted(s["name"] for s in recorder.spans) == ["child", "parent"]


# ------------------------------------------------------- closed-loop capacity


def test_capacity_counts_correct_completions_inside_the_window():
    clock = FakeClock()
    counter = CapacityCounter(clock=clock)
    counter.record(True)  # before the window: ignored
    counter.start()
    for gap, ok in [(0.25, True), (0.25, True), (0.25, False), (0.5, True),
                    (0.5, True), (0.5, True), (0.25, True)]:
        clock.sleep(gap)
        counter.record(ok, "ok" if ok else "status 503")
    clock.sleep(0.5)
    counter.stop()
    counter.record(False, "late")  # after the window: ignored
    assert (counter.ok, counter.failed) == (6, 1)
    assert counter.failures == ["status 503"]
    # Three 1 s slices hold 2 correct completions each.
    assert counter.rate() == pytest.approx(2.0)


def test_capacity_rate_is_the_median_slice():
    clock = FakeClock()
    counter = CapacityCounter(clock=clock)
    counter.start()
    for gap in [0.1] * 10 + [0.9] + [0.1] * 9 + [0.1] * 10:
        clock.sleep(gap)  # a 0.8 s stall early in the second second
        counter.record(True)
    counter.stop()
    assert counter.ok == 30
    # Slices of 3.8 / 3 s hold 10, 7 and 13 completions; the stalled
    # one moves neither the median slice nor the reported rate.
    assert counter.rate() == pytest.approx(10 / ((clock.now - 100.0) / 3))


def test_capacity_rate_needs_a_closed_window():
    counter = CapacityCounter()
    counter.start()
    with pytest.raises(ValueError):
        counter.rate()
