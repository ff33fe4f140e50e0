"""The load generator: one process, at most ``nproc`` threads and connections.

An open loop splits its schedule over lanes (arrival ``i`` goes to lane
``i % lanes``); each lane owns one thread and, with keep-alive, one
persistent connection.  The calling thread drives lane 0, so ``lanes``
lanes use exactly ``lanes`` threads.  A closed loop runs one caller per
lane, each sending its next request when the previous one returns.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

from measure import CapacityCounter, run_lane

HOST = "127.0.0.1"


class Client:
    """Sends ``Request``s on a keep-alive connection or one per request."""

    def __init__(self, port: int, keepalive: bool) -> None:
        self.port = port
        self.keepalive = keepalive
        self.conn = None
        self.connections_opened = 0

    def _connection(self):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
            self.connections_opened += 1
        return self.conn

    def send(self, req) -> tuple[bool, str]:
        """Perform ``req``; ``(ok, detail)`` where ok means a correct answer."""
        conn = self._connection()
        try:
            headers = {"Content-Type": "application/json"} if req.body is not None else {}
            conn.request(req.method, req.path, body=req.body, headers=headers)
            response = conn.getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return False, f"connection: {type(exc).__name__}"
        finally:
            if not self.keepalive:
                self.close()
        if status != req.expect_status:
            return False, f"status {status}"
        try:
            payload = json.loads(body)
        except ValueError:
            return False, "body is not JSON"
        if not req.check(payload):
            return False, "wrong answer"
        return True, "ok"

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Request:
    """One HTTP request plus the check its answer must pass."""

    __slots__ = ("kind", "method", "path", "body", "expect_status", "check")

    def __init__(self, kind, method, path, check, body=None, expect_status=200):
        self.kind = kind
        self.method = method
        self.path = path
        self.body = body
        self.expect_status = expect_status
        self.check = check


def open_loop(port: int, arrivals, *, lanes: int, keepalive: bool, prepare=None):
    """Run ``(offset_s, request)`` arrivals; returns (results, connections).

    ``prepare(request)`` may resolve a request at send time (a GET on the
    most recently registered run); it defaults to the identity.
    """
    prepare = prepare or (lambda r: r)
    clients = [Client(port, keepalive) for _ in range(lanes)]
    per_lane = [arrivals[i::lanes] for i in range(lanes)]
    results: list[list] = [[] for _ in range(lanes)]
    start = time.perf_counter() + 0.01

    def drive(lane: int) -> None:
        client = clients[lane]
        results[lane] = run_lane(
            per_lane[lane], lambda r: client.send(prepare(r)), start=start
        )

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(1, lanes)]
    for t in threads:
        t.start()
    try:
        drive(0)
    finally:
        for t in threads:
            t.join()
        for c in clients:
            c.close()
    merged = [r for lane in results for r in lane]
    return merged, sum(c.connections_opened for c in clients)


def closed_loop(port: int, make_request, *, callers: int, keepalive: bool, seconds: float):
    """``callers`` closed-loop callers for ``seconds``; returns the counter."""
    counter = CapacityCounter()
    clients = [Client(port, keepalive) for _ in range(callers)]
    stop_at = time.perf_counter() + seconds

    def caller(index: int) -> None:
        client = clients[index]
        i = index
        while time.perf_counter() < stop_at:
            counter.record(*client.send(make_request(i)))
            i += callers

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(1, callers)]
    counter.start()
    for t in threads:
        t.start()
    try:
        caller(0)
    finally:
        for t in threads:
            t.join()
        counter.stop()
        for c in clients:
            c.close()
    return counter
