"""In-memory span recorder that wraps public functions of the program.

The benchmark traces from its own files: ``install(recorder, points)``
replaces each named attribute (``module:Qualified.name``) with a wrapper
that records a span — name, start, end, parent span and thread; a
layer's call count is its number of spans.  Each name is patched where
its caller looks it up, e.g. ``repro.serve.http:load_training_log``
rather than the definition in ``repro.io``.  Spans stay in memory
until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

from measure import self_time

# (span name, patch target).  Targets are looked up by the caller that
# uses them; class attributes patch every caller at once.
SERVER_POINTS = (
    ("http.accept", "repro.serve.http:EvaluationHTTPServer.process_request"),
    ("http.request", "repro.serve.http:_Handler.handle_one_request"),
    ("http.parse", "repro.serve.http:_Handler.parse_request"),
    ("serve.register", "repro.serve.http:register_from_spec"),
    ("io.load", "repro.serve.http:load_training_log"),
    ("io.load", "repro.serve.http:load_vfl_training_log"),
    ("data.validation", "repro.serve.http:hfl_validation_and_model"),
    ("service.query", "repro.serve.service:EvaluationService.query"),
    ("service.register", "repro.serve.service:EvaluationService.register_hfl"),
    ("service.register", "repro.serve.service:EvaluationService.register_vfl"),
    ("service.ingest", "repro.serve.service:EvaluationService.ingest"),
    ("cache.digest", "repro.serve.cache:RunDigest.update_hfl"),
    ("cache.digest", "repro.serve.cache:RunDigest.update_vfl"),
    ("valgrad.compute", "repro.core.valgrad:flat_gradient"),
    ("estimator.ingest.digfl", "repro.serve.streaming:StreamingHFLEstimator.ingest"),
    ("estimator.ingest.digfl_vfl", "repro.serve.streaming:StreamingVFLEstimator.ingest"),
    ("estimator.ingest.gtg_shapley", "repro.estimators.gtg:StreamingGTGShapley.ingest"),
    ("estimator.ingest.dpvs", "repro.estimators.dpvs:StreamingDPVSEstimator.ingest"),
    ("wal.append", "repro.serve.wal:WriteAheadLog.append"),
)

AUDIT_POINTS = (
    ("valgrad.compute", "repro.core.valgrad:flat_gradient"),
    ("estimator.ingest.digfl", "repro.serve.streaming:StreamingHFLEstimator.ingest"),
    ("estimator.ingest.gtg_shapley", "repro.estimators.gtg:StreamingGTGShapley.ingest"),
    ("estimator.ingest.dpvs", "repro.estimators.dpvs:StreamingDPVSEstimator.ingest"),
)


class SpanRecorder:
    """Thread-aware span buffer; a span's parent is the innermost open
    span of the same thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[dict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = recorder._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = recorder._clock()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": threading.get_ident(),
                            "arg": _first_path(args),
                        }
                    )

        return traced

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {"spans": list(self.spans)}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _first_path(args) -> str | None:
    # io.load spans keep the log path so the report can size the file.
    for value in args[:1]:
        if isinstance(value, str) and value.endswith(".npz"):
            return value
    return None


def install(recorder: SpanRecorder, points) -> None:
    """Wrap each ``module:attr.path`` target in place."""
    for name, target in points:
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))


def self_times(spans) -> list[dict]:
    """Each span with its self time (ms): duration minus child union."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for span in spans:
        own = self_time(span["start"], span["end"], children.get(span["id"], ()))
        out.append({**span, "self_ms": own * 1e3, "dur_ms": (span["end"] - span["start"]) * 1e3})
    return out
