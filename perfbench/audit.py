"""audit-offline: the paper's estimators back to back, one process, no server.

The benchmark writes a seeded grid of HFL and VFL logs to disk, then
starts ``python3 perfbench/audit.py SPEC.json`` (the process under
test).  That process imports the library, loads every log and rebuilds
each federation's validation and local sets (its set-up), prints
``ready``, and waits on stdin: an empty line ends it, ``go`` starts the
timed loop.  The loop runs, single-threaded and in a fixed order, Alg. 2
(``estimate_hfl_resource_saving``), Alg. 1 (``estimate_hfl_interactive``),
``gtg_shapley`` and ``dpvs`` on every HFL log and Eq. 27
(``estimate_vfl_first_order``) on every VFL log, pass after pass,
until the time is up.  Only complete passes count towards the timings.
It then checks its answers and prints one JSON result line.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5
# (dataset, parties, epochs): two model sizes, two federation sizes.
GRID_HFL = (("mnist", 4, 10), ("mnist", 8, 20), ("cifar10", 4, 10), ("cifar10", 8, 20))
GRID_VFL = (("boston", 25), ("diabetes", 25), ("wine_quality", 25), ("seoul_bike", 25))
STAGES = ("alg2", "alg1", "gtg_shapley", "dpvs", "eq27")
DIGFL = ("alg2", "alg1", "eq27")


# ------------------------------------------------------------ benchmark side


def run(seed: int, seconds: float, trace: bool, workdir: Path):
    import inputs
    import layers
    from procs import BENCH_DIR, program_env
    from repro.utils.rng import derive_seed
    from workloads import Outcome

    outcome = Outcome()
    logs = [inputs.hfl_log(workdir, d, p, e, derive_seed(seed, 50 + i))
            for i, (d, p, e) in enumerate(GRID_HFL)]
    logs += [inputs.vfl_log(workdir, d, e, derive_seed(seed, 60 + i))
             for i, (d, e) in enumerate(GRID_VFL)]
    inputs.flushed(logs)
    spec = workdir / "audit.json"
    spec.write_text(json.dumps([
        {"kind": log.kind, "path": str(log.path), "dataset": log.dataset, "seed": log.seed,
         "parties": len(log.participant_ids), "totals": log.totals}
        for log in logs
    ]))

    def child(run_seconds: float | None, spans: Path | None = None) -> tuple[float, dict | None]:
        cmd = [sys.executable, str(BENCH_DIR / "audit.py"), str(spec)]
        if spans is not None:
            cmd.append(str(spans))
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd, env=program_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("audit process failed during set-up")
            setup = time.perf_counter() - launched
            proc.stdin.write("" if run_seconds is None else f"go {run_seconds}\n")
            proc.stdin.close()
            result = None if run_seconds is None else json.loads(proc.stdout.readline())
        finally:
            proc.stdout.close()
            if proc.wait(120) != 0:
                raise RuntimeError(f"audit process exited with {proc.returncode}")
        return setup, result

    if trace:
        _, plain = child(seconds / 2)
        spans = workdir / "spans.json"
        _, result = child(seconds / 2, spans)
        _absorb(outcome, plain)
        _absorb(outcome, result)
        out = outcome.layers
        out.update(layers.from_spans(spans))
        out.update(result["layers"])
        out["proc.rss_mb"] = result["peak_rss_mb"]
        out["proc.cpu_ms_per_request"] = result["cpu_s"] * 1e3 / max(1, result["attempted"])
        out["trace.overhead_ratio"] = _p50(result) / _p50(plain)
        return outcome

    setups = [child(None)[0] for _ in range(SETUP_REPEATS - 1)]
    setup, result = child(seconds)
    setups.append(setup)
    _absorb(outcome, result)
    calls = result["calls"]
    summary = _pass_summary(result)
    rates = {stage: _records_per_s(calls, stages) for stage, stages in (
        ("first_order", ("alg2", "eq27")), ("hvp", ("alg1",)), ("shapley", ("gtg_shapley", "dpvs")))}
    outcome.e2e = {
        "setup_s": statistics.median(setups),
        "p50_ms": summary["p50"],
        "tail_ms": summary["tail"],
        "throughput_per_s": _records_per_s(calls, STAGES),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    outcome.table = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("audit_pass_p50_ms", summary["p50"], "ms", summary["n"]),
        ("audit_alg1_slowest_call_p50_ms", summary["tail"], "ms", summary["n"]),
        ("audit_first_order_records_per_s", rates["first_order"], "1/s",
         _count(calls, ("alg2", "eq27"))),
        ("audit_hvp_records_per_s", rates["hvp"], "1/s", _count(calls, ("alg1",))),
        ("audit_shapley_records_per_s", rates["shapley"], "1/s",
         _count(calls, ("gtg_shapley", "dpvs"))),
        ("audit_records_per_s", outcome.e2e["throughput_per_s"], "1/s", len(calls)),
        ("failed_ratio", outcome.failed / max(1, outcome.attempted), "ratio", outcome.attempted),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", 1),
    ]
    return outcome


def _absorb(outcome, result: dict) -> None:
    outcome.attempted += result["attempted"] + result["checks"]
    outcome.failed += len(result["problems"])
    outcome.problems.extend(result["problems"][:5])


def _pass_summary(result: dict) -> dict:
    """Median wall time of one complete pass over the grid, and Alg. 1's
    slowest call: its highest per-log median call time.

    A pass holds calls whose costs differ tens of times (Alg. 2 against
    ``gtg_shapley`` on an 8-party log), so a percentile over single
    calls sits on the edge between two kinds of call; every pass holds
    the same calls.  A run has about 20 passes, too few for a tail by
    the percentile rule, and a slow spell of the machine that covers a
    few of them would own their p90.  Per-call medians over passes do
    not move unless a spell covers half the run.  The tail is an Alg. 1
    call because its work is fixed by the log's shape;
    ``gtg_shapley``'s and ``dpvs``'s truncation make their work, and so
    their slowest call, vary by up to 20% from seed to seed.
    """
    from measure import percentile

    passes = result["passes_ms"]
    if not passes:
        raise RuntimeError("audit process completed no pass over the grid")
    per_log: dict = {}
    for c in result["calls"]:
        if c["stage"] == "alg1":
            per_log.setdefault(c["log"], []).append(c["ms"])
    return {"n": len(passes), "p50": percentile(passes, 50.0),
            "tail": max(statistics.median(v) for v in per_log.values())}


def _p50(result: dict) -> float:
    return _pass_summary(result)["p50"]


def _count(calls, stages) -> int:
    return sum(1 for c in calls if c["stage"] in stages)


def _records_per_s(calls, stages) -> float:
    chosen = [c for c in calls if c["stage"] in stages]
    busy = sum(c["ms"] for c in chosen) / 1e3
    return sum(c["records"] for c in chosen) / busy if busy else 0.0


# --------------------------------------------------------------- process side


def _load(entries):
    """Load every log and rebuild what Alg. 1/2 need (the set-up)."""
    from repro.data import HFL_DATASETS, build_hfl_federation
    from repro.experiments.workloads import HFL_SAMPLES
    from repro.io import load_training_log, load_vfl_training_log
    from repro.nn import make_hfl_model
    from repro.utils.rng import derive_seed

    loaded = []
    for entry in entries:
        if entry["kind"] == "vfl":
            loaded.append({**entry, "log": load_vfl_training_log(entry["path"])})
            continue
        dataset, seed = entry["dataset"], entry["seed"]
        data = HFL_DATASETS[dataset].make(
            n_samples=HFL_SAMPLES[dataset], seed=derive_seed(seed, 1))
        federation = build_hfl_federation(
            data, entry["parties"], n_mislabeled=1, seed=derive_seed(seed, 2))

        def model_factory(dataset=dataset, seed=seed):
            return make_hfl_model(dataset, seed=derive_seed(seed, 3))

        loaded.append({**entry, "log": load_training_log(entry["path"]),
                       "validation": federation.validation, "locals": federation.locals,
                       "model_factory": model_factory})
    return loaded


def _operations(loaded, recorder=None):
    """The fixed-order list of (stage, entry index, call) of one pass."""
    from repro.core.backends import get_backend
    from repro.core.digfl_hfl import estimate_hfl_interactive, estimate_hfl_resource_saving
    from repro.core.digfl_vfl import estimate_vfl_first_order

    gtg, dpvs = get_backend("gtg_shapley"), get_backend("dpvs")
    ops = []
    for i, e in enumerate(loaded):
        if e["kind"] == "vfl":
            ops.append(("eq27", i, lambda e=e: estimate_vfl_first_order(e["log"])))
            continue
        args = (e["log"], e["validation"], e["model_factory"])
        ops += [
            ("alg2", i, lambda a=args: estimate_hfl_resource_saving(*a)),
            ("alg1", i, lambda a=args, e=e: estimate_hfl_interactive(*a, e["locals"])),
            ("gtg_shapley", i, lambda a=args: gtg.estimate_hfl(*a)),
            ("dpvs", i, lambda a=args: dpvs.estimate_hfl(*a)),
        ]
    if recorder is not None:
        ops = [(stage, i, recorder.wrap(f"digfl.{stage}", fn) if stage in DIGFL else fn)
               for stage, i, fn in ops]
    return ops


def _fold_checks(loaded) -> list[str]:
    """Each digfl batch estimate must equal the streaming fold bit for bit."""
    import numpy as np

    from repro.core.digfl_hfl import estimate_hfl_resource_saving
    from repro.core.digfl_vfl import estimate_vfl_first_order
    from repro.serve.streaming import StreamingHFLEstimator, StreamingVFLEstimator

    problems = []
    for e in loaded:
        log = e["log"]
        if e["kind"] == "hfl":
            batch = estimate_hfl_resource_saving(log, e["validation"], e["model_factory"])
            fold = StreamingHFLEstimator(log.participant_ids, e["validation"], e["model_factory"])
        else:
            batch = estimate_vfl_first_order(log)
            fold = StreamingVFLEstimator(log.feature_blocks, log.active_parties)
        fold.ingest_log(log)
        if not (np.array_equal(batch.per_epoch, fold.per_epoch())
                and np.array_equal(batch.totals, fold.totals())):
            problems.append(f"streaming fold differs from batch on {e['path']}")
        if [float(v) for v in batch.totals] != e["totals"]:
            problems.append(f"estimate on the loaded log differs from the reference: {e['path']}")
    return problems


def _child(argv: list[str]) -> int:
    import numpy as np

    import tracer
    from procs import _status_kb

    entries = json.loads(Path(argv[0]).read_text())
    recorder = None
    if len(argv) > 1:
        recorder = tracer.SpanRecorder()
        tracer.install(recorder, tracer.AUDIT_POINTS)
    loaded = _load(entries)
    ops = _operations(loaded, recorder)
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command:
        return 0
    seconds = float(command[1])

    calls, passes_ms, first, problems = [], [], {}, []
    attempted = evaluations = dpvs_evaluations = saved = 0
    cpu_before = time.process_time()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass_calls, pass_started = [], time.perf_counter()
        for stage, i, op in ops:
            started = time.perf_counter()
            report = op()
            ms = (time.perf_counter() - started) * 1e3
            attempted += 1
            pass_calls.append({"stage": stage, "log": i, "ms": ms,
                               "records": loaded[i]["log"].n_epochs})
            key = (stage, i)
            if key not in first:
                first[key] = report.totals
            elif not np.array_equal(first[key], report.totals):
                problems.append(f"{stage} totals changed between passes on log {i}")
            for name, extra in (report.extra or {}).items():
                if name in ("gtg", "dpvs"):
                    evaluations += extra["coalition_evaluations"]
                if name == "dpvs":
                    dpvs_evaluations += extra["coalition_evaluations"]
                    saved += extra["evaluations_saved"]
            if time.perf_counter() >= deadline:
                break
        if len(pass_calls) == len(ops):
            passes_ms.append((time.perf_counter() - pass_started) * 1e3)
            calls += pass_calls
    cpu_s = time.process_time() - cpu_before
    problems += _fold_checks(loaded)
    result = {
        "calls": calls,
        "passes_ms": passes_ms,
        "attempted": attempted,
        "checks": 2 * len(loaded),
        "problems": problems,
        "cpu_s": cpu_s,
        "peak_rss_mb": _status_kb(os.getpid(), "VmHWM") / 1024.0,
        "layers": {
            "estimator.coalition_evaluations": float(evaluations),
            "estimator.coalition_hit_ratio": saved / (dpvs_evaluations + saved)
            if dpvs_evaluations + saved else 0.0,
        },
    }
    if recorder is not None:
        recorder.dump(argv[1])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
