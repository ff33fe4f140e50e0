"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the program built from ``src/`` in this
checkout, prints a table of the workload's metrics (name, value, unit,
samples) and an environment stamp, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  Exits 1 when any answer is wrong or the run is invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import layers
from procs import ROOT

WORKLOADS = ("query-warm", "ingest-mixed", "routed-query", "audit-offline")
E2E_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def environment(seed: int, workdir: Path) -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha, dirty = "unknown", None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    fs = "unknown"
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(workdir)], capture_output=True,
                            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "wal_fs": fs,
        "wal_fsync": "per record (repro serve default)",
        "seed": seed,
    }


def run_workload(args, workdir: Path):
    import workloads

    if args.workload == "audit-offline":
        import audit

        return audit.run(args.seed, args.seconds, bool(args.trace), workdir)
    if args.workload == "ingest-mixed":
        return workloads.ingest(args.seed, args.seconds, bool(args.trace), workdir)
    return workloads.query(args.seed, args.seconds, bool(args.trace), workdir,
                           cluster=args.workload == "routed-query")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        outcome = run_workload(args, workdir)
        stamp = environment(args.seed, workdir)
    except RuntimeError as exc:
        # A set-up step answered wrongly or a process died: no result.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    print("# environment: " + json.dumps(stamp, sort_keys=True))
    rows = outcome.table if not args.trace else [
        (name, outcome.layers[name], unit, None) for name, unit in layers.PER_LAYER.items()
    ]
    for name, value, unit, samples in rows:
        n = "" if samples is None else f"  n={samples}"
        print(f"  {name:<36} {value:>14.4f} {unit}{n}")
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")

    correct = not outcome.problems and outcome.failed == 0
    if args.trace:
        metrics = {name: {"value": float(outcome.layers[name]), "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(outcome.e2e[name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
