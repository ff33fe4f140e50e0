"""Seeded inputs and in-process reference answers.

Every training log is generated from the workload seed with the
repository's own workload builders and written to disk as npz; the
program under test only ever sees those files and the request bodies.
The reference answers are computed here, in the benchmark's process,
with the batch estimators (``estimate_hfl_resource_saving``,
``estimate_vfl_first_order``) on the same logs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.digfl_hfl import estimate_hfl_resource_saving
from repro.core.digfl_vfl import estimate_vfl_first_order
from repro.core.reweight import rectified_weights
from repro.experiments.workloads import build_hfl_workload, build_vfl_workload
from repro.io import save_training_log, save_vfl_training_log
from repro.utils.rng import derive_seed


@dataclass
class LogInput:
    """One training log on disk plus the answers the service must give."""

    kind: str
    path: Path
    dataset: str
    seed: int
    epochs: int
    participant_ids: list
    totals: list
    last_weights: list

    def spec(self, run_id: str) -> dict:
        """The ``POST /runs`` body that registers this log as ``run_id``."""
        body = {"kind": self.kind, "log_path": str(self.path), "run_id": run_id}
        if self.kind == "hfl":
            body.update(dataset=self.dataset, seed=self.seed)
        return body

    def expected(self, endpoint: str) -> dict:
        """Fields of ``GET /runs/{id}/{endpoint}`` that must match exactly."""
        if endpoint == "contributions":
            return {"epochs": self.epochs, "participant_ids": self.participant_ids,
                    "totals": self.totals}
        if endpoint == "leaderboard":
            order = np.argsort(np.asarray(self.totals))[::-1]
            rows = [
                {"rank": r + 1, "participant": self.participant_ids[i],
                 "contribution": self.totals[i]}
                for r, i in enumerate(order)
            ]
            return {"epochs": self.epochs, "leaderboard": rows}
        if endpoint == "weights":
            return {"epochs": self.epochs, "participant_ids": self.participant_ids,
                    "weights": self.last_weights}
        raise ValueError(endpoint)

    def checker(self, run_id: str, endpoint: str):
        want = self.expected(endpoint)

        def check(payload: dict) -> bool:
            if payload.get("run_id") != run_id or payload.get("stale"):
                return False
            return all(payload.get(k) == v for k, v in want.items())

        return check


def hfl_log(directory: Path, dataset: str, parties: int, epochs: int, seed: int) -> LogInput:
    """Train a small federation (one mislabeled party) and save its log."""
    workload = build_hfl_workload(
        dataset, n_parties=parties, n_mislabeled=1, epochs=epochs, seed=seed
    )
    log = workload.result.log
    path = directory / f"hfl-{dataset}-{parties}x{epochs}-{seed}.npz"
    save_training_log(log, path)
    report = estimate_hfl_resource_saving(
        log, workload.federation.validation, workload.model_factory
    )
    return LogInput(
        "hfl", path, dataset, seed, log.n_epochs, list(log.participant_ids),
        [float(v) for v in report.totals],
        [float(v) for v in rectified_weights(report.per_epoch[-1])],
    )


def vfl_log(directory: Path, dataset: str, epochs: int, seed: int) -> LogInput:
    workload = build_vfl_workload(dataset, epochs=epochs, seed=seed)
    log = workload.result.log
    path = directory / f"vfl-{dataset}-{epochs}-{seed}.npz"
    save_vfl_training_log(log, path)
    report = estimate_vfl_first_order(log)
    return LogInput(
        "vfl", path, dataset, seed, log.n_epochs, list(log.active_parties),
        [float(v) for v in report.totals],
        [float(v) for v in rectified_weights(report.per_epoch[-1])],
    )


# Warm runs queried by query-warm and routed-query (and read beside
# writes in ingest-mixed): two HFL federations and two VFL tabular logs.
QUERY_HFL = (("mnist", 10, 30), ("cifar10", 5, 20))
QUERY_VFL = (("boston", 25), ("wine_quality", 25))

# The ingest-mixed pool: POOL_VARIANTS seeds of each shape.  Arrivals
# cycle through it, so every pass after the first repeats content.  Per
# cycle, 3 of 5 shapes are small HFL logs, between one VFL log and one
# large HFL log: the median registration then sits in the middle of one
# size class instead of on the edge between two, and the tail in the
# large class.
POOL_HFL = (("mnist", 10, 30), ("mnist", 4, 10), ("mnist", 5, 10), ("cifar10", 4, 10))
POOL_VFL = (("boston", 25),)
POOL_VARIANTS = 2


def flushed(logs: list[LogInput]) -> list[LogInput]:
    """Write the generated logs back to disk before anything is timed.

    Otherwise their writeback lands in the timed phase: on ext4 the
    first WAL fsync commits a journal transaction that carries them.
    """
    os.sync()
    return logs


def query_logs(directory: Path, seed: int) -> list[LogInput]:
    logs = [hfl_log(directory, d, p, e, derive_seed(seed, 10 + i))
            for i, (d, p, e) in enumerate(QUERY_HFL)]
    logs += [vfl_log(directory, d, e, derive_seed(seed, 20 + i))
             for i, (d, e) in enumerate(QUERY_VFL)]
    return flushed(logs)


def pool_logs(directory: Path, seed: int) -> list[LogInput]:
    logs = []
    for v in range(POOL_VARIANTS):
        logs += [hfl_log(directory, d, p, e, derive_seed(seed, 30 + 10 * v + i))
                 for i, (d, p, e) in enumerate(POOL_HFL)]
        logs += [vfl_log(directory, d, e, derive_seed(seed, 40 + 10 * v + i))
                 for i, (d, e) in enumerate(POOL_VFL)]
    return flushed(logs)
