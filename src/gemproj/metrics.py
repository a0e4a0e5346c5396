"""Continual-learning metric suite over the accuracy matrix.

R is a (T+1) x T grid: row 0 holds the pre-training baseline (frozen
base with zero-initialized adapters) and row j the accuracy on every
task after training through task j.  Metrics that need at least two
tasks return None when T = 1; callers must not coerce that to 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass
class AccuracyMatrix:
    """(T+1) x T accuracy grid; row 0 is the baseline used by FWT."""

    R: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=np.float64)
        if self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1] + 1:
            raise ValueError(f"R must have shape (T+1, T), got {self.R.shape}")
        if not np.all((self.R >= 0.0) & (self.R <= 1.0)):
            raise ValueError("accuracies must lie in [0, 1]")

    @property
    def T(self) -> int:
        return self.R.shape[1]

    @property
    def baseline(self) -> np.ndarray:
        return self.R[0]


def avg_acc(am: AccuracyMatrix) -> float:
    """Mean final accuracy across all tasks (mean of the last row)."""
    return float(am.R[-1].mean())


def bwt(am: AccuracyMatrix) -> float | None:
    """Average change on past tasks after training everything:
    mean over i < T of R[T, i] - R[i, i].  Negative means forgetting.
    None when T < 2."""
    T = am.T
    if T < 2:
        return None
    return float(np.mean([am.R[T, i] - am.R[i + 1, i] for i in range(T - 1)]))


def fwt(am: AccuracyMatrix, baseline: np.ndarray | None = None) -> float | None:
    """Average zero-shot gain on not-yet-trained tasks over the baseline:
    mean over i >= 1 of R[i, i] - b[i] (accuracy on task i just before
    training it, minus baseline).  None when T < 2."""
    T = am.T
    if T < 2:
        return None
    b = am.baseline if baseline is None else np.asarray(baseline, dtype=np.float64)
    return float(np.mean([am.R[i, i] - b[i] for i in range(1, T)]))


def forgetting(am: AccuracyMatrix) -> float | None:
    """Average drop from a task's best pre-final accuracy to its final one.

    The max ranges over post-task checkpoints 1..T-1 (the baseline row
    and the final row are excluded from the max).  None when T < 2.
    """
    T = am.T
    if T < 2:
        return None
    drops = [am.R[1:T, i].max() - am.R[T, i] for i in range(T - 1)]
    return float(np.mean(drops))


def mpo(durations: Sequence[float]) -> float | None:
    """Mean projection overhead: arithmetic mean of the projection call
    durations, or None when no projection ever ran."""
    if len(durations) == 0:
        return None
    return float(np.mean(durations))


def compute_all(am: AccuracyMatrix, proj_times: Sequence[float], n_classes: int) -> dict:
    """Assemble the metric block; absent metrics are None, never 0."""
    return {
        "avg_acc": avg_acc(am),
        "bwt": bwt(am),
        "fwt": fwt(am),
        "forgetting": forgetting(am),
        "mpo": mpo(proj_times),
        "fwt_vs_chance": fwt(am, baseline=np.full(am.T, 1.0 / n_classes)),
    }


def aggregate(per_run: list[dict]) -> dict:
    """Cross-seed mean and sample standard deviation per metric.

    A metric that is absent (None) in any run aggregates to None; std is
    None for a single run (sample std needs n >= 2).
    """
    if not per_run:
        raise ValueError("nothing to aggregate")
    keys = per_run[0].keys()
    out = {}
    for k in keys:
        vals = [r.get(k) for r in per_run]
        if any(v is None for v in vals):
            out[k] = {"mean": None, "std": None, "n": len(vals)}
            continue
        arr = np.array(vals, dtype=np.float64)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else None
        out[k] = {"mean": float(arr.mean()), "std": std, "n": len(arr)}
    return out
