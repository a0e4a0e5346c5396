"""Per-task episodic memory and constraint-matrix construction.

Buffers keep a sample of each task's training stream, the source of the
averaged past-task gradients stacked into the constraint matrix G.  Each
task stores its rows as one float64 array and one int64 label array,
oldest first.

Eviction is water-filling: e units leave a vector of counts one at a
time from the largest entry, ties to the lowest index (``_water_fill``
does it in closed form).  ``insert`` counts the labels of the batch's task
and water-fills them down to ``capacity_per_task``; over
``total_cap`` it water-fills the task sizes (ties to the lowest task id)
and each cut task's labels by its share.  Within a label the oldest rows
go first, so every task the call cut then drops its oldest e_l rows of
each label l in one compaction.  The survivors and their order are those
of evicting after every arriving row (the reference in the tests).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .adapter_model import TinyMlp, adapter_dim, as_batch, backward, effective_weights
from .projector import ConstraintMatrix

logger = logging.getLogger(__name__)

DEFAULT_CAPACITY_PER_TASK = 100
DEFAULT_TOTAL_CAP = 150


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _water_fill(counts: list[int], excess: int) -> list[int]:
    """``counts`` less ``excess`` units (all, if it has fewer), taken one at
    a time from the largest entry (ties: lowest index).  In closed form,
    every entry above a level L drops to L + 1, then the first entries at
    L + 1 drop to L; L is the largest level with sum(max(c - L, 0)) >=
    excess, i.e. the k largest entries sum to >= excess + k L for some k."""
    if excess <= 0:
        return counts
    if excess >= sum(counts):
        return [0] * len(counts)
    top = accumulate(sorted(counts, reverse=True))
    level = max((above - excess) // k for k, above in enumerate(top, 1))
    out = [min(c, level + 1) for c in counts]
    rest = excess - sum(counts) + sum(out)
    for i, c in enumerate(out):
        if rest and c == level + 1:
            out[i] -= 1
            rest -= 1
    return out


def keep_newest(X: np.ndarray, y: np.ndarray, have: list[int], counts: list[int]):
    """The newest ``counts[l]`` of the ``have[l]`` rows of every label l in
    ``(X, y)``, in their order (read-only)."""
    order = y.argsort(kind="stable")  # by label, oldest first within one
    # each label's newest evicted row: rows up to it go, rows after it stay
    last = [order[first + c - k - 1] if c > k else -1
            for first, c, k in zip(accumulate([0] + have), have, counts)]
    keep = np.arange(y.size) > np.array(last)[y]
    return _read_only(X[keep]), _read_only(y[keep])


@dataclass
class ReplayBuffer:
    """Episodic memory, one sub-buffer per task, bounded per task and in total."""

    capacity_per_task: int = DEFAULT_CAPACITY_PER_TASK
    total_cap: int = DEFAULT_TOTAL_CAP
    _memories: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, init=False, repr=False)

    def tasks(self) -> list[int]:
        return sorted(t for t, (_, y) in self._memories.items() if y.size)

    def size(self, task: int) -> int:
        return self._memories[task][1].size if task in self._memories else 0

    def examples(self, task: int) -> tuple[np.ndarray, np.ndarray]:
        """The task's stored rows and labels in arrival order (read-only)."""
        if not self.size(task):
            raise ValueError(f"replay buffer for task {task} is empty")
        return self._memories[task]

    def insert(self, task: int, X, y):
        """Insert labeled examples in arrival order, then water-fill down to
        both capacities.  Counts are not balanced: below capacity every row
        stays, and at capacity only counts above the water level are cut
        (desk stream, seed 0: task 0 holds 14/7/73/6 rows of labels 0-3
        after 4 steps of 32)."""
        X, y = as_batch(X, y)
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative class indices")
        X_old, y_old = self._memories.get(task, (np.zeros((0, X.shape[1])), y[:0]))
        if X.shape[1] != X_old.shape[1]:
            raise ValueError(f"rows have dim {X.shape[1]}, task {task} stores dim {X_old.shape[1]}")
        X = _read_only(np.concatenate([X_old, X]))
        y = _read_only(np.concatenate([y_old, y]))
        self._memories[task] = X, y
        have = {task: np.bincount(y).tolist()}
        keep = {task: _water_fill(have[task], y.size - self.capacity_per_task)}
        ids = sorted(self._memories)
        sizes = [sum(keep[t]) if t == task else self.size(t) for t in ids]
        for t, size, kept in zip(ids, sizes, _water_fill(sizes, sum(sizes) - self.total_cap)):
            if kept < size:
                if t not in have:
                    have[t] = np.bincount(self._memories[t][1]).tolist()
                keep[t] = _water_fill(keep.get(t, have[t]), size - kept)
        for t, counts in keep.items():
            if counts != have[t]:
                self._memories[t] = keep_newest(*self._memories[t], have[t], counts)
        return self


def build_constraint_matrix(
    buffer: ReplayBuffer,
    model: TinyMlp,
    tasks: list[int],
    weights=None,
) -> ConstraintMatrix:
    """Stack one unit-norm row per past task: the mean adapter gradient over
    the task's whole buffer at the current phi.

    Every task's backward pass shares one set of effective weights
    (``weights``, if the caller already formed them for this phi) and
    writes its gradient straight into its row of G, which is then
    normalized in place; zero-norm rows are dropped with a logged warning.
    """
    G = np.empty((len(tasks), adapter_dim(model)))
    weights = effective_weights(model) if weights is None else weights
    for row, t in zip(G, tasks):
        backward(model, *buffer.examples(t), weights=weights, out=row)
    return ConstraintMatrix.from_rows(G, normalize=True, in_place=True)
