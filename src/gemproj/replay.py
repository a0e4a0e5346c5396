"""Per-task episodic memory and constraint-matrix construction.

Buffers keep a sample of each task's training stream, the source of the
averaged past-task gradients stacked into the constraint matrix G.  Each
task stores its rows as one float64 array and one int64 label array,
oldest first, plus its row count per label.

Eviction is water-filling: e units leave a vector of counts one at a
time from the largest entry, ties to the lowest index (``_water_fill``
does it in closed form).  ``insert`` adds a batch's labels to its task's
counts and water-fills them down to ``capacity_per_task``; over
``total_cap`` it water-fills the task sizes (ties to the lowest task id)
and each cut task's labels by its share.  Within a label the oldest rows
go first, so every task the call cut then drops its oldest e_l rows of
each label l in one compaction.  The survivors and their order are those
of evicting after every arriving row (the reference in the tests).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import accumulate, zip_longest

import numpy as np

from .adapter_model import TinyMlp, adapter_dim, backward, effective_weights
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


class _TaskMemory:
    """One task's stored rows, oldest first, and its rows per label."""

    def __init__(self, dim: int):
        self.X = _read_only(np.zeros((0, dim)))
        self.y = _read_only(np.zeros(0, dtype=np.int64))
        self.counts: list[int] = []

    @property
    def size(self) -> int:
        return self.y.size

    def append(self, X: np.ndarray, y: np.ndarray):
        self.X = _read_only(np.concatenate([self.X, X]))
        self.y = _read_only(np.concatenate([self.y, y]))
        added = np.bincount(y).tolist()
        self.counts = [c + a for c, a in zip_longest(self.counts, added, fillvalue=0)]

    def keep_newest(self, counts: list[int]):
        """Keep the newest ``counts[l]`` rows of every label l."""
        order = self.y.argsort(kind="stable")  # by label, oldest first within one
        # each label's newest evicted row: rows up to it go, rows after it stay
        last = [order[first + c - k - 1] if c > k else -1
                for first, c, k in zip(accumulate([0] + self.counts), self.counts, counts)]
        keep = np.arange(self.size) > np.array(last)[self.y]
        self.X = _read_only(self.X[keep])
        self.y = _read_only(self.y[keep])
        self.counts = counts


@dataclass
class ReplayBuffer:
    """Episodic memory, one sub-buffer per task, bounded per task and in total."""

    capacity_per_task: int = DEFAULT_CAPACITY_PER_TASK
    total_cap: int = DEFAULT_TOTAL_CAP
    _memories: dict[int, _TaskMemory] = field(default_factory=dict, init=False, repr=False)

    def tasks(self) -> list[int]:
        return sorted(t for t, mem in self._memories.items() if mem.size)

    def size(self, task: int) -> int:
        mem = self._memories.get(task)
        return mem.size if mem else 0

    def examples(self, task: int) -> tuple[np.ndarray, np.ndarray]:
        """The task's stored rows and labels in arrival order (read-only)."""
        mem = self._memories.get(task)
        if not mem or not mem.size:
            raise ValueError(f"replay buffer for task {task} is empty")
        return mem.X, mem.y

    def insert(self, task: int, X, y):
        """Insert labeled examples in arrival order, then water-fill down to
        both capacities.  Counts are not balanced: below capacity every row
        stays, and at capacity only counts above the water level are cut
        (desk stream, seed 0: task 0 holds 14/7/73/6 rows of labels 0-3
        after 4 steps of 32)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim == 1:
            X = X[None, :]
            y = np.atleast_1d(y)
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative class indices")
        mem = self._memories.get(task)
        if mem is None:
            mem = self._memories[task] = _TaskMemory(X.shape[1])
        elif X.shape[1] != mem.X.shape[1]:
            raise ValueError(f"rows have dim {X.shape[1]}, task {task} stores dim {mem.X.shape[1]}")
        mem.append(X, y)
        keep = {task: _water_fill(mem.counts, mem.size - self.capacity_per_task)}
        ids = sorted(self._memories)
        sizes = [sum(keep[t]) if t == task else self._memories[t].size for t in ids]
        for t, size, kept in zip(ids, sizes, _water_fill(sizes, sum(sizes) - self.total_cap)):
            if kept < size:
                keep[t] = _water_fill(keep.get(t, self._memories[t].counts), size - kept)
        for t, counts in keep.items():
            if counts is not self._memories[t].counts:
                self._memories[t].keep_newest(counts)
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
