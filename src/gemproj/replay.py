"""Per-task episodic memory and constraint-matrix construction.

Buffers keep a label-balanced sample of each task's training stream and
are the source of the averaged past-task gradients stacked into the
constraint matrix G.  Eviction is deterministic: within a task the
oldest entry of the most populous label goes first (ties: lowest label),
and when the total budget is exceeded the largest task (ties: lowest id)
sheds entries the same way.

Each task stores its surviving rows as one float64 array and one int64
label array, both in arrival order, plus an increasing arrival number per
row.  Per-label counts live in a list indexed by label and every label
keeps a FIFO of the arrival numbers of its stored rows, so choosing and
removing a victim is O(1) Python work: the victim label is
``counts.index(max(counts))`` and its oldest row is a ``popleft``.  An
eviction only marks its row dead; each task an ``insert`` call touched
is compacted once, at the end of the call.
"""

from __future__ import annotations

import logging
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .adapter_model import TinyMlp, backward, effective_weights
from .projector import ConstraintMatrix

logger = logging.getLogger(__name__)

DEFAULT_CAPACITY_PER_TASK = 100
DEFAULT_TOTAL_CAP = 150


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _TaskMemory:
    """One task's stored rows and its eviction bookkeeping."""

    def __init__(self, dim: int):
        self.X = _read_only(np.zeros((0, dim)))
        self.y = _read_only(np.zeros(0, dtype=np.int64))
        self.ids = np.zeros(0, dtype=np.int64)  # arrival numbers, increasing
        self.next_id = 0
        self.size = 0
        self.counts: list[int] = []  # live rows per label
        self.queues: list[deque] = []  # live arrival numbers per label, oldest first
        self.dead: list[int] = []  # arrival numbers evicted since the last compaction

    def push(self, arrival: int, label: int):
        if label >= len(self.counts):
            grow = label + 1 - len(self.counts)
            self.counts.extend([0] * grow)
            self.queues.extend(deque() for _ in range(grow))
        self.counts[label] += 1
        self.queues[label].append(arrival)
        self.size += 1

    def evict_one(self):
        """Drop the oldest entry of the most populous label (ties: lowest label)."""
        label = self.counts.index(max(self.counts))
        self.counts[label] -= 1
        self.dead.append(self.queues[label].popleft())
        self.size -= 1

    def append(self, X: np.ndarray, y: np.ndarray) -> range:
        """Store new rows at the end; returns their arrival numbers, which
        the caller pushes one by one."""
        arrivals = range(self.next_id, self.next_id + len(y))
        self.next_id = arrivals.stop
        self.X = _read_only(np.concatenate([self.X, X]))
        self.y = _read_only(np.concatenate([self.y, y]))
        self.ids = np.concatenate([self.ids, np.arange(arrivals.start, arrivals.stop)])
        return arrivals

    def compact(self):
        """Delete the rows evicted since the last compaction."""
        keep = np.ones(len(self.ids), dtype=bool)
        keep[np.searchsorted(self.ids, self.dead)] = False
        self.X = _read_only(self.X[keep])
        self.y = _read_only(self.y[keep])
        self.ids = self.ids[keep]
        self.dead = []


@dataclass
class ReplayBuffer:
    """Label-balanced episodic memory, one sub-buffer per task."""

    capacity_per_task: int = DEFAULT_CAPACITY_PER_TASK
    total_cap: int = DEFAULT_TOTAL_CAP
    _memories: dict[int, _TaskMemory] = field(default_factory=dict, init=False, repr=False)
    _total: int = field(default=0, init=False, repr=False)

    def tasks(self) -> list[int]:
        return sorted(t for t, mem in self._memories.items() if mem.size)

    def size(self, task: int) -> int:
        mem = self._memories.get(task)
        return mem.size if mem else 0

    def total_size(self) -> int:
        return self._total

    def label_counts(self, task: int) -> Counter:
        mem = self._memories.get(task)
        return Counter(mem.y.tolist()) if mem else Counter()

    def examples(self, task: int) -> tuple[np.ndarray, np.ndarray]:
        """The task's stored rows and labels in arrival order (read-only)."""
        mem = self._memories.get(task)
        if not mem or not mem.size:
            raise ValueError(f"replay buffer for task {task} is empty")
        return mem.X, mem.y

    def _largest_task(self) -> int:
        return max(self._memories, key=lambda t: (self._memories[t].size, -t))

    def to_dict(self) -> dict:
        """JSON-able snapshot of the stored examples (reproducibility audits)."""
        return {
            "capacity_per_task": self.capacity_per_task,
            "total_cap": self.total_cap,
            "per_task": {
                str(t): [{"x": x, "y": y} for x, y in zip(mem.X.tolist(), mem.y.tolist())]
                for t, mem in sorted(self._memories.items())
            },
        }

    def insert(self, task: int, X, y):
        """Insert labeled examples in arrival order, keeping per-label counts
        within each task balanced to +/- 1 and enforcing both capacities."""
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
        for arrival, label in zip(mem.append(X, y), y.tolist()):
            mem.push(arrival, label)
            self._total += 1
            if mem.size > self.capacity_per_task:
                mem.evict_one()
                self._total -= 1
            while self._total > self.total_cap:
                victim = self._largest_task()
                self._memories[victim].evict_one()
                self._total -= 1
        for touched in self._memories.values():
            if touched.dead:
                touched.compact()
        return self


def task_gradient(buffer: ReplayBuffer, task: int, model: TinyMlp, weights=None) -> np.ndarray:
    """Mean adapter gradient over the task's full buffer at the current phi.

    ``weights`` are the model's effective weights, if the caller already
    formed them for this phi.
    """
    X, y = buffer.examples(task)
    _, g = backward(model, X, y, weights=weights)
    return g


def build_constraint_matrix(
    buffer: ReplayBuffer,
    model: TinyMlp,
    tasks: list[int],
    normalize: bool = True,
) -> ConstraintMatrix:
    """Stack one averaged-gradient row per past task (current phi).

    The effective weights are formed once and shared by every task's
    backward pass.  Rows are unit-normalized by default; zero-norm rows are
    dropped with a logged warning either way.
    """
    from .adapter_model import adapter_dim

    if not tasks:
        return ConstraintMatrix.empty(adapter_dim(model))
    weights = effective_weights(model)
    rows = [task_gradient(buffer, t, model, weights) for t in tasks]
    return ConstraintMatrix.from_rows(np.stack(rows), normalize=normalize)
