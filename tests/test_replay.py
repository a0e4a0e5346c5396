import dataclasses
from collections import Counter

import numpy as np
import pytest

from gemproj import adapter_model as am
from gemproj import trainer
from gemproj.datagen import StreamSpec, generate_stream
from gemproj.projector import ConstraintMatrix, exact_qp_project
from gemproj.replay import ReplayBuffer, _water_fill, build_constraint_matrix


class ListReplayBuffer:
    """Reference model: the straightforward list-of-(x, y) buffer that
    recounts labels on every eviction.  ReplayBuffer must store exactly the
    same rows in the same order after every insert."""

    def __init__(self, capacity_per_task=100, total_cap=150):
        self.capacity_per_task = capacity_per_task
        self.total_cap = total_cap
        self.per_task = {}

    def tasks(self):
        return sorted(t for t, items in self.per_task.items() if items)

    def size(self, task):
        return len(self.per_task.get(task, []))

    def total_size(self):
        return sum(len(v) for v in self.per_task.values())

    def examples(self, task):
        items = self.per_task.get(task, [])
        if not items:
            raise ValueError(f"replay buffer for task {task} is empty")
        X = np.stack([x for x, _ in items])
        y = np.array([y for _, y in items], dtype=np.int64)
        return X, y

    def _evict_one(self, task):
        items = self.per_task[task]
        counts = Counter(y for _, y in items)
        top = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        for i, (_, y) in enumerate(items):
            if y == top:
                del items[i]
                return

    def _largest_task(self):
        return max(self.per_task, key=lambda t: (len(self.per_task[t]), -t))

    def insert(self, task, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim == 1:
            X = X[None, :]
            y = np.atleast_1d(y)
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative class indices")
        items = self.per_task.setdefault(task, [])
        for xi, yi in zip(X, y):
            items.append((xi.copy(), int(yi)))
            if len(items) > self.capacity_per_task:
                self._evict_one(task)
            while self.total_size() > self.total_cap:
                self._evict_one(self._largest_task())
        return self


def greedy_evict(counts, excess):
    """Reference for _water_fill: one unit at a time from the largest count,
    ties to the lowest index, until none is left."""
    counts = list(counts)
    for _ in range(min(excess, sum(counts))):
        counts[counts.index(max(counts))] -= 1
    return counts


def make_examples(labels, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((len(labels), dim))
    return X, np.asarray(labels)


def small_model(seed=0):
    model = am.build_model(
        am.ModelConfig(input_dim=4, hidden_dim=3, n_classes=3, rank=2, alpha=8.0), seed=seed
    )
    rng = np.random.default_rng(seed + 50)
    phi = am.get_adapter_params(model)
    am.set_adapter_params(model, phi + 0.05 * rng.standard_normal(phi.size))
    return model


# --- insertion and balancing -----------------------------------------------------

def test_balancing_rule_splits_capacity_between_labels():
    buf = ReplayBuffer(capacity_per_task=4, total_cap=100)
    X, y = make_examples([0, 0, 0, 0, 1, 1, 1, 1])
    buf.insert(0, X, y)
    assert Counter(buf.examples(0)[1].tolist()) == {0: 2, 1: 2}


def test_below_capacity_everything_is_retained():
    buf = ReplayBuffer(capacity_per_task=10, total_cap=100)
    X, y = make_examples([0, 1, 2])
    buf.insert(0, X, y)
    assert buf.size(0) == 3


def test_insertion_is_deterministic():
    X, y = make_examples([0, 1, 0, 2, 1, 1, 0, 2, 2, 0], seed=3)
    bufs = []
    for _ in range(2):
        buf = ReplayBuffer(capacity_per_task=5, total_cap=100)
        buf.insert(0, X, y)
        bufs.append(buf)
    a, b = bufs
    (Xa, ya), (Xb, yb) = a.examples(0), b.examples(0)
    assert ya.tolist() == yb.tolist()
    for xa, xb in zip(Xa, Xb):
        np.testing.assert_array_equal(xa, xb)


def test_label_counts_balance_at_capacity():
    # once every label keeps arriving, the at-capacity steady state is
    # balanced to +/- 1 (below capacity everything is retained as-is)
    rng = np.random.default_rng(9)
    buf = ReplayBuffer(capacity_per_task=7, total_cap=100)
    labels = rng.integers(0, 3, size=120)
    X = rng.standard_normal((len(labels), 4))
    buf.insert(0, X, labels)
    counts = Counter(buf.examples(0)[1].tolist())
    assert buf.size(0) == 7
    assert max(counts.values()) - min(counts.values()) <= 1


def test_total_cap_evicts_oldest_of_largest_task():
    buf = ReplayBuffer(capacity_per_task=100, total_cap=10)
    X, y = make_examples([0] * 8)
    buf.insert(0, X, y)
    X2, y2 = make_examples([1] * 6, seed=1)
    buf.insert(1, X2, y2)
    # whichever task is largest sheds its oldest entry, so sizes equalize
    assert buf.tasks() == [0, 1]
    assert buf.size(0) == 5 and buf.size(1) == 5
    # the survivors in task 0 are the NEWEST zeros (oldest evicted first)
    kept, _ = buf.examples(0)
    np.testing.assert_array_equal(kept, X[3:])


def test_insert_rewrites_only_the_tasks_it_cuts():
    buf = ReplayBuffer(capacity_per_task=5, total_cap=11)
    buf.insert(0, *make_examples([0, 1], seed=1))
    buf.insert(1, *make_examples([0, 1, 2, 0, 1], seed=2))
    before = {t: buf.examples(t) for t in (0, 1)}
    buf.insert(2, *make_examples([2, 2, 1], seed=3))  # below both caps
    assert all(a is b for t in (0, 1) for a, b in zip(buf.examples(t), before[t]))
    buf.insert(2, *make_examples([0, 1, 0], seed=4))  # task 2 at its cap, total 12 > 11
    assert buf.size(0) == 2 and all(a is b for a, b in zip(buf.examples(0), before[0]))
    assert buf.size(1) == 4 and not any(a is b for a, b in zip(buf.examples(1), before[1]))
    assert buf.size(2) == 5


@pytest.mark.parametrize("seed", range(4))
def test_water_fill_matches_one_unit_at_a_time(seed):
    rng = np.random.default_rng(seed)
    for _ in range(500):
        counts = rng.integers(0, 9, size=int(rng.integers(1, 8))).tolist()
        excess = int(rng.integers(0, sum(counts) + 3))
        assert _water_fill(counts, excess) == greedy_evict(counts, excess)


def test_insert_rejects_negative_labels():
    buf = ReplayBuffer()
    with pytest.raises(ValueError):
        buf.insert(0, np.zeros((1, 4)), np.array([-1]))


# --- task gradients ---------------------------------------------------------------

def test_single_example_buffer_matches_backward():
    model = small_model()
    buf = ReplayBuffer()
    X, y = make_examples([1], seed=4)
    buf.insert(0, X, y)
    _, want = am.backward(model, X, y)
    np.testing.assert_array_equal(am.backward(model, *buf.examples(0))[1], want)


def test_duplicate_examples_equal_single_example_gradient():
    model = small_model()
    buf = ReplayBuffer()
    X, y = make_examples([2], seed=5)
    buf.insert(0, np.vstack([X, X]), np.concatenate([y, y]))
    _, want = am.backward(model, X, y)
    assert np.abs(am.backward(model, *buf.examples(0))[1] - want).max() <= 1e-12


def test_two_distinct_examples_average():
    model = small_model()
    buf = ReplayBuffer()
    X, y = make_examples([0, 2], seed=6)
    buf.insert(0, X, y)
    _, g0 = am.backward(model, X[:1], y[:1])
    _, g1 = am.backward(model, X[1:], y[1:])
    assert np.abs(am.backward(model, *buf.examples(0))[1] - 0.5 * (g0 + g1)).max() <= 1e-12


def test_empty_task_buffer_raises():
    with pytest.raises(ValueError, match="empty"):
        ReplayBuffer().examples(0)


# --- constraint matrix -------------------------------------------------------------

def _filled_buffer(model, tasks=(0, 1), n=6):
    buf = ReplayBuffer()
    for t in tasks:
        X, y = make_examples(list(np.arange(n) % 3), seed=10 + t)
        buf.insert(t, X, y)
    return buf


def test_single_past_task_row_is_normalized_gradient():
    model = small_model()
    buf = _filled_buffer(model, tasks=(0,))
    G = build_constraint_matrix(buf, model, [0])
    raw = am.backward(model, *buf.examples(0))[1]
    assert G.rows == 1
    np.testing.assert_allclose(G.data[0], raw / np.linalg.norm(raw), rtol=1e-12)


def test_rows_unit_norm_when_normalized():
    model = small_model()
    buf = _filled_buffer(model)
    G = build_constraint_matrix(buf, model, [0, 1])
    np.testing.assert_allclose(np.linalg.norm(G.data, axis=1), np.ones(G.rows), atol=1e-9)


def test_normalization_does_not_move_the_projection():
    # row scaling does not change the cone {v : G v >= 0}
    model = small_model()
    buf = _filled_buffer(model)
    g = np.random.default_rng(0).standard_normal(am.adapter_dim(model))
    G_on = build_constraint_matrix(buf, model, [0, 1])
    G_off = ConstraintMatrix(np.stack([am.backward(model, *buf.examples(t))[1] for t in (0, 1)]))
    a = exact_qp_project(g, G_on).projected_gradient
    b = exact_qp_project(g, G_off).projected_gradient
    assert np.linalg.norm(a - b) <= 1e-9


def test_memory_accounting_matches_m_times_d():
    model = small_model()
    buf = _filled_buffer(model)
    G = build_constraint_matrix(buf, model, [0, 1])
    d_phi = am.adapter_dim(model)
    assert G.data.size == 2 * d_phi
    assert G.data.nbytes == 2 * d_phi * 8


def test_rebuild_after_parameter_step_changes_g():
    model = small_model()
    buf = _filled_buffer(model)
    stale = build_constraint_matrix(buf, model, [0, 1])
    phi = am.get_adapter_params(model)
    am.set_adapter_params(model, phi - 0.05 * np.sign(phi))
    fresh = build_constraint_matrix(buf, model, [0, 1])
    assert np.abs(fresh.data - stale.data).max() > 0.0


# --- agreement with the reference model ----------------------------------------------

def _assert_same_memory(buf, ref, n_tasks):
    assert buf.tasks() == ref.tasks()
    assert sum(map(buf.size, buf.tasks())) == ref.total_size()
    for t in range(n_tasks + 1):
        assert buf.size(t) == ref.size(t)
        if ref.size(t):
            (X, y), (X_ref, y_ref) = buf.examples(t), ref.examples(t)
            assert np.array_equal(X, X_ref) and X.dtype == X_ref.dtype
            assert np.array_equal(y, y_ref) and y.dtype == y_ref.dtype
        else:
            with pytest.raises(ValueError, match="empty"):
                buf.examples(t)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("capacity,total_cap", [(9, 14), (25, 1000), (12, 5), (4, 1)])
def test_random_inserts_match_list_reference(seed, capacity, total_cap):
    rng = np.random.default_rng([seed, capacity])
    n_tasks = 4
    buf = ReplayBuffer(capacity_per_task=capacity, total_cap=total_cap)
    ref = ListReplayBuffer(capacity_per_task=capacity, total_cap=total_cap)
    for call in range(80):
        task = int(rng.integers(n_tasks))
        # early calls draw from a few labels with gaps; label 6 shows up late
        labels = [0, 2, 3] if call < 30 else [0, 2, 3, 6]
        if rng.random() < 0.25:
            X, y = rng.standard_normal(5), int(rng.choice(labels))
        else:
            n = int(rng.integers(0, 41))
            X, y = rng.standard_normal((n, 5)), rng.choice(labels, size=n)
        buf.insert(task, X, y)
        ref.insert(task, X, y)
        _assert_same_memory(buf, ref, n_tasks)


@pytest.mark.parametrize("capacity,total_cap", [(6, 10), (6, 4), (3, 1), (-1, 10)])
def test_scripted_inserts_match_list_reference(capacity, total_cap):
    # newer tasks fill first and older ones follow; empty and one-row batches
    rng = np.random.default_rng([abs(capacity), total_cap])
    buf = ReplayBuffer(capacity_per_task=capacity, total_cap=total_cap)
    ref = ListReplayBuffer(capacity_per_task=capacity, total_cap=total_cap)
    for task, n in [(2, 7), (1, 5), (0, 0), (0, 9), (2, 1), (0, 1), (1, 0), (3, 4), (1, 8), (0, 3)]:
        X, y = rng.standard_normal((n, 3)), rng.integers(0, 3, size=n)
        buf.insert(task, X, y)
        ref.insert(task, X, y)
        _assert_same_memory(buf, ref, 3)


def test_examples_are_read_only():
    buf = ReplayBuffer()
    X, y = make_examples([0, 1, 2])
    buf.insert(0, X, y)
    X_kept, y_kept = buf.examples(0)
    with pytest.raises(ValueError):
        X_kept[0, 0] = 1.0
    with pytest.raises(ValueError):
        y_kept[0] = 1


def test_insert_rejects_malformed_batches():
    buf = ReplayBuffer()
    with pytest.raises(ValueError, match="labels"):
        buf.insert(0, np.zeros((3, 4)), np.array([0, 1]))
    buf.insert(0, np.zeros((2, 4)), np.array([0, 1]))
    with pytest.raises(ValueError, match="dim"):
        buf.insert(0, np.zeros((2, 5)), np.array([0, 1]))
    assert buf.tasks() == [0] and buf.size(0) == 2


def test_build_rows_equal_normalized_task_gradients():
    model = small_model()
    buf = _filled_buffer(model, tasks=(0, 1, 2))
    G = build_constraint_matrix(buf, model, [0, 1, 2])
    rows = np.stack([am.backward(model, *buf.examples(t))[1] for t in (0, 1, 2)])
    assert np.array_equal(G.data, rows / np.linalg.norm(rows, axis=1)[:, None])


# --- the trainer on top of the buffer ----------------------------------------------------

SMALL_MODEL = am.ModelConfig(input_dim=8, hidden_dim=6, n_classes=4, rank=2, alpha=8.0)


def _small_run(method, **cfg_kw):
    spec = StreamSpec(seed=1, n_per_experience=300, feature_dim=8)
    stream = generate_stream(spec)
    model = trainer.prepare_model(spec, 1, model_config=SMALL_MODEL)
    cfg = trainer.TrainConfig(method=method, seed=1, optimizer="adamw", **cfg_kw)
    return trainer.run_experiences(cfg, stream, model)


def _capture_states(monkeypatch) -> list:
    """Record every trainer state ``run_experiences`` makes from here on."""
    states, make = [], trainer.make_state

    def recording_make(*args, **kwargs):
        states.append(make(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(trainer, "make_state", recording_make)
    return states


def _step_fields(log):
    skip = ("timestamp", "proj_time")
    return [{k: v for k, v in dataclasses.asdict(r).items() if k not in skip} for r in log.steps]


@pytest.mark.parametrize("method", trainer.METHODS)
def test_run_is_bit_identical_with_list_reference(method, monkeypatch):
    states = _capture_states(monkeypatch)
    R, log = _small_run(method)
    monkeypatch.setattr(trainer, "ReplayBuffer", ListReplayBuffer)
    R_ref, log_ref = _small_run(method)
    assert R.R.tobytes() == R_ref.R.tobytes()
    assert _step_fields(log) == _step_fields(log_ref)
    state, state_ref = states
    assert isinstance(state_ref.buffers, ListReplayBuffer)
    _assert_same_memory(state.buffers, state_ref.buffers, n_tasks=3)


@pytest.mark.parametrize("method", trainer.METHODS)
def test_only_projecting_methods_build_constraints(method, monkeypatch):
    calls = []
    build = trainer.build_constraint_matrix

    def counting_build(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(trainer, "build_constraint_matrix", counting_build)
    _small_run(method)
    if method == "naive":
        assert len(calls) == 0
    else:
        assert len(calls) > 0
