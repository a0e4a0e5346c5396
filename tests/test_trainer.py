import dataclasses
import re
import time

import numpy as np
import pytest

from gemproj import adapter_model as am
from gemproj import datagen, trainer
from gemproj.datagen import StreamSpec, generate_stream
from gemproj.metrics import compute_all, forgetting
from gemproj.projector import DEFAULT_ENUM_LIMIT, ConstraintMatrix
from gemproj.trainer import (
    NonFiniteLossError,
    OptState,
    TrainConfig,
    make_state,
    optimizer_step,
    prepare_model,
    run_experiences,
    start_task,
    train_step,
)

from oracles import true_sigma_max
from test_projector import AgemCounter

SMALL_SPEC = dict(n_per_experience=300, feature_dim=8)
SMALL_MODEL = am.ModelConfig(input_dim=8, hidden_dim=6, n_classes=4, rank=2, alpha=8.0)


def small_run(method, seed=0, optimizer="adamw", **cfg_kw):
    spec = StreamSpec(seed=seed, **SMALL_SPEC)
    stream = generate_stream(spec)
    model = prepare_model(spec, seed, model_config=SMALL_MODEL)
    cfg = TrainConfig(method=method, seed=seed, optimizer=optimizer, **cfg_kw)
    matrix, log = run_experiences(cfg, stream, model)
    return matrix, log


# --- optimizer_step ---------------------------------------------------------------

def test_sgd_zero_gradient_is_identity():
    phi = np.array([1.0, -2.0, 3.0])
    out = optimizer_step(phi, np.zeros(3), OptState(), TrainConfig(lr=0.001))
    np.testing.assert_array_equal(out, phi)


def test_sgd_direct_formula():
    out = optimizer_step(np.zeros(2), np.array([1.0, -2.0]), OptState(), TrainConfig(lr=1.0))
    np.testing.assert_array_equal(out, [-1.0, 2.0])


def test_adamw_first_step_matches_hand_formula():
    # from zero moments, bias correction makes m_hat = g and v_hat = g^2,
    # so the update is -lr * g / (|g| + eps), checked per scalar coordinate
    cfg = TrainConfig(optimizer="adamw", lr=0.01)
    g = np.array([0.5, -2.0, 0.0])
    out = optimizer_step(np.zeros(3), g, OptState(), cfg)
    want = -cfg.lr * g / (np.abs(g) + trainer.ADAMW_EPS)
    np.testing.assert_allclose(out, want, rtol=1e-12)


def test_optimizer_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        optimizer_step(np.zeros(2), np.zeros(3), OptState(), TrainConfig())


# --- config -----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        TrainConfig(method="sgd")
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="pgd_iterations"):
        TrainConfig(method="igem", pgd_iterations=0)
    with pytest.raises(TypeError, match="methodd"):
        TrainConfig(**{"methodd": "igem"})
    # a bool is not a number here, though Python's bool is an int; nor is text
    for field, value in (("pgd_iterations", True), ("lr", True)):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
    with pytest.raises(ValueError, match="n_classes"):
        StreamSpec(n_classes="4")


def test_config_round_trips_through_dict():
    cfg = TrainConfig(method="agem", seed=11, lr=0.01, patterns_per_exp=40)
    assert TrainConfig(**dataclasses.asdict(cfg)) == cfg


def test_every_numeric_config_field_is_range_checked():
    # a TrainConfig or StreamSpec field left out of its module's _RANGES would
    # take any value, NaN included, until it failed mid-run
    for module, cls in ((trainer, TrainConfig), (datagen, StreamSpec)):
        checked = {name for names, _, _ in module._RANGES for name in names}
        numeric = {f.name for f in dataclasses.fields(cls) if f.type in ("int", "float", int, float)}
        assert numeric - checked == set(), cls.__name__


def test_gem_exact_config_rejects_more_past_tasks_than_the_enumeration_limit():
    TrainConfig(method="gem_exact", n_experiences=DEFAULT_ENUM_LIMIT + 1)
    TrainConfig(method="igem", n_experiences=DEFAULT_ENUM_LIMIT + 2)
    with pytest.raises(ValueError, match="n_experiences"):
        TrainConfig(method="gem_exact", n_experiences=DEFAULT_ENUM_LIMIT + 2)


# --- train_step basics -------------------------------------------------------------

def _fresh_state(method="igem", seed=0, **kw):
    cfg = TrainConfig(method=method, seed=seed, **kw)
    model = am.build_model(SMALL_MODEL, seed=seed)
    return make_state(cfg, model)


def _batch(rng, n=16):
    return rng.standard_normal((n, 8)), rng.integers(0, 4, size=n)


def test_first_task_matches_naive_bit_for_bit():
    phis = []
    for method in ("naive", "igem"):
        state = _fresh_state(method=method, seed=1)
        start_task(state, 0)
        rng = np.random.default_rng(42)
        for _ in range(4):
            X, y = _batch(rng)
            train_step(state, X, y)
        phis.append(am.get_adapter_params(state.model))
    np.testing.assert_array_equal(phis[0], phis[1])


def test_training_steps_leave_the_base_weights_bit_exact():
    cfg = TrainConfig(method="igem", seed=3, n_experiences=2, patterns_per_exp=20, memory_size=40)
    model = am.build_model(am.ModelConfig(), seed=3)
    w_before = [layer.W0.tobytes() for layer in model.layers]
    state = make_state(cfg, model)
    rng = np.random.default_rng(12)
    for task in range(2):
        start_task(state, task)
        for _ in range(5):
            train_step(state, rng.standard_normal((8, 32)), rng.integers(0, 4, size=8))
    assert [layer.W0.tobytes() for layer in model.layers] == w_before


def test_large_budget_igem_step_matches_exact_step():
    # one step from the same snapshot with sgd: high-K PGD converges to the QP point
    results = {}
    for method, K in (("gem_exact", 1), ("igem", 3000)):
        state = _fresh_state(method=method, seed=2, optimizer="sgd",
                             pgd_iterations=K, stepsize_safety=0.9)
        rng = np.random.default_rng(7)
        start_task(state, 0)
        for _ in range(3):
            X, y = _batch(rng)
            train_step(state, X, y)
        start_task(state, 1)
        X, y = _batch(rng)
        train_step(state, X, y)
        results[method] = am.get_adapter_params(state.model)
    diff = np.linalg.norm(results["igem"] - results["gem_exact"])
    assert diff <= 1e-6


def test_warm_start_lifecycle(monkeypatch):
    real_pgd = trainer.pgd_project
    calls = []  # (lam handed in, final lam) per projection

    def recording_pgd(g, G, warm, *args, **kwargs):
        res = real_pgd(g, G, warm, *args, **kwargs)
        calls.append((warm.lam.copy(), res.final_lambda.lam.copy()))
        return res

    monkeypatch.setattr(trainer, "pgd_project", recording_pgd)
    state = _fresh_state(method="igem", seed=3)
    rng = np.random.default_rng(5)
    start_task(state, 0)
    for _ in range(2):
        X, y = _batch(rng)
        train_step(state, X, y)
    assert calls == []
    start_task(state, 1)
    assert state.dual is None  # dropped; the first projection sizes it
    for _ in range(2):
        X, y = _batch(rng)
        train_step(state, X, y)
        np.testing.assert_array_equal(state.dual.lam, calls[-1][1])
    np.testing.assert_array_equal(calls[0][0], np.zeros(1))  # the first step starts cold
    np.testing.assert_array_equal(calls[1][0], calls[0][1])  # the second carries it over
    start_task(state, 2)
    assert state.dual is None  # a new task resets it
    train_step(state, *_batch(rng))
    np.testing.assert_array_equal(calls[2][0], np.zeros(2))  # cold: two past tasks


def test_memory_evicting_a_past_task_cold_starts_igem_mid_task(monkeypatch):
    # memory_size 2 keeps one row each of tasks 0 and 1 into task 2; its
    # first insert then water-fills task 0 out, so m drops from 2 to 1
    real_pgd, real_power = trainer.pgd_project, trainer.power_iteration
    calls, sigma_calls = [], []  # (lam handed in, final lam) per projection; G.rows per estimate

    def recording_pgd(g, G, warm, *args, **kwargs):
        res = real_pgd(g, G, warm, *args, **kwargs)
        calls.append((warm.lam.copy(), res.final_lambda.lam.copy()))
        return res

    def recording_power(G, **kwargs):
        sigma_calls.append(G.rows)
        return real_power(G, **kwargs)

    monkeypatch.setattr(trainer, "pgd_project", recording_pgd)
    monkeypatch.setattr(trainer, "power_iteration", recording_power)
    state = _fresh_state(method="igem", seed=3, memory_size=2)
    rng = np.random.default_rng(5)
    for task in (0, 1):
        start_task(state, task)
        for _ in range(2):
            train_step(state, *_batch(rng))
    start_task(state, 2)
    assert state.buffers.tasks() == [0, 1]
    calls.clear()
    sigma_calls.clear()
    for _ in range(3):
        train_step(state, *_batch(rng))
    assert state.buffers.tasks() == [1, 2]
    np.testing.assert_array_equal(calls[0][0], np.zeros(2))  # the new task starts cold
    np.testing.assert_array_equal(calls[1][0], np.zeros(1))  # cold again after the eviction
    np.testing.assert_array_equal(calls[2][0], calls[1][1])  # then carried over
    assert sigma_calls == [2, 1]  # each cold start also refreshes sigma_hat


def test_a_step_whose_past_rows_all_drop(monkeypatch):
    # task 1's constraint build drops every past row, so G has m = 0
    def no_rows(buffers, model, past, weights=None):
        return ConstraintMatrix.empty(model.phi.size)

    recs, phis = {}, {}
    for method in ("agem", "igem", "gem_exact"):
        state, rng = _fresh_state(method=method, seed=3), np.random.default_rng(5)
        start_task(state, 0)
        for _ in range(2):
            train_step(state, *_batch(rng))
        monkeypatch.setattr(trainer, "build_constraint_matrix", no_rows)
        start_task(state, 1)
        recs[method] = [train_step(state, *_batch(rng)) for _ in range(2)]
        phis[method] = state.model.phi.copy()
        monkeypatch.undo()
    assert all(r.violation_before == 0.0 for rs in recs.values() for r in rs)
    assert all(not r.projected and r.proj_time == 0.0 for r in recs["igem"])
    assert all(r.projected and r.lambda_norm == 0.0 and r.max_violation == 0.0
               for r in recs["gem_exact"])  # exact_qp_project's identity at m = 0
    np.testing.assert_array_equal(phis["igem"], phis["gem_exact"])
    assert all(r.projected for r in recs["agem"])


@pytest.mark.parametrize("method", trainer.METHODS)
def test_each_step_forms_the_effective_weights_once(method, monkeypatch):
    real = am.LoraLayer.effective_weight
    calls = []

    def counting(layer):
        calls.append(layer)
        return real(layer)

    monkeypatch.setattr(am.LoraLayer, "effective_weight", counting)
    state = _fresh_state(method=method, seed=6)
    rng = np.random.default_rng(6)
    for task in (0, 1, 2):
        start_task(state, task)
        for _ in range(2):
            X, y = _batch(rng)
            calls.clear()
            rec = train_step(state, X, y)
            assert calls == state.model.layers
    assert rec.projected or method == "naive"


def test_non_finite_loss_aborts_with_diagnostic():
    state = _fresh_state(method="naive", seed=4)
    start_task(state, 0)
    phi = am.get_adapter_params(state.model)
    phi[0] = np.inf
    am.set_adapter_params(state.model, phi)
    rng = np.random.default_rng(0)
    X, y = _batch(rng)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLossError) as exc:
        train_step(state, X, y)
    assert [d["task"] for d in exc.value.diagnostics] == [0]


def test_non_finite_update_aborts_with_diagnostic():
    state = _fresh_state(method="naive", seed=4, lr=1e300)
    start_task(state, 0)
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLossError) as exc:
        for _ in range(10):
            train_step(state, *_batch(rng))
    [record] = exc.value.diagnostics
    assert record["reason"] == "non-finite parameter update"
    assert record["step"] == len(state.log.steps)


def test_evaluate_scores_one_row_like_a_one_row_batch():
    spec = StreamSpec(seed=0, **SMALL_SPEC)
    split = generate_stream(spec)[0]
    model = prepare_model(spec, 0, model_config=SMALL_MODEL)
    scores = set()
    for x, y in zip(split.test_x[:10], split.test_y[:10]):
        one = trainer.evaluate(model, x, y)
        assert one == trainer.evaluate(model, x[None, :], np.array([y]))
        scores.add(one)
    assert scores == {0.0, 1.0}


@pytest.mark.parametrize("labels", [np.array([0]), 7, np.full(10, 7)],
                         ids=["one-label", "scalar", "out-of-range"])
def test_evaluate_refuses_the_labels_backward_refuses(labels):
    spec = StreamSpec(seed=0, **SMALL_SPEC)
    X = generate_stream(spec)[0].test_x[:10]
    model = prepare_model(spec, 0, model_config=SMALL_MODEL)
    with pytest.raises(ValueError) as refused:
        am.backward(model, X, labels)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        trainer.evaluate(model, X, labels)


def test_run_log_timestamps_monotone_and_append_only():
    matrix, log = small_run("igem", seed=0)
    ts = [r.timestamp for r in log.steps]
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    assert [r.step for r in log.steps] == list(range(len(log.steps)))


# --- run_experiences ---------------------------------------------------------------

def test_single_experience_run_has_absent_transfer_metrics():
    spec = StreamSpec(seed=0, n_experiences=1, **SMALL_SPEC)
    stream = generate_stream(spec)
    model = prepare_model(spec, 0, model_config=SMALL_MODEL)
    cfg = TrainConfig(method="naive", seed=0, n_experiences=1)
    matrix, log = run_experiences(cfg, stream, model)
    out = compute_all(matrix, log.proj_times, spec.n_classes)
    assert out["bwt"] is None and out["fwt"] is None and out["forgetting"] is None
    assert out["avg_acc"] == matrix.R[1, 0]


def test_same_seed_reproduces_accuracy_matrix_bit_for_bit():
    a, _ = small_run("igem", seed=5)
    b, _ = small_run("igem", seed=5)
    np.testing.assert_array_equal(a.R, b.R)


def test_stream_length_mismatch_raises():
    spec = StreamSpec(seed=0, **SMALL_SPEC)
    stream = generate_stream(spec)
    model = prepare_model(spec, 0, model_config=SMALL_MODEL)
    with pytest.raises(ValueError, match="experiences"):
        run_experiences(TrainConfig(n_experiences=5), stream, model)


def test_projection_reduces_forgetting_on_most_seeds():
    wins = 0
    for seed in (0, 2, 5, 7, 11):
        f_naive = forgetting(small_run("naive", seed=seed)[0])
        f_gem = forgetting(small_run("gem_exact", seed=seed)[0])
        wins += f_gem <= f_naive
    assert wins >= 4


def test_non_interference_certificate_on_projected_steps():
    _, log = small_run("gem_exact", seed=0)
    projected = [r for r in log.steps if r.projected]
    assert projected, "expected projected steps after the first task"
    assert max(r.max_violation for r in projected) <= 1e-9


def test_igem_violation_not_worse_than_unprojected():
    _, log = small_run("igem", seed=0)
    projected = [r for r in log.steps if r.projected]
    assert projected
    ok = sum(r.max_violation <= r.violation_before + 1e-12 for r in projected)
    assert ok / len(projected) >= 0.99


def test_mpo_recorded_only_for_projecting_methods():
    _, log_naive = small_run("naive", seed=0)
    _, log_igem = small_run("igem", seed=0)
    assert log_naive.proj_times == []
    assert log_igem.proj_times


def test_agem_method_projects_against_sampled_reference():
    matrix, log = small_run("agem", seed=0)
    projected = [r for r in log.steps if r.projected]
    assert projected
    # every projected result satisfies the single-constraint certificate
    assert max(r.max_violation for r in projected) <= 1e-10
    assert len(log.proj_times) == len(projected)


def test_spectral_estimate_is_taken_at_each_cold_start(monkeypatch):
    real_power, real_step = trainer.power_iteration, trainer.train_step
    calls = []
    refreshes: dict[int, list[int]] = {}
    steps_in_task: dict[int, int] = {}

    def counting_power(*args, **kwargs):
        calls.append(1)
        return real_power(*args, **kwargs)

    def recording_step(state, X, y):
        before = len(calls)
        rec = real_step(state, X, y)
        offset = steps_in_task.get(rec.task, 0)
        if len(calls) > before:
            refreshes.setdefault(rec.task, []).append(offset)
        steps_in_task[rec.task] = offset + 1
        return rec

    monkeypatch.setattr(trainer, "power_iteration", counting_power)
    monkeypatch.setattr(trainer, "train_step", recording_step)
    spec = StreamSpec(seed=0, n_per_experience=1000, feature_dim=8)
    model = prepare_model(spec, 0, model_config=SMALL_MODEL)
    run_experiences(TrainConfig(method="igem", seed=0, optimizer="adamw"), generate_stream(spec), model)
    assert steps_in_task == {0: 25, 1: 25, 2: 25}
    assert refreshes == {1: [0], 2: [0]}


@pytest.mark.parametrize("optimizer", trainer.OPTIMIZERS)
def test_igem_stepsize_keeps_every_projection_inside_the_stable_range(monkeypatch, optimizer):
    # the estimate taken at a cold start sets eta for every warm-started
    # projection after it; dual PGD converges while eta * sigma_max(G G') < 2
    real_pgd = trainer.pgd_project
    calls = []  # (eta, G) per projection

    def recording_pgd(g, G, warm, eta, *args, **kwargs):
        calls.append((eta, G))
        return real_pgd(g, G, warm, eta, *args, **kwargs)

    monkeypatch.setattr(trainer, "pgd_project", recording_pgd)
    spec = StreamSpec(seed=0, n_per_experience=1000, feature_dim=8)
    model = prepare_model(spec, 0, model_config=SMALL_MODEL)
    cfg = TrainConfig(method="igem", seed=0, optimizer=optimizer)
    run_experiences(cfg, generate_stream(spec), model)
    assert len(calls) == 50  # 25 steps in each of tasks 1 and 2
    assert max(G.rows for _, G in calls) == 2
    assert max(eta * true_sigma_max(G) for eta, G in calls) < 2.0


def test_projected_agem_step_takes_one_dot_outside_the_projector(monkeypatch):
    # max_violation is the one dot g~' g_ref: at g_ref = 0 it is already 0
    real_ref, real_project = trainer._agem_reference_gradient, trainer.agem_project

    def counted_project(g, g_ref):
        g_tilde = real_project(g, g_ref)
        AgemCounter.calls.clear()  # count only what the trainer takes
        return g_tilde.view(AgemCounter)

    monkeypatch.setattr(trainer, "_agem_reference_gradient",
                        lambda *args: real_ref(*args).view(AgemCounter))
    monkeypatch.setattr(trainer, "agem_project", counted_project)
    state = _fresh_state(method="agem", seed=6)
    rng = np.random.default_rng(6)
    start_task(state, 0)
    train_step(state, *_batch(rng))
    start_task(state, 1)
    for _ in range(3):
        assert train_step(state, *_batch(rng)).projected
        assert AgemCounter.calls["dot"] == 1


# long enough that scheduler noise cannot carry a step across it
STAGE_PAUSE = 0.01


@pytest.mark.parametrize("method,stage,timed", [
    ("igem", "power_iteration", True),
    ("agem", "_agem_reference_gradient", False),
])
def test_proj_time_is_one_timer_around_the_projection(monkeypatch, method, stage, timed):
    # a slowed stage shows in proj_time exactly when it belongs to the projection:
    # igem's spectral estimate does, agem's reference backward does not
    _, plain = small_run(method, seed=0)
    real_stage, real_step = getattr(trainer, stage), trainer.train_step
    calls, slowed = [], []

    def slow_stage(*args, **kwargs):
        time.sleep(STAGE_PAUSE)
        calls.append(1)
        return real_stage(*args, **kwargs)

    def recording_step(state, X, y):
        before = len(calls)
        rec = real_step(state, X, y)
        if len(calls) > before:
            slowed.append(rec)
        return rec

    monkeypatch.setattr(trainer, stage, slow_stage)
    monkeypatch.setattr(trainer, "train_step", recording_step)
    _, log = small_run(method, seed=0)
    assert slowed and all(r.projected for r in slowed)
    assert all((r.proj_time >= STAGE_PAUSE) == timed for r in slowed)
    assert len(log.proj_times) == len(plain.proj_times)


def test_exact_projection_first_order_loss_certificate():
    # directional derivative of every buffered past-task loss along the
    # update -g~ is <= 0 (up to tolerance), stated with the raw gradients
    from gemproj.projector import exact_qp_project
    from gemproj.replay import build_constraint_matrix

    state = _fresh_state(method="gem_exact", seed=8)
    rng = np.random.default_rng(3)
    for task in range(2):
        start_task(state, task)
        for _ in range(4):
            X, y = _batch(rng)
            train_step(state, X, y)
    past = [0, 1]
    start_task(state, 2)
    X, y = _batch(rng)
    from gemproj.adapter_model import backward

    _, g = backward(state.model, X, y)
    G = build_constraint_matrix(state.buffers, state.model, past)
    g_tilde = exact_qp_project(g, G).projected_gradient
    for t in past:
        _, g_k = backward(state.model, *state.buffers.examples(t))
        assert g_k.dot(-g_tilde) <= 1e-9 * (1 + np.linalg.norm(g_k))


def _step_fields(log):
    return [(r.task, r.step, r.loss, r.lambda_norm, r.max_violation, r.violation_before, r.projected)
            for r in log.steps]


def test_eval_mb_size_sizes_only_the_agem_reference_batch():
    # evaluation is one forward pass per test set, so the field reaches
    # nothing but A-GEM's reference sample
    for method in ("naive", "igem", "gem_exact"):
        (a, log_a), (b, log_b) = (small_run(method, eval_mb_size=k) for k in (7, 50))
        assert np.array_equal(a.R, b.R), method
        assert _step_fields(log_a) == _step_fields(log_b), method
    (_, log_a), (_, log_b) = (small_run("agem", eval_mb_size=k) for k in (7, 50))
    assert _step_fields(log_a) != _step_fields(log_b)


# --- replay memory: kept only by the methods that replay it ---------------------

def test_naive_run_never_inserts_into_the_memory(monkeypatch):
    states, make = [], trainer.make_state

    def recording_make(*args, **kwargs):
        states.append(make(*args, **kwargs))
        return states[-1]

    def refusing_insert(*args, **kwargs):
        raise AssertionError("naive inserted a batch into the replay memory")

    monkeypatch.setattr(trainer, "make_state", recording_make)
    monkeypatch.setattr(trainer.ReplayBuffer, "insert", refusing_insert)
    _, log = small_run("naive")
    assert len(log.steps) > 0 and not any(r.projected for r in log.steps)
    assert states[0].buffers.tasks() == []


@pytest.mark.parametrize("method", ["agem", "igem", "gem_exact"])
def test_replaying_methods_insert_once_per_step(method, monkeypatch):
    insert, calls = trainer.ReplayBuffer.insert, []

    def counting_insert(self, *args, **kwargs):
        calls.append(args[0])
        return insert(self, *args, **kwargs)

    monkeypatch.setattr(trainer.ReplayBuffer, "insert", counting_insert)
    _, log = small_run(method)
    assert calls == [r.task for r in log.steps]


def test_memory_settings_cannot_move_naive():
    (a, log_a), (b, log_b) = small_run("naive", memory_size=1, patterns_per_exp=1), small_run("naive")
    assert a.R.tobytes() == b.R.tobytes()
    assert _step_fields(log_a) == _step_fields(log_b)
