import re

import numpy as np
import pytest

from gemproj import adapter_model as am
from gemproj import trainer
from gemproj.replay import ReplayBuffer

from oracles import gradient_errors


SMALL = am.ModelConfig(input_dim=4, hidden_dim=3, n_classes=3, rank=2, alpha=8.0)


def small_model(seed=0, perturb=0.0):
    model = am.build_model(SMALL, seed=seed)
    if perturb:
        rng = np.random.default_rng(seed + 100)
        phi = am.get_adapter_params(model)
        am.set_adapter_params(model, phi + perturb * rng.standard_normal(phi.size))
    return model


def small_batch(seed=0, n=6):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, SMALL.input_dim)), rng.integers(0, SMALL.n_classes, size=n)


# --- forward ---------------------------------------------------------------------

def test_zero_b_matches_frozen_base():
    model = small_model()
    x = np.random.default_rng(1).standard_normal(4)
    base_logits = np.tanh(model.layers[0].W0 @ x) @ model.layers[1].W0.T
    np.testing.assert_array_equal(am.forward(model, x), base_logits)


def test_doubling_alpha_doubles_delta_w():
    model = small_model(perturb=0.1)
    deltas = [layer.scaling * layer.B @ layer.A for layer in model.layers]
    for layer in model.layers:
        layer.alpha *= 2.0
    deltas2 = [layer.scaling * layer.B @ layer.A for layer in model.layers]
    for d1, d2 in zip(deltas, deltas2):
        np.testing.assert_array_equal(d2, 2.0 * d1)  # doubling is exact
    for layer, d2 in zip(model.layers, deltas2):
        np.testing.assert_allclose(layer.effective_weight() - layer.W0, d2, atol=1e-12)


def test_doubling_alpha_on_head_doubles_logit_shift():
    # adapters only on the linear head, so the logit change is linear in alpha
    model = small_model()
    rng = np.random.default_rng(2)
    model.layers[1].B[...] = rng.standard_normal(model.layers[1].B.shape) * 0.1
    x = rng.standard_normal(4)
    base = np.tanh(model.layers[0].W0 @ x) @ model.layers[1].W0.T
    shift1 = am.forward(model, x) - base
    model.layers[1].alpha *= 2.0
    shift2 = am.forward(model, x) - base
    np.testing.assert_allclose(shift2, 2.0 * shift1, rtol=1e-12)


def test_forward_deterministic_across_builds():
    x = np.random.default_rng(3).standard_normal(4)
    a = am.forward(small_model(seed=9), x)
    b = am.forward(small_model(seed=9), x)
    np.testing.assert_array_equal(a, b)


def test_forward_rejects_non_finite_and_bad_dim():
    model = small_model()
    with pytest.raises(ValueError):
        am.forward(model, np.array([1.0, np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        am.forward(model, np.zeros(5))


# --- backward ---------------------------------------------------------------------

def test_backward_matches_central_differences():
    fd_err, _ = gradient_errors(small_model(perturb=0.05), *small_batch())
    assert fd_err <= 1e-4


def test_backward_mean_is_duplication_invariant():
    model = small_model(perturb=0.05)
    X, y = small_batch()
    _, g1 = am.backward(model, X, y)
    _, g2 = am.backward(model, np.vstack([X, X]), np.concatenate([y, y]))
    assert np.abs(g1 - g2).max() <= 1e-12


def test_rank_zero_is_rejected():
    with pytest.raises(ValueError):
        am.ModelConfig(rank=0)


@pytest.mark.parametrize("field,value", [
    ("input_dim", 0), ("hidden_dim", 0), ("rank", 2.5), ("n_classes", 1),
    ("alpha", 0.0), ("alpha", -1.0), ("alpha", float("nan")), ("alpha", float("inf")),
])
def test_model_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        am.ModelConfig(**{field: value})


def test_rank_above_a_layer_width_has_exact_gradients():
    # r = 4 exceeds both the input (2) and the output (2) width
    model = am.build_model(am.ModelConfig(input_dim=2, hidden_dim=3, n_classes=2, rank=4), seed=1)
    rng = np.random.default_rng(2)
    model.phi[:] += 0.05 * rng.standard_normal(model.phi.size)
    fd, chain = gradient_errors(model, rng.standard_normal((6, 2)), rng.integers(0, 2, size=6))
    assert fd <= 1e-4 and chain <= 1e-10


def test_backward_rejects_bad_labels_and_empty_batch():
    model = small_model()
    X, _ = small_batch()
    with pytest.raises(ValueError, match="label out of range"):
        am.backward(model, X, np.array([0, 1, 2, 0, 1, 3]))
    with pytest.raises(ValueError, match="nonempty"):
        am.backward(model, np.zeros((0, 4)), np.zeros(0, dtype=int))


@pytest.mark.parametrize("entry", ["backward", "forward", "evaluate", "insert"])
@pytest.mark.parametrize("shape, labels", [((), 0), ((2, 1, 32), [0, 0])], ids=["0-D", "3-D"])
def test_a_batch_that_is_neither_a_row_nor_2d_is_refused_naming_its_shape(shape, labels, entry):
    model, X = small_model(), np.zeros(shape)
    call = {"backward": lambda: am.backward(model, X, labels),
            "forward": lambda: am.forward(model, X),
            "evaluate": lambda: trainer.evaluate(model, X, labels),
            "insert": lambda: ReplayBuffer().insert(0, X, labels)}[entry]
    with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
        call()


# --- jacobian helpers ---------------------------------------------------------------

def test_backward_equals_jacobian_transpose_of_weight_gradient():
    model = small_model(perturb=0.05)
    worst = 0.0
    for seed in range(4, 24):
        X, y = small_batch(seed=seed)
        pulled = am.jacobian_transpose_apply(model, am.weight_space_gradient(model, X, y))
        worst = max(worst, np.abs(am.backward(model, X, y)[1] - pulled).max())
    assert worst <= 1e-10


WIDE = am.ModelConfig(input_dim=512, hidden_dim=128, n_classes=64, rank=64)


@pytest.mark.parametrize("n", [16, 700])  # below every layer width, above all of them
def test_adapter_space_backward_matches_pull_back_of_weight_gradient_at_wide_shapes(n):
    model = am.build_model(WIDE, seed=1)
    rng = np.random.default_rng(n)
    am.set_adapter_params(model, model.phi + 0.05 * rng.standard_normal(model.phi.size))
    X = rng.standard_normal((n, WIDE.input_dim))
    y = rng.integers(0, WIDE.n_classes, size=n)
    want = am.jacobian_transpose_apply(model, am.weight_space_gradient(model, X, y))
    loss, g = am.backward(model, X, y)
    assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)
    for layer in model.layers:  # both blocks of every layer carry gradient
        assert all(np.abs(block).max() > 0.0 for block in layer._blocks(g))
    out = np.full(model.phi.size, np.nan)
    loss_w, g_w = am.backward(model, X, y, weights=am.effective_weights(model), out=out)
    assert g_w is out
    assert loss_w == loss
    np.testing.assert_array_equal(g_w, g)


def test_jacobian_transpose_of_zero_is_zero():
    model = small_model(perturb=0.05)
    d_full = sum(l.W0.size for l in model.layers)
    np.testing.assert_array_equal(
        am.jacobian_transpose_apply(model, np.zeros(d_full)), np.zeros(am.adapter_dim(model))
    )


def test_jacobian_transpose_with_zero_b():
    model = small_model()  # B = 0 everywhere
    rng = np.random.default_rng(6)
    g_full = rng.standard_normal(sum(l.W0.size for l in model.layers))
    pulled = am.jacobian_transpose_apply(model, g_full)
    blocks = am._split_weight_space(model, g_full)
    for layer, Ghat in zip(model.layers, blocks):
        got_B, got_A = layer._blocks(pulled)
        np.testing.assert_allclose(got_B, layer.scaling * Ghat @ layer.A.T, rtol=1e-14)
        assert np.abs(got_B).max() > 0.0  # generally nonzero
        np.testing.assert_array_equal(got_A, np.zeros_like(got_A))  # B' = 0


def test_jacobian_adjoint_identity():
    model = small_model(perturb=0.05)
    rng = np.random.default_rng(8)
    for _ in range(50):
        g_full = rng.standard_normal(sum(l.W0.size for l in model.layers))
        dphi = rng.standard_normal(am.adapter_dim(model))
        lhs = g_full.dot(am.jacobian_apply(model, dphi))
        rhs = am.jacobian_transpose_apply(model, g_full).dot(dphi)
        assert abs(lhs - rhs) <= 1e-10


# --- flat adapter vector -------------------------------------------------------------

def test_flatten_unflatten_round_trip():
    model = small_model(perturb=0.3)
    params = am.get_adapter_params(model)
    assert params.size == am.adapter_dim(model)
    assert params.size == sum(
        l.B.size + l.A.size for l in model.layers
    )
    before = [(l.B.copy(), l.A.copy()) for l in model.layers]
    am.set_adapter_params(model, params)
    for layer, (B, A) in zip(model.layers, before):
        np.testing.assert_array_equal(layer.B, B)
        np.testing.assert_array_equal(layer.A, A)


def test_set_params_validates_length():
    model = small_model(perturb=0.1)
    before = model.phi.copy()
    d = am.adapter_dim(model)
    for bad in (np.zeros(d + 1), np.zeros(d - 1), np.zeros((1, d)), np.float64(0.0)):
        with pytest.raises(ValueError, match="phi has shape"):
            am.set_adapter_params(model, bad)
    np.testing.assert_array_equal(model.phi, before)


def _shares_phi(model):
    return all(np.shares_memory(l.B, model.phi) and np.shares_memory(l.A, model.phi)
               for l in model.layers)


def test_layers_are_views_into_phi_after_build_and_copies():
    import copy
    import pickle

    model = small_model(perturb=0.2)
    copies = {
        "deepcopy": copy.deepcopy(model),
        "pickle": pickle.loads(pickle.dumps(model)),
        "copy": copy.copy(model),
    }
    assert _shares_phi(model)
    for how, other in copies.items():
        assert _shares_phi(other), how
        assert not np.shares_memory(other.phi, model.phi), how
        np.testing.assert_array_equal(other.phi, model.phi)
    model.phi[0] += 1.0  # writing phi moves B itself
    assert model.layers[0].B[0, 0] == model.phi[0]


def test_training_a_deepcopy_leaves_the_original_untouched():
    import copy

    from gemproj.trainer import TrainConfig, make_state, start_task, train_step

    model = am.build_model(am.ModelConfig(), seed=1)
    phi_before = model.phi.copy()
    x = np.random.default_rng(3).standard_normal(32)
    logits_before = am.forward(model, x)
    clone = copy.deepcopy(model)
    state = make_state(TrainConfig(method="naive", optimizer="sgd", lr=0.1), clone)
    start_task(state, 0)
    rng = np.random.default_rng(4)
    for _ in range(3):
        train_step(state, rng.standard_normal((8, 32)), rng.integers(0, 4, size=8))
    assert not np.array_equal(am.forward(clone, x), logits_before)
    np.testing.assert_array_equal(model.phi, phi_before)
    np.testing.assert_array_equal(am.forward(model, x), logits_before)


def test_rebinding_adapters_raises():
    model = small_model()
    with pytest.raises(AttributeError):
        model.layers[0].B = np.zeros(model.layers[0].B.shape)
    with pytest.raises(AttributeError):
        model.layers[1].A = np.zeros(model.layers[1].A.shape)
    with pytest.raises(AttributeError):
        model.phi = np.zeros(am.adapter_dim(model))


def test_get_params_returns_a_snapshot():
    model = small_model(perturb=0.1)
    snap = am.get_adapter_params(model)
    kept = snap.copy()
    am.set_adapter_params(model, np.zeros(am.adapter_dim(model)))
    model.layers[0].A[...] = 1.0
    np.testing.assert_array_equal(snap, kept)
    snap[:] = 7.0
    assert not np.any(model.phi == 7.0)


def test_pretrain_base_improves_pooled_accuracy_and_keeps_adapters():
    from gemproj.datagen import StreamSpec, generate_pooled
    from gemproj.trainer import evaluate

    spec = StreamSpec(seed=0)
    X, y = generate_pooled(spec, 1500)
    model = am.build_model(am.ModelConfig(), seed=0)
    A_before = [l.A.copy() for l in model.layers]
    acc0 = evaluate(model, X, y)
    am.pretrain_base(model, X, y, steps=300, lr=0.05, seed=0)
    acc1 = evaluate(model, X, y)
    assert acc1 > acc0 + 0.2
    for layer, A in zip(model.layers, A_before):
        np.testing.assert_array_equal(layer.A, A)
        np.testing.assert_array_equal(layer.B, np.zeros_like(layer.B))
