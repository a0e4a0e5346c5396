"""Tiny feed-forward classifier with frozen base weights and trainable
low-rank adapters.

Each layer computes x -> (W0 + (alpha/r) B A) x with W0 frozen after
pretraining and only B (d x r) and A (r x k) trainable.  Training state
lives in the flat adapter vector phi; `backward` computes its gradient
by exact manual backpropagation, and the Jacobian helpers expose the
adapter-subspace geometry (g_phi = J' g for any full-weight gradient g,
and full-weight directions J dphi for adapter directions dphi).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 32
    hidden_dim: int = 16
    n_classes: int = 4
    rank: int = 4
    alpha: float = 32.0
    # Uniform half-width for A entries is adapter_init_scale / sqrt(k).
    adapter_init_scale: float = 1.0
    activation: str = "tanh"  # smooth, so finite-difference checks are clean

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rank > min(self.hidden_dim, self.input_dim) or self.rank > min(
            self.n_classes, self.hidden_dim
        ):
            raise ValueError("rank must satisfy r <= min(d, k) in every layer")
        if self.activation != "tanh":
            raise ValueError("only the tanh nonlinearity is supported")


class LoraLayer:
    """One linear layer with a frozen dense weight plus a low-rank update."""

    def __init__(self, W0: np.ndarray, rank: int, alpha: float):
        W0 = np.asarray(W0, dtype=np.float64)
        d, k = W0.shape
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank > min(d, k):
            raise ValueError(f"rank {rank} exceeds min(d, k) = {min(d, k)}")
        self.W0 = W0
        self.B = np.zeros((d, rank))
        self.A = np.zeros((rank, k))
        self.rank = rank
        self.alpha = float(alpha)

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def effective_weight(self) -> np.ndarray:
        return self.W0 + self.scaling * (self.B @ self.A)


class TinyMlp:
    """Two LoRA layers (input->hidden, hidden->classes) with tanh between;
    the second layer is the classification head, loss is softmax CE."""

    def __init__(self, config: ModelConfig, layers: list[LoraLayer]):
        self.config = config
        self.layers = layers


def build_model(config: ModelConfig, seed: int = 0) -> TinyMlp:
    """Construct a model with random base weights, B = 0 and small uniform A
    (the adapted model starts identical to the base)."""
    rng = np.random.default_rng([seed, 0xBA5E])
    shapes = [
        (config.hidden_dim, config.input_dim),
        (config.n_classes, config.hidden_dim),
    ]
    layers = []
    for d, k in shapes:
        W0 = rng.standard_normal((d, k)) / np.sqrt(k)
        layer = LoraLayer(W0, config.rank, config.alpha)
        half_width = config.adapter_init_scale / np.sqrt(k)
        layer.A = rng.uniform(-half_width, half_width, size=(config.rank, k))
        layers.append(layer)
    return TinyMlp(config, layers)


# --- adapter parameter flattening -------------------------------------------

@dataclass(frozen=True)
class LayoutEntry:
    layer: int
    which: str  # "B" or "A"
    shape: tuple[int, int]
    offset: int


@dataclass
class AdapterParams:
    """Flat adapter vector phi plus the layout needed to scatter it back."""

    phi: np.ndarray
    layout: tuple[LayoutEntry, ...] = field(repr=False, default=())


def adapter_layout(model: TinyMlp) -> tuple[LayoutEntry, ...]:
    entries = []
    offset = 0
    for i, layer in enumerate(model.layers):
        for which, mat in (("B", layer.B), ("A", layer.A)):
            entries.append(LayoutEntry(i, which, mat.shape, offset))
            offset += mat.size
    return tuple(entries)


def adapter_dim(model: TinyMlp) -> int:
    return sum(layer.B.size + layer.A.size for layer in model.layers)


def get_adapter_params(model: TinyMlp) -> AdapterParams:
    layout = adapter_layout(model)
    phi = np.concatenate([
        getattr(model.layers[e.layer], e.which).ravel() for e in layout
    ]) if layout else np.zeros(0)
    return AdapterParams(phi=phi, layout=layout)


def set_adapter_params(model: TinyMlp, phi: np.ndarray):
    phi = np.asarray(phi, dtype=np.float64)
    layout = adapter_layout(model)
    expected = adapter_dim(model)
    if phi.shape != (expected,):
        raise ValueError(f"phi has shape {phi.shape}, expected ({expected},)")
    for e in layout:
        block = phi[e.offset : e.offset + e.shape[0] * e.shape[1]]
        setattr(model.layers[e.layer], e.which, block.reshape(e.shape).copy())


def _flatten_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([b.ravel() for b in blocks])


# --- forward / backward ------------------------------------------------------

def forward(model: TinyMlp, x) -> np.ndarray:
    """Logits for a single feature vector or a (n, input_dim) batch."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != model.config.input_dim:
        raise ValueError(f"input has dim {X.shape[1]}, expected {model.config.input_dim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in input")
    H = np.tanh(X @ model.layers[0].effective_weight().T)
    Z2 = H @ model.layers[1].effective_weight().T
    return Z2[0] if single else Z2


def _prep_batch(model: TinyMlp, X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim == 1:
        X = X[None, :]
        y = np.atleast_1d(y)
    if X.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if y.shape != (X.shape[0],):
        raise ValueError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
    if y.min() < 0 or y.max() >= model.config.n_classes:
        raise ValueError(
            f"label out of range [0, {model.config.n_classes}): {int(y[(y < 0) | (y >= model.config.n_classes)][0])}"
        )
    return X, y


def effective_weights(model: TinyMlp) -> list[np.ndarray]:
    """Each layer's W0 + (alpha/r) B A at the current adapters."""
    return [layer.effective_weight() for layer in model.layers]


def _loss_and_weight_grads(model: TinyMlp, X, y, weights=None):
    """Mean softmax cross-entropy and its gradient w.r.t. each layer's
    effective weight matrix; ``weights`` are ``effective_weights(model)``
    when the caller already formed them."""
    X, y = _prep_batch(model, X, y)
    n = X.shape[0]
    W1, W2 = effective_weights(model) if weights is None else weights
    Z1 = X @ W1.T
    H = np.tanh(Z1)
    Z2 = H @ W2.T
    shift = Z2 - Z2.max(axis=1, keepdims=True)
    logZ = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    loss = float(-logZ[np.arange(n), y].mean())
    P = np.exp(logZ)
    D2 = P.copy()
    D2[np.arange(n), y] -= 1.0
    D2 /= n
    dW2 = D2.T @ H
    dH = D2 @ W2
    dZ1 = dH * (1.0 - H * H)
    dW1 = dZ1.T @ X
    return loss, [dW1, dW2]


def backward(model: TinyMlp, X, y, weights=None) -> tuple[float, np.ndarray]:
    """Mean-over-batch loss and adapter gradient g_phi (flat, length d_phi).

    Base weights receive no gradient; only the A and B blocks appear.
    ``weights`` may carry precomputed ``effective_weights(model)``.
    """
    loss, dWs = _loss_and_weight_grads(model, X, y, weights)
    blocks = []
    for layer, dW in zip(model.layers, dWs):
        s = layer.scaling
        blocks.append(s * (dW @ layer.A.T))  # grad wrt B
        blocks.append(s * (layer.B.T @ dW))  # grad wrt A
    return loss, _flatten_blocks(blocks)


def weight_space_gradient(model: TinyMlp, X, y) -> np.ndarray:
    """Loss gradient w.r.t. all effective-weight entries, flattened per
    layer in row-major order (the full-space layout used by the Jacobian
    helpers)."""
    _, dWs = _loss_and_weight_grads(model, X, y)
    return _flatten_blocks(dWs)


def _split_weight_space(model: TinyMlp, g_full: np.ndarray) -> list[np.ndarray]:
    g_full = np.asarray(g_full, dtype=np.float64)
    blocks = []
    offset = 0
    for layer in model.layers:
        size = layer.W0.size
        blocks.append(g_full[offset : offset + size].reshape(layer.W0.shape))
        offset += size
    if offset != g_full.shape[0]:
        raise ValueError(f"full-space gradient has length {g_full.shape[0]}, expected {offset}")
    return blocks

def jacobian_transpose_apply(model: TinyMlp, g_full) -> np.ndarray:
    """Pull a full-weight-space gradient back to adapter space: per layer
    grad_B = (alpha/r) Ghat A' and grad_A = (alpha/r) B' Ghat."""
    blocks = []
    for layer, Ghat in zip(model.layers, _split_weight_space(model, g_full)):
        s = layer.scaling
        blocks.append(s * (Ghat @ layer.A.T))
        blocks.append(s * (layer.B.T @ Ghat))
    return _flatten_blocks(blocks)


def jacobian_apply(model: TinyMlp, dphi) -> np.ndarray:
    """Push an adapter direction dphi to the induced effective-weight
    direction: per layer (alpha/r) (dB A + B dA)."""
    dphi = np.asarray(dphi, dtype=np.float64)
    expected = adapter_dim(model)
    if dphi.shape != (expected,):
        raise ValueError(f"dphi has shape {dphi.shape}, expected ({expected},)")
    blocks = []
    layout = adapter_layout(model)
    for e_B, e_A in zip(layout[0::2], layout[1::2]):
        layer = model.layers[e_B.layer]
        dB = dphi[e_B.offset : e_B.offset + e_B.shape[0] * e_B.shape[1]].reshape(e_B.shape)
        dA = dphi[e_A.offset : e_A.offset + e_A.shape[0] * e_A.shape[1]].reshape(e_A.shape)
        blocks.append(layer.scaling * (dB @ layer.A + layer.B @ dA))
    return _flatten_blocks(blocks)


# --- base-weight pretraining --------------------------------------------------

def pretrain_base(model: TinyMlp, X, y, steps: int, lr: float, batch_size: int = 32, seed: int = 0):
    """Train the dense base weights directly (adapters untouched) on a pooled
    generic batch stream, then leave them frozen for continual training."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng([seed, 0x9E7])
    n = X.shape[0]
    for _ in range(steps):
        idx = rng.integers(0, n, size=min(batch_size, n))
        _, dWs = _loss_and_weight_grads(model, X[idx], y[idx])
        for layer, dW in zip(model.layers, dWs):
            layer.W0 -= lr * dW


# --- checkpoint I/O -----------------------------------------------------------

def save_checkpoint(model: TinyMlp, path: str):
    """Versioned npz dump of W0/B/A per layer plus a JSON header.

    Arrays are written as little-endian float64 ('<f8'), so checkpoints
    load identically across platforms.
    """
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": {
            "input_dim": model.config.input_dim,
            "hidden_dim": model.config.hidden_dim,
            "n_classes": model.config.n_classes,
            "rank": model.config.rank,
            "alpha": model.config.alpha,
            "adapter_init_scale": model.config.adapter_init_scale,
            "activation": model.config.activation,
        },
        "n_layers": len(model.layers),
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for i, layer in enumerate(model.layers):
        arrays[f"W0_{i}"] = layer.W0.astype("<f8")
        arrays[f"B_{i}"] = layer.B.astype("<f8")
        arrays[f"A_{i}"] = layer.A.astype("<f8")
    np.savez(path, **arrays)


def load_checkpoint(path: str) -> TinyMlp:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {meta['format_version']!r}")
        config = ModelConfig(**meta["config"])
        layers = []
        for i in range(meta["n_layers"]):
            layer = LoraLayer(data[f"W0_{i}"].astype(np.float64), config.rank, config.alpha)
            layer.B = data[f"B_{i}"].astype(np.float64)
            layer.A = data[f"A_{i}"].astype(np.float64)
            layers.append(layer)
    return TinyMlp(config, layers)
