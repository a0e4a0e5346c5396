"""Tiny feed-forward classifier with frozen base weights and trainable
low-rank adapters.

Each layer computes x -> (W0 + (alpha/r) B A) x with W0 frozen after
pretraining and only B (d x r) and A (r x k) trainable.  Training state
lives in the flat adapter vector ``model.phi``, of which every B and A
is a view; `backward` computes its gradient
by exact manual backpropagation, and the Jacobian helpers expose the
adapter-subspace geometry (g_phi = J' g for any full-weight gradient g,
and full-weight directions J dphi for adapter directions dphi).

`backward` pulls the gradient back in adapter space and never forms a
layer's weight gradient dW = D' X (d x k).  With the layer's input X
(n x k), its output delta D (n x d) and s = alpha/r, it scales D once and
computes grad_B = (sD)' (X A') and grad_A = ((sD) B)' X: 2 n r (d + k)
multiply-adds a layer against n d k + 2 d k r through dW.  The result
equals ``jacobian_transpose_apply(weight_space_gradient(...))`` to
rounding, not bit for bit; `pretrain_base` and `weight_space_gradient`
keep the dW form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRETRAIN_BATCH_SIZE = 32  # pretrain_base's minibatch rows


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 32
    hidden_dim: int = 16
    n_classes: int = 4
    rank: int = 4
    alpha: float = 32.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


class LoraLayer:
    """One linear layer with a frozen dense weight plus a low-rank update.

    B (d x r) and A (r x k) are row-major views into the owning model's
    flat adapter vector phi, B at ``offset`` and A right after it.
    Writing phi moves them, and rebinding them raises.
    """

    def __init__(self, W0: np.ndarray, rank: int, alpha: float, phi: np.ndarray, offset: int):
        self.W0 = W0
        self.rank = rank
        self.alpha = float(alpha)
        self.offset = offset
        self._B, self._A = self._blocks(phi)

    def __getstate__(self):
        # copies leave the views out; the owning model binds them to its phi
        return {k: v for k, v in self.__dict__.items() if k not in ("_B", "_A")}

    def _blocks(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """This layer's (B, A)-shaped views into a flat adapter-space vector."""
        d, k = self.W0.shape
        mid = self.offset + d * self.rank
        return (vec[self.offset : mid].reshape(d, self.rank),
                vec[mid : mid + self.rank * k].reshape(self.rank, k))

    @property
    def B(self) -> np.ndarray:
        return self._B

    @property
    def A(self) -> np.ndarray:
        return self._A

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def effective_weight(self) -> np.ndarray:
        return self.W0 + self.scaling * (self._B @ self._A)


def _zeros_64(n: int) -> np.ndarray:
    """n float64 zeros starting on a 64-byte boundary.  np.zeros promises
    16 bytes, and OpenBLAS ran B @ A about half as fast on blocks 16 bytes
    past a 32-byte boundary (wide-model adapters, 2-core x86 host)."""
    buf = np.zeros(n + 7)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + n]


class TinyMlp:
    """Two LoRA layers (input->hidden, hidden->classes) with tanh between (smooth,
    so finite-difference checks are clean); the second is the head, loss softmax CE.

    ``phi`` is the only store of the adapters: B_0, A_0, B_1, A_1 back to
    back, each row-major.  Base weights and adapters start at zero.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        shapes = [(config.hidden_dim, config.input_dim), (config.n_classes, config.hidden_dim)]
        self._phi = _zeros_64(sum((d + k) * config.rank for d, k in shapes))
        self.layers, offset = [], 0
        for d, k in shapes:
            self.layers.append(LoraLayer(np.zeros((d, k)), config.rank, config.alpha, self._phi, offset))
            offset += (d + k) * config.rank

    def __setstate__(self, state):
        """A copy (deepcopy, pickle, copy.copy) gets its own aligned phi and
        new layers viewing it, so it never rebinds the original's layers."""
        self.__dict__.update(state, _phi=_zeros_64(state["_phi"].size))
        self._phi[...] = state["_phi"]
        self.layers = [LoraLayer(l.W0, l.rank, l.alpha, self._phi, l.offset) for l in self.layers]

    @property
    def phi(self) -> np.ndarray:
        return self._phi


def build_model(config: ModelConfig, seed: int = 0) -> TinyMlp:
    """Construct a model with random base weights, B = 0 and A uniform on
    +-1/sqrt(k) (the adapted model starts identical to the base)."""
    rng = np.random.default_rng([seed, 0xBA5E])
    model = TinyMlp(config)
    for layer in model.layers:
        d, k = layer.W0.shape
        layer.W0[...] = rng.standard_normal((d, k)) / np.sqrt(k)
        half_width = 1.0 / np.sqrt(k)
        layer.A[...] = rng.uniform(-half_width, half_width, size=(config.rank, k))
    return model


# --- the flat adapter vector --------------------------------------------------

def adapter_dim(model: TinyMlp) -> int:
    return model.phi.size


def get_adapter_params(model: TinyMlp) -> np.ndarray:
    """A snapshot of phi; later writes to the model do not alter it."""
    return model.phi.copy()


def set_adapter_params(model: TinyMlp, phi: np.ndarray):
    """Write phi into the model in place, moving every layer's B and A."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != model.phi.shape:
        raise ValueError(f"phi has shape {phi.shape}, expected {model.phi.shape}")
    model.phi[...] = phi


def _flatten_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([b.ravel() for b in blocks])


# --- forward / backward ------------------------------------------------------

def forward(model: TinyMlp, x, weights=None) -> np.ndarray:
    """Logits for one feature vector or an (n, input_dim) batch; ``weights`` as in `backward`."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != model.config.input_dim:
        raise ValueError(f"input has dim {X.shape[1]}, expected {model.config.input_dim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in input")
    W1, W2 = effective_weights(model) if weights is None else weights
    H = np.tanh(X @ W1.T)
    Z2 = H @ W2.T
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


def _layer_deltas(model: TinyMlp, X, y, weights=None):
    """Mean softmax cross-entropy and, per layer, the pair (input, output
    delta) whose product D' X is that layer's effective-weight gradient;
    ``weights`` are ``effective_weights(model)`` when the caller already
    formed them."""
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
    dH = D2 @ W2
    dZ1 = dH * (1.0 - H * H)
    return loss, [(X, dZ1), (H, D2)]


def _loss_and_weight_grads(model: TinyMlp, X, y):
    """Mean loss and its gradient w.r.t. each layer's effective weight matrix."""
    loss, deltas = _layer_deltas(model, X, y)
    return loss, [D.T @ X_in for X_in, D in deltas]


def backward(model: TinyMlp, X, y, weights=None, out=None) -> tuple[float, np.ndarray]:
    """Mean-over-batch loss and adapter gradient g_phi (flat, length d_phi).

    Base weights receive no gradient; only the A and B blocks appear, each
    computed in adapter space (see the module docstring).  ``weights`` may
    carry precomputed ``effective_weights(model)``, and the gradient is
    written into ``out`` (a contiguous float64 vector of length d_phi)
    when given.
    """
    loss, deltas = _layer_deltas(model, X, y, weights)
    out = np.empty(model.phi.size) if out is None else out
    # np.dot writes out= with less call overhead than np.matmul (desk-sized blocks)
    for layer, (X_in, D) in zip(model.layers, deltas):
        grad_B, grad_A = layer._blocks(out)
        sD = layer.scaling * D
        np.dot(sD.T, X_in @ layer.A.T, out=grad_B)
        np.dot((sD @ layer.B).T, X_in, out=grad_A)
    return loss, out


def weight_space_gradient(model: TinyMlp, X, y) -> np.ndarray:
    """Loss gradient w.r.t. all effective-weight entries, flattened per
    layer in row-major order (the full-space layout used by the Jacobian
    helpers)."""
    _, dWs = _loss_and_weight_grads(model, X, y)
    return _flatten_blocks(dWs)


def _split_weight_space(model: TinyMlp, g_full: np.ndarray) -> list[np.ndarray]:
    g_full = np.asarray(g_full, dtype=np.float64)
    shapes = [layer.W0.shape for layer in model.layers]
    sizes = [d * k for d, k in shapes]
    if g_full.shape != (sum(sizes),):
        raise ValueError(f"full-space gradient has shape {g_full.shape}, expected ({sum(sizes)},)")
    return [b.reshape(shape) for b, shape in zip(np.split(g_full, np.cumsum(sizes)[:-1]), shapes)]


def jacobian_transpose_apply(model: TinyMlp, g_full) -> np.ndarray:
    """Pull a full-weight-space gradient back to adapter space: per layer
    grad_B = (alpha/r) Ghat A' and grad_A = (alpha/r) B' Ghat."""
    out = np.empty(model.phi.size)
    for layer, dW in zip(model.layers, _split_weight_space(model, g_full)):
        grad_B, grad_A = layer._blocks(out)
        np.matmul(dW, layer.A.T, out=grad_B)
        np.matmul(layer.B.T, dW, out=grad_A)
        grad_B *= layer.scaling
        grad_A *= layer.scaling
    return out


def jacobian_apply(model: TinyMlp, dphi) -> np.ndarray:
    """Push an adapter direction dphi to the induced effective-weight
    direction: per layer (alpha/r) (dB A + B dA)."""
    dphi = np.asarray(dphi, dtype=np.float64)
    if dphi.shape != model.phi.shape:
        raise ValueError(f"dphi has shape {dphi.shape}, expected {model.phi.shape}")
    blocks = []
    for layer in model.layers:
        dB, dA = layer._blocks(dphi)
        blocks.append(layer.scaling * (dB @ layer.A + layer.B @ dA))
    return _flatten_blocks(blocks)


# --- base-weight pretraining --------------------------------------------------

def pretrain_base(model: TinyMlp, X, y, steps: int, lr: float, seed: int = 0):
    """Train the dense base weights directly (adapters untouched) on a pooled
    generic batch stream, then leave them frozen for continual training."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng([seed, 0x9E7])
    n = X.shape[0]
    for _ in range(steps):
        idx = rng.integers(0, n, size=min(PRETRAIN_BATCH_SIZE, n))
        _, dWs = _loss_and_weight_grads(model, X[idx], y[idx])
        for layer, dW in zip(model.layers, dWs):
            layer.W0 -= lr * dW
