"""Training harness: per-step projection loop and multi-task experience loop.

One training step = backprop on the current minibatch, rebuild of the
constraint matrix from replay buffers, projection of the raw adapter
gradient by the configured method, optimizer step on phi, buffer update
for the current task (only the methods that replay the memory keep one;
naive keeps none), and warm-start carryover of the dual multipliers.
igem's dual stepsize is c / lambda_max(G G'), from the eigenvalues of the
m x m Gram of each projection's own G.  A step whose G has no rows (m = 0)
is not projected by igem or gem_exact.
The projection always applies to the raw gradient, before any optimizer
preconditioning; with adamw the non-interference certificate therefore
holds pre-preconditioning only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import adapter_model as am
from .datagen import ExperienceSplit, check_ranges, generate_pooled
from .metrics import AccuracyMatrix
from .projector import (
    DEFAULT_ENUM_LIMIT,
    DualState,
    agem_project,
    exact_qp_project,
    pgd_project,
    violation_check,
)
from .replay import DEFAULT_CAPACITY_PER_TASK, DEFAULT_TOTAL_CAP, ReplayBuffer, build_constraint_matrix
# power_iteration is not called here: it stays bound because perfbench/spans.py patches trainer.power_iteration
from .spectral import DEFAULT_SAFETY, power_iteration, stepsize

METHODS = ("naive", "gem_exact", "agem", "igem")
OPTIMIZERS = ("sgd", "adamw")
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8


class NonFiniteLossError(RuntimeError):
    """Raised when a step produces a non-finite loss, gradient or parameter
    update; from ``train_step``, ``diagnostics`` holds the failing step's record."""

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


# (fields, rule, check) for every numeric TrainConfig field; each check
# fails on NaN as well
_RANGES = (
    (("lr",), "> 0 and finite", lambda v: 0 < v < math.inf),
    (("pgd_iterations", "train_mb_size", "eval_mb_size", "n_experiences",
      "patterns_per_exp", "memory_size"), ">= 1", lambda v: v >= 1),
    (("seed",), ">= 0", lambda v: v >= 0),
    (("stepsize_safety",), "in (0, 1]", lambda v: 0 < v <= 1),
)


@dataclass(frozen=True)
class TrainConfig:
    method: str = "igem"
    lr: float = 0.001
    pgd_iterations: int = 3          # K, the fixed dual-PGD budget
    stepsize_safety: float = DEFAULT_SAFETY  # c in eta = c / λ_max(GG′)
    train_mb_size: int = 32
    eval_mb_size: int = 50           # A-GEM's reference batch size
    n_experiences: int = 3
    seed: int = 0
    optimizer: str = "sgd"
    patterns_per_exp: int = DEFAULT_CAPACITY_PER_TASK
    memory_size: int = DEFAULT_TOTAL_CAP

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        check_ranges(self, _RANGES)
        if self.method == "gem_exact" and self.n_experiences - 1 > DEFAULT_ENUM_LIMIT:
            raise ValueError(f"n_experiences must be <= {DEFAULT_ENUM_LIMIT + 1} for gem_exact "
                             f"(at most {DEFAULT_ENUM_LIMIT} past tasks), got {self.n_experiences}")


@dataclass
class StepRecord:
    task: int
    step: int
    loss: float
    proj_time: float
    lambda_norm: float
    max_violation: float
    violation_before: float
    projected: bool
    timestamp: float


@dataclass
class RunLog:
    """Append-only per-step records."""

    steps: list[StepRecord] = field(default_factory=list)

    def add_step(self, rec: StepRecord):
        if self.steps and rec.timestamp < self.steps[-1].timestamp:
            raise ValueError("step timestamps must be monotone")
        self.steps.append(rec)

    @property
    def proj_times(self) -> list[float]:
        """``proj_time`` of every projected step, in step order."""
        return [r.proj_time for r in self.steps if r.projected]


@dataclass
class OptState:
    """Optimizer slots for the flat adapter vector."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def optimizer_step(phi: np.ndarray, g_tilde: np.ndarray, opt: OptState, config: TrainConfig) -> np.ndarray:
    """Apply one update to phi and return the new vector.

    sgd:   phi <- phi - lr * g
    adamw: bias-corrected moments with (b1, b2) = ADAMW_BETAS, eps = ADAMW_EPS
           and no weight decay,
           m <- b1 m + (1-b1) g, v <- b2 v + (1-b2) g^2, t <- t+1,
           phi <- phi - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """
    if phi.shape != g_tilde.shape:
        raise ValueError("phi and gradient shapes differ")
    if config.optimizer == "sgd":
        new_phi = phi - config.lr * g_tilde
    else:
        if opt.m is None:
            opt.m = np.zeros_like(phi)
            opt.v = np.zeros_like(phi)
        opt.t += 1
        b1, b2 = ADAMW_BETAS
        opt.m = b1 * opt.m + (1.0 - b1) * g_tilde
        opt.v = b2 * opt.v + (1.0 - b2) * g_tilde * g_tilde
        m_hat = opt.m / (1.0 - b1 ** opt.t)
        v_hat = opt.v / (1.0 - b2 ** opt.t)
        new_phi = phi - config.lr * m_hat / (np.sqrt(v_hat) + ADAMW_EPS)
    if not np.all(np.isfinite(new_phi)):
        raise NonFiniteLossError("non-finite parameter update")
    return new_phi


@dataclass
class TrainerState:
    """Everything one run owns; a single state must not be shared across
    concurrent training steps.  The global step number is ``len(log.steps)``."""

    config: TrainConfig
    model: am.TinyMlp
    buffers: ReplayBuffer
    rng: np.random.Generator
    opt: OptState = field(default_factory=OptState)
    log: RunLog = field(default_factory=RunLog)
    dual: DualState | None = None    # igem's multipliers, carried over between projections
    task_index: int = 0


def make_state(config: TrainConfig, model: am.TinyMlp) -> TrainerState:
    return TrainerState(
        config=config,
        model=model,
        buffers=ReplayBuffer(
            capacity_per_task=config.patterns_per_exp, total_cap=config.memory_size
        ),
        rng=np.random.default_rng([config.seed, 0x7A11]),
    )


def start_task(state: TrainerState, task_index: int):
    """Task-boundary bookkeeping: drop the dual multipliers, so igem's next
    projection cold-starts (``train_step`` sizes them)."""
    state.task_index = task_index
    state.dual = None


def _agem_reference_gradient(state: TrainerState, past: list[int], weights) -> np.ndarray:
    """Averaged gradient over ``eval_mb_size`` examples (A-GEM's reference
    batch) sampled uniformly from the union of all past buffers (resampled
    every projection), at the step's effective ``weights``."""
    xs, ys = [], []
    for t in past:
        X, y = state.buffers.examples(t)
        xs.append(X)
        ys.append(y)
    X = np.concatenate(xs)
    y = np.concatenate(ys)
    k = state.config.eval_mb_size
    if len(y) > k:
        idx = state.rng.choice(len(y), size=k, replace=False)
        X, y = X[idx], y[idx]
    _, g_ref = am.backward(state.model, X, y, weights=weights)
    return g_ref


def _diverged(state: TrainerState, loss: float, reason: str) -> NonFiniteLossError:
    """The error to raise for the current step, carrying its diagnostic record
    (a non-finite loss is kept as its repr: the record must stay valid JSON)."""
    loss, step = float(loss), len(state.log.steps)
    record = {"task": state.task_index, "step": step,
              "loss": loss if np.isfinite(loss) else repr(loss), "reason": reason}
    return NonFiniteLossError(f"{reason} at task {state.task_index} step {step}", [record])


def train_step(state: TrainerState, X, y) -> StepRecord:
    """One step of the training loop (loss, constraint build, projection,
    optimizer update, buffer update, warm-start carryover); only the methods
    that replay the memory insert the batch, so naive keeps none.  The effective
    weights are formed once and shared by every backward pass of the step.
    ``proj_time`` times the method's projection alone, igem's Gram eigensolve included."""
    cfg = state.config
    weights = am.effective_weights(state.model)
    loss, g = am.backward(state.model, X, y, weights=weights)
    if not np.isfinite(loss) or not np.all(np.isfinite(g)):
        raise _diverged(state, loss, "non-finite loss or gradient")

    rec = StepRecord(task=state.task_index, step=len(state.log.steps), loss=loss,
                     proj_time=0.0, lambda_norm=0.0, max_violation=0.0,
                     violation_before=0.0, projected=False, timestamp=0.0)
    past = [t for t in state.buffers.tasks() if t < state.task_index]
    g_tilde = g
    result = None
    if past:
        G = build_constraint_matrix(state.buffers, state.model, past, weights=weights)
        # worst is +inf when every past row dropped, and max(0.0, -inf) is 0.0
        rec.violation_before = max(0.0, -violation_check(g, G)[1])
        if cfg.method == "agem":
            g_ref = _agem_reference_gradient(state, past, weights)
        t0 = time.perf_counter()
        if cfg.method == "agem":
            g_tilde = agem_project(g, g_ref)
        elif cfg.method == "igem":
            if state.dual is None or state.dual.lam.shape[0] != G.rows:
                # cold start: a new task, or m changed mid-task (a row dropped, a task evicted, to or from 0)
                state.dual = DualState.cold(G.rows)
            if G.rows:
                eta = stepsize(float(np.linalg.eigvalsh(G.data @ G.data.T)[-1]), cfg.stepsize_safety)
                result = pgd_project(g, G, state.dual, eta, cfg.pgd_iterations)
                state.dual = result.final_lambda  # carry over as warm start
        elif G.rows:  # gem_exact
            result = exact_qp_project(g, G)
        rec.projected = cfg.method == "agem" or result is not None
        rec.proj_time = time.perf_counter() - t0 if rec.projected else 0.0
        if cfg.method == "agem":
            rec.max_violation = max(0.0, -float(g_tilde.dot(g_ref)))
        elif result is not None:
            g_tilde = result.projected_gradient
            rec.lambda_norm = float(np.linalg.norm(result.final_lambda.lam))
            rec.max_violation = result.max_violation

    try:
        new_phi = optimizer_step(state.model.phi, g_tilde, state.opt, cfg)
    except NonFiniteLossError as e:
        raise _diverged(state, loss, str(e)) from None
    am.set_adapter_params(state.model, new_phi)

    if cfg.method != "naive":
        state.buffers.insert(state.task_index, X, y)

    rec.timestamp = time.monotonic()
    state.log.add_step(rec)
    return rec


def evaluate(model: am.TinyMlp, X, y, weights=None) -> float:
    """Accuracy of argmax logits over one forward pass of every row
    (``weights`` as in `am.backward`, and the batch checked as there)."""
    X, y = am.check_batch(model, X, y)
    return float(np.mean(am.forward(model, X, weights).argmax(axis=1) == y))


def _eval_all(model: am.TinyMlp, stream: list[ExperienceSplit]) -> np.ndarray:
    weights = am.effective_weights(model)
    return np.array([evaluate(model, s.test_x, s.test_y, weights) for s in stream])


# Base-model pretraining schedule: enough pooled uniform-prior steps that the
# frozen base is competent but leaves headroom for per-experience adaptation.
PRETRAIN_POOL = 2000
PRETRAIN_STEPS = 300
PRETRAIN_LR = 0.05


def prepare_model(spec, seed: int, model_config: am.ModelConfig | None = None) -> am.TinyMlp:
    """Build a model for a stream: random base weights trained on a pooled
    generic sample, then frozen; adapters start at B = 0 so the adapted
    model is initially identical to the base."""
    if model_config is None:
        model_config = am.ModelConfig(input_dim=spec.feature_dim, n_classes=spec.n_classes)
    model = am.build_model(model_config, seed=seed)
    X, y = generate_pooled(spec, PRETRAIN_POOL)
    am.pretrain_base(model, X, y, steps=PRETRAIN_STEPS, lr=PRETRAIN_LR, seed=seed)
    return model


def run_experiences(
    config: TrainConfig,
    stream: list[ExperienceSplit],
    model: am.TinyMlp,
) -> tuple[AccuracyMatrix, RunLog]:
    """Train tasks sequentially, evaluating every task's test set after each
    one; row 0 of the returned matrix is the pre-training baseline.

    The dual state is reset to zero at every task boundary and the whole
    run is a pure function of (config, stream, model), so identical seeds
    reproduce the accuracy matrix bit-for-bit.
    """
    T = config.n_experiences
    if len(stream) != T:
        raise ValueError(f"stream has {len(stream)} experiences, config expects {T}")
    state = make_state(config, model)
    R = np.zeros((T + 1, T))
    # a diverging run is reported once, as a finiteness check's NonFiniteLossError
    with np.errstate(over="ignore", invalid="ignore"):
        R[0] = _eval_all(model, stream)
        for t, split in enumerate(stream):
            start_task(state, t)
            order = state.rng.permutation(split.n_train)
            for i in range(0, split.n_train, config.train_mb_size):
                idx = order[i : i + config.train_mb_size]
                train_step(state, split.train_x[idx], split.train_y[idx])
            R[t + 1] = _eval_all(model, stream)
    return AccuracyMatrix(R), state.log
