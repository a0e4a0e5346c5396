"""Test oracles and property sweeps shared by the tests.

Each sweep takes a seed and an instance count and returns the worst
margin it saw; the tests pick the seeds, counts and tolerances.  The
random projection instances stay in the projector's operating regime:
the constraint count is the number of remembered tasks, which is always
far below the adapter dimension, so the sampler keeps d >= 3 m
(single-row instances go down to d = 2).  At the degenerate corner
m >= d the dual has unbounded multiplier sets and a fixed iteration
budget cannot meet tight tolerances; the rate-bound and descent sweeps
sample the unrestricted ranges since those properties hold regardless.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from gemproj import adapter_model as am
from gemproj.metrics import AccuracyMatrix, avg_acc, bwt, forgetting, fwt
from gemproj.projector import (
    ConstraintMatrix,
    DualState,
    ProjectionResult,
    dual_objective,
    exact_qp_project,
    pgd_project,
)


def random_instance(rng: np.random.Generator, min_ratio: int = 3):
    """One random projection instance (G row-normalized, g standard normal)
    with m in [1, 8] and d in [2, 64], keeping d >= min_ratio * m for m >= 2;
    min_ratio=0 samples the full range, degenerate m >= d corners included."""
    m = int(rng.integers(1, 9))
    lo = 2 if m == 1 else max(2, min_ratio * m)
    d = int(rng.integers(lo, 65))
    G = rng.standard_normal((m, d))
    G = G / np.linalg.norm(G, axis=1)[:, None]
    g = rng.standard_normal(d)
    return ConstraintMatrix(G), g


def true_sigma_max(G: ConstraintMatrix) -> float:
    """Dense symmetric eigensolve of the small m x m Gram matrix (test oracle)."""
    if G.rows == 0:
        return 0.0
    return float(np.linalg.eigvalsh(G.data @ G.data.T)[-1])


# --- projector sweeps ----------------------------------------------------------

class OracleMargins(NamedTuple):
    rel_error: float        # ||gt_pgd - gt*|| / max(1, ||gt*||), PGD with K = 500
    feasibility: float      # KKT residuals of the exact oracle, see kkt_residuals
    nonneg: float
    complementarity: float
    reconstruction: float   # ||gt_pgd - g - G' lam_pgd|| / (1 + ||g||)


def kkt_residuals(G: ConstraintMatrix, result: ProjectionResult) -> tuple[float, float, float]:
    """How far one projection result is from the KKT conditions of the cone
    projection: (max(0, -min G gt), max(0, -min lam), max |lam_k (G gt)_k|)."""
    lam = result.final_lambda.lam
    slack = G.data @ result.projected_gradient
    return max(0.0, float(-slack.min())), max(0.0, float(-lam.min())), float(np.abs(lam * slack).max())


def oracle_sweep(seed: int, n: int) -> OracleMargins:
    """Worst margins over n random instances of PGD (K = 500, eta = 1/L,
    cold start) against the exact oracle, with the oracle's KKT residuals
    and PGD's reconstruction error."""
    rng = np.random.default_rng(seed)
    worst = np.zeros(len(OracleMargins._fields))
    for _ in range(n):
        G, g = random_instance(rng)
        pgd = pgd_project(g, G, DualState.cold(G.rows), eta=1.0 / true_sigma_max(G), K=500)
        exact = exact_qp_project(g, G)
        gt_pgd, gt_ex = pgd.projected_gradient, exact.projected_gradient
        rel = np.linalg.norm(gt_pgd - gt_ex) / max(1.0, np.linalg.norm(gt_ex))
        recon = np.linalg.norm(gt_pgd - g - G.data.T @ pgd.final_lambda.lam) / (1.0 + np.linalg.norm(g))
        worst = np.maximum(worst, (rel, *kkt_residuals(G, exact), recon))
    return OracleMargins(*(float(v) for v in worst))


def rate_bound_excess(seed: int, n: int, ks) -> float:
    """Worst (F(lam_K) - F*) - (L ||lam*||^2 / (2K) + 1e-9) over n full-range
    instances and every K in ks, PGD from a cold start with eta = 1/L;
    <= 0 certifies the O(1/K) dual rate."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n):
        G, g = random_instance(rng, min_ratio=0)
        L = true_sigma_max(G)
        lam_star = exact_qp_project(g, G).final_lambda.lam
        f_star = dual_objective(lam_star, G, g)
        dist0_sq = float(lam_star.dot(lam_star))  # cold start lam0 = 0
        for K in ks:
            res = pgd_project(g, G, DualState.cold(G.rows), eta=1.0 / L, K=K)
            worst = max(worst, res.dual_value - f_star - (L * dist0_sq / (2.0 * K) + 1e-9))
    return worst


def descent_increase(seed: int, n: int, iters: int, stepsize_of=None) -> np.ndarray:
    """Per-instance worst increase of the dual value over `iters` single PGD
    steps from a cold start, on n full-range instances; eta = 1/L unless
    ``stepsize_of(i, G)`` gives the stepsize for instance i."""
    rng = np.random.default_rng(seed)
    out = np.full(n, -np.inf)
    for i in range(n):
        G, g = random_instance(rng, min_ratio=0)
        eta = 1.0 / true_sigma_max(G) if stepsize_of is None else stepsize_of(i, G)
        state = DualState.cold(G.rows)
        f_prev = dual_objective(state.lam, G, g)
        for _ in range(iters):
            res = pgd_project(g, G, state, eta=eta, K=1)
            out[i] = max(out[i], res.dual_value - f_prev)
            f_prev, state = res.dual_value, res.final_lambda
    return out


# --- gradient oracles ----------------------------------------------------------

def finite_difference_gradient(model, X, y, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the batch loss w.r.t. phi (test oracle),
    perturbing each coordinate of ``model.phi`` in place and restoring it."""
    phi = model.phi
    fd = np.zeros_like(phi)
    for j in range(phi.size):
        saved = phi[j]
        for sign in (+1.0, -1.0):
            phi[j] = saved + sign * step
            loss, _ = am.backward(model, X, y)
            fd[j] += sign * loss
        phi[j] = saved
    return fd / (2.0 * step)


def gradient_errors(model, X, y) -> tuple[float, float]:
    """(worst per-coordinate relative error of ``backward`` against central
    differences, worst |backward - J' g_full| chain-rule gap) on one batch."""
    _, g = am.backward(model, X, y)
    fd = finite_difference_gradient(model, X, y)
    rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
    pulled = am.jacobian_transpose_apply(model, am.weight_space_gradient(model, X, y))
    return float(rel.max()), float(np.abs(g - pulled).max())


# --- metric fixtures -----------------------------------------------------------

def two_task_fixture_errors() -> dict[str, float]:
    """|metric - hand value| of AvgAcc 0.825, BWT -0.1, FWT 0.25 and F 0.1 on
    the hand-computed 2-task fixture, keyed by metric function name."""
    m = AccuracyMatrix(np.array([[0.25, 0.25], [0.90, 0.50], [0.80, 0.85]]))
    hand = ((avg_acc, 0.825), (bwt, -0.1), (fwt, 0.25), (forgetting, 0.1))
    return {fn.__name__: abs(fn(m) - want) for fn, want in hand}


def peaked_forgetting_gap(seed: int, n: int, max_tasks: int) -> float:
    """Worst |F + BWT| over n random accuracy matrices (T in [2, max_tasks])
    in which every task peaks at its own checkpoint, where F = -BWT holds."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        T = int(rng.integers(2, max_tasks + 1))
        R = rng.uniform(0.0, 1.0, size=(T + 1, T))
        for c in range(T - 1):
            R[c + 1, c] = R[1:T, c].max()  # peak attained at the task's own checkpoint
        m = AccuracyMatrix(R)
        worst = max(worst, abs(forgetting(m) + bwt(m)))
    return worst
