"""Executable property suites (the `verify` subcommand).

Each suite runs a set of numerical properties with fixed seeds and
returns one machine-readable pass/fail record per property.  The random
projection instances stay in the projector's operating regime: the
constraint count is the number of remembered tasks, which is always far
below the adapter dimension, so the sampler keeps d >= 3 m (single-row
instances go down to d = 2).  At the degenerate corner m >= d the dual
has unbounded multiplier sets and a fixed iteration budget cannot meet
tight tolerances; the rate-bound and descent properties below are
checked on the unrestricted ranges since they hold regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import adapter_model as am
from .metrics import AccuracyMatrix, avg_acc, bwt, forgetting, fwt, mpo
from .projector import (
    COMPLEMENTARITY_TOL,
    DUAL_NONNEG_TOL,
    FEASIBILITY_TOL,
    ConstraintMatrix,
    DualState,
    ProjectionResult,
    agem_project,
    dual_objective,
    exact_qp_project,
    pgd_project,
)
from .spectral import power_iteration, stepsize

SUITES = ("projector", "convergence", "gradients", "metrics")


@dataclass
class PropertyResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.suite}.{self.name}: {self.detail}"


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


# --- shared sweeps -------------------------------------------------------------
#
# One implementation per certified property.  Each sweep takes its seed and
# instance count and returns the worst margins; the suites below and the
# acceptance criteria differ only in the seeds, counts and tolerances they
# pass and apply.

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


# --- projector suite ----------------------------------------------------------

def _primal_shift(seed: int, n: int, transform) -> float:
    """Worst move of the exact projection when G is replaced by
    ``transform(rng, G)``, over n random instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        G, g = random_instance(rng)
        moved = exact_qp_project(g, transform(rng, G)).projected_gradient
        worst = max(worst, float(np.linalg.norm(exact_qp_project(g, G).projected_gradient - moved)))
    return worst


def _projector_suite() -> list[PropertyResult]:
    out = []
    rng = np.random.default_rng(101)

    # Identity on feasible input: PGD bitwise, oracle to 1e-12.
    ok = True
    detail = ""
    for _ in range(200):
        G, g = random_instance(rng)
        A = G.data.copy()
        dots = A @ g
        A[dots < 0] *= -1.0  # flip rows so G g >= 0 (unit norms preserved)
        Gf = ConstraintMatrix(A)
        res = pgd_project(g, Gf, DualState.cold(Gf.rows), eta=0.5, K=5)
        if not np.array_equal(res.projected_gradient, g):
            ok, detail = False, "PGD changed a feasible gradient"
            break
        res2 = exact_qp_project(g, Gf)
        if np.linalg.norm(res2.projected_gradient - g) > 1e-12:
            ok, detail = False, "oracle moved a feasible gradient by > 1e-12"
            break
    out.append(PropertyResult("projector", "identity_on_feasible", ok,
                              detail or "200 feasible instances returned unchanged"))

    # Oracle equivalence, KKT certification and reconstruction in one sweep.
    n = 1000
    w = oracle_sweep(202, n)
    feasible = w.feasibility <= FEASIBILITY_TOL and w.nonneg <= DUAL_NONNEG_TOL
    worst_kkt = w.complementarity if feasible else np.inf
    out.append(PropertyResult("projector", "oracle_equivalence", w.rel_error <= 1e-6,
                              f"{n} instances, worst relative error {w.rel_error:.2e} (tol 1e-6)"))
    out.append(PropertyResult("projector", "kkt_certification", worst_kkt <= COMPLEMENTARITY_TOL,
                              f"worst |lam_k (G gt)_k| = {worst_kkt:.2e} (tol {COMPLEMENTARITY_TOL})"))
    out.append(PropertyResult("projector", "reconstruction", w.reconstruction <= 1e-12,
                              f"worst ||gt - g - G' lam|| / (1 + ||g||) = {w.reconstruction:.2e}"))

    # A-GEM coincides with the exact single-constraint projection at m = 1,
    # whether or not the row is normalized (scale does not move the cone).
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 65))
        row = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
        g = rng.standard_normal(d)
        got = agem_project(g, row)
        want = exact_qp_project(g, ConstraintMatrix(row[None, :])).projected_gradient
        worst = max(worst, float(np.linalg.norm(got - want)))
    out.append(PropertyResult("projector", "agem_single_constraint", worst <= 1e-10,
                              f"worst deviation from exact m=1 projection {worst:.2e}"))

    # Duplicating a constraint row leaves the primal solution unchanged.
    worst = _primal_shift(404, 100, lambda rng, G: ConstraintMatrix(np.vstack([G.data, G.data[0]])))
    out.append(PropertyResult("projector", "duplicate_row_primal_uniqueness", worst <= 1e-9,
                              f"worst primal shift under row duplication {worst:.2e}"))

    # Positive row rescaling leaves the feasible cone, hence the projection.
    worst = _primal_shift(505, 100, lambda rng, G: ConstraintMatrix(
        G.data * rng.uniform(0.2, 5.0, size=G.rows)[:, None]))
    out.append(PropertyResult("projector", "cone_invariance_under_row_scaling", worst <= 1e-9,
                              f"worst primal shift under row rescaling {worst:.2e}"))
    return out


# --- convergence suite ---------------------------------------------------------

def _convergence_suite() -> list[PropertyResult]:
    out = []
    n = 200
    ks = (1, 2, 4, 8, 16, 32)
    worst_excess = rate_bound_excess(606, n, ks)
    out.append(PropertyResult("convergence", "rate_bound_1_over_K", worst_excess <= 0.0,
                              f"{n} instances x K in {ks}; worst (gap - bound) = {worst_excess:.2e}"))

    # Monotone dual descent with eta <= 1/L (1e-12 slack).
    worst_inc = descent_increase(707, 200, 40).max()
    out.append(PropertyResult("convergence", "monotone_dual_descent", worst_inc <= 1e-12,
                              f"worst per-iteration increase {worst_inc:.2e} (slack 1e-12)"))

    # Descent still holds with the power-iteration stepsize (c = 0.9, 3 iters),
    # even though the Rayleigh estimate may undershoot the true constant.
    increases = descent_increase(808, 200, 40, stepsize_of=lambda i, G: stepsize(
        power_iteration(G, iters=3, seed=i), c=0.9))
    bad = [i for i, inc in enumerate(increases) if inc > 1e-12]
    out.append(PropertyResult("convergence", "estimated_stepsize_descent", not bad,
                              f"instances with non-monotone descent under c=0.9: {bad or 'none'}"))

    # Rayleigh estimate never exceeds the true spectral norm and is
    # nondecreasing in the iteration count.
    rng = np.random.default_rng(909)
    ok = True
    detail = "200 instances"
    for i in range(200):
        G, _ = random_instance(rng, min_ratio=0)
        truth = true_sigma_max(G)
        prev = 0.0
        for iters in (1, 2, 3, 5, 10):
            sigma = power_iteration(G, iters=iters, seed=i)
            if sigma > truth + 1e-9:
                ok, detail = False, f"estimate exceeded true sigma_max by {sigma - truth:.2e}"
                break
            if sigma < prev - 1e-12:
                ok, detail = False, "Rayleigh estimate decreased with more iterations"
                break
            prev = sigma
        if not ok:
            break
    out.append(PropertyResult("convergence", "rayleigh_lower_bound_monotone", ok, detail))
    return out


# --- gradients suite -----------------------------------------------------------

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


def _gradients_suite() -> list[PropertyResult]:
    out = []
    config = am.ModelConfig(input_dim=4, hidden_dim=3, n_classes=3, rank=2, alpha=8.0)
    model = am.build_model(config, seed=5)
    rng = np.random.default_rng(111)
    X = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)
    # make B nonzero so every block gets exercised
    model.phi[:] += 0.05 * rng.standard_normal(model.phi.size)

    fd_err, _ = gradient_errors(model, X, y)
    out.append(PropertyResult("gradients", "finite_difference_sweep", fd_err <= 1e-4,
                              f"worst per-coordinate relative error {fd_err:.2e} (tol 1e-4)"))

    worst = max(gradient_errors(model, rng.standard_normal((5, 4)), rng.integers(0, 3, size=5))[1]
                for _ in range(20))
    out.append(PropertyResult("gradients", "chain_rule_equivalence", worst <= 1e-10,
                              f"worst |backward - J' g_full| = {worst:.2e} (tol 1e-10)"))

    # Adapter and full-space first-order interference agree:
    # <g_full, J dphi> == <J' g_full, dphi> for random directions.
    worst = 0.0
    for _ in range(50):
        Xb = rng.standard_normal((4, 4))
        yb = rng.integers(0, 3, size=4)
        g_full = am.weight_space_gradient(model, Xb, yb)
        dphi = rng.standard_normal(am.adapter_dim(model))
        lhs = float(g_full.dot(am.jacobian_apply(model, dphi)))
        rhs = float(am.jacobian_transpose_apply(model, g_full).dot(dphi))
        worst = max(worst, abs(lhs - rhs))
    out.append(PropertyResult("gradients", "first_order_transfer", worst <= 1e-10,
                              f"worst inner-product mismatch {worst:.2e} (tol 1e-10)"))

    # Training steps never touch the frozen base weights.
    from .trainer import TrainConfig, make_state, start_task, train_step

    cfg = TrainConfig(method="igem", seed=3, n_experiences=2,
                      patterns_per_exp=20, memory_size=40)
    mdl = am.build_model(am.ModelConfig(), seed=3)
    w_before = [layer.W0.tobytes() for layer in mdl.layers]
    state = make_state(cfg, mdl)
    rng2 = np.random.default_rng(12)
    for task in range(2):
        start_task(state, task)
        for _ in range(5):
            Xb = rng2.standard_normal((8, 32))
            yb = rng2.integers(0, 4, size=8)
            train_step(state, Xb, yb)
    frozen = all(layer.W0.tobytes() == w for layer, w in zip(mdl.layers, w_before))
    out.append(PropertyResult("gradients", "base_weights_frozen", frozen,
                              "W0 bit-exact across 10 training steps" if frozen else "W0 changed"))
    return out


# --- metrics suite -------------------------------------------------------------

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


def _metrics_suite() -> list[PropertyResult]:
    out = []
    bad = {k: e for k, e in two_task_fixture_errors().items() if e > 1e-15}
    out.append(PropertyResult("metrics", "two_task_fixture", not bad,
                              "AvgAcc 0.825, BWT -0.1, FWT 0.25, F 0.1 reproduced exactly"
                              if not bad else f"deviations: {bad}"))

    # F = -BWT whenever each task peaks at its own checkpoint.
    worst = peaked_forgetting_gap(313, 100, 5)
    out.append(PropertyResult("metrics", "forgetting_equals_neg_bwt_when_peaked", worst <= 1e-12,
                              f"worst |F + BWT| = {worst:.2e} on peak-at-own-checkpoint runs"))

    # MPO equals the brute-force mean.
    rng = np.random.default_rng(414)
    durations = rng.uniform(1e-6, 1e-2, size=1000)
    brute = math.fsum(float(d) for d in durations) / len(durations)  # exactly rounded
    err = abs(mpo(durations) - brute) / brute
    out.append(PropertyResult("metrics", "mpo_mean", err <= 1e-15,
                              f"relative deviation from brute-force mean {err:.1e}"))

    # Absent metrics stay absent at T = 1.
    m1 = AccuracyMatrix(np.array([[0.3], [0.6]]))
    absent = bwt(m1) is None and fwt(m1) is None and forgetting(m1) is None
    out.append(PropertyResult("metrics", "absent_metrics_at_t1", absent and avg_acc(m1) == 0.6,
                              "BWT/FWT/F absent and AvgAcc = final accuracy at T=1"))
    return out


def run_suite(name: str) -> list[PropertyResult]:
    runners = dict(zip(SUITES, (_projector_suite, _convergence_suite, _gradients_suite, _metrics_suite)))
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return runners[name]()
