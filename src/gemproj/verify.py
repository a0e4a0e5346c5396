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

import numpy as np

from . import adapter_model as am
from .metrics import AccuracyMatrix, TimingRecord, avg_acc, bwt, forgetting, fwt, mpo
from .projector import (
    COMPLEMENTARITY_TOL,
    DUAL_NONNEG_TOL,
    FEASIBILITY_TOL,
    ConstraintMatrix,
    DualState,
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
    with m in [1, 8] and d in [2, 64], keeping d >= min_ratio * m for m >= 2."""
    m = int(rng.integers(1, 9))
    lo = 2 if m == 1 else min_ratio * m
    d = int(rng.integers(lo, 65))
    G = rng.standard_normal((m, d))
    G = G / np.linalg.norm(G, axis=1)[:, None]
    g = rng.standard_normal(d)
    return ConstraintMatrix(G, normalized=True), g


def random_instance_unrestricted(rng: np.random.Generator):
    """Full-range instance (m in [1,8], d in [2,64]); may be degenerate."""
    m = int(rng.integers(1, 9))
    d = int(rng.integers(2, 65))
    G = rng.standard_normal((m, d))
    G = G / np.linalg.norm(G, axis=1)[:, None]
    g = rng.standard_normal(d)
    return ConstraintMatrix(G, normalized=True), g


def true_sigma_max(G: ConstraintMatrix) -> float:
    """Dense symmetric eigensolve of the small m x m Gram matrix (test oracle)."""
    if G.rows == 0:
        return 0.0
    return float(np.linalg.eigvalsh(G.data @ G.data.T)[-1])


# --- projector suite ----------------------------------------------------------

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
        Gf = ConstraintMatrix(A, normalized=True)
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
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_kkt = 0.0
    worst_recon = 0.0
    n = 1000
    for _ in range(n):
        G, g = random_instance(rng)
        sigma = true_sigma_max(G)
        res_pgd = pgd_project(g, G, DualState.cold(G.rows), eta=1.0 / sigma, K=500)
        res_ex = exact_qp_project(g, G)
        rel = np.linalg.norm(res_pgd.projected_gradient - res_ex.projected_gradient)
        rel /= max(1.0, np.linalg.norm(res_ex.projected_gradient))
        worst_rel = max(worst_rel, rel)
        lam = res_ex.final_lambda.lam
        slack = G.data @ res_ex.projected_gradient
        worst_kkt = max(worst_kkt, float(np.abs(lam * slack).max()))
        if slack.min() < -FEASIBILITY_TOL or lam.min() < -DUAL_NONNEG_TOL:
            worst_kkt = np.inf
        recon = np.linalg.norm(
            res_pgd.projected_gradient - g - G.data.T @ res_pgd.final_lambda.lam
        ) / (1.0 + np.linalg.norm(g))
        worst_recon = max(worst_recon, recon)
    out.append(PropertyResult("projector", "oracle_equivalence", worst_rel <= 1e-6,
                              f"{n} instances, worst relative error {worst_rel:.2e} (tol 1e-6)"))
    out.append(PropertyResult("projector", "kkt_certification", worst_kkt <= COMPLEMENTARITY_TOL,
                              f"worst |lam_k (G gt)_k| = {worst_kkt:.2e} (tol {COMPLEMENTARITY_TOL})"))
    out.append(PropertyResult("projector", "reconstruction", worst_recon <= 1e-12,
                              f"worst ||gt - g - G' lam|| / (1 + ||g||) = {worst_recon:.2e}"))

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
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        G, g = random_instance(rng)
        dup = ConstraintMatrix(np.vstack([G.data, G.data[0]]), normalized=True)
        a = exact_qp_project(g, G).projected_gradient
        b = exact_qp_project(g, dup).projected_gradient
        worst = max(worst, float(np.linalg.norm(a - b)))
    out.append(PropertyResult("projector", "duplicate_row_primal_uniqueness", worst <= 1e-9,
                              f"worst primal shift under row duplication {worst:.2e}"))

    # Positive row rescaling leaves the feasible cone, hence the projection.
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        G, g = random_instance(rng)
        scales = rng.uniform(0.2, 5.0, size=G.rows)
        scaled = ConstraintMatrix(G.data * scales[:, None])
        a = exact_qp_project(g, G).projected_gradient
        b = exact_qp_project(g, scaled).projected_gradient
        worst = max(worst, float(np.linalg.norm(a - b)))
    out.append(PropertyResult("projector", "cone_invariance_under_row_scaling", worst <= 1e-9,
                              f"worst primal shift under row rescaling {worst:.2e}"))
    return out


# --- convergence suite ---------------------------------------------------------

def _convergence_suite() -> list[PropertyResult]:
    out = []
    rng = np.random.default_rng(606)
    n = 200
    ks = (1, 2, 4, 8, 16, 32)
    worst_excess = -np.inf
    for _ in range(n):
        G, g = random_instance_unrestricted(rng)
        L = true_sigma_max(G)
        eta = 1.0 / L
        lam_star = exact_qp_project(g, G).final_lambda.lam
        f_star = dual_objective(lam_star, G, g)
        dist0 = float(lam_star.dot(lam_star))  # cold start lam0 = 0
        for K in ks:
            res = pgd_project(g, G, DualState.cold(G.rows), eta=eta, K=K)
            gap = res.dual_value - f_star
            bound = L * dist0 / (2.0 * K) + 1e-9
            worst_excess = max(worst_excess, gap - bound)
    out.append(PropertyResult("convergence", "rate_bound_1_over_K", worst_excess <= 0.0,
                              f"{n} instances x K in {ks}; worst (gap - bound) = {worst_excess:.2e}"))

    # Monotone dual descent with eta <= 1/L (1e-12 slack).
    rng = np.random.default_rng(707)
    worst_inc = -np.inf
    for _ in range(200):
        G, g = random_instance_unrestricted(rng)
        eta = 1.0 / true_sigma_max(G)
        state = DualState.cold(G.rows)
        f_prev = dual_objective(state.lam, G, g)
        for _ in range(40):
            res = pgd_project(g, G, state, eta=eta, K=1)
            worst_inc = max(worst_inc, res.dual_value - f_prev)
            f_prev = res.dual_value
            state = res.final_lambda
    out.append(PropertyResult("convergence", "monotone_dual_descent", worst_inc <= 1e-12,
                              f"worst per-iteration increase {worst_inc:.2e} (slack 1e-12)"))

    # Descent still holds with the power-iteration stepsize (c = 0.9, 3 iters),
    # even though the Rayleigh estimate may undershoot the true constant.
    rng = np.random.default_rng(808)
    bad = []
    for i in range(200):
        G, g = random_instance_unrestricted(rng)
        est = power_iteration(G, iters=3, seed=i)
        eta = stepsize(est, c=0.9)
        state = DualState.cold(G.rows)
        f_prev = dual_objective(state.lam, G, g)
        for _ in range(40):
            res = pgd_project(g, G, state, eta=eta, K=1)
            if res.dual_value > f_prev + 1e-12:
                bad.append(i)
                break
            f_prev = res.dual_value
            state = res.final_lambda
    out.append(PropertyResult("convergence", "estimated_stepsize_descent", not bad,
                              f"instances with non-monotone descent under c=0.9: {bad or 'none'}"))

    # Rayleigh estimate never exceeds the true spectral norm and is
    # nondecreasing in the iteration count.
    rng = np.random.default_rng(909)
    ok = True
    detail = "200 instances"
    for i in range(200):
        G, _ = random_instance_unrestricted(rng)
        truth = true_sigma_max(G)
        prev = 0.0
        for iters in (1, 2, 3, 5, 10):
            est = power_iteration(G, iters=iters, seed=i)
            if est.sigma_max_hat > truth + 1e-9:
                ok, detail = False, f"estimate exceeded true sigma_max by {est.sigma_max_hat - truth:.2e}"
                break
            if est.sigma_max_hat < prev - 1e-12:
                ok, detail = False, "Rayleigh estimate decreased with more iterations"
                break
            prev = est.sigma_max_hat
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


def _gradients_suite() -> list[PropertyResult]:
    out = []
    config = am.ModelConfig(input_dim=4, hidden_dim=3, n_classes=3, rank=2, alpha=8.0)
    model = am.build_model(config, seed=5)
    rng = np.random.default_rng(111)
    X = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)
    # make B nonzero so every block gets exercised
    model.phi[:] += 0.05 * rng.standard_normal(model.phi.size)

    _, g = am.backward(model, X, y)
    fd = finite_difference_gradient(model, X, y)
    rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
    out.append(PropertyResult("gradients", "finite_difference_sweep", float(rel.max()) <= 1e-4,
                              f"worst per-coordinate relative error {rel.max():.2e} (tol 1e-4)"))

    worst = 0.0
    for _ in range(20):
        Xb = rng.standard_normal((5, 4))
        yb = rng.integers(0, 3, size=5)
        _, g_b = am.backward(model, Xb, yb)
        g_full = am.weight_space_gradient(model, Xb, yb)
        pulled = am.jacobian_transpose_apply(model, g_full)
        worst = max(worst, float(np.abs(g_b - pulled).max()))
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

def _metrics_suite() -> list[PropertyResult]:
    out = []
    # Hand-computed 2-task fixture.
    R = np.array([
        [0.25, 0.25],
        [0.90, 0.50],
        [0.80, 0.85],
    ])
    m = AccuracyMatrix(R)
    checks = {
        "avg_acc": (avg_acc(m), 0.825),
        "bwt": (bwt(m), -0.1),
        "fwt": (fwt(m), 0.25),
        "forgetting": (forgetting(m), 0.1),
    }
    bad = {k: v for k, (v, want) in checks.items() if abs(v - want) > 1e-15}
    out.append(PropertyResult("metrics", "two_task_fixture", not bad,
                              "AvgAcc 0.825, BWT -0.1, FWT 0.25, F 0.1 reproduced exactly"
                              if not bad else f"mismatches: {bad}"))

    # F = -BWT whenever each task peaks at its own checkpoint.
    rng = np.random.default_rng(313)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(2, 6))
        R = rng.uniform(0.0, 1.0, size=(T + 1, T))
        for c in range(T - 1):
            R[c + 1, c] = R[1:T, c].max()  # peak attained at the task's own checkpoint
        m = AccuracyMatrix(R)
        worst = max(worst, abs(forgetting(m) + bwt(m)))
    out.append(PropertyResult("metrics", "forgetting_equals_neg_bwt_when_peaked", worst <= 1e-12,
                              f"worst |F + BWT| = {worst:.2e} on peak-at-own-checkpoint runs"))

    # MPO equals the brute-force mean.
    rng = np.random.default_rng(414)
    durations = rng.uniform(1e-6, 1e-2, size=1000)
    t = TimingRecord(list(durations))
    brute = math.fsum(float(d) for d in durations) / len(durations)  # exactly rounded
    err = abs(mpo(t) - brute) / brute
    out.append(PropertyResult("metrics", "mpo_mean", err <= 1e-15,
                              f"relative deviation from brute-force mean {err:.1e}"))

    # Absent metrics stay absent at T = 1.
    m1 = AccuracyMatrix(np.array([[0.3], [0.6]]))
    absent = bwt(m1) is None and fwt(m1) is None and forgetting(m1) is None
    out.append(PropertyResult("metrics", "absent_metrics_at_t1", absent and avg_acc(m1) == 0.6,
                              "BWT/FWT/F absent and AvgAcc = final accuracy at T=1"))
    return out


def run_suite(name: str) -> list[PropertyResult]:
    if name == "projector":
        return _projector_suite()
    if name == "convergence":
        return _convergence_suite()
    if name == "gradients":
        return _gradients_suite()
    if name == "metrics":
        return _metrics_suite()
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
