"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margin (run `pytest -v -s tests/test_acceptance.py`)."""

import time

import numpy as np
import pytest

from gemproj import adapter_model as am
from gemproj.datagen import StreamSpec, generate_stream
from gemproj.metrics import avg_acc, bwt, forgetting
from gemproj.trainer import TrainConfig, prepare_model, run_experiences

from oracles import (
    descent_increase,
    gradient_errors,
    oracle_sweep,
    rate_bound_excess,
    two_task_fixture_errors,
)
from timing import (
    adjacent_fit_error,
    bench_igem_grid,
    bench_ordering,
    linear_fit_r2,
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


@pytest.fixture(scope="module")
def oracle_margins():
    """Worst margins of PGD (K = 500) against the exact oracle on 1000
    random instances, and the seconds the sweep took."""
    t0 = time.perf_counter()
    margins = oracle_sweep(20200, 1000)
    return margins, time.perf_counter() - t0


def test_criterion_01_oracle_equivalence_1000_instances(oracle_margins):
    w, elapsed = oracle_margins
    print(f"criterion 1: worst relative error {w.rel_error:.2e} (tol 1e-6), "
          f"reconstruction {w.reconstruction:.2e} (tol 1e-12), {elapsed:.1f}s")
    assert w.rel_error <= 1e-6
    assert w.reconstruction <= 1e-12
    assert elapsed < 30.0


def test_criterion_02_convergence_rate_bound():
    worst_excess = rate_bound_excess(20201, 200, (1, 2, 4, 8, 16, 32))
    print(f"criterion 2: worst gap-minus-bound {worst_excess:.2e} (must be <= 0)")
    assert worst_excess <= 0.0


def test_criterion_03_monotone_dual_descent():
    worst_inc = descent_increase(20202, 200, 50).max()
    print(f"criterion 3: worst per-iteration increase {worst_inc:.2e} (slack 1e-12)")
    assert worst_inc <= 1e-12


def test_criterion_04_kkt_certification(oracle_margins):
    w, _ = oracle_margins
    print(f"criterion 4: feasibility {w.feasibility:.2e} (tol 1e-9), "
          f"complementarity {w.complementarity:.2e} (tol 1e-8)")
    assert w.feasibility <= 1e-9
    assert w.nonneg <= 1e-10
    assert w.complementarity <= 1e-8


def test_criterion_05_gradient_correctness_default_model():
    model = am.build_model(am.ModelConfig(), seed=0)
    rng = np.random.default_rng(20204)
    phi = am.get_adapter_params(model)
    am.set_adapter_params(model, phi + 0.05 * rng.standard_normal(phi.size))
    X = rng.standard_normal((8, model.config.input_dim))
    y = rng.integers(0, model.config.n_classes, size=8)

    fd_err, chain = gradient_errors(model, X, y)
    print(f"criterion 5: worst FD relative error {fd_err:.2e} (tol 1e-4), "
          f"chain-rule gap {chain:.2e} (tol 1e-10)")
    assert fd_err <= 1e-4
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
    # the small-m kernel regime, so the local fit predicts it; a cell's minimum
    # over 120 rounds is far steadier than over 9 and costs about 4 s here
    lattice = bench_igem_grid(ms=(2, 4), ds=(50_000, 100_000, 200_000), ks=(3, 9),
                              warmup=5, reps=120)
    err = adjacent_fit_error(lattice, m=2, d=100_000, K=3)
    print(f"criterion 7b: cell (m=2, d=1e5, K=3) off the adjacent-cell fit by {err:.1%} (tol 25%)")
    assert err <= 0.25


def test_criterion_08_mpo_ordering():
    out = bench_ordering(m=8, d=100_000, K=3, warmup=3)
    t = {k: v.mean_s for k, v in out.items()}
    print(f"criterion 8: mean projection time agem {t['agem']:.2e}s < igem {t['igem']:.2e}s "
          f"< gem_exact {t['gem_exact']:.2e}s (gem_exact/igem {t['gem_exact'] / t['igem']:.1f}x)")
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
    errors = two_task_fixture_errors()
    assert errors["avg_acc"] == 0.0
    assert max(errors.values()) <= 1e-15

    # F = -BWT on runs where each task peaks at its own checkpoint
    runs, _ = full_runs
    peaked = [m for m, _ in runs.values() if all(m.R[1:m.T, c].argmax() == c for c in range(m.T - 1))]
    for matrix in peaked:
        assert forgetting(matrix) == pytest.approx(-bwt(matrix), abs=1e-12)
    print(f"criterion 10: T=2 fixture exact; F = -BWT verified on {len(peaked)} peaked runs")
    assert peaked


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
