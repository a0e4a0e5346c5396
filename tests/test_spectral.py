import numpy as np
import pytest

from gemproj.projector import ConstraintMatrix
from gemproj.spectral import power_iteration, stepsize

from oracles import descent_increase, random_instance, true_sigma_max


def test_identity_matrix_gives_one_in_a_single_step():
    G = ConstraintMatrix(np.eye(2))
    for seed in (0, 1, 2):
        assert power_iteration(G, iters=1, seed=seed) == pytest.approx(1.0, abs=1e-12)


def test_many_iterations_match_dense_eigensolve():
    rng = np.random.default_rng(7)
    G = ConstraintMatrix(rng.standard_normal((4, 32)))
    truth = np.linalg.eigvalsh(G.data @ G.data.T)[-1]
    assert power_iteration(G, iters=50, seed=7) == pytest.approx(truth, rel=1e-6)


def test_empty_matrix_reports_zero():
    assert power_iteration(ConstraintMatrix(np.zeros((0, 8)))) == 0.0


def _rayleigh_instances():
    """(G, start-vector seed): 50 unnormalized matrices, then 200 with
    unit rows over the projector's full (m, d) range."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(2, 40))
        yield ConstraintMatrix(rng.standard_normal((m, d))), 3
    rng = np.random.default_rng(909)
    for i in range(200):
        yield random_instance(rng, min_ratio=0)[0], i


def test_rayleigh_never_exceeds_truth_and_is_monotone_in_iters():
    for G, seed in _rayleigh_instances():
        truth = true_sigma_max(G)
        prev = 0.0
        for iters in (1, 2, 3, 4, 5, 8, 10):
            sigma = power_iteration(G, iters=iters, seed=seed)
            assert sigma <= truth + 1e-9
            assert sigma >= prev - 1e-12
            prev = sigma


def test_estimated_stepsize_keeps_the_dual_descent_monotone():
    # c = 0.9 on a 3-iteration estimate: descent holds even though the
    # Rayleigh quotient may undershoot the true constant
    increases = descent_increase(808, 200, 40, stepsize_of=lambda i, G: stepsize(
        power_iteration(G, iters=3, seed=i), c=0.9))
    print(f"worst per-iteration increase {increases.max():.2e} (slack 1e-12)")
    assert increases.max() <= 1e-12


def test_power_iteration_rejects_zero_iters():
    with pytest.raises(ValueError):
        power_iteration(ConstraintMatrix(np.eye(3)), iters=0)


def test_stepsize_formula():
    assert stepsize(2.0, c=0.7) == pytest.approx(0.35)
    assert stepsize(1.0, c=1.0) == pytest.approx(1.0)
    assert stepsize(4.0, c=0.5) == pytest.approx(0.125)


def test_stepsize_rejects_bad_config():
    with pytest.raises(ValueError):
        stepsize(2.0, c=0.0)
    with pytest.raises(ValueError):
        stepsize(2.0, c=1.5)
    with pytest.raises(ValueError):
        stepsize(0.0, c=0.7)


# inf would give eta = 0 and 1e-320 an eta that overflows to inf
@pytest.mark.parametrize("sigma", [float("nan"), np.float64("nan"), float("inf"), 1e-320])
def test_stepsize_rejects_nan_sigma(sigma):
    with pytest.raises(ValueError, match="sigma_hat must be > 0"):
        stepsize(sigma, c=0.7)


def test_default_start_vector_is_deterministic():
    G = ConstraintMatrix(np.random.default_rng(0).standard_normal((5, 9)))
    assert power_iteration(G, iters=3, seed=42) == power_iteration(G, iters=3, seed=42)
