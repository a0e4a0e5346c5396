import math

import numpy as np
import pytest

from gemproj.metrics import (
    AccuracyMatrix,
    aggregate,
    avg_acc,
    bwt,
    compute_all,
    forgetting,
    fwt,
    mpo,
)

from oracles import peaked_forgetting_gap


def matrix(R):
    return AccuracyMatrix(np.asarray(R, dtype=float))


# its AvgAcc/BWT/FWT/F hand values are checked by oracles.two_task_fixture_errors
T2 = matrix([[0.25, 0.25], [0.90, 0.50], [0.80, 0.85]])


def test_avg_acc_examples():
    assert avg_acc(matrix(np.ones((3, 2)))) == 1.0
    assert avg_acc(matrix([[0.2], [0.6]])) == pytest.approx(0.6)


def test_bwt_examples():
    # final row equals each task's own row: no change
    R = matrix([[0.2, 0.2, 0.2], [0.5, 0.3, 0.2], [0.5, 0.6, 0.4], [0.5, 0.6, 0.9]])
    assert bwt(R) == pytest.approx(0.0, abs=1e-15)
    assert bwt(matrix([[0.2], [0.6]])) is None


def test_fwt_examples():
    # zero-shot equals baseline everywhere: FWT = 0
    R = matrix([[0.3, 0.4, 0.2], [0.9, 0.4, 0.2], [0.9, 0.9, 0.2], [0.9, 0.9, 0.9]])
    assert fwt(R) == pytest.approx(0.0, abs=1e-15)
    assert fwt(matrix([[0.2], [0.6]])) is None
    # explicit chance baseline (4 classes)
    assert fwt(T2, baseline=np.array([0.25, 0.25])) == pytest.approx(0.25)


def test_forgetting_examples():
    # constant columns: max equals final, F = 0 exactly (no clamping)
    R = matrix([[0.1, 0.1], [0.7, 0.3], [0.7, 0.8]])
    assert forgetting(R) == pytest.approx(0.0, abs=1e-15)
    assert forgetting(matrix([[0.2], [0.6]])) is None


def test_forgetting_can_be_negative():
    # final accuracy above every earlier checkpoint gives a negative term
    R = matrix([[0.1, 0.1], [0.5, 0.3], [0.8, 0.9]])
    assert forgetting(R) == pytest.approx(-0.3, abs=1e-15)


def test_forgetting_equals_neg_bwt_when_peak_at_own_checkpoint():
    assert peaked_forgetting_gap(seed=0, n=100, max_tasks=6) <= 1e-12


def test_mpo_examples():
    assert mpo([1.0, 3.0]) == pytest.approx(2.0)
    assert mpo([0.5]) == pytest.approx(0.5)
    assert mpo([]) is None
    durations = np.random.default_rng(414).uniform(1e-6, 1e-2, size=1000)
    brute = math.fsum(float(d) for d in durations) / len(durations)  # exactly rounded
    err = abs(mpo(durations) - brute) / brute
    print(f"relative deviation from the brute-force mean {err:.1e} (tol 1e-15)")
    assert err <= 1e-15


def test_avg_acc_is_invariant_under_task_relabeling():
    # the final row holds every task regardless of order, so AvgAcc only
    # depends on it as a multiset; the other metrics are order-sensitive
    rng = np.random.default_rng(1)
    R = rng.uniform(size=(4, 3))
    perm = np.array([2, 0, 1])
    assert avg_acc(matrix(R[:, perm])) == pytest.approx(avg_acc(matrix(R)), abs=1e-15)


def test_accuracy_matrix_validation():
    with pytest.raises(ValueError):
        matrix(np.zeros((3, 3)))  # not (T+1) x T
    with pytest.raises(ValueError):
        matrix(np.full((3, 2), 1.5))  # out of [0, 1]


@pytest.mark.parametrize("col", [0, 1])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_accuracy_matrix_rejects_nan(row, col):
    # a NaN compares False to both bounds, so it must fail the range check itself
    R = np.array([[0.5, 0.5], [0.5, 0.5], [0.4, 0.6]])
    R[row, col] = np.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        matrix(R)


def test_compute_all_uses_null_not_zero_for_absent():
    out = compute_all(matrix([[0.3], [0.6]]), [], n_classes=4)
    assert out["avg_acc"] == 0.6  # the final accuracy itself
    assert out["bwt"] is None and out["fwt"] is None
    assert out["forgetting"] is None and out["mpo"] is None


def test_aggregate_mean_and_sample_std():
    runs = [
        {"avg_acc": 0.7, "bwt": -0.1},
        {"avg_acc": 0.8, "bwt": -0.2},
        {"avg_acc": 0.9, "bwt": None},
    ]
    agg = aggregate(runs)
    assert agg["avg_acc"]["mean"] == pytest.approx(0.8)
    assert agg["avg_acc"]["std"] == pytest.approx(np.std([0.7, 0.8, 0.9], ddof=1))
    assert agg["bwt"]["mean"] is None  # absent anywhere -> absent aggregate
    single = aggregate([{"avg_acc": 0.5}])
    assert single["avg_acc"]["std"] is None
