import logging
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import nnls

from gemproj import projector
from gemproj.projector import (
    ActiveSetCapacityError,
    ConstraintMatrix,
    DualState,
    agem_project,
    dual_objective,
    exact_qp_project,
    pgd_project,
    violation_check,
)

from oracles import kkt_residuals, random_instance


def cm(rows):
    return ConstraintMatrix(np.asarray(rows, dtype=float))


# --- dual objective ------------------------------------------------------------

def test_dual_objective_at_zero_is_zero():
    assert dual_objective([0.0], cm([[1, 0]]), [-1, 0]) == 0.0


def test_dual_objective_hand_values():
    # 0.5*1*1 + (-1)*1
    assert dual_objective([1.0], cm([[1, 0]]), [-1, 0]) == pytest.approx(-0.5, abs=1e-15)
    # 0.5*(1+1) + (-1-1)
    assert dual_objective([1.0, 1.0], cm(np.eye(2)), [-1, -1]) == pytest.approx(-1.0, abs=1e-15)


def test_dual_objective_dimension_mismatch():
    with pytest.raises(ValueError):
        dual_objective([1.0, 2.0], cm([[1, 0]]), [-1, 0])
    with pytest.raises(ValueError):
        dual_objective([1.0], cm([[1, 0]]), [-1, 0, 3])


def test_dual_objective_never_materializes_gram():
    # big-ish d so a Gram-matrix détour would be visibly wasteful; just check value
    rng = np.random.default_rng(0)
    G = cm(rng.standard_normal((3, 500)))
    g = rng.standard_normal(500)
    lam = rng.uniform(0, 1, 3)
    want = 0.5 * lam @ (G.data @ G.data.T) @ lam + (G.data @ g) @ lam
    assert dual_objective(lam, G, g) == pytest.approx(want, rel=1e-12)


# --- pgd_project ----------------------------------------------------------------

def test_pgd_single_constraint_one_step_reaches_optimum():
    res = pgd_project([-1, 0], cm([[1, 0]]), DualState.cold(1), eta=1.0, K=1)
    np.testing.assert_allclose(res.projected_gradient, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(res.final_lambda.lam, [1.0])
    assert res.iterations_used == 1
    assert res.max_violation == 0.0


def test_pgd_feasible_input_stays_at_zero_lambda():
    res = pgd_project([1, 2], cm(np.eye(2)), DualState.cold(2), eta=1.0, K=3)
    np.testing.assert_array_equal(res.projected_gradient, [1.0, 2.0])
    np.testing.assert_array_equal(res.final_lambda.lam, [0.0, 0.0])


def test_pgd_identity_two_constraints_single_step():
    res = pgd_project([-1, -1], cm(np.eye(2)), DualState.cold(2), eta=1.0, K=1)
    np.testing.assert_allclose(res.projected_gradient, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(res.final_lambda.lam, [1.0, 1.0])


def test_pgd_empty_constraints_is_identity():
    g = np.array([3.0, -4.0])
    res = pgd_project(g, ConstraintMatrix.empty(2), DualState.cold(0), eta=1.0, K=5)
    np.testing.assert_array_equal(res.projected_gradient, g)
    assert res.final_lambda.lam.size == 0
    assert res.iterations_used == 0
    assert res.dual_value == 0.0


def test_pgd_zero_gradient_returns_zero():
    res = pgd_project(np.zeros(3), cm(np.eye(3)), DualState.cold(3), eta=1.0, K=4)
    np.testing.assert_array_equal(res.projected_gradient, np.zeros(3))
    np.testing.assert_array_equal(res.final_lambda.lam, np.zeros(3))


def test_pgd_rejects_bad_arguments():
    G = cm([[1, 0]])
    with pytest.raises(ValueError):
        pgd_project([np.inf, 0], G, DualState.cold(1), eta=1.0, K=1)
    with pytest.raises(ValueError):
        pgd_project([1, 0], G, DualState.cold(1), eta=0.0, K=1)
    with pytest.raises(ValueError):
        pgd_project([1, 0], G, DualState.cold(1), eta=1.0, K=0)
    with pytest.raises(ValueError):
        pgd_project([1, 0], G, DualState.cold(2), eta=1.0, K=1)
    bad = DualState.cold(1)
    bad.lam = np.array([-0.5])  # bypass construction-time validation
    with pytest.raises(ValueError):
        pgd_project([1, 0], G, bad, eta=1.0, K=1)


@pytest.mark.parametrize("eta,warm_lam,match", [
    (np.nan, [0.0], "eta must be > 0"),
    (np.inf, [0.0], "eta must be > 0"),
    (1.0, [np.nan], "negative component"),
])
def test_pgd_rejects_nan_or_inf_eta_and_a_nan_warm_start(eta, warm_lam, match):
    # each would otherwise yield a NaN g~, or numpy's invalid-value warning
    warm = DualState.cold(1)
    warm.lam = np.array(warm_lam)  # bypass construction-time validation
    with pytest.raises(ValueError, match=match):
        pgd_project([1.0, 0.0], cm([[1, 0]]), warm, eta=eta, K=1)


def test_pgd_result_is_reconstructible():
    rng = np.random.default_rng(3)
    G = ConstraintMatrix.from_rows(rng.standard_normal((4, 16)), normalize=True)
    g = rng.standard_normal(16)
    res = pgd_project(g, G, DualState.cold(4), eta=0.2, K=7)
    recon = g + G.data.T @ res.final_lambda.lam
    assert np.linalg.norm(res.projected_gradient - recon) <= 1e-12 * (1 + np.linalg.norm(g))
    assert res.max_violation >= 0.0


def test_feasible_input_is_returned_unchanged_by_pgd_and_the_oracle():
    # PGD skips a feasible gradient bit for bit; the oracle may round
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        G, g = random_instance(rng)
        A = G.data.copy()
        A[A @ g < 0] *= -1.0  # flip rows so G g >= 0 (unit norms preserved)
        G = ConstraintMatrix(A)
        res = pgd_project(g, G, DualState.cold(G.rows), eta=0.5, K=5)
        np.testing.assert_array_equal(res.projected_gradient, g)
        worst = max(worst, float(np.linalg.norm(exact_qp_project(g, G).projected_gradient - g)))
    print(f"oracle moved a feasible gradient by at most {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_pgd_warm_start_continues_from_given_lambda():
    G = cm([[1, 0]])
    g = np.array([-1.0, 0.0])
    first = pgd_project(g, G, DualState.cold(1), eta=0.3, K=2)
    resumed = pgd_project(g, G, first.final_lambda, eta=0.3, K=2)
    in_one_go = pgd_project(g, G, DualState.cold(1), eta=0.3, K=4)
    np.testing.assert_allclose(resumed.final_lambda.lam, in_one_go.final_lambda.lam, rtol=1e-15)
    assert first.final_lambda.lam[0] > 0.0  # the resumed call did not start cold


# --- exact_qp_project -----------------------------------------------------------

def test_exact_single_constraint_matches_closed_form():
    res = exact_qp_project([-1, 0], cm([[1, 0]]))
    np.testing.assert_allclose(res.projected_gradient, [0.0, 0.0], atol=1e-15)


def test_exact_interior_point_unchanged():
    res = exact_qp_project([1, 2], cm(np.eye(2)))
    np.testing.assert_allclose(res.projected_gradient, [1.0, 2.0], atol=1e-15)
    np.testing.assert_array_equal(res.final_lambda.lam, [0.0, 0.0])


def test_exact_two_constraint_instance_vs_enumeration_and_grid():
    # rows unit-norm; brute force over all 4 active sets is the oracle itself,
    # so cross-check against a dense feasible-grid minimizer instead.
    G = cm([[1.0, 0.0], [0.6, 0.8]])
    g = np.array([-2.0, 1.0])
    res = exact_qp_project(g, G)
    assert (G.data @ res.projected_gradient).min() >= -1e-9

    xs = np.linspace(-3, 3, 1201)
    best = None
    best_obj = np.inf
    for x in xs:
        ys = np.linspace(-3, 3, 1201)
        pts = np.stack([np.full_like(ys, x), ys], axis=1)
        feas = pts[(pts @ G.data.T).min(axis=1) >= -1e-9]
        if len(feas) == 0:
            continue
        d = ((feas - g) ** 2).sum(axis=1)
        i = d.argmin()
        if d[i] < best_obj:
            best_obj = d[i]
            best = feas[i]
    # grid resolution is 0.005, so agree to within one cell
    assert np.linalg.norm(res.projected_gradient - best) <= 0.01
    assert 0.5 * np.sum((res.projected_gradient - g) ** 2) <= 0.5 * best_obj + 1e-12


def test_exact_kkt_conditions():
    rng = np.random.default_rng(11)
    for _ in range(50):
        G = ConstraintMatrix.from_rows(rng.standard_normal((3, 12)), normalize=True)
        g = rng.standard_normal(12)
        feasibility, nonneg, complementarity = kkt_residuals(G, exact_qp_project(g, G))
        assert nonneg <= 1e-10
        assert feasibility <= 1e-9
        assert complementarity <= 1e-8


@pytest.mark.parametrize("seed,transform", [
    (404, lambda rng, A: np.vstack([A, A[0]])),
    (505, lambda rng, A: A * rng.uniform(0.2, 5.0, size=A.shape[0])[:, None]),
], ids=["duplicate_row", "positive_row_scaling"])
def test_exact_projection_depends_only_on_the_cone(seed, transform):
    # duplicating a row or rescaling rows by positive factors leaves the
    # feasible cone, hence the primal solution, where it was
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        G, g = random_instance(rng)
        moved = exact_qp_project(g, ConstraintMatrix(transform(rng, G.data))).projected_gradient
        worst = max(worst, float(np.linalg.norm(exact_qp_project(g, G).projected_gradient - moved)))
    print(f"worst primal shift {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


def test_exact_capacity_error_directs_to_pgd():
    rng = np.random.default_rng(1)
    G = cm(rng.standard_normal((17, 20)))
    with pytest.raises(ActiveSetCapacityError, match="pgd_project"):
        exact_qp_project(rng.standard_normal(20), G)


def test_exact_agrees_with_nnls_dual_oracle():
    # the dual is min ||G' lam + g|| over lam >= 0, i.e. an NNLS problem;
    # scipy's solver is an independent second route to the same projection
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(max(2, 3 * m), 33))
        G = ConstraintMatrix.from_rows(rng.standard_normal((m, d)), normalize=True)
        g = rng.standard_normal(d)
        res = exact_qp_project(g, G)
        lam_nnls, _ = nnls(G.data.T, -g)
        gt_nnls = g + G.data.T @ lam_nnls
        assert np.linalg.norm(res.projected_gradient - gt_nnls) <= 1e-7 * (1 + np.linalg.norm(g))


def _exact_qp_d_space(g, A):
    """The d-space enumeration exact_qp_project used before it moved to G G':
    every subset re-forms its Gram block and g~ and scores ||g~ - g||^2 in
    d-space.  Returns (g~, lam, subsets evaluated)."""
    m = A.shape[0]
    Gg = A @ g
    best_gt, best_lam, best_obj, n = None, None, np.inf, 0
    for size in range(m + 1):
        for S in combinations(range(m), size):
            n += 1
            lam = np.zeros(m)
            if S:
                idx = list(S)
                M = A[idx] @ A[idx].T
                b = -Gg[idx]
                try:
                    lam_S = np.linalg.solve(M, b)
                    if not np.all(np.isfinite(lam_S)):
                        raise np.linalg.LinAlgError
                except np.linalg.LinAlgError:
                    lam_S = np.linalg.pinv(M) @ b
                lam[idx] = lam_S
            if lam.min() < -1e-10:
                continue
            g_tilde = g + A.T @ lam
            if (A @ g_tilde).min() < -1e-9:
                continue
            diff = g_tilde - g
            obj = 0.5 * diff.dot(diff)
            if obj < best_obj - 1e-12:
                best_gt, best_lam, best_obj = g_tilde, lam, obj
    return best_gt, np.maximum(best_lam, 0.0), n


def _g_against(rng, G):
    # push g against a random mix of the rows so that several constraints bind
    return rng.standard_normal(G.dim) - rng.uniform(0.0, 2.0, G.rows) @ G.data


def _equivalence_instances():
    rng = np.random.default_rng(41)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        d = int(rng.choice([m + 1, 40, 300, 2000]))
        G = ConstraintMatrix.from_rows(rng.standard_normal((m, d)), normalize=bool(rng.integers(2)))
        yield _g_against(rng, G), G
    # rank-deficient G with integer entries, so the Gram blocks of a repeated
    # row or of a row and its negation are exactly singular on both paths
    for m, d in [(2, 5), (3, 40), (5, 300), (8, 2000)]:
        rows = rng.integers(-3, 4, size=(m, d)).astype(float)
        rows[1] = rows[0]
        if m > 2:
            rows[2] = -rows[0]
        G = ConstraintMatrix(rows)
        for _ in range(4):
            yield rng.integers(-5, 6, size=d).astype(float), G


def test_exact_matches_d_space_enumeration(monkeypatch):
    pinv_calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: pinv_calls.append(a.shape) or pinv(a))
    for g, G in _equivalence_instances():
        before = len(pinv_calls)
        res = exact_qp_project(g, G)
        if np.linalg.matrix_rank(G.data) < G.rows:
            assert len(pinv_calls) > before  # a singular block reached the fallback
        want_gt, want_lam, want_n = _exact_qp_d_space(g, G.data)
        np.testing.assert_array_equal(np.flatnonzero(res.final_lambda.lam),
                                      np.flatnonzero(want_lam))
        assert res.iterations_used == want_n == 2 ** G.rows
        assert np.linalg.norm(res.projected_gradient - want_gt) <= 1e-12 * (1 + np.linalg.norm(g))


# --- agem_project ---------------------------------------------------------------

def test_agem_removes_violating_component():
    np.testing.assert_allclose(agem_project([1, -1], [0, 1]), [1.0, 0.0], atol=1e-15)


def test_agem_no_violation_returns_input():
    np.testing.assert_array_equal(agem_project([1, 1], [1, 0]), [1.0, 1.0])


def test_agem_matches_exact_single_constraint():
    got = agem_project([-1, 0], [1, 0])
    want = exact_qp_project([-1, 0], cm([[1, 0]])).projected_gradient
    np.testing.assert_allclose(got, want, atol=1e-10)
    np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-15)
    # normalized or not: the scale of the row does not move the cone
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 65))
        row = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
        g = rng.standard_normal(d)
        want = exact_qp_project(g, cm(row[None, :])).projected_gradient
        worst = max(worst, float(np.linalg.norm(agem_project(g, row) - want)))
    print(f"worst deviation from the exact m=1 projection {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_agem_zero_reference_and_result_certificate():
    g = np.array([1.0, -2.0])
    np.testing.assert_array_equal(agem_project(g, np.zeros(2)), g)
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = rng.standard_normal(8)
        ref = rng.standard_normal(8)
        assert agem_project(g, ref).dot(ref) >= -1e-10


def test_agem_rejects_non_finite():
    with pytest.raises(ValueError):
        agem_project([np.nan, 0.0], [1.0, 0.0])


def _agem_scan_first(g, g_ref):
    """Reference A-GEM projection: both finiteness scans before the dots, then
    g - c g_ref through two temporaries.  ``agem_project`` must match its
    bytes, exceptions and warnings."""
    g = np.asarray(g, dtype=np.float64)
    g_ref = np.asarray(g_ref, dtype=np.float64)
    if not np.all(np.isfinite(g)) or not np.all(np.isfinite(g_ref)):
        raise ValueError("non-finite values in gradients")
    denom = g_ref.dot(g_ref)
    if denom == 0.0:
        return g.copy()
    dot = g.dot(g_ref)
    if dot >= 0.0:
        return g.copy()
    return g - (dot / denom) * g_ref


def _agem_edge_cases():
    rng = np.random.default_rng(27)
    d = 16
    g, ref = rng.standard_normal(d), rng.standard_normal(d)
    cases = {}
    for bad in (np.nan, np.inf, -np.inf):
        for where in ("g", "g_ref"):
            a, b = g.copy(), ref.copy()
            (a if where == "g" else b)[3] = bad
            cases[f"{bad}-in-{where}"] = (a, b)
    for where in ("g", "g_ref"):
        # inf * 0 in the cross dot is NaN: the other vector holds 0 there
        a, b = g.copy(), ref.copy()
        (a, b)[where == "g_ref"][3] = np.inf
        (a, b)[where == "g"][3] = 0.0
        cases[f"inf-in-{where}-over-0"] = (a, b)
    big = 1e200 * rng.uniform(1.0, 2.0, d)
    cases["inf-beside-1e200"] = (np.r_[np.inf, -big[1:]], big)
    cases["nan-beside-1e200"] = (-big, np.r_[big[:-1], np.nan])
    cases["denom-overflows"] = (-g, big)
    cases["both-overflow-same-sign"] = (-big, big)
    # one lane of the dot sums to +inf and another to -inf
    cases["both-overflow-mixed-sign"] = (np.r_[big[:1], -big[1:]], big)
    cases["cross-dot-overflows"] = (-1e300 * np.abs(ref), np.r_[np.abs(ref[:-1]), 0.0])
    cases["zero-g_ref"] = (g, np.zeros(d))
    cases["zero-g_ref-huge-g"] = (1e300 * g, np.zeros(d))
    cases["denom-underflows"] = (-1e300 * np.abs(g), 1e-170 * np.abs(ref))
    cases["violating"] = (-np.abs(g), np.abs(ref))
    cases["feasible"] = (np.abs(g), np.abs(ref))
    return cases


def _agem_outcome(fn, g, g_ref):
    try:
        return ("returned", fn(g, g_ref).tobytes())
    except Exception as e:
        return ("raised", type(e), str(e))


@pytest.mark.parametrize("case", list(_agem_edge_cases()))
def test_agem_edge_cases_match_scan_first_with_warnings_recorded(case):
    g, g_ref = _agem_edge_cases()[case]
    seen = []
    for fn in (agem_project, _agem_scan_first):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = _agem_outcome(fn, g, g_ref)
        seen.append((outcome, [(w.category, str(w.message)) for w in caught]))
    assert seen[0] == seen[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(_agem_edge_cases()))
def test_agem_edge_cases_match_scan_first_with_warnings_as_errors(case):
    g, g_ref = _agem_edge_cases()[case]
    got, want = (_agem_outcome(fn, g, g_ref) for fn in (agem_project, _agem_scan_first))
    assert got == want
    if case == "denom-overflows":
        assert want == ("raised", RuntimeWarning, "overflow encountered in dot")


# --- violation_check ------------------------------------------------------------

def test_violation_check_examples():
    assert violation_check([1, 2], cm(np.eye(2))) == (False, 1.0)
    assert violation_check([-1, 0], cm([[1, 0]])) == (True, -1.0)
    assert violation_check([0, 1], cm(np.eye(2))) == (False, 0.0)
    violated, worst = violation_check([-1e-7, 1], cm(np.eye(2)))
    assert violated is True
    assert worst == pytest.approx(-1e-7)


def test_violation_check_empty_matrix():
    violated, worst = violation_check([1.0, 2.0], ConstraintMatrix.empty(2))
    assert violated is False and worst == np.inf


# --- dimension checks --------------------------------------------------------------

ENTRY_POINTS = {
    "pgd_project": lambda g, G: pgd_project(g, G, DualState.cold(G.rows), 0.5, 3),
    "exact_qp_project": lambda g, G: exact_qp_project(g, G),
    "violation_check": lambda g, G: violation_check(g, G),
    "dual_objective": lambda g, G: dual_objective(np.zeros(G.rows), G, g),
}


@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_wrong_length_gradient_is_rejected(name, m):
    G = ConstraintMatrix.empty(5) if m == 0 else cm(np.eye(m, 5))
    with pytest.raises(ValueError, match="gradient has length 4, expected d=5"):
        ENTRY_POINTS[name](np.ones(4), G)


# --- cost certificate -------------------------------------------------------------

class MatmulCounter(np.ndarray):
    """G.data stand-in that counts the matrix products it takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            MatmulCounter.calls += 1
        plain = [x.view(np.ndarray) if isinstance(x, MatmulCounter) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("m,d,K", [(1, 2, 1), (3, 40, 3), (8, 500, 27), (5, 64, 10)])
def test_pgd_sweeps_g_exactly_2k_plus_3_times(m, d, K):
    # one sweep for Gg, two per iteration, one to recover g~ and one for the
    # violation check: the O(Kmd) cost the paper's budget K stands for
    rng = np.random.default_rng(m * d * K)
    G = ConstraintMatrix.from_rows(rng.standard_normal((m, d)), normalize=True)
    object.__setattr__(G, "data", G.data.view(MatmulCounter))
    MatmulCounter.calls = 0
    pgd_project(rng.standard_normal(d), G, DualState.cold(m), eta=0.5, K=K)
    assert MatmulCounter.calls == 2 * K + 3


@pytest.mark.parametrize("m", [1, 3, 8])
def test_exact_touches_g_four_times_whatever_the_subset_count(m):
    # G g, G G', G' lam for the winner and the violation check of its g~:
    # the 2^m active sets are all checked on the m x m Gram matrix
    rng = np.random.default_rng(m)
    G = ConstraintMatrix.from_rows(rng.standard_normal((m, 300)), normalize=True)
    g = _g_against(rng, G)
    object.__setattr__(G, "data", G.data.view(MatmulCounter))
    MatmulCounter.calls = 0
    res = exact_qp_project(g, G)
    assert res.iterations_used == 2 ** m
    assert MatmulCounter.calls == 4


class AgemCounter(np.ndarray):
    """g and g_ref stand-in that counts the full-length operations it takes part in."""

    calls = Counter()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        AgemCounter.calls[ufunc.__name__] += 1
        plain = [x.view(np.ndarray) if isinstance(x, AgemCounter) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)

    def dot(self, other):
        AgemCounter.calls["dot"] += 1
        return self.view(np.ndarray).dot(np.asarray(other))


@pytest.mark.parametrize("violating", [True, False])
def test_agem_takes_two_dots_one_multiply_and_one_subtract(monkeypatch, violating):
    # no finiteness scan on finite inputs: the two dots already read every entry
    real = projector._as_vector
    monkeypatch.setattr(projector, "_as_vector", lambda x, name: real(x, name).view(AgemCounter))
    rng = np.random.default_rng(4)
    g, g_ref = rng.standard_normal(1000), rng.standard_normal(1000)
    if (g.dot(g_ref) < 0.0) != violating:
        g = -g
    AgemCounter.calls.clear()
    got = agem_project(g, g_ref)
    want = {"dot": 2, "multiply": 1, "subtract": 1} if violating else {"dot": 2}
    assert dict(AgemCounter.calls) == want
    assert got.tobytes() == _agem_scan_first(g, g_ref).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 8, 16, 32])
def test_lam_at_a_is_bitwise_a_transpose_at_lam(m):
    # the projectors take G' lam as lam @ G: the bits of G.T @ lam at every m,
    # on random_instance draws and at adapter scale
    rng = np.random.default_rng(m)
    draws = [random_instance(rng, min_ratio=0)[0].data for _ in range(50)]
    for width in (53_248, 200_000 // m):
        rows = rng.standard_normal((m, width))
        draws.append(rows / np.linalg.norm(rows, axis=1)[:, None])
    for A in draws:
        lam = rng.exponential(size=A.shape[0]) * (rng.random(A.shape[0]) < 0.7)
        assert (lam @ A).tobytes() == (A.T @ lam).tobytes()


# --- ConstraintMatrix / DualState ------------------------------------------------

def test_from_rows_normalizes_and_drops_zero_rows(caplog):
    with caplog.at_level(logging.WARNING, logger="gemproj.projector"):
        G = ConstraintMatrix.from_rows([[3, 4], [0, 0], [0, 2]], normalize=True)
    assert G.rows == 2
    assert [r.getMessage() for r in caplog.records] == [
        "dropping 1 zero-norm constraint row(s): (1,)"]
    np.testing.assert_allclose(np.linalg.norm(G.data, axis=1), [1.0, 1.0], atol=1e-9)


def test_from_rows_writes_into_its_input_only_when_handed_it():
    rows = np.array([[3.0, 4.0], [1.0, -2.0], [0.0, 2.0]])
    before = rows.copy()
    for normalize in (True, False):
        ConstraintMatrix.from_rows(rows, normalize=normalize)
        assert np.array_equal(rows, before)
    G = ConstraintMatrix.from_rows(rows, normalize=True, in_place=True)
    assert G.data is rows
    assert np.array_equal(rows, before / np.linalg.norm(before, axis=1)[:, None])


def test_constraint_matrix_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        ConstraintMatrix(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        ConstraintMatrix(np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        ConstraintMatrix(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("lam", [[np.nan, 1.0], [1.0, np.nan], [np.nan]])
def test_dual_state_rejects_nan_lambda(lam):
    with pytest.raises(ValueError, match="violates lam >= 0"):
        DualState(np.array(lam))


def test_dual_state_rejects_negative_lambda():
    with pytest.raises(ValueError):
        DualState(np.array([0.5, -0.1]))
    np.testing.assert_array_equal(DualState.cold(3).lam, np.zeros(3))
