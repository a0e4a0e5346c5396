import numpy as np

from timing import (
    BenchRow,
    adjacent_cells,
    adjacent_fit_error,
    bench_ordering,
    linear_fit_r2,
    time_round_robin,
)
from gemproj.projector import ConstraintMatrix, DualState, agem_project, exact_qp_project, pgd_project


def affine_row(m, d, K, a=1e-6, b=2e-9):
    t = a + b * (K * m * d)
    return BenchRow(m, d, K, t, t)


def test_identity_path_has_negligible_overhead():
    # with no constraints every projector returns g untouched
    d = 50_000
    g = np.random.default_rng(0).standard_normal(d)
    G = ConstraintMatrix(np.zeros((0, d)))
    warm = DualState.cold(0)
    stats = time_round_robin([lambda: agem_project(g, np.zeros(d)),
                              lambda: pgd_project(g, G, warm, 1.0, 3),
                              lambda: exact_qp_project(g, G)], warmup=2, reps=7)
    assert all(min_s < 1e-3 for _, min_s in stats)


def test_ordering_holds_at_moderate_scale():
    out = bench_ordering(m=4, d=20_000, K=3, warmup=2)
    assert out["agem"].min_s < out["igem"].min_s < out["gem_exact"].min_s


def test_linear_fit_recovers_exact_affine_data():
    rows = [affine_row(m, d, K) for m in (2, 4) for d in (100, 200) for K in (1, 3)]
    a, b, r2 = linear_fit_r2(rows)
    assert abs(a - 1e-6) < 1e-12
    assert abs(b - 2e-9) < 1e-15
    assert r2 > 0.999999


def test_adjacent_fit_error_on_synthetic_data():
    rows = [affine_row(m, d, K) for m in (2, 4, 8) for d in (100, 200, 400) for K in (1, 3, 9)]
    assert adjacent_fit_error(rows, 4, 200, 3) < 1e-6
    # corner cell still has enough neighbors
    assert adjacent_fit_error(rows, 2, 100, 1) < 1e-6


def test_adjacent_cells_step_one_level_along_each_axis():
    # levels are deduplicated and sorted; an axis with one level adds no neighbor
    assert adjacent_cells((4, 2, 8, 2), (100,), (3, 1), 4, 100, 1) == [
        (2, 100, 1), (8, 100, 1), (4, 100, 3)]

