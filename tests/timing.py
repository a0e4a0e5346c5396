"""Projection-cost timing harness for acceptance criteria 7, 7b and 8.

Times pgd_project over a grid of (m, d_phi, K) cells, with warmup calls
discarded, fits its cost model and checks a cell against its grid
neighbors; ``bench_ordering`` times the three projectors on one shared
instance.  Three measurement choices matter here:

* The grid is timed round-robin, reversing the cell order every round,
  so a slow spell of the host hits all cells alike instead of bending
  the fit at whichever cells it fell on.

* Fits and predictions use the per-cell minimum.  On a shared machine
  individual calls can stall by an order of magnitude, and the fastest
  observation is the standard noise-robust estimate of the true cost.

* The default grid keeps m >= 8, where the matrix-vector cost per
  element of G is uniform; below that the BLAS kernels sit in a
  different regime (the per-call d-sized temporaries dominate) and the
  K*m*d law is visible only against same-m neighbors, which is what
  ``adjacent_fit_error`` measures.  The K grid starts at the typical
  training budget (K = 3) and extends upward so the K-scaling term is
  identifiable next to the per-call O(m d) setup/recovery work.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from gemproj.projector import ConstraintMatrix, DualState, agem_project, exact_qp_project, pgd_project

from oracles import true_sigma_max

DEFAULT_MS = (8, 16, 32)
DEFAULT_DS = (50_000, 100_000, 200_000)
DEFAULT_KS = (3, 9, 27)


@dataclass
class BenchRow:
    m: int
    d: int
    K: int
    mean_s: float
    min_s: float

    @property
    def kmd(self) -> int:
        return self.K * self.m * self.d


def _instance(m: int, d: int, seed: int = 0):
    rng = np.random.default_rng([seed, m, d])
    G = rng.standard_normal((m, d))
    G = G / np.linalg.norm(G, axis=1)[:, None]
    return ConstraintMatrix(G), rng.standard_normal(d)


def time_round_robin(fns, warmup: int = 3, reps: int = 9) -> list[tuple[float, float]]:
    """(mean, min) wall time of each fn, timed in rounds of one call
    each; the warmup rounds are discarded and the call order reverses
    from one round to the next."""
    times = [[] for _ in fns]
    for r in range(warmup + reps):
        for i in range(len(fns)) if r % 2 == 0 else range(len(fns) - 1, -1, -1):
            t0 = time.perf_counter()
            fns[i]()
            if r >= warmup:
                times[i].append(time.perf_counter() - t0)
    return [(float(np.mean(t)), float(np.min(t))) for t in times]


def bench_igem_grid(
    ms=DEFAULT_MS, ds=DEFAULT_DS, ks=DEFAULT_KS, warmup: int = 3, reps: int = 9, seed: int = 0
) -> list[BenchRow]:
    """Time pgd_project on every (m, d, K) cell, all cells round-robin."""
    cells, calls = [], []
    for m in ms:
        for d in ds:
            G, g = _instance(m, d, seed)
            eta = 1.0 / true_sigma_max(G)
            for K in ks:
                cells.append((m, d, K))
                calls.append(functools.partial(pgd_project, g, G, DualState.cold(m), eta, K))
    stats = time_round_robin(calls, warmup, reps)
    return [BenchRow(m, d, K, *st) for (m, d, K), st in zip(cells, stats)]


def linear_fit_r2(rows: list[BenchRow]) -> tuple[float, float, float]:
    """Least-squares fit min_s ~ a + b * (K m d); returns (a, b, R^2)."""
    x = np.array([r.kmd for r in rows], dtype=np.float64)
    y = np.array([r.min_s for r in rows], dtype=np.float64)
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def adjacent_cells(ms, ds, ks, m: int, d: int, K: int) -> list[tuple[int, int, int]]:
    """The face-adjacent cells of (m, d, K) on the ms x ds x ks grid: one
    level step along each of m, d, K."""
    cell = (m, d, K)
    out = []
    for axis, levels in enumerate((sorted(set(ms)), sorted(set(ds)), sorted(set(ks)))):
        pos = levels.index(cell[axis])
        for j in (pos - 1, pos + 1):
            if 0 <= j < len(levels):
                out.append(cell[:axis] + (levels[j],) + cell[axis + 1:])
    return out


def adjacent_fit_error(rows: list[BenchRow], m: int, d: int, K: int) -> float:
    """Relative gap between a cell's measured time and a linear fit over its
    measured face-adjacent grid neighbors."""
    index = {(r.m, r.d, r.K): r for r in rows}
    target = index[(m, d, K)]
    levels = ([r.m for r in rows], [r.d for r in rows], [r.K for r in rows])
    neighbors = [index[c] for c in adjacent_cells(*levels, m, d, K) if c in index]
    if len(neighbors) < 2:
        raise ValueError("cell needs at least two measured neighbors")
    a, b, _ = linear_fit_r2(neighbors)
    pred = a + b * target.kmd
    return abs(target.min_s - pred) / target.min_s


def bench_ordering(m: int, d: int, K: int, warmup: int = 3, seed: int = 0) -> dict[str, BenchRow]:
    """Mean projection time of the three projectors on one shared instance.

    Cheap projectors get more repetitions so a single scheduler stall
    cannot dominate their mean.
    """
    G, g = _instance(m, d, seed)
    eta = 1.0 / true_sigma_max(G)
    g_ref = G.data.mean(axis=0)
    warm = DualState.cold(m)
    calls = {"agem": (lambda: agem_project(g, g_ref), 0, 50),
             "igem": (lambda: pgd_project(g, G, warm, eta, K), K, 30),
             "gem_exact": (lambda: exact_qp_project(g, G), 0, 10)}
    return {name: BenchRow(m, d, k, *time_round_robin([fn], warmup, reps)[0])
            for name, (fn, k, reps) in calls.items()}
