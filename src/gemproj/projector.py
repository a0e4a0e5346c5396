"""Gradient projection rules for replay-constrained continual learning.

Three projectors share one geometry: given the current gradient g and a
matrix G whose rows are averaged past-task gradients, find the point g~
closest to g inside the cone {v : G v >= 0}.

* ``exact_qp_project``   -- exact solution by active-set enumeration (oracle).
* ``pgd_project``        -- fixed-budget projected gradient descent on the
                            dual multipliers (the cheap iterative route).
* ``agem_project``       -- single-constraint closed form against an averaged
                            reference gradient.

The dual of the cone projection is a nonnegative QP over multipliers:

    min_{lam >= 0}  0.5 lam' (G G') lam + (G g)' lam,     g~ = g + G' lam*

All arithmetic is float64.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

logger = logging.getLogger(__name__)

# Tolerances chosen for 64-bit floats.
FEASIBILITY_TOL = 1e-9
DUAL_NONNEG_TOL = 1e-10
COMPLEMENTARITY_TOL = 1e-8
OBJECTIVE_TIE_TOL = 1e-12

DEFAULT_ENUM_LIMIT = 16


class ActiveSetCapacityError(ValueError):
    """Raised when exact enumeration would exceed the subset budget."""


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class ConstraintMatrix:
    """Stacked past-task gradients, one row per remembered task.

    ``data`` is dense row-major, shape (m, d_phi).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"constraint matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValueError("constraint matrix needs dim >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values in constraint matrix")
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @classmethod
    def empty(cls, dim: int) -> "ConstraintMatrix":
        return cls(np.zeros((0, dim)))

    @classmethod
    def from_rows(cls, rows, normalize: bool = False, in_place: bool = False) -> "ConstraintMatrix":
        """Stack gradient rows, dropping zero rows (logged) and optionally
        scaling the survivors to unit norm.  ``rows`` is never written unless
        ``in_place`` hands it over (a float64 (m, d) array) to be scaled in place."""
        arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        norms = np.linalg.norm(arr, axis=1)
        keep = norms > 0.0
        dropped = tuple(int(i) for i in np.flatnonzero(~keep))
        if dropped:
            logger.warning("dropping %d zero-norm constraint row(s): %s", len(dropped), dropped)
            arr = arr[keep]
            norms = norms[keep]
        if normalize and arr.shape[0] > 0:
            arr = np.divide(arr, norms[:, None], out=arr if in_place else None)
        return cls(arr)


@dataclass
class DualState:
    """Nonnegative multiplier vector: zeros after a cold start (a task
    boundary), or carried over from a previous projection as a warm start."""

    lam: np.ndarray

    def __post_init__(self):
        self.lam = _as_vector(self.lam, "lam")
        if not np.all(self.lam >= 0.0):
            raise ValueError("dual state violates lam >= 0")

    @classmethod
    def cold(cls, m: int) -> "DualState":
        return cls(np.zeros(m))


@dataclass
class ProjectionResult:
    """Outcome of one projection call.

    ``projected_gradient`` is always reconstructible as
    ``input gradient + G' @ final_lambda.lam``.  ``max_violation`` is
    max_k(-(G g~)_k) clipped at zero.
    """

    projected_gradient: np.ndarray
    final_lambda: DualState
    dual_value: float
    iterations_used: int
    max_violation: float


def _checked(G: ConstraintMatrix, g, lam=None) -> tuple[np.ndarray, np.ndarray | None]:
    """g (and lam, when given) as float vectors whose lengths match G; every
    entry point calls this before any m = 0 shortcut."""
    g = _as_vector(g, "g")
    if g.shape[0] != G.dim:
        raise ValueError(f"gradient has length {g.shape[0]}, expected d={G.dim}")
    if lam is not None:
        lam = _as_vector(lam, "lam")
        if lam.shape[0] != G.rows:
            raise ValueError(f"lambda has length {lam.shape[0]}, expected m={G.rows}")
    return g, lam


def _dual_at(A: np.ndarray, Gg: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, float]:
    """u = G' lam and the dual value F(lam) = 0.5 ||u||^2 + (G g)' lam.

    G' lam is taken as ``lam @ A``: the same bits as ``A.T @ lam``, but at
    m = 1 numpy sends ``A.T @ lam`` to a slow one-column gemv."""
    u = lam @ A
    return u, float(0.5 * u.dot(u) + Gg.dot(lam))


def dual_objective(lam, G: ConstraintMatrix, g) -> float:
    """Dual value F(lam) = 0.5 ||G' lam||^2 + (G g)' lam.

    Uses two matrix-vector products; G G' is never materialized.
    """
    g, lam = _checked(G, g, lam)
    return _dual_at(G.data, G.data @ g, lam)[1]


def _identity(g: np.ndarray) -> ProjectionResult:
    """The result with no constraints: g itself, no multipliers, no work."""
    return ProjectionResult(g.copy(), DualState(np.zeros(0)), dual_value=0.0,
                            iterations_used=0, max_violation=0.0)


def _max_violation(G: ConstraintMatrix, g_tilde: np.ndarray) -> float:
    return float(max(0.0, -(G.data @ g_tilde).min()))


def pgd_project(
    g,
    G: ConstraintMatrix,
    warm: DualState,
    eta: float,
    K: int,
) -> ProjectionResult:
    """Fixed-budget dual projected gradient descent.

    Runs exactly K iterations of lam <- max(0, lam - eta * grad F(lam))
    starting from ``warm.lam`` and returns g~ = g + G' lam_K together with
    the final multipliers for warm-starting the next call.
    """
    g, _ = _checked(G, g, warm.lam)
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be > 0")
    if K < 1:
        raise ValueError("K must be >= 1")
    # G is validated finite at construction; only the fresh gradient needs checking
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite values in gradient")
    if not np.all(warm.lam >= 0.0):
        raise ValueError("warm-start lambda has a negative component")

    if G.rows == 0:
        return _identity(g)

    A = G.data
    Gg = A @ g
    lam = warm.lam.copy()
    for _ in range(K):
        r = A @ (lam @ A) + Gg
        lam = np.maximum(0.0, lam - eta * r)

    u, dual_value = _dual_at(A, Gg, lam)
    g_tilde = g + u
    return ProjectionResult(
        projected_gradient=g_tilde,
        final_lambda=DualState(lam),
        dual_value=dual_value,
        iterations_used=K,
        max_violation=_max_violation(G, g_tilde),
    )


def exact_qp_project(g, G: ConstraintMatrix) -> ProjectionResult:
    """Exact cone projection by enumeration of all 2^m active sets.

    G G' and G g are formed once; for each subset S the equality-constrained
    system (G_S G_S') lam_S = -G_S g is then solved on G G' (pseudo-inverse
    fallback when singular), as GEM's reference code solves its dual.
    Candidates must satisfy lam_S >= -1e-10 and G g~ = G g + (G G') lam >= -1e-9.
    The feasible candidate with minimal 0.5 ||g~ - g||^2 = 0.5 lam' (G G') lam
    wins, and ties within 1e-12 keep the smaller active set.  g~ and its
    violation are formed once, in d-space, from the winner.  The result
    satisfies the KKT conditions of the cone projection.  More than
    DEFAULT_ENUM_LIMIT constraints raise ActiveSetCapacityError.
    """
    m = G.rows
    if m > DEFAULT_ENUM_LIMIT:
        raise ActiveSetCapacityError(
            f"m={m} exceeds the active-set enumeration limit {DEFAULT_ENUM_LIMIT}; "
            "use pgd_project for large constraint counts"
        )
    g, _ = _checked(G, g)
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite values in gradient")

    if m == 0:
        return _identity(g)

    A = G.data
    Gg = A @ g
    M = A @ A.T
    best_lam = None
    best_obj = np.inf
    n_evaluated = 0
    # Subsets ordered by size then lexicographically, so the strict-improvement
    # rule below keeps the smallest active set among near-equal objectives.
    for size in range(m + 1):
        for S in combinations(range(m), size):
            n_evaluated += 1
            lam = np.zeros(m)
            if S:
                idx = list(S)
                M_S = M[idx][:, idx]
                b = -Gg[idx]
                try:
                    lam_S = np.linalg.solve(M_S, b)
                    if not np.isfinite(lam_S).all():
                        raise np.linalg.LinAlgError
                except np.linalg.LinAlgError:
                    lam_S = np.linalg.pinv(M_S) @ b
                if lam_S.min() < -DUAL_NONNEG_TOL:
                    continue
                lam[idx] = lam_S
            M_lam = M @ lam
            if (Gg + M_lam).min() < -FEASIBILITY_TOL:
                continue
            obj = 0.5 * lam.dot(M_lam)
            if obj < best_obj - OBJECTIVE_TIE_TOL:
                best_obj = obj
                best_lam = lam
    if best_lam is None:
        raise ValueError("active-set enumeration found no feasible candidate (numerical breakdown)")

    u, dual_value = _dual_at(A, Gg, best_lam)
    g_tilde = g + u
    return ProjectionResult(
        projected_gradient=g_tilde,
        final_lambda=DualState(np.maximum(best_lam, 0.0)),
        dual_value=dual_value,
        iterations_used=n_evaluated,
        max_violation=_max_violation(G, g_tilde),
    )


def agem_project(g, g_ref) -> np.ndarray:
    """Single-constraint closed-form projection against an averaged reference
    gradient: if g' g_ref >= 0 return g, else remove the violating component.

    Four passes over d on finite inputs: the dots g_ref' g_ref and g' g_ref,
    then one multiply into the result and one subtract in place.  A NaN or
    inf in either vector makes a dot non-finite (inf * 0 is NaN), so the
    finiteness scans run only then.  When they pass (finite entries whose
    dots overflowed), the dots are retaken with numpy's floating-point
    warnings on, so they warn, or raise under an error filter, as plain
    dots do.
    """
    g = _as_vector(g, "g")
    g_ref = _as_vector(g_ref, "g_ref")
    if g.shape != g_ref.shape:
        raise ValueError(f"shape mismatch: g {g.shape} vs g_ref {g_ref.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        denom = g_ref.dot(g_ref)
        dot = g.dot(g_ref)
    if not (math.isfinite(denom) and math.isfinite(dot)):
        if not np.all(np.isfinite(g)) or not np.all(np.isfinite(g_ref)):
            raise ValueError("non-finite values in gradients")
        denom = g_ref.dot(g_ref)
        dot = g.dot(g_ref)
    if denom == 0.0 or dot >= 0.0:
        return g.copy()
    out = (dot / denom) * g_ref
    return np.subtract(g, out, out=out)


def violation_check(g, G: ConstraintMatrix) -> tuple[bool, float]:
    """Report whether any constraint is violated.

    Returns (violated, worst) where worst = min_k (G g)_k, or +inf when
    there are no constraints.
    """
    g, _ = _checked(G, g)
    if G.rows == 0:
        return (False, np.inf)
    worst = float((G.data @ g).min())
    return (worst < 0.0, worst)
