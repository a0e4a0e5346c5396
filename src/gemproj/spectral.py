"""Spectral-norm estimation for the dual stepsize.

The dual gradient is Lipschitz with constant L = sigma_max(G G'); a few
steps of power iteration give a Rayleigh-quotient estimate that never
exceeds the true value, so the stepsize c / sigma_hat with c < 1 keeps
the dual descent stable even when the estimate is loose.
"""

from __future__ import annotations

import numpy as np

from .projector import ConstraintMatrix

DEFAULT_POWER_ITERS = 3
DEFAULT_SAFETY = 0.7


def power_iteration(G: ConstraintMatrix, iters: int = DEFAULT_POWER_ITERS, seed: int = 0) -> float:
    """Estimate sigma_max(G G') with a few power-iteration steps.

    Iterates v <- (G G') v / ||(G G') v|| in the two-matvec form G (G' v)
    from a pseudo-random unit start vector drawn from ``seed`` and returns
    the Rayleigh quotient v' (G G') v of the final unit iterate.  The
    estimate may fall below the true value (hence the safety factor) but
    never exceeds it.  With m = 0 it is 0 and callers must treat the
    matrix as "no constraints".
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    m = G.rows
    if m == 0:
        return 0.0
    v = np.random.default_rng([seed, 0x5E0]).standard_normal(m)
    v = v / np.linalg.norm(v)

    A = G.data
    for _ in range(iters):
        w = A @ (A.T @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # v lies in the null space of G G'; Rayleigh quotient is 0.
            return 0.0
        v = w / norm
    u = A.T @ v
    return float(u.dot(u))


def stepsize(sigma: float, c: float = DEFAULT_SAFETY) -> float:
    """Safety-factored dual stepsize c / sigma_hat with c in (0, 1]."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"safety factor c must be in (0, 1], got {c}")
    if sigma <= 0.0:
        raise ValueError("sigma_hat must be > 0 (skip projection when 0)")
    return c / sigma
