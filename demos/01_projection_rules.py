# Walk through the three projection rules on a small conflicting-task
# instance: the exact active-set QP, the fixed-budget dual PGD, and the
# A-GEM closed form.

import numpy as np

from gemproj import (
    ConstraintMatrix,
    DualState,
    agem_project,
    dual_objective,
    exact_qp_project,
    pgd_project,
    violation_check,
)

rng = np.random.default_rng(0)

# two remembered tasks whose gradients partly oppose the current one
G = ConstraintMatrix.from_rows(
    [[1.0, 0.2, 0.0, 0.1], [0.3, -0.9, 0.4, 0.0]], normalize=True
)
g = np.array([-1.0, 0.8, -0.3, 0.2])

violated, worst = violation_check(g, G)
print(f"raw gradient violates a memory constraint: {violated} (worst slack {worst:+.3f})")

exact = exact_qp_project(g, G)
print("\nexact QP projection (enumerates all 4 active sets):")
print("  g~        =", np.round(exact.projected_gradient, 6))
print("  lambda*   =", np.round(exact.final_lambda.lam, 6))
print("  dual F*   =", round(exact.dual_value, 9))
print("  min slack =", float((G.data @ exact.projected_gradient).min()))

# the iterative route: a few projected-gradient steps on the dual
print("\nfixed-budget dual PGD closes the gap geometrically:")
state = DualState.cold(G.rows)
eta = 1.0 / np.linalg.eigvalsh(G.data @ G.data.T)[-1]
for K in (1, 2, 4, 8, 16):
    res = pgd_project(g, G, DualState.cold(G.rows), eta=eta, K=K)
    gap = res.dual_value - exact.dual_value
    err = np.linalg.norm(res.projected_gradient - exact.projected_gradient)
    print(f"  K={K:3d}: dual gap {gap:.3e}   primal error {err:.3e}")

# warm starts let a tiny budget ride on the previous solution
print("\nwarm starts across repeated calls (budget K=2 each):")
state = DualState.cold(G.rows)
for call in range(4):
    res = pgd_project(g, G, state, eta=eta, K=2)
    state = res.final_lambda
    err = np.linalg.norm(res.projected_gradient - exact.projected_gradient)
    print(f"  call {call} (|lambda| {np.linalg.norm(state.lam):.3e} next): primal error {err:.3e}")

# A-GEM collapses the memory to one averaged direction
g_ref = G.data.mean(axis=0)
ag = agem_project(g, g_ref)
print("\nA-GEM against the averaged memory gradient:")
print("  g~ =", np.round(ag, 6), " (certificate g~.g_ref =", float(ag @ g_ref), ")")
