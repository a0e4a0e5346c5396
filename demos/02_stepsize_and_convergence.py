# The dual stepsize comes from a power-iteration estimate of
# sigma_max(G G'); this script shows the estimate's quality, the derived
# stepsize, monotone dual descent, and the O(1/K) optimality gap.

import numpy as np

from gemproj import (
    ConstraintMatrix,
    DualState,
    dual_objective,
    exact_qp_project,
    pgd_project,
    power_iteration,
    stepsize,
)

rng = np.random.default_rng(1)
G = ConstraintMatrix.from_rows(rng.standard_normal((6, 40)), normalize=True)
g = rng.standard_normal(40)

truth = np.linalg.eigvalsh(G.data @ G.data.T)[-1]
print(f"true sigma_max(GG') = {truth:.6f} (dense eigensolve oracle)")
for iters in (1, 2, 3, 5, 10):
    sigma = power_iteration(G, iters=iters, seed=0)
    print(f"  power iteration x{iters:2d}: {sigma:.6f} "
          f"(never exceeds the truth)")

eta = stepsize(power_iteration(G, iters=3, seed=0), c=0.7)
print(f"\nstepsize eta = 0.7 / sigma_hat = {eta:.4f}")

# monotone descent of the dual objective along the PGD trajectory
state = DualState.cold(G.rows)
f_prev = dual_objective(state.lam, G, g)
print("\ndual objective trajectory (must never increase):")
for k in range(8):
    res = pgd_project(g, G, state, eta=eta, K=1)
    print(f"  k={k}: F = {res.dual_value:+.9f}  (delta {res.dual_value - f_prev:+.2e})")
    f_prev, state = res.dual_value, res.final_lambda

# the O(1/K) bound, with the optimum from the exact oracle
lam_star = exact_qp_project(g, G).final_lambda.lam
f_star = dual_objective(lam_star, G, g)
print("\nO(1/K) optimality gap vs the theoretical budget bound (eta = 1/L):")
for K in (1, 2, 4, 8, 16, 32):
    res = pgd_project(g, G, DualState.cold(G.rows), eta=1.0 / truth, K=K)
    bound = truth * lam_star.dot(lam_star) / (2 * K)
    print(f"  K={K:3d}: gap {res.dual_value - f_star:.3e}  <=  bound {bound:.3e}")
