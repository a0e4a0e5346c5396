# The tiny frozen-base + low-rank-adapter classifier: the flat adapter
# vector phi as the model's only parameter store, exact manual backprop
# checked against finite differences, and the adapter/full-space chain-rule
# identity.

import numpy as np

from gemproj import (
    ModelConfig,
    adapter_dim,
    backward,
    build_model,
    get_adapter_params,
    jacobian_apply,
    jacobian_transpose_apply,
    set_adapter_params,
    weight_space_gradient,
)

config = ModelConfig(input_dim=8, hidden_dim=6, n_classes=3, rank=2, alpha=8.0)
model = build_model(config, seed=0)
print(f"model: {config.input_dim}->{config.hidden_dim}->{config.n_classes}, "
      f"rank {config.rank}, d_phi = {adapter_dim(model)}")

rng = np.random.default_rng(0)
set_adapter_params(model, model.phi + 0.05 * rng.standard_normal(model.phi.size))  # generic point

# every layer's B and A are views into model.phi: writing phi moves them
layer = model.layers[0]
print(f"layer 0: B {layer.B.shape} and A {layer.A.shape} share phi's memory: "
      f"{np.shares_memory(layer.B, model.phi) and np.shares_memory(layer.A, model.phi)}")
snapshot = get_adapter_params(model)  # a copy, unaffected by later writes

X = rng.standard_normal((10, 8))
y = rng.integers(0, 3, size=10)

loss, g = backward(model, X, y)
print(f"\nbatch loss = {loss:.6f}, ||g_phi|| = {np.linalg.norm(g):.6f}")

# central differences as an independent oracle for a few coordinates,
# perturbing phi in place and restoring it
step = 1e-5
print("coordinate   backward      central-diff")
for j in (0, 7, 42, adapter_dim(model) - 1):
    saved = model.phi[j]
    vals = []
    for sign in (+1, -1):
        model.phi[j] = saved + sign * step
        vals.append(backward(model, X, y)[0])
    model.phi[j] = saved
    fd = (vals[0] - vals[1]) / (2 * step)
    print(f"  {j:9d}  {g[j]:+.8f}  {fd:+.8f}")
print(f"phi restored exactly: {np.array_equal(model.phi, snapshot)}")

# chain rule: pulling the full-weight gradient back through the adapter
# Jacobian reproduces backward exactly
g_full = weight_space_gradient(model, X, y)
pulled = jacobian_transpose_apply(model, g_full)
print(f"\nmax |backward - J'g_full| = {np.abs(g - pulled).max():.2e}")

# adjoint identity: <g_full, J dphi> == <J' g_full, dphi>
dphi = rng.standard_normal(adapter_dim(model))
lhs = g_full @ jacobian_apply(model, dphi)
rhs = pulled @ dphi
print(f"adjoint identity mismatch = {abs(lhs - rhs):.2e}")
