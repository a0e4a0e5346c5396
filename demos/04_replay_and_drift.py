# The synthetic domain-drift stream (same classes, shifting priors) and
# the label-balanced replay buffers that feed the constraint matrix.

import numpy as np

from gemproj import (
    ModelConfig,
    ReplayBuffer,
    StreamSpec,
    backward,
    build_constraint_matrix,
    build_model,
    generate_stream,
)

spec = StreamSpec(seed=0, n_per_experience=600, feature_dim=8)
stream = generate_stream(spec)

print("per-experience label histograms (priors drift across experiences):")
for split in stream:
    y = np.concatenate([split.train_y, split.test_y])
    counts = np.bincount(y, minlength=spec.n_classes)
    bars = "  ".join(f"{c}:{'#' * (n // 20)}{n:4d}" for c, n in enumerate(counts))
    print(f"  experience {split.experience_id} (presented order): {bars}")

print("\ntrain/test are split 80/20 from disjoint row pools:")
for split in stream:
    print(f"  experience {split.experience_id}: {split.n_train} train / {split.n_test} test")

# fill balanced buffers from two tasks
model = build_model(ModelConfig(input_dim=8, hidden_dim=6, n_classes=4, rank=2), seed=0)
buf = ReplayBuffer(capacity_per_task=20, total_cap=30)
for task, split in enumerate(stream[:2]):
    buf.insert(task, split.train_x[:200], split.train_y[:200])
    labels, counts = np.unique(buf.examples(task)[1], return_counts=True)
    print(f"\nbuffer for task {task}: {buf.size(task)} examples, "
          f"per-label {dict(zip(labels.tolist(), counts.tolist()))}")
print(f"total stored = {sum(buf.size(t) for t in buf.tasks())} (cap {buf.total_cap}; largest task "
      "sheds its oldest entries first)")

G = build_constraint_matrix(buf, model, tasks=[0, 1])
print(f"\nconstraint matrix: {G.rows} x {G.dim}, row norms "
      f"{np.round(np.linalg.norm(G.data, axis=1), 9)}")

_, raw = backward(model, *buf.examples(0))
print(f"row 0 is task 0's averaged adapter gradient, rescaled: "
      f"cos = {raw @ G.data[0] / np.linalg.norm(raw):.9f}")
