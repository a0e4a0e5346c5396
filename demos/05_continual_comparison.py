# Head-to-head continual run: plain fine-tuning vs exact GEM projection
# vs the fixed-budget iterative projector, on the default drifted stream.
# Prints the accuracy matrices and the full metric table.

import numpy as np

from gemproj import StreamSpec, TrainConfig, generate_stream, prepare_model, run_experiences
from gemproj.metrics import compute_all

SEED = 0
spec = StreamSpec(seed=SEED)
stream = generate_stream(spec)
print(f"stream: {spec.n_experiences} experiences x {spec.n_per_experience} rows, "
      f"presented order {[s.experience_id for s in stream]}")

results = {}
for method in ("naive", "gem_exact", "igem"):
    model = prepare_model(spec, SEED)  # same pretrained base for every method
    cfg = TrainConfig(method=method, seed=SEED, optimizer="adamw")
    matrix, log = run_experiences(cfg, stream, model)
    results[method] = (matrix, compute_all(matrix, log.proj_times, n_classes=spec.n_classes))

for method, (matrix, _) in results.items():
    print(f"\naccuracy matrix for {method} (row 0 = frozen-base baseline):")
    for j, row in enumerate(matrix.R):
        label = "base " if j == 0 else f"T{j}   "
        print(f"  {label}" + "  ".join(f"{v:.3f}" for v in row))

print("\nmethod      avg_acc   bwt       fwt      forgetting   mpo")
for method, (_, m) in results.items():
    mpo = f"{m['mpo']:.2e}" if m["mpo"] is not None else "    -   "
    print(f"{method:10s}  {m['avg_acc']:.4f}  {m['bwt']:+.4f}  {m['fwt']:+.4f}   "
          f"{m['forgetting']:.4f}      {mpo}")

fgt = {m: r[1]["forgetting"] for m, r in results.items()}
print(f"\nprojection helps: forgetting naive {fgt['naive']:.4f} vs "
      f"gem_exact {fgt['gem_exact']:.4f} vs igem {fgt['igem']:.4f}")
print("(the iterative projector matches the exact QP at a fraction of its cost; for the "
      "timing side run `pytest -v -s tests/test_acceptance.py -k \"07 or 08\"` or "
      "`python3 perfbench/run.py --workload projector`)")
