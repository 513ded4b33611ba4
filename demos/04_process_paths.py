"""Tour of the counting process.

Trajectories are piecewise-constant, nondecreasing step functions:
bursts arrive at a constant rate and each carries a batch of points.
The count at time t follows the counting law with rate alpha*t.
"""

import numpy as np

import bellproc as bp
from bellproc.verify import chisq_pvalue_vs_table

params = bp.validate(1.0, 1.0, 0.5)

print("=" * 64)
print("one trajectory on [0, 4] (alpha=1, theta=1, lam=1/2)")
print("=" * 64)
path = bp.simulate_path(params, 4.0, bp.RngStream(11))
print("      time  size  count")
for t, size, count in zip(path.times.tolist(), path.sizes.tolist(), path.cumulative.tolist()):
    print(f"  {t:8.6f}  {size:>4}  {count:>5}")
grid = np.linspace(0.0, 4.0, 17)
line = "".join(str(min(bp.count_at(path, t), 9)) for t in grid)
print(f"  count along t=0..4:  {line}")

print()
print("=" * 64)
print("marginal law: counts at t = 1 across 50k paths vs the table")
print("=" * 64)
rng = bp.RngStream(31337)
counts = bp.simulate_paths(params, 1.0, 50_000, rng).counts_at([1.0])[:, 0]
table = bp.build_pmf_table(params)
for k in range(6):
    emp = float((counts == k).mean())
    print(f"  k={k}: empirical {emp:.4f}   analytic {float(table.probs[k]):.4f}")
print(f"  chi-square p-value: {chisq_pvalue_vs_table(counts, table):.4f}")

print()
print("=" * 64)
print("superposition: independent rate-1 and rate-2 processes merge")
print("=" * 64)
rng_a, rng_b = bp.RngStream(1).split(0), bp.RngStream(1).split(1)
p2 = bp.validate(2.0, 1.0, 0.5)
merged = bp.superpose(
    [bp.simulate_path(params, 2.0, rng_a), bp.simulate_path(p2, 2.0, rng_b)]
)
print(f"  merged rate parameter: {merged.params.alpha}")
print(f"  bursts: {len(merged.times)}, times sorted: {(np.diff(merged.times) > 0).all()}")
try:
    bp.superpose(
        [
            bp.simulate_path(params, 2.0, rng_a),
            bp.simulate_path(bp.validate(1.0, 0.7, 0.5), 2.0, rng_b),
        ]
    )
except bp.IncompatibleParametersError:
    print("  merging with a theta = 0.7 process is refused: not in the family")

print()
print("=" * 64)
print("Laplace functional: Monte Carlo vs the closed form")
print("=" * 64)
for x in (0.25, 0.7, 1.5):
    mc = float(np.exp(-x * counts).mean())
    closed = bp.laplace_functional(params, 1.0, x)
    print(f"  x={x}: MC {mc:.6f}   closed form {closed:.6f}")

print()
print("=" * 64)
print("order one is a plain Poisson process: unit jumps, exponential gaps")
print("=" * 64)
poisson_path = bp.simulate_path(bp.validate(1.5, 1.0, 1.0), 1000.0, bp.RngStream(5))
gaps = np.diff(np.concatenate([[0.0], poisson_path.times]))
print(f"  jump sizes all 1: {(poisson_path.sizes == 1).all()}")
print(f"  mean gap {gaps.mean():.4f}  (1/rate = {1 / 1.5:.4f})")
