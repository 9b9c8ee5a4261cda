"""Random projection matrices and what they do to inner products.

Builds the three matrix constructions, shows that regeneration from the
same seed is exact, and compares empirical distortion tails against the
closed-form bound.
"""

import numpy as np

from cbrap import (ProjectionKind, build_projection, inner_product_error,
                   kaban_failure_bound, project_rows, sg_distortion_sample)

rng = np.random.default_rng(0)

print("=== constructions ===")
for kind in ProjectionKind:
    P = build_projection(kind, m=8, n=64, seed=7)
    vals = np.unique(np.round(P.entries, 6))
    print(f"{kind.value:10s} entries: mean {P.entries.mean():+.4f}, "
          f"var*m {P.entries.var() * 8:.4f}, distinct values {len(vals)}")

P = build_projection(ProjectionKind.STANDARD_GAUSSIAN, m=8, n=64, seed=7)
P_again = build_projection(ProjectionKind.STANDARD_GAUSSIAN, m=8, n=64, seed=7)
print(f"\nsame seed rebuilds bit-identically: "
      f"{np.array_equal(P.entries, P_again.entries)}")

print("\n=== the map z = Mx ===")
x = rng.standard_normal(64)
z = project_rows(P, x)[0]  # a single context is a 1-row block
print(f"x in R^64 with |x| = {np.linalg.norm(x):.4f} "
      f"-> z in R^{len(z)} with |z| = {np.linalg.norm(z):.4f}")

print("\n=== inner-product distortion ===")
print("for unit vectors the normalized error |<x,t> - <Mx,Mt>| concentrates")
print("around sqrt(1/m); the tail beyond eps1 is bounded by 2 exp(-m eps1^2/8)\n")
print(f"{'m':>5} {'eps1':>6} {'empirical P(err > eps1)':>24} {'bound':>10}")
for m in (8, 32, 128):
    errs = sg_distortion_sample(m, n=m, trials=20_000, seed=1)
    for eps1 in (0.5, 1.0):
        rate = float(np.mean(errs > eps1))
        print(f"{m:>5} {eps1:>6.2f} {rate:>24.5f} "
              f"{kaban_failure_bound(m, eps1):>10.5f}")

print("\nsingle-pair check through the public API:")
x, t = rng.standard_normal(64), rng.standard_normal(64)
for m in (4, 16, 64):
    P = build_projection(ProjectionKind.STANDARD_GAUSSIAN, m, 64, seed=3)
    print(f"  m={m:>3}: inner_product_error = {inner_product_error(P, x, t):.4f}")
