"""Sequential ridge regression with an incrementally maintained inverse.

Feeds a stream of noisy linear observations into the estimator state and
checks it against a fresh dense solve, then shows how the exploration
width shrinks as directions get covered.
"""

import numpy as np

from cbrap import RidgeState

rng = np.random.default_rng(42)
m = 6
truth = rng.standard_normal(m)
truth /= np.linalg.norm(truth)

state = RidgeState(m, lam=1.0)
A = np.eye(m)
b = np.zeros(m)

print("round | est err vs truth | est err vs dense solve | width of e1")
e1 = np.eye(m)[0]
for t in range(1, 2001):
    z = rng.standard_normal(m)
    reward = float(z @ truth) + 0.1 * rng.standard_normal()
    state.update(z, reward)
    A += np.outer(z, z)
    b += reward * z
    if t in (1, 10, 100, 500, 2000):
        dense = np.linalg.solve(A, b)
        err_truth = np.linalg.norm(state.estimate() - truth)
        err_solve = np.linalg.norm(state.estimate() - dense)
        print(f"{t:5d} | {err_truth:16.6f} | {err_solve:22.2e} "
              f"| {state.weighted_norm(e1):11.6f}")

print("\nresidual of the incrementally maintained inverse on this stream:")
print(f"max |A A_inv - I| after 2000 rank-one updates: "
      f"{np.max(np.abs(state.A @ state.A_inv - np.eye(m))):.2e}")

print("\nweighted norms upper-bound how uncertain a direction still is;")
print("an unexplored direction keeps width 1/sqrt(lam):")
fresh = RidgeState(2, lam=1.0)
fresh.update(np.array([1.0, 0.0]), 1.0)
fresh.update(np.array([1.0, 0.0]), 0.9)
print(f"  explored e1: {fresh.weighted_norm(np.array([1.0, 0.0])):.4f}")
print(f"  unexplored e2: {fresh.weighted_norm(np.array([0.0, 1.0])):.4f}")
