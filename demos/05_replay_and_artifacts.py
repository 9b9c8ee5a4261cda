"""Context replay and the experiment artifacts.

Writes a context dataset in the CSV exchange format, replays it through
the runner, and shows that reruns reproduce the per-round CSV byte for
byte.  Equivalent CLI invocation:

    cbrap run --algo cbrap-sg --n 12 --m 4 --k 3 --t 40 \
        --env replay --replay contexts.csv --seeds 5 --out out/
"""

import os
import tempfile

import numpy as np

from cbrap import (EnvConfig, ExperimentConfig, NoiseSpec, Replay,
                   ReplayDataset, load_context_dataset, load_round_csv,
                   run_experiment, save_context_dataset)

work = tempfile.mkdtemp(prefix="cbrap-demo-")
rng = np.random.default_rng(9)

T, K, n = 40, 3, 12
rows = rng.standard_normal((T * K, n))
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
ctx_path = os.path.join(work, "contexts.csv")
save_context_dataset(ReplayDataset(n=n, K=K, rows=rows), ctx_path)
print(f"wrote {T * K} context rows to {ctx_path}")

dataset = load_context_dataset(ctx_path)
print(f"reloaded: n={dataset.n}, K={dataset.K}, rounds={dataset.n_rounds}, "
      f"bit-identical={np.array_equal(dataset.rows, rows)}")

cfg = ExperimentConfig(
    env=EnvConfig(n=n, K=K, context=Replay(dataset),
                  noise=NoiseSpec.gaussian(0.1)),
    m=4, T=T, algos=("cbrap-sg",), seeds=(5,),
    out_dir=os.path.join(work, "run1"),
)
summary = run_experiment(cfg)
print(f"\nreplay run final regret: {summary.algo('cbrap-sg').final_regret_mean:.3f}")

cfg2 = ExperimentConfig(**{**cfg.__dict__, "out_dir": os.path.join(work, "run2")})
run_experiment(cfg2)
csv1 = open(os.path.join(work, "run1", "cbrap-sg_seed5.csv"), "rb").read()
csv2 = open(os.path.join(work, "run2", "cbrap-sg_seed5.csv"), "rb").read()
print(f"rerun produces byte-identical CSV: {csv1 == csv2}")

records = load_round_csv(os.path.join(work, "run1", "cbrap-sg_seed5.csv"))
print(f"\nfirst rounds of the log (t, chosen, reward, instant regret):")
for r in records[:5]:
    print(f"  {r.t:>3} {r.chosen:>3} {r.reward:+.4f} {r.instant_regret:.4f}")
print(f"\nartifacts left in {work}")
