"""Synthetic linear-payoff environments and context replay.

Rewards follow mean + noise, where the mean is the inner product of the
chosen arm's context with a hidden parameter vector and the noise is
R-sub-Gaussian.  Everything an environment produces is a pure function of
(seed, round), so any two policies run against the same seed consume
identical context and noise streams, and reruns replay exactly.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DatasetError, EndOfDataError, InvalidInputError
from .projection import SparseBlock, as_block
from .rng import (STREAM_CONTEXT, STREAM_NOISE, STREAM_THETA, RoundStreams, check_seed,
                  derive_rng)


class NoiseKind(enum.Enum):
    NONE = "none"
    GAUSSIAN = "gaussian"
    BOUNDED_UNIFORM = "bounded-uniform"


@dataclass(frozen=True)
class NoiseSpec:
    """Reward noise family; ``sub_gaussian_r`` is the R in the moment bound.

    Gaussian noise with standard deviation R is R-sub-Gaussian; uniform
    noise on [-w, w] is w-sub-Gaussian; the none kind is 0-sub-Gaussian.
    """

    kind: NoiseKind = NoiseKind.NONE
    scale: float = 0.0

    def __post_init__(self):
        if self.kind is NoiseKind.NONE:
            if self.scale != 0.0:
                raise ConfigError("noise kind 'none' takes no scale")
        elif not (self.scale > 0 and math.isfinite(self.scale)):
            raise ConfigError(f"noise scale must be finite and positive, got {self.scale}")

    @staticmethod
    def none() -> "NoiseSpec":
        return NoiseSpec(NoiseKind.NONE, 0.0)

    @staticmethod
    def gaussian(r: float) -> "NoiseSpec":
        return NoiseSpec(NoiseKind.GAUSSIAN, float(r))

    @staticmethod
    def bounded_uniform(half_width: float) -> "NoiseSpec":
        return NoiseSpec(NoiseKind.BOUNDED_UNIFORM, float(half_width))

    @property
    def sub_gaussian_r(self) -> float:
        return self.scale


@dataclass(frozen=True)
class GaussianUnit:
    """Isotropic contexts normalized to unit length."""


@dataclass(frozen=True)
class SparseUniform:
    """Contexts with exactly ``nnz`` nonzero coordinates, unit length."""

    nnz: int = 5


@dataclass(frozen=True)
class AlignedSpread:
    """Well-separated contexts: mean rewards spread uniformly over [low, high].

    Each arm is c * u + w with u the hidden parameter direction, c drawn
    uniformly from [low, high] and w a length-``noise_scale`` perturbation
    orthogonal to u, so the arm's mean reward is exactly c * ||theta*||.
    Gaps between arms are order (high-low)/K rather than the 1/sqrt(n) of
    isotropic contexts.

    With ``nuisance_dim`` = 0 the perturbation is isotropic and fresh each
    round; with d > 0 it lives in a fixed d-dimensional subspace drawn once
    per environment, giving the estimator reward-irrelevant structure it
    can (and must) learn to ignore.
    """

    low: float = 0.0
    high: float = 0.95
    noise_scale: float = 0.2
    nuisance_dim: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.low, self.high, self.noise_scale))):
            raise ConfigError("low, high and noise_scale must be finite")
        if not 0.0 <= self.low < self.high:
            raise ConfigError("need 0 <= low < high")
        if self.noise_scale < 0:
            raise ConfigError("noise_scale must be nonnegative")
        if self.nuisance_dim < 0:
            raise ConfigError("nuisance_dim must be nonnegative")


@dataclass(frozen=True)
class ReplayDataset:
    """In-memory context dataset: K rows per round, each of length n."""

    n: int
    K: int
    rows: np.ndarray  # (n_rounds * K, n), read-only

    @property
    def n_rounds(self) -> int:
        return self.rows.shape[0] // self.K


@dataclass(frozen=True)
class Replay:
    """Context generator that replays a fixed dataset round by round."""

    dataset: ReplayDataset


ContextGen = GaussianUnit | SparseUniform | AlignedSpread | Replay

# The one table of context-generator names, used by config files and the CLI.
# A synthetic generator's fields are its config fields; replay reads a file.
CONTEXT_GENERATORS: dict[str, type] = {
    "gaussian-unit": GaussianUnit,
    "sparse-uniform": SparseUniform,
    "aligned-spread": AlignedSpread,
    "replay": Replay,
}


@dataclass(frozen=True)
class RoundRecord:
    """One row of a run log.

    ``ucb_gap`` is the chosen arm's score minus the best other arm's score
    (inf for a single arm); ``instant_regret`` compares expected rewards,
    not noisy realizations.  ``elapsed_ns`` is the round's shared work (draw,
    ``mean_rewards``, ``noise_draw``) plus this policy's own select, update,
    observer call and record: in a lockstep run it still reads as one round
    of this policy, though a heavy co-runner (LinUCB at large n) slows it by
    evicting the caches the next draw uses.
    """

    t: int
    chosen: int
    reward: float
    instant_regret: float
    ucb_gap: float
    elapsed_ns: int


@dataclass(frozen=True)
class EnvConfig:
    """Environment description; synthetic generators keep every ||x|| <= 1,
    which makes the norm bounds the theory formulas need easy to certify."""

    n: int
    K: int
    context: ContextGen = field(default_factory=GaussianUnit)
    noise: NoiseSpec = field(default_factory=NoiseSpec.none)
    seed: int = 0
    theta_norm: float = 1.0

    def __post_init__(self):
        # every check runs while the config is read, before any artifact exists
        if self.n < 1 or self.K < 1:
            raise ConfigError(f"n and K must be >= 1, got n={self.n}, K={self.K}")
        ctx = self.context
        if isinstance(ctx, SparseUniform) and not 1 <= ctx.nnz <= self.n:
            raise ConfigError(f"nnz must lie in [1, n], got {ctx.nnz}")
        if isinstance(ctx, AlignedSpread) and ctx.nuisance_dim > self.n - 1:
            raise ConfigError(f"nuisance_dim must be <= n-1, got {ctx.nuisance_dim}")
        if isinstance(ctx, Replay) and (ctx.dataset.n, ctx.dataset.K) != (self.n, self.K):
            raise ConfigError(
                f"replay dataset is (n={ctx.dataset.n}, K={ctx.dataset.K}), config "
                f"wants (n={self.n}, K={self.K})")
        try:
            check_seed(self.seed)
        except InvalidInputError as exc:
            raise ConfigError(f"seed: {exc}") from exc
        if not (self.theta_norm > 0 and math.isfinite(self.theta_norm)):
            raise ConfigError(
                f"theta_norm must be finite and positive, got {self.theta_norm}")


class Environment:
    """Linear-payoff environment with a hidden parameter vector.

    ``theta_star`` is ground truth: policies never read it, but oracles,
    regret accounting and the theory validators do.  Draws are pure in
    (seed, t); do not draw from one instance on two threads at once.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.n = cfg.n
        self.K = cfg.K
        self.seed = cfg.seed
        self.noise = cfg.noise
        raw = derive_rng(cfg.seed, STREAM_THETA).standard_normal(cfg.n)
        self.theta_star = raw * (cfg.theta_norm / np.linalg.norm(raw))
        self.theta_star.setflags(write=False)
        self._nuisance_basis: np.ndarray | None = None
        if isinstance(cfg.context, AlignedSpread) and cfg.context.nuisance_dim > 0:
            # fixed orthonormal directions orthogonal to theta*, drawn once
            d = cfg.context.nuisance_dim
            u = self.theta_star / np.linalg.norm(self.theta_star)
            G = derive_rng(cfg.seed, STREAM_THETA, 1).standard_normal((cfg.n, d))
            Q, _ = np.linalg.qr(np.column_stack([u, G]))
            self._nuisance_basis = np.ascontiguousarray(Q[:, 1:].T)  # (d, n)

    # round t's generators, built on the first draw: derive_rng(seed, stream, t)
    @functools.cached_property
    def _context_rng(self) -> RoundStreams:
        return RoundStreams(self.seed, STREAM_CONTEXT)

    @functools.cached_property
    def _noise_rng(self) -> RoundStreams:
        return RoundStreams(self.seed, STREAM_NOISE)

    def draw_round(self, t: int) -> np.ndarray | SparseBlock:
        """The K contexts revealed at round t (1-based), as one read-only block.

        Dense generators give a (K, n) float64 array and replay gives a view
        of the dataset's rows for round t; SparseUniform gives a SparseBlock
        of (K, nnz) indices and values.  Either iterates as K dense rows, and
        every synthetic row has norm <= 1.
        """
        if t < 1:
            raise InvalidInputError(f"round index must be >= 1, got {t}")
        gen = self.cfg.context
        if isinstance(gen, Replay):
            rows = gen.dataset.rows
            lo, hi = (t - 1) * self.K, t * self.K
            if hi > rows.shape[0]:
                raise EndOfDataError(
                    f"replay dataset has {gen.dataset.n_rounds} rounds, round {t} requested"
                )
            return as_block(rows[lo:hi], self.n)
        rng = self._context_rng(t)
        if isinstance(gen, GaussianUnit):
            X = rng.standard_normal((self.K, self.n))
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            X = np.divide(X, norms, out=X, where=norms > 0)
            return as_block(X, self.n)
        if isinstance(gen, SparseUniform):
            indices = np.empty((self.K, gen.nnz), dtype=np.int64)
            values = np.empty((self.K, gen.nnz))
            for k in range(self.K):  # per-arm draws keep the stream's call order
                indices[k] = np.sort(rng.choice(self.n, size=gen.nnz, replace=False))
                vals = rng.uniform(-1.0, 1.0, size=gen.nnz)
                nv = math.sqrt(vals @ vals)  # np.linalg.norm(vals), bit for bit
                values[k] = vals / nv if nv > 0 else vals
            return SparseBlock(self.n, indices, values)
        if isinstance(gen, AlignedSpread):
            u = self.theta_star / np.linalg.norm(self.theta_star)
            c = rng.uniform(gen.low, gen.high, size=self.K)
            if self._nuisance_basis is not None:
                coef = rng.standard_normal((self.K, gen.nuisance_dim))
                W = coef @ self._nuisance_basis
            else:
                W = rng.standard_normal((self.K, self.n))
                W -= np.outer(W @ u, u)
            wn = np.linalg.norm(W, axis=1, keepdims=True)
            W = np.divide(W, wn, out=W, where=wn > 0) * gen.noise_scale
            X = c[:, None] * u + W
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            np.divide(X, norms, out=X, where=norms > 1.0)
            return as_block(X, self.n)
        raise ConfigError(f"unknown context generator: {gen!r}")

    def noise_draw(self, t: int) -> float:
        """The round-t noise value; one draw per round, shared by all arms."""
        spec = self.noise
        if spec.kind is NoiseKind.NONE:
            return 0.0
        rng = self._noise_rng(t)
        if spec.kind is NoiseKind.GAUSSIAN:
            return float(rng.standard_normal() * spec.scale)
        return float(rng.uniform(-spec.scale, spec.scale))

    @staticmethod
    def _check_arm(rows, chosen: int) -> None:
        if not 0 <= chosen < len(rows):
            raise InvalidInputError(f"arm index {chosen} out of range [0, {len(rows)})")

    def mean_rewards(self, contexts) -> np.ndarray:
        """Expected rewards <x, theta*> of every row of a block of contexts.

        The rows are a stack of vector-vector products, which runs the dot
        kernel once per row: each mean equals its row's own x @ theta* bit
        for bit.  One matrix-vector product over the block can differ in
        the last bit, and would change the logged rewards and regrets.
        """
        block = as_block(contexts, self.n)
        if isinstance(block, SparseBlock):
            rows, theta = block.values, self.theta_star[block.indices][:, :, None]
        else:
            rows, theta = block, self.theta_star[:, None]
        return (rows[:, None, :] @ theta)[:, 0, 0]

    def realize_reward(self, contexts, chosen: int, t: int) -> float:
        """Noisy reward <x, theta*> + eta_t of the chosen row of a round's block."""
        if t < 1:
            raise InvalidInputError(f"round index must be >= 1, got {t}")
        block = as_block(contexts, self.n)
        self._check_arm(block, chosen)
        if isinstance(block, SparseBlock):
            x, theta = block.values[chosen], self.theta_star[block.indices[chosen]]
        else:
            x, theta = block[chosen], self.theta_star
        return float(x @ theta) + self.noise_draw(t)

    def instant_regret(self, contexts, chosen: int) -> float:
        """Best expected reward in a round's block minus the chosen row's."""
        means = self.mean_rewards(contexts)
        self._check_arm(means, chosen)
        return max(0.0, float(means.max()) - float(means[chosen]))


def make_env(spec: EnvConfig | dict) -> Environment:
    """Build an environment from a config object or an equivalent dict."""
    if isinstance(spec, dict):
        spec = env_config_from_dict(spec)
    if not isinstance(spec, EnvConfig):
        raise ConfigError(f"expected EnvConfig or dict, got {type(spec).__name__}")
    return Environment(spec)


def pop_number(d: dict, key: str, kind: type, default=None):
    """Pop a config field and convert it with ``kind`` (int, float or bool).

    A missing field without a default, a value ``kind`` cannot convert, a
    number with a fractional part for an int field, a JSON boolean for a
    number, or anything but a JSON boolean for a bool field is a ConfigError
    naming the field.
    """
    value = d.pop(key, default)
    if isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from exc
    if kind is int and not isinstance(value, str) and number != value:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    return number


def env_config_from_dict(d: dict) -> EnvConfig:
    """Parse the JSON-friendly environment description used by config files."""
    if not isinstance(d, dict):
        raise ConfigError(f"env config must be an object, got {d!r}")
    d = dict(d)
    n = pop_number(d, "n", int)
    K = pop_number(d, "k", int, d.pop("K", None))
    ctx_name = str(d.pop("context", "gaussian-unit"))
    gen = CONTEXT_GENERATORS.get(ctx_name)
    if gen is None:
        raise ConfigError(f"unknown context generator '{ctx_name}'")
    if gen is Replay:
        path = d.pop("replay_path", None)
        if path is None:
            raise ConfigError("context 'replay' requires 'replay_path'")
        context: ContextGen = Replay(load_context_dataset(path))
    else:
        context = gen(**{f.name: pop_number(d, f.name, type(f.default), f.default)
                         for f in fields(gen)})
    noise_name = str(d.pop("noise", "none"))
    if noise_name == "none":
        noise = NoiseSpec.none()
    elif noise_name == "gaussian":
        noise = NoiseSpec.gaussian(pop_number(d, "noise_r", float, 0.1))
    elif noise_name == "bounded-uniform":
        noise = NoiseSpec.bounded_uniform(pop_number(d, "noise_r", float, 0.1))
    else:
        raise ConfigError(f"unknown noise kind '{noise_name}'")
    cfg = EnvConfig(n=n, K=K, context=context, noise=noise,
                    seed=pop_number(d, "seed", int, 0),
                    theta_norm=pop_number(d, "theta_norm", float, 1.0))
    if d:
        raise ConfigError(f"unknown env config fields: {sorted(d)}")
    return cfg


# --- context dataset CSV: header "dim=<n>,arms=<K>", then K rows per round ---

def load_context_dataset(path: str) -> ReplayDataset:
    """Read a context CSV, reporting the offending line on any parse failure."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetError(f"{path}: empty file")
    header = lines[0].strip()
    try:
        fields = dict(part.split("=", 1) for part in header.split(","))
        n, K = int(fields["dim"]), int(fields["arms"])
    except (ValueError, KeyError) as exc:
        raise DatasetError(
            f"{path}: line 1: expected header 'dim=<n>,arms=<K>', got {header!r}"
        ) from exc
    if n < 1 or K < 1:
        raise DatasetError(f"{path}: line 1: dim and arms must be >= 1")
    rows = np.empty((len(lines) - 1, n))
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n:
            raise DatasetError(f"{path}: line {i}: expected {n} values, got {len(parts)}")
        try:
            rows[i - 2] = [float(p) for p in parts]
        except ValueError as exc:
            raise DatasetError(f"{path}: line {i}: {exc}") from exc
        if not np.all(np.isfinite(rows[i - 2])):
            raise DatasetError(f"{path}: line {i}: non-finite value")
    if rows.shape[0] % K != 0:
        raise DatasetError(
            f"{path}: {rows.shape[0]} data rows not divisible by arms={K}"
        )
    rows.setflags(write=False)
    return ReplayDataset(n=n, K=K, rows=rows)


def save_context_dataset(dataset: ReplayDataset, path: str) -> None:
    """Write a dataset in the replay CSV format (LF endings, trailing newline)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"dim={dataset.n},arms={dataset.K}\n")
        for row in dataset.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
