"""Synthetic linear-payoff environments and context replay.

Rewards follow mean + noise, where the mean is the inner product of the
chosen arm's context with a hidden parameter vector and the noise is
R-sub-Gaussian.  Everything an environment produces is a pure function of
(seed, round), so any two policies run against the same seed consume
identical context and noise streams, and reruns replay exactly.  An
environment is also a run's round source (``Environment._tables``): it cuts
rounds 1..T into tables and draws each, with its means and noise, at once.
"""

from __future__ import annotations

import enum
import os
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (ConfigError, DatasetError, EndOfDataError, InvalidInputError,
                     check_array, check_count, check_int, check_real, check_type)
from .projection import SparseBlock, _row_norms, as_block
from .rng import (STREAM_CONTEXT, STREAM_NOISE, STREAM_THETA, _UINT64_MAX, _sparse_rounds,
                  check_seed, derive_rng, round_rngs)

_TABLE_BYTES = 1 << 16  # indices and values of a table of sparse rounds
_DENSE_TABLE_BYTES = 1 << 18  # contexts of a table of dense rounds
# a norm below which squares lose bits to subnormals: at norm^2 = 2^-970, each
# square's underflow costs at most 2^-105 of it
_TINY_NORM = 2.0 ** -485

# Rounds ts drawn as one table: (ts, the table, its (len(ts), K) means, its
# noise).  A dense table is a (len(ts), K, n) array, a sparse one a SparseBlock
# of len(ts) * K rows.
Table = tuple[range, "np.ndarray | SparseBlock", np.ndarray, list]


class NoiseKind(enum.Enum):
    NONE = "none"
    GAUSSIAN = "gaussian"
    BOUNDED_UNIFORM = "bounded-uniform"

    @classmethod
    def _missing_(cls, value):
        raise ConfigError(f"unknown noise kind {value!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Reward noise family; ``sub_gaussian_r`` is the R in the moment bound.

    Gaussian noise with standard deviation R is R-sub-Gaussian; uniform
    noise on [-w, w] is w-sub-Gaussian; the none kind is 0-sub-Gaussian.
    """

    kind: NoiseKind = NoiseKind.NONE
    scale: float = 0.0

    def __post_init__(self):
        none = check_type(self.kind, NoiseKind, "kind", ConfigError) is NoiseKind.NONE
        scale = check_real(self.scale, "noise scale", ConfigError, positive=not none)
        if none and scale != 0.0:
            raise ConfigError("noise kind 'none' takes no scale")
        object.__setattr__(self, "scale", scale)  # a float, whatever real was given

    @staticmethod
    def none() -> "NoiseSpec":
        return NoiseSpec(NoiseKind.NONE, 0.0)

    @staticmethod
    def gaussian(r: float) -> "NoiseSpec":
        return NoiseSpec(NoiseKind.GAUSSIAN, r)

    @staticmethod
    def bounded_uniform(half_width: float) -> "NoiseSpec":
        return NoiseSpec(NoiseKind.BOUNDED_UNIFORM, half_width)

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

    def __post_init__(self):
        check_int(self.nnz, "nnz", ConfigError)


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
        check_count(self.nuisance_dim, "nuisance_dim", ConfigError, lo=0)
        for value in (self.low, self.high, self.noise_scale):
            check_real(value, "low, high and noise_scale", ConfigError)
        if not 0.0 <= self.low < self.high:
            raise ConfigError("need 0 <= low < high")
        if self.noise_scale < 0:
            raise ConfigError("noise_scale must be nonnegative")


@dataclass(frozen=True)
class ReplayDataset:
    """In-memory context dataset: K rows per round, each of length n, checked."""

    n: int
    K: int
    rows: np.ndarray  # (n_rounds * K, n), read-only

    def __post_init__(self):
        rows = as_block(self.rows, check_count(self.n, "n", DatasetError))
        if len(rows) % check_count(self.K, "K", DatasetError):
            raise DatasetError(f"{len(rows)} data rows not divisible by arms={self.K}")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rounds(self) -> int:
        return self.rows.shape[0] // self.K


@dataclass(frozen=True)
class Replay:
    """Context generator that replays a fixed dataset round by round."""

    dataset: ReplayDataset

    def __post_init__(self):
        check_type(self.dataset, ReplayDataset, "dataset", ConfigError)


ContextGen = GaussianUnit | SparseUniform | AlignedSpread | Replay

# The one table of context-generator names, used by config files and the CLI.
# A synthetic generator's fields are its config fields; replay reads a file.
CONTEXT_GENERATORS: dict[str, type] = {
    "gaussian-unit": GaussianUnit,
    "sparse-uniform": SparseUniform,
    "aligned-spread": AlignedSpread,
    "replay": Replay,
}


class RoundRecord(NamedTuple):
    """One row of a run log, as an immutable named tuple that holds its
    fields as given.

    ``ucb_gap`` is the chosen arm's score minus the best other arm's score
    (inf for a single arm); ``instant_regret`` compares expected rewards,
    not noisy realizations.  ``elapsed_ns`` is the round's shared work (the
    wait for the round from its source) plus this policy's own select,
    update and record: in a lockstep run it still reads as one round of
    this policy, though a heavy co-runner (LinUCB at large n) slows it by
    evicting the caches the next draw uses.  The round source
    (``Environment._tables``) draws rounds a table at a time, and each
    policy prepares a table once, so the first round of each table also
    carries the wait for that table (its whole draw, means and noise where
    the table is drawn inline, what is left of them where the pool drew it
    ahead) and this policy's step on it: in a projected policy, the
    table's projection, dense or sparse.  A per-round p99 therefore shows
    table refills; the mean over a run is unaffected.  The round loop logs ``reward`` and
    ``instant_regret`` as Python floats, whatever its source yields.
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
        if check_int(self.n, "n", ConfigError) < 1 or check_int(self.K, "K", ConfigError) < 1:
            raise ConfigError(f"n and K must be >= 1, got n={self.n}, K={self.K}")
        ctx = check_type(self.context, tuple(CONTEXT_GENERATORS.values()), "context",
                         ConfigError)
        if isinstance(ctx, SparseUniform) and not 1 <= ctx.nnz <= self.n:
            raise ConfigError(f"nnz must lie in [1, n], got {ctx.nnz}")
        if isinstance(ctx, AlignedSpread) and ctx.nuisance_dim > self.n - 1:
            raise ConfigError(f"nuisance_dim must be <= n-1, got {ctx.nuisance_dim}")
        if isinstance(ctx, Replay) and (ctx.dataset.n, ctx.dataset.K) != (self.n, self.K):
            raise ConfigError(
                f"replay dataset is (n={ctx.dataset.n}, K={ctx.dataset.K}), config "
                f"wants (n={self.n}, K={self.K})")
        check_type(self.noise, NoiseSpec, "noise", ConfigError)
        check_seed(self.seed, "seed", ConfigError)
        check_real(self.theta_norm, "theta_norm", ConfigError, positive=True)


class Environment:
    """Linear-payoff environment with a hidden parameter vector.

    ``theta_star`` is ground truth: policies never read it, but oracles,
    regret accounting and the theory validators do.  Draws are pure in
    (seed, t), from fresh ``rng.round_rngs`` generators, and the instance
    sets no attribute after ``__init__``, so any draw may run on any thread.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = check_type(cfg, EnvConfig, "cfg", ConfigError)
        self.n = int(cfg.n)  # numpy integers pass the config, and uint8 arithmetic wraps
        self.K = int(cfg.K)
        self.seed = cfg.seed
        self.noise = cfg.noise
        raw = derive_rng(cfg.seed, STREAM_THETA).standard_normal(cfg.n)
        # the scale as a Python float: numpy's division bit for bit, without its warning
        scale = float(cfg.theta_norm) / float(np.linalg.norm(raw))
        with np.errstate(over="ignore", invalid="ignore"):
            self.theta_star = raw * scale
        if not np.isfinite(self.theta_star).all():
            raise ConfigError(f"theta_norm: {cfg.theta_norm} overflows theta*")
        self.theta_star.setflags(write=False)
        self._nuisance_basis: np.ndarray | None = None
        if isinstance(cfg.context, AlignedSpread):
            # theta*'s unit direction, the axis of every round, computed once;
            # the norm squares through dot, so a finite theta* can overflow it
            # (theta_norm above about 1.3e154).  Below _TINY_NORM squares
            # fall into subnormals, so theta* is first divided by its largest
            # magnitude; above it every axis keeps its bits
            axis = self.theta_star
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(axis)
            if norm < _TINY_NORM and (top := np.abs(axis).max()) > 0.0:
                axis = axis / top
                norm = np.linalg.norm(axis)
            if not 0.0 < norm < np.inf:
                raise ConfigError(f"theta_norm: {cfg.theta_norm} gives ||theta*|| = {norm}, "
                                  "which AlignedSpread cannot normalize")
            self._direction = u = axis / norm
            if (d := cfg.context.nuisance_dim) > 0:
                # fixed orthonormal directions orthogonal to theta*, drawn once
                G = derive_rng(cfg.seed, STREAM_THETA, 1).standard_normal((cfg.n, d))
                Q, _ = np.linalg.qr(np.column_stack([u, G]))
                self._nuisance_basis = np.ascontiguousarray(Q[:, 1:].T)  # (d, n)

    def draw_round(self, t: int) -> np.ndarray | SparseBlock:
        """The K contexts revealed at round t (1-based), as one read-only block.

        Dense generators give a (K, n) float64 array and replay gives a view
        of the dataset's rows for round t; SparseUniform gives a SparseBlock
        of (K, nnz) indices and values.  Either iterates as K dense rows, and
        every synthetic row has norm <= 1.  A call draws its round alone, as
        a table of one round (``_contexts``): a run's round source
        (``_tables``) draws rounds a table at a time, with the same bits,
        for a fraction of the cost a round, and the round loop walks those
        tables.

        ``t`` is an integer >= 1 that fits in a uint64, numpy's too but not
        a bool.
        """
        t = self._round(t)
        block = self._contexts(range(t, t + 1))
        return block[0] if isinstance(block, np.ndarray) else block

    @staticmethod
    def _round(t: int) -> int:
        # the one check of a public call's round index, as a Python int
        if (t := check_int(t, "round index")) < 1:
            raise InvalidInputError(f"round index must be >= 1, got {t}")
        if t > _UINT64_MAX:
            raise InvalidInputError(f"round index must be a uint64, got {t}")
        return t

    def _contexts(self, ts: range) -> np.ndarray | SparseBlock:
        # rounds ts, a checked range, as one table of contexts: the one
        # choice of a table's type
        if isinstance(self.cfg.context, SparseUniform):
            return self._sparse_table(ts)
        return self._dense_table(ts)

    def _table(self, ts: range) -> Table:
        # rounds ts as one table, with its means and its noise; a mean that
        # overflows is left to the round loop's typed reward and regret
        # checks, without numpy's warning before them
        table = self._contexts(ts)
        with np.errstate(over="ignore"):
            means = self._means(table).reshape(len(ts), self.K)
        return ts, table, means, self._noise_table(ts)

    def _tables(self, T: int) -> Iterator[Table]:
        """Rounds 1..T as tables, in order, the last one stopping at T: the
        round source of a run, which the round loop walks.

        A SparseUniform table takes ``_TABLE_BYTES`` of indices and values, a
        dense one (GaussianUnit, AlignedSpread or replay) ``_DENSE_TABLE_BYTES``
        of contexts but at least two rounds: each is drawn and checked once,
        with its means taken once and its noise drawn from generators built
        for the whole table (``_noise_table``).

        A GaussianUnit or AlignedSpread table is a pure function of (seed,
        ts), and numpy fills it without holding the GIL.  So when such a run
        spans more than one table and at least 2 CPUs are usable, its tables
        are drawn ahead, with their means and noise, on a pool of 2 threads
        that the generator creates and shuts down, at most 3 tables beyond the
        one yielded.  Replay tables, views of their dataset, stay inline: no
        measurement has shown a pool paying off for their means and noise.
        Sparse tables stay inline too: their draw holds the GIL, and drawn
        ahead they made a T=1000 cbrap-sg run at n=4000 about 20% slower.  A
        table that fails raises its error when the loop takes that table,
        after the tables before it; a replay names its first missing round.
        """
        K, gen = self.K, self.cfg.context
        if isinstance(gen, SparseUniform):
            R = max(1, _TABLE_BYTES // (16 * K * int(gen.nnz)))
        else:  # tables of one round pay the pool's hand-off every round
            R = max(2, _DENSE_TABLE_BYTES // (8 * K * self.n))
        firsts = range(1, T + 1, R)  # each table's first round

        def rounds(lo: int) -> range:
            return range(lo, min(lo + R, T + 1))
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
        if not (isinstance(gen, (GaussianUnit, AlignedSpread)) and len(firsts) > 1
                and cpus > 1):
            for lo in firsts:
                yield self._table(rounds(lo))
            return
        from concurrent.futures import ThreadPoolExecutor  # 3-4 ms to import: here, not in set-up
        pool = ThreadPoolExecutor(2)
        try:
            ahead = deque(pool.submit(self._table, rounds(lo)) for lo in firsts[:3])
            for j in range(len(firsts)):
                table = ahead.popleft().result()
                if j + 3 < len(firsts):
                    ahead.append(pool.submit(self._table, rounds(firsts[j + 3])))
                yield table
        finally:
            pool.shutdown(cancel_futures=True)

    def _dense_table(self, ts: range) -> np.ndarray:
        """GaussianUnit, AlignedSpread or replay rounds ts as one read-only
        (len(ts), K, n) table, checked once: a replay's is a view of its
        checked dataset.  Each synthetic round fills its slice from its own
        generator, as ``standard_normal((K, n))`` would, and the row norms
        and divisions are per row, so every slice keeps the bits of its
        round drawn alone.  An AlignedSpread round is built whole, from its
        own generator, in its slice."""
        gen = self.cfg.context
        if isinstance(gen, Replay):
            if ts[-1] > gen.dataset.n_rounds:
                raise EndOfDataError(f"replay dataset has {gen.dataset.n_rounds} rounds, "
                                     f"round {max(ts[0], gen.dataset.n_rounds + 1)} requested")
            rows = gen.dataset.rows[(ts[0] - 1) * self.K:ts[-1] * self.K]
            return rows.reshape(len(ts), self.K, self.n)
        X = np.empty((len(ts), self.K, self.n))
        for x, rng in zip(X, round_rngs(self.seed, STREAM_CONTEXT, ts)):
            if isinstance(gen, GaussianUnit):
                rng.standard_normal(out=x)
            else:
                self._aligned_round(gen, rng, out=x)
        if isinstance(gen, GaussianUnit):
            norms = _row_norms(X)
            norms[norms == 0.0] = 1.0  # a zero row stays zero, as X / 1.0 is X
            X /= norms[..., None]
        X = check_array(X, "context values")
        X.setflags(write=False)
        return X

    def _aligned_round(self, gen: AlignedSpread, rng: np.random.Generator,
                       out: np.ndarray) -> None:
        # one AlignedSpread round's (K, n) contexts from its generator, into out
        u = self._direction
        c = rng.uniform(gen.low, gen.high, size=self.K)
        if self._nuisance_basis is not None:
            coef = rng.standard_normal((self.K, gen.nuisance_dim))
            W = coef @ self._nuisance_basis
        else:
            W = rng.standard_normal((self.K, self.n))
            W -= np.outer(W @ u, u)
        wn = _row_norms(W)
        wn[wn == 0.0] = 1.0
        W /= wn[:, None]
        W *= gen.noise_scale
        np.add(c[:, None] * u, W, out=out)
        out /= np.maximum(_row_norms(out), 1.0)[:, None]

    def _sparse_table(self, ts: range) -> SparseBlock:
        """SparseUniform rounds ts, K rows each, as one block checked once.
        One bounded draw over the rounds' raw words replays each arm's
        ``choice(n, nnz, replace=False)`` and ``uniform(-1.0, 1.0, nnz)``
        bit for bit (``rng._sparse_rounds``); the row norms are stacked dots."""
        indices, values = _sparse_rounds(self.seed, STREAM_CONTEXT, ts, self.n,
                                         int(self.cfg.context.nnz), self.K)
        # stacked dots: each norm is its row's sqrt(vals @ vals), bit for bit
        nv = np.sqrt(values[:, None, :] @ values[:, :, None])[:, 0]
        nv[nv == 0.0] = 1.0  # a zero row stays zero, as vals / 1.0 is vals
        values /= nv
        return SparseBlock(self.n, indices, values)

    def noise_draw(self, t: int) -> float:
        """The round-t noise value; one draw per round, shared by all arms.

        A run's round source takes its rounds' noise a table at a time
        (``_noise_table``), with the same bits.  ``t`` is checked as
        ``draw_round`` checks it, with or without noise."""
        t = self._round(t)
        return self._noise_table(range(t, t + 1))[0]

    def _noise_table(self, ts: range) -> list[float]:
        # noise_draw of each of rounds ts, a checked range, as Python floats,
        # from their generators built a table at a time
        spec = self.noise
        if spec.kind is NoiseKind.NONE:
            return [0.0] * len(ts)
        rngs = round_rngs(self.seed, STREAM_NOISE, ts)
        if spec.kind is NoiseKind.GAUSSIAN:
            return [float(rng.standard_normal() * spec.scale) for rng in rngs]
        return [float(rng.uniform(-spec.scale, spec.scale)) for rng in rngs]

    def mean_rewards(self, contexts) -> np.ndarray:
        """Expected rewards <x, theta*> of every row of a block of contexts.

        The rows are a stack of vector-vector products, which runs the dot
        kernel once per row: each mean equals its row's own x @ theta* bit
        for bit.  One matrix-vector product over the block can differ in
        the last bit, and would change the logged rewards and regrets.
        """
        return self._means(as_block(contexts, self.n))

    def _means(self, block: np.ndarray | SparseBlock) -> np.ndarray:
        # mean_rewards on a block as_block has already checked
        if isinstance(block, SparseBlock):
            rows, theta = block.values, self.theta_star[block.indices][:, :, None]
        else:
            rows, theta = block, self.theta_star[:, None]
        return (rows[..., None, :] @ theta)[..., 0, 0]

    def _chosen_means(self, contexts, chosen: int) -> np.ndarray:
        # mean_rewards of a round's block, with chosen checked as one of its rows
        means = self.mean_rewards(contexts)
        if not 0 <= check_int(chosen, "arm index") < len(means):
            raise InvalidInputError(f"arm index {chosen} out of range [0, {len(means)})")
        return means

    def realize_reward(self, contexts, chosen: int, t: int) -> float:
        """Noisy reward <x, theta*> + eta_t of the chosen row of a round's block."""
        t = self._round(t)
        return float(self._chosen_means(contexts, chosen)[chosen]) + self.noise_draw(t)

    def instant_regret(self, contexts, chosen: int) -> float:
        """Best expected reward in a round's block minus the chosen row's."""
        means = self._chosen_means(contexts, chosen)
        return max(0.0, float(means.max()) - float(means[chosen]))


def make_env(spec: EnvConfig | dict) -> Environment:
    """Build an environment from a config object or an equivalent dict."""
    return Environment(env_config_from_dict(spec) if isinstance(spec, dict) else spec)


def pop_number(d: dict, key: str, kind: type, default=None):
    """Pop a config field as a ``kind`` (int or float) number: a string is
    converted, and so is an int field's integral float or a float field's
    int.  Anything else stays as it is for the config class to check, but
    an int field is checked here, where the file's own key names it."""
    value = d.pop(key, default)
    if isinstance(value, str) or (isinstance(value, float) and value.is_integer()
                                  if kind is int else type(value) is int):
        try:
            value = kind(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from exc
    return check_int(value, key, ConfigError) if kind is int else value


def env_config_from_dict(d: dict) -> EnvConfig:
    """Parse the JSON-friendly environment description used by config files."""
    if not isinstance(d, dict):
        raise ConfigError(f"env config must be an object, got {d!r}")
    d = dict(d)
    n = pop_number(d, "n", int)
    K = pop_number(d, "k", int)
    ctx_name = str(d.pop("context", "gaussian-unit"))
    gen = CONTEXT_GENERATORS.get(ctx_name)
    if gen is None:
        raise ConfigError(f"unknown context generator '{ctx_name}'")
    if gen is Replay:
        path = d.pop("replay_path", None)
        if path is None:
            raise ConfigError("context 'replay' requires 'replay_path'")
        if not isinstance(path, str):  # an int would open that file descriptor
            raise ConfigError(f"replay_path: expected str, got {path!r}")
        context: ContextGen = Replay(load_context_dataset(path))
    else:
        context = gen(**{f.name: pop_number(d, f.name, type(f.default), f.default)
                         for f in fields(gen)})
    kind = NoiseKind(check_type(d.pop("noise", "none"), str, "noise", ConfigError))
    noise = NoiseSpec(kind, 0.0 if kind is NoiseKind.NONE
                      else pop_number(d, "noise_r", float, 0.1))
    cfg = EnvConfig(n=n, K=K, context=context, noise=noise,
                    seed=pop_number(d, "seed", int, 0),
                    theta_norm=pop_number(d, "theta_norm", float, 1.0))
    if d:
        raise ConfigError(f"unknown env config fields: {sorted(d)}")
    return cfg


# --- context dataset CSV: header "dim=<n>,arms=<K>", then K rows per round ---

def _read_lines(path: str, error: type) -> list[str]:
    """The lines of an input file (context CSV, round CSV or config), without
    the empty one after its final newline.  A path of the wrong type and a
    file that cannot be read or is not UTF-8 raise ``error``."""
    check_type(path, (str, os.PathLike), "path", error)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    if lines[-1] == "":
        lines.pop()
    return lines


def load_context_dataset(path: str) -> ReplayDataset:
    """Read a context CSV, reporting the offending line on any parse failure."""
    lines = _read_lines(path, DatasetError)
    if not lines:
        raise DatasetError(f"{path}: empty file")
    header = lines[0].strip()
    try:
        fields = dict(part.split("=", 1) for part in header.split(","))
        n, K = (check_count(int(fields[key]), key, DatasetError) for key in ("dim", "arms"))
    except (ValueError, KeyError) as exc:  # a DatasetError is a ValueError too
        raise DatasetError(
            f"{path}: line 1: expected header 'dim=<n>,arms=<K>', got {header!r}"
        ) from exc
    for i, line in enumerate(lines[1:], start=2):  # every row's width before any allocation
        if line.count(",") != n - 1:
            raise DatasetError(f"{path}: line {i}: expected {n} values, "
                               f"got {line.count(',') + 1}")
    rows = np.empty((len(lines) - 1, n))
    for i, line in enumerate(lines[1:], start=2):
        try:
            rows[i - 2] = [float(p) for p in line.split(",")]
        except ValueError as exc:
            raise DatasetError(f"{path}: line {i}: {exc}") from exc
        if not np.all(np.isfinite(rows[i - 2])):
            raise DatasetError(f"{path}: line {i}: non-finite value")
    return ReplayDataset(n=n, K=K, rows=rows)


def save_context_dataset(dataset: ReplayDataset, path: str) -> None:
    """Write a dataset in the replay CSV format (LF endings, trailing newline)."""
    check_type(dataset, ReplayDataset, "dataset")
    check_type(path, (str, os.PathLike), "path")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"dim={dataset.n},arms={dataset.K}\n")
        for row in dataset.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
