"""Command-line experiment runner.

Three subcommands: ``run`` executes policies and writes per-round CSVs plus
a JSON summary, ``coverage`` runs the confidence-set membership experiment,
and ``kaban`` tabulates distortion exceedance rates against the closed-form
bound.  A JSON config file supplies defaults; flags override individual
fields.  Exit codes: 0 success, 1 config error, 2 IO error, 3 bound
violation under ``--strict``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .environment import (CONTEXT_GENERATORS, EnvConfig, NoiseSpec, Replay,
                          load_context_dataset)
from .errors import CbrapError, ConfigError, DatasetError
from .harness import (ExperimentConfig, coverage_experiment, emit_summary,
                      kaban_experiment, load_experiment_config, parse_seeds,
                      run_experiment)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VIOLATION = 3


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--algo", action="append",
                   help="policy to run: cbrap-sg | cbrap-rs | linucb | uniform "
                        "(repeatable or comma-separated)")
    p.add_argument("--n", type=int, help="ambient context dimension")
    p.add_argument("--m", type=int, help="reduced dimension")
    p.add_argument("--k", type=int, help="number of arms")
    p.add_argument("--t", type=int, help="number of rounds")
    p.add_argument("--beta", type=float, help="fixed exploration factor")
    p.add_argument("--adaptive-beta", action="store_true", default=None,
                   help="use the theory confidence width with oracle constants")
    p.add_argument("--lambda", dest="lam", type=float, help="ridge regularizer")
    p.add_argument("--delta", type=float, help="confidence parameter")
    p.add_argument("--noise-r", type=float,
                   help="Gaussian reward-noise scale (0 for noiseless)")
    p.add_argument("--seed", type=int, help="single seed")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--env", dest="env_kind",
                   help="context generator: " + " | ".join(CONTEXT_GENERATORS))
    p.add_argument("--replay", help="context CSV for the replay generator")
    p.add_argument("--out", help="output directory")


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        cfg = load_experiment_config(args.config)
    else:
        for required in ("n", "m", "k", "t"):
            if getattr(args, required) is None:
                raise ConfigError(f"--{required} is required without --config")
        cfg = ExperimentConfig(
            env=EnvConfig(n=args.n, K=args.k), m=args.m, T=args.t)
    env = cfg.env
    if args.n is not None:
        env = dataclasses.replace(env, n=args.n)
    if args.k is not None:
        env = dataclasses.replace(env, K=args.k)
    if args.noise_r is not None:
        noise = NoiseSpec.none() if args.noise_r == 0 \
            else NoiseSpec.gaussian(args.noise_r)
        env = dataclasses.replace(env, noise=noise)
    kind = args.env_kind
    if kind is None and args.replay is not None:
        kind = "replay"
    if kind is not None:
        gen = CONTEXT_GENERATORS.get(kind)
        if gen is None:
            raise ConfigError(f"--env: unknown generator '{kind}'")
        if gen is not Replay:
            context = gen()
        elif args.replay is None:
            raise ConfigError("--env replay requires --replay <csv>")
        else:
            context = Replay(load_context_dataset(args.replay))
        env = dataclasses.replace(env, context=context)
    updates: dict = {"env": env}
    if args.algo:
        algos: list[str] = []
        for a in args.algo:
            algos.extend(x for x in a.split(",") if x)
        updates["algos"] = tuple(algos)
    if args.m is not None:
        updates["m"] = args.m
    if args.t is not None:
        updates["T"] = args.t
    if args.beta is not None:
        updates["beta"] = args.beta
    if args.adaptive_beta:
        updates["adaptive_beta"] = True
    if args.lam is not None:
        updates["lam"] = args.lam
    if args.delta is not None:
        updates["delta"] = args.delta
    if args.seeds is not None:
        updates["seeds"] = parse_seeds(args.seeds)
    elif args.seed is not None:
        updates["seeds"] = (args.seed,)
    if args.out is not None:
        updates["out_dir"] = args.out
    return dataclasses.replace(cfg, **updates)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    summary = run_experiment(cfg)
    for a in summary.algos:
        print(f"{a.algo}: final regret {a.final_regret_mean:.4f} "
              f"+- {a.final_regret_std:.4f}, "
              f"mean round latency {a.mean_round_latency_ns / 1e6:.3f} ms")
    if summary.theory_bound is not None:
        print(f"theory bound {summary.theory_bound:.4f}, "
              f"success probability {summary.success_probability:.4f}")
    return EXIT_OK


def _cmd_coverage(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    if not 0.0 <= args.min_coverage <= 1.0:
        raise ConfigError(f"--min-coverage must lie in [0, 1], got {args.min_coverage}")
    result = coverage_experiment(cfg, args.num_seeds, beta_scale=args.beta_scale)
    print(f"coverage rate: {result.coverage_rate:.4f} over {args.num_seeds} seeds")
    print(f"regret <= bound in {result.dominance_fraction:.4f} of seeds")
    if result.first_violation_hist:
        print(f"first violations by round: {result.first_violation_hist}")
    if args.out:
        emit_summary(result, args.out)
    if args.strict and result.coverage_rate < args.min_coverage:
        print(f"violation: coverage below {args.min_coverage}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _number_list(flag: str, text: str, kind: type) -> list:
    try:
        return [kind(s) for s in text.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"{flag}: expected comma-separated {kind.__name__} "
                          f"values, got {text!r}") from exc


def _cmd_kaban(args: argparse.Namespace) -> int:
    m_list = _number_list("--m-list", args.m_list, int)
    eps1_list = _number_list("--eps1-list", args.eps1_list, float)
    if not m_list or not eps1_list:
        raise ConfigError("--m-list and --eps1-list must be nonempty")
    cells = kaban_experiment(m_list, eps1_list, args.trials,
                             seed=args.seed if args.seed is not None else 0)
    print(f"{'m':>5} {'eps1':>6} {'rate':>10} {'bound':>10} flag")
    for c in cells:
        flag = "VIOLATED" if c.violated else "ok"
        print(f"{c.m:>5} {c.eps1:>6.2f} {c.empirical_rate:>10.6f} "
              f"{c.bound:>10.6f} {flag}")
    if args.out:
        emit_summary(cells, args.out)
    if args.strict and any(c.violated for c in cells):
        print("violation: empirical rate exceeded the bound", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbrap",
        description="Contextual bandit experiments with random projection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run policies and write regret artifacts")
    _add_experiment_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cov = sub.add_parser("coverage", help="confidence-set membership experiment")
    _add_experiment_flags(p_cov)
    p_cov.add_argument("--num-seeds", type=int, default=100)
    p_cov.add_argument("--beta-scale", type=float, default=1.0,
                       help="multiply every width by this factor")
    p_cov.add_argument("--min-coverage", type=float, default=0.95)
    p_cov.add_argument("--strict", action="store_true",
                       help="exit 3 when coverage falls below --min-coverage")
    p_cov.set_defaults(func=_cmd_coverage)

    p_kab = sub.add_parser("kaban", help="distortion tail-bound experiment")
    p_kab.add_argument("--m-list", default="8,32,128")
    p_kab.add_argument("--eps1-list", default="0.25,0.5,0.75,1.0")
    p_kab.add_argument("--trials", type=int, default=100_000)
    p_kab.add_argument("--seed", type=int, default=0)
    p_kab.add_argument("--out", help="write the table as JSON")
    p_kab.add_argument("--strict", action="store_true",
                       help="exit 3 when any cell exceeds its bound")
    p_kab.set_defaults(func=_cmd_kaban)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, DatasetError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CbrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
