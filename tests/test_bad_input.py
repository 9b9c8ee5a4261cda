"""Every public callable ends a wrongly typed argument in a CbrapError.

Each case below is a valid call of one export (or of a public method).  The
property test replaces one argument with a wrong value; the call must then
raise a CbrapError, or return normally when the value is of the argument's
own type (a float for a real, True for a flag, None for an optional
argument, a string for a path).  A result record documents that it holds
its fields as given, so any value makes a record.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cbrap
from cbrap import (AdaptiveBeta, AlgoSummary, AlignedSpread, ArmScores, CbrapError,
                   ConfigError, CoverageResult, EnvConfig, Environment, ExperimentConfig,
                   ExperimentSummary, FixedBeta, InvalidInputError, KabanCell, NoiseKind,
                   NoiseSpec, PolicyConfig, ProjectionKind, ProjectionMatrix, Replay,
                   ReplayDataset, RidgeState, RoundRecord, SeedCoverage, SparseBlock,
                   SparseUniform, TheoryParams, beta_schedule, build_projection, cbrap_run,
                   cbrap_select, confidence_distance, coverage_experiment, derive_gamma,
                   emit_csv, emit_summary, in_confidence_set, inner_product_error,
                   kaban_experiment, kaban_failure_bound, linucb_run, load_context_dataset,
                   load_experiment_config, load_round_csv, make_env, oracle_theory_params,
                   project_rows, regret_bound, run_experiment, save_context_dataset,
                   sg_distortion_sample, success_probability, uniform_run)

WRONG = {"str": "x", "bool": True, "float": 2.5, "nan": math.nan, "inf": math.inf,
         "none": None, "complex": 1 + 2j, "ragged": [[1.0], [1.0, 2.0]]}

# what each kind of argument takes as its own type
INT, OBJ = frozenset(), frozenset()
REAL, FLAG = frozenset({"float"}), frozenset({"bool"})
OPT, PATH = frozenset({"none"}), frozenset({"str"})

SG = ProjectionKind.STANDARD_GAUSSIAN
ENV_CFG = EnvConfig(n=6, K=3, noise=NoiseSpec.gaussian(0.1), seed=1)
PARAMS = TheoryParams(R=0.1, S=1.0, L=1.0, B=1.0)
CFG = ExperimentConfig(env=ENV_CFG, m=2, T=3)
DATASET = ReplayDataset(n=6, K=3, rows=np.zeros((6, 6)))
RECORD = RoundRecord(1, 0, 0.5, 0.0, 0.0, 0)
SUMMARY = ExperimentSummary(config={}, T=3, seeds=[0], algos=[
    AlgoSummary("cbrap-sg", [], 0.0, 0.0, 0.0), AlgoSummary("uniform", [], 0.0, 0.0, 0.0)])


def env():
    return make_env(ENV_CFG)


# name: (a factory of the callable, {argument: (valid value, kind)})
CASES = {
    "AdaptiveBeta": (lambda: AdaptiveBeta, {"params": (PARAMS, OBJ)}),
    "AlignedSpread": (lambda: AlignedSpread, {
        "low": (0.0, REAL), "high": (0.95, REAL), "noise_scale": (0.2, REAL),
        "nuisance_dim": (0, INT)}),
    "EnvConfig": (lambda: EnvConfig, {
        "n": (6, INT), "K": (3, INT), "context": (SparseUniform(2), OBJ),
        "noise": (NoiseSpec.none(), OBJ), "seed": (0, INT), "theta_norm": (1.0, REAL)}),
    "Environment": (lambda: Environment, {"cfg": (ENV_CFG, OBJ)}),
    "Environment.draw_round": (lambda: env().draw_round, {"t": (1, INT)}),
    "Environment.noise_draw": (lambda: env().noise_draw, {"t": (1, INT)}),
    "Environment.mean_rewards": (lambda: env().mean_rewards, {"contexts": (np.ones((3, 6)), OBJ)}),
    "Environment.realize_reward": (lambda: env().realize_reward, {
        "contexts": (np.ones((3, 6)), OBJ), "chosen": (0, INT), "t": (1, INT)}),
    "Environment.instant_regret": (lambda: env().instant_regret, {
        "contexts": (np.ones((3, 6)), OBJ), "chosen": (0, INT)}),
    "ExperimentConfig": (lambda: ExperimentConfig, {
        "env": (ENV_CFG, OBJ), "m": (2, INT), "T": (3, INT), "algos": (("uniform",), OBJ),
        "beta": (1.0, REAL), "adaptive_beta": (False, FLAG), "lam": (1.0, REAL),
        "delta": (0.05, REAL), "seeds": ((0,), OBJ), "out_dir": (None, OPT | PATH),
        "timing_in_csv": (False, FLAG)}),
    "FixedBeta": (lambda: FixedBeta, {"value": (1.0, REAL)}),
    "NoiseKind": (lambda: NoiseKind, {"value": ("gaussian", OBJ)}),
    "NoiseSpec": (lambda: NoiseSpec, {"kind": (NoiseKind.GAUSSIAN, OBJ), "scale": (0.1, REAL)}),
    "NoiseSpec.gaussian": (lambda: NoiseSpec.gaussian, {"r": (0.1, REAL)}),
    "NoiseSpec.bounded_uniform": (lambda: NoiseSpec.bounded_uniform,
                                  {"half_width": (0.1, REAL)}),
    "PolicyConfig": (lambda: PolicyConfig, {
        "m": (2, INT), "kind": (SG, OBJ), "beta_mode": (FixedBeta(1.0), OBJ),
        "lam": (1.0, REAL), "seed": (0, INT)}),
    "ProjectionKind": (lambda: ProjectionKind, {"value": ("sg", OBJ)}),
    "ProjectionMatrix": (lambda: ProjectionMatrix, {
        "kind": (SG, OPT), "m": (2, INT), "n": (3, INT), "entries": (np.ones((2, 3)), OBJ),
        "seed": (0, INT)}),
    "ProjectionMatrix.from_entries": (lambda: ProjectionMatrix.from_entries, {
        "entries": (np.ones((2, 3)), OBJ), "seed": (0, INT)}),
    "Replay": (lambda: Replay, {"dataset": (DATASET, OBJ)}),
    "ReplayDataset": (lambda: ReplayDataset, {
        "n": (6, INT), "K": (3, INT), "rows": (np.zeros((6, 6)), OBJ)}),
    "RidgeState": (lambda: RidgeState, {
        "m": (2, INT), "lam": (1.0, REAL), "refresh_every": (512, INT)}),
    "RidgeState.update": (lambda: RidgeState(2).update, {
        "z": ([1.0, 1.0], OBJ), "reward": (1.0, REAL)}),
    "RidgeState.weighted_norm": (lambda: RidgeState(2).weighted_norm, {"z": ([1.0, 1.0], OBJ)}),
    "SparseBlock": (lambda: SparseBlock, {
        "dim": (6, INT), "indices": ([[0, 2]], OBJ), "values": ([[0.5, 0.5]], OBJ)}),
    "SparseUniform": (lambda: SparseUniform, {"nnz": (5, INT)}),
    "TheoryParams": (lambda: TheoryParams, {
        name: (value, REAL) for name, value in
        dict(R=0.1, S=1.0, L=1.0, B=1.0, lam=1.0, delta=0.05, eps=0.0, eps1=0.0,
             gamma=0.0).items()}),
    "beta_schedule": (lambda: beta_schedule, {"p": (PARAMS, OBJ), "m": (2, INT), "t": (3, INT)}),
    "build_projection": (lambda: build_projection, {
        "kind": (SG, OBJ), "m": (2, INT), "n": (6, INT), "seed": (0, INT)}),
    "cbrap_run": (lambda: cbrap_run, {
        "env": (env(), OBJ), "cfg": (PolicyConfig(m=2), OBJ), "T": (3, INT),
        "projection": (None, OPT)}),
    "cbrap_select": (lambda: cbrap_select, {
        "state": (RidgeState(2), OBJ), "projected_contexts": (np.ones((3, 2)), OBJ),
        "beta": (1.0, REAL)}),
    "confidence_distance": (lambda: confidence_distance, {
        "state": (RidgeState(2), OBJ), "mu": ([0.5, 0.5], OBJ)}),
    "coverage_experiment": (lambda: coverage_experiment, {
        "cfg": (ExperimentConfig(env=ENV_CFG, m=2, T=3), OBJ), "num_seeds": (1, INT),
        "beta_scale": (1.0, REAL)}),
    "derive_gamma": (lambda: derive_gamma, {"m": (2, INT), "horizon": (3, INT),
                                            "eps1": (0.5, REAL)}),
    "emit_csv": (lambda: emit_csv, {"records": ([RECORD], OBJ), "path": ("r.csv", PATH)}),
    "emit_summary": (lambda: emit_summary, {"summary": ([], OBJ), "path": ("s.json", PATH)}),
    "in_confidence_set": (lambda: in_confidence_set, {
        "state": (RidgeState(2), OBJ), "mu": ([0.5, 0.5], OBJ), "beta": (1.0, REAL)}),
    "inner_product_error": (lambda: inner_product_error, {
        "P": (build_projection(SG, 2, 6, 0), OBJ), "x": (np.ones(6), OBJ),
        "theta": (np.ones(6), OBJ)}),
    "kaban_experiment": (lambda: kaban_experiment, {
        "m_list": ([2], OBJ), "eps1_list": ([0.5], OBJ), "trials": (10, INT),
        "seed": (0, INT)}),
    "kaban_failure_bound": (lambda: kaban_failure_bound, {"m": (2, INT), "eps1": (0.5, REAL)}),
    "linucb_run": (lambda: linucb_run, {
        "env": (env(), OBJ), "lam": (1.0, REAL), "beta_mode": (FixedBeta(1.0), OBJ),
        "T": (3, INT)}),
    "load_context_dataset": (lambda: load_context_dataset, {"path": ("ctx.csv", PATH)}),
    "load_experiment_config": (lambda: load_experiment_config, {"path": ("cfg.json", PATH)}),
    "load_round_csv": (lambda: load_round_csv, {"path": ("r.csv", PATH)}),
    "make_env": (lambda: make_env, {"spec": (ENV_CFG, OBJ)}),
    "oracle_theory_params": (lambda: oracle_theory_params, {
        "env": (env(), OBJ), "P": (build_projection(SG, 2, 6, 0), OPT), "R": (0.1, REAL),
        "delta": (0.05, REAL), "lam": (1.0, REAL), "T": (3, INT)}),
    "project_rows": (lambda: project_rows, {
        "P": (build_projection(SG, 2, 6, 0), OBJ), "contexts": (np.ones((3, 6)), OBJ)}),
    "regret_bound": (lambda: regret_bound, {"p": (PARAMS, OBJ), "m": (2, INT),
                                            "horizon": (3, INT)}),
    "run_experiment": (lambda: run_experiment, {"cfg": (CFG, OBJ)}),
    "save_context_dataset": (lambda: save_context_dataset, {
        "dataset": (DATASET, OBJ), "path": ("ctx.csv", PATH)}),
    "sg_distortion_sample": (lambda: sg_distortion_sample, {
        "m": (2, INT), "n": (3, INT), "trials": (10, INT), "seed": (0, INT)}),
    "success_probability": (lambda: success_probability, {
        "p": (PARAMS, OBJ), "m": (2, INT), "horizon": (3, INT)}),
    "uniform_run": (lambda: uniform_run, {"env": (env(), OBJ), "seed": (0, INT),
                                          "T": (3, INT)}),
}

# result records: they hold their fields as given, and say so
RECORDS = {
    "AlgoSummary": (AlgoSummary, ["algo", "regret_curves", "final_regret_mean",
                                  "final_regret_std", "mean_round_latency_ns"]),
    "ArmScores": (ArmScores, ["r_hat", "v", "ucb"]),
    "CoverageResult": (CoverageResult, ["coverage_rate", "per_seed", "first_violation_hist"]),
    "ExperimentSummary": (ExperimentSummary, ["config", "T", "seeds", "algos"]),
    "KabanCell": (KabanCell, ["m", "eps1", "trials", "empirical_rate", "bound", "slack",
                              "violated"]),
    "RoundRecord": (RoundRecord, list(RoundRecord._fields)),
    "SeedCoverage": (SeedCoverage, ["seed", "covered", "first_violation", "cum_regret",
                                    "regret_bound", "success_probability", "params"]),
}

# the error classes take any message, as every exception does; GaussianUnit
# takes no argument
NO_ARGUMENTS = {"CbrapError", "ConfigError", "DatasetError", "DegenerateInputError",
                "EndOfDataError", "InvalidDimensionError", "InvalidInputError",
                "GaussianUnit"}


def test_every_export_has_a_case():
    covered = {name.split(".")[0] for name in CASES} | set(RECORDS) | NO_ARGUMENTS
    assert sorted(set(cbrap.__all__) - covered) == []


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory holding the files the valid calls read."""
    monkeypatch.chdir(tmp_path)
    save_context_dataset(DATASET, "ctx.csv")
    emit_csv([RECORD], "r.csv")
    (tmp_path / "cfg.json").write_text('{"env": {"n": 6, "k": 3}, "m": 2, "t": 3}')
    return tmp_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_valid_call_returns(name, workdir):
    factory, args = CASES[name]
    factory()(**{arg: value for arg, (value, _) in args.items()})


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_wrong_argument_ends_in_a_cbrap_error(name, data, workdir):
    factory, args = CASES[name]
    arg = data.draw(st.sampled_from(sorted(args)), label="argument")
    label = data.draw(st.sampled_from(sorted(WRONG)), label="value")
    valid, kind = args[arg]
    call = {a: value for a, (value, _) in args.items()}
    call[arg] = WRONG[label]
    try:
        factory()(**call)
    except CbrapError:
        return
    assert label in kind, f"{name}({arg}={WRONG[label]!r}) returned"


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_holds_what_it_is_given(name, data):
    record, names = RECORDS[name]
    assert "as given" in " ".join(record.__doc__.split())
    values = {n: data.draw(st.sampled_from(sorted(WRONG, key=str)).map(WRONG.get), label=n)
              for n in names}
    made = record(**values)
    assert all(getattr(made, n) is v for n, v in values.items())


def updated_state():
    state = RidgeState(2)
    state.update([0.5, 0.3], 1.0)  # off-diagonal A, so an inf - inf reaches the product
    return state


# the calls a reader once found accepted, truncated or ending in a bare error
ONCE_ACCEPTED = {
    "build_projection(SG, 2.5, 5, 0)": lambda: build_projection(SG, 2.5, 5, 0),
    "beta_schedule(p, 2.5, 3)": lambda: beta_schedule(PARAMS, 2.5, 3),
    "regret_bound(p, 2, 1.5)": lambda: regret_bound(PARAMS, 2, 1.5),
    "TheoryParams(R=nan)": lambda: TheoryParams(R=math.nan, S=1.0, L=1.0, B=1.0),
    "TheoryParams(S=inf)": lambda: TheoryParams(R=0.1, S=math.inf, L=1.0, B=1.0),
    "TheoryParams(R='a')": lambda: TheoryParams(R="a", S=1.0, L=1.0, B=1.0),
    "PolicyConfig(m=2.5)": lambda: PolicyConfig(m=2.5),
    "PolicyConfig(m='3')": lambda: PolicyConfig(m="3"),
    "PolicyConfig(m=True)": lambda: PolicyConfig(m=True),
    "FixedBeta('1')": lambda: FixedBeta("1"),
    "cbrap_run(env, cfg, 2.5)": lambda: cbrap_run(env(), PolicyConfig(m=2), 2.5),
    "uniform_run(env, 0, '3')": lambda: uniform_run(env(), 0, "3"),
    "sg_distortion_sample(2, 3, 2.5, 0)": lambda: sg_distortion_sample(2, 3, 2.5, 0),
    "derive_gamma('a', 10, 0.5)": lambda: derive_gamma("a", 10, 0.5),
    "kaban_failure_bound('a', 0.5)": lambda: kaban_failure_bound("a", 0.5),
    "kaban_failure_bound(2.5, 0.5)": lambda: kaban_failure_bound(2.5, 0.5),
    "confidence_distance(state, ['a', 'b'])":
        lambda: confidence_distance(RidgeState(2), ["a", "b"]),
    "confidence_distance(state, [nan, 1.0])":
        lambda: confidence_distance(RidgeState(2), [math.nan, 1.0]),
    "confidence_distance(updated state, [inf, -inf])":
        lambda: confidence_distance(updated_state(), [math.inf, -math.inf]),
    "in_confidence_set(state, mu, '1')":
        lambda: in_confidence_set(RidgeState(2), [0.5, 0.5], "1"),
    "RidgeState(2, lam=True)": lambda: RidgeState(2, lam=True),
    "RidgeState(2).update([1, 1], 'x')": lambda: RidgeState(2).update([1, 1], "x"),
    "NoiseSpec.gaussian('a')": lambda: NoiseSpec.gaussian("a"),
    "AlignedSpread(low='0')": lambda: AlignedSpread(low="0"),
    "summary.algo('linucb')": lambda: SUMMARY.algo("linucb"),
    "make_env(noise=array)": lambda: make_env({"n": 5, "k": 2, "noise": np.array([1.0, 2.0])}),
}


@pytest.mark.parametrize("call", sorted(ONCE_ACCEPTED))
def test_a_call_once_accepted_is_a_cbrap_error(call):
    with pytest.raises(CbrapError):
        ONCE_ACCEPTED[call]()


def test_an_unknown_algo_names_the_summary_s_algos():
    assert SUMMARY.algo("uniform") is SUMMARY.algos[1]
    with pytest.raises(InvalidInputError, match=r"'linucb'.*\['cbrap-sg', 'uniform'\]"):
        SUMMARY.algo("linucb")


def test_a_noise_kind_that_is_not_a_string_is_named():
    with pytest.raises(ConfigError, match=r"noise: expected str, got array"):
        make_env({"n": 5, "k": 2, "noise": np.array([1.0, 2.0])})
