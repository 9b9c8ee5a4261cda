"""Experiment runner, validators, and artifact round-trips."""

import dataclasses
import hashlib
import json
import math
import os
import re
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrap import (AlignedSpread, ConfigError, DatasetError, EnvConfig,
                   ExperimentConfig, GaussianUnit, InvalidInputError, NoiseSpec,
                   ProjectionMatrix, Replay,
                   ReplayDataset, RoundRecord, SparseUniform, TheoryParams,
                   coverage_experiment, emit_csv, emit_summary, environment, harness,
                   kaban_experiment, kaban_failure_bound,
                   load_experiment_config, load_round_csv, make_env,
                   oracle_theory_params, policies, project_rows, projection,
                   run_experiment)
from cbrap.harness import (ALGOS, experiment_config_from_dict, experiment_config_to_dict,
                           parse_seeds)


def small_cfg(**kw):
    base = dict(
        env=EnvConfig(n=16, K=3, noise=NoiseSpec.gaussian(0.2)),
        m=4, T=25, algos=("cbrap-sg",), seeds=(1, 2),
    )
    base.update(kw)
    return ExperimentConfig(**base)


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def synthetic_configs(draw):
    """Any valid ExperimentConfig over a synthetic generator."""
    n = draw(st.integers(1, 10**9))
    context = draw(st.one_of(
        st.just(GaussianUnit()),
        st.builds(SparseUniform, nnz=st.integers(1, n)),
        st.floats(0.0, 1e300).flatmap(lambda low: st.builds(
            AlignedSpread, low=st.just(low),
            high=st.floats(min_value=low, exclude_min=True, allow_infinity=False),
            noise_scale=st.floats(0.0, 1e300), nuisance_dim=st.integers(0, n - 1)))))
    noise = draw(st.one_of(st.just(NoiseSpec.none()), positive.map(NoiseSpec.gaussian),
                           positive.map(NoiseSpec.bounded_uniform)))
    seed = st.integers(0, 2**64 - 1)
    # env.seed stays 0: a run replaces it with each of seeds, so no file holds it
    env = EnvConfig(n=n, K=draw(st.integers(1, 10**6)), context=context, noise=noise,
                    theta_norm=draw(positive))
    return ExperimentConfig(
        env=env, m=draw(st.integers(1, n)), T=draw(st.integers(1, 10**9)),
        algos=tuple(draw(st.lists(st.sampled_from(ALGOS), min_size=1, unique=True))),
        beta=draw(positive), adaptive_beta=draw(st.booleans()), lam=draw(positive),
        delta=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        seeds=tuple(draw(st.lists(seed, min_size=1, max_size=5, unique=True))),
        out_dir=draw(st.none() | st.text()), timing_in_csv=draw(st.booleans()))


class TestConfigValidation:
    @pytest.mark.parametrize("bad,match", [
        (dict(m=0), "m"), (dict(m=20), "m"), (dict(T=0), "T"),
        (dict(algos=()), "algos"), (dict(algos=("nope",)), "algos"),
        (dict(beta=0.0), "beta"), (dict(lam=-1.0), "lam"),
        (dict(delta=1.5), "delta"), (dict(seeds=()), "seeds"),
        (dict(beta=math.inf), "beta"), (dict(lam=math.inf), "lam"),
        (dict(algos=("uniform", "cbrap-sg", "uniform")), "algos"),
    ])
    def test_rejects_and_names_field(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            small_cfg(**bad)

    # a repeated seed would overwrite its CSVs and count its run twice
    @pytest.mark.parametrize("seeds", [(-1,), (1, 2**64), ("a",), (1, 1), (3, 1, np.int64(3))])
    def test_rejects_bad_seeds(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            small_cfg(seeds=seeds)
        d = experiment_config_to_dict(small_cfg())
        d["seeds"] = list(seeds)
        with pytest.raises(ConfigError, match="seeds"):
            experiment_config_from_dict(d)

    def test_an_api_built_env_takes_no_seed(self):
        # a run replaces env.seed with each of seeds: an API-built seed of 5
        # once ran as seed 1 and 2 without a word; the error is the config
        # file's
        for seed in (5, 2**64 - 1):
            with pytest.raises(ConfigError, match=r"^env.seed: not an experiment field; "
                                                  r"give a run's seeds as 'seeds'$"):
                small_cfg(env=EnvConfig(n=16, K=3, seed=seed))
        assert small_cfg(env=EnvConfig(n=16, K=3, seed=0)).env.seed == 0

    def test_parse_seeds_takes_integers_only(self):
        assert parse_seeds("3,4") == (3, 4)
        assert parse_seeds(3) == (3,)
        assert parse_seeds(["3", np.int64(4)]) == (3, 4)
        for bad in ([1.5], [True], True, 1.5, "1.5"):
            with pytest.raises(ConfigError, match="seeds"):
                parse_seeds(bad)

    def test_rejects_replay_shorter_than_horizon(self):
        ds = ReplayDataset(n=4, K=2, rows=np.zeros((6, 4)))  # 3 rounds
        env = EnvConfig(n=4, K=2, context=Replay(ds))
        assert small_cfg(env=env, m=2, T=3).T == 3
        with pytest.raises(ConfigError, match="T"):
            small_cfg(env=env, m=2, T=4)

    def test_flags_take_json_booleans_only(self):
        d = experiment_config_to_dict(small_cfg())
        for key in ("adaptive_beta", "timing_in_csv"):
            for flag in (True, False):
                assert getattr(experiment_config_from_dict({**d, key: flag}), key) is flag
            for bad in ("false", "true", 0, 1, None):
                with pytest.raises(ConfigError, match=f"{key}: expected bool"):
                    experiment_config_from_dict({**d, key: bad})

    def test_dict_round_trip(self):
        cfg = small_cfg(algos=("cbrap-rs", "uniform"), adaptive_beta=True,
                        seeds=(7, 8, 9), out_dir="x")
        back = experiment_config_from_dict(experiment_config_to_dict(cfg))
        assert back == cfg

    def test_dict_round_trip_aligned_spread(self):
        cfg = small_cfg(env=EnvConfig(n=16, K=3,
                                      context=AlignedSpread(nuisance_dim=4),
                                      noise=NoiseSpec.gaussian(0.1)))
        back = experiment_config_from_dict(experiment_config_to_dict(cfg))
        assert back == cfg

    def test_dict_round_trip_sparse_uniform(self):
        cfg = small_cfg(env=EnvConfig(n=16, K=3, context=SparseUniform(nnz=3),
                                      noise=NoiseSpec.gaussian(0.1)))
        back = experiment_config_from_dict(experiment_config_to_dict(cfg))
        assert back == cfg

    @settings(max_examples=200, deadline=None)
    @given(cfg=synthetic_configs())
    def test_dict_round_trip_through_json(self, cfg):
        text = json.dumps(experiment_config_to_dict(cfg))
        assert experiment_config_from_dict(json.loads(text)) == cfg

    @pytest.mark.parametrize("make,field", [
        (lambda out: small_cfg(env=EnvConfig(n=5.5, K=2), out_dir=out), "n"),
        (lambda out: small_cfg(env=EnvConfig(n=16, K=2.5), out_dir=out), "K"),
        (lambda out: small_cfg(env=EnvConfig(n=16, K=True), out_dir=out), "K"),
        (lambda out: small_cfg(env=EnvConfig(n=16, K=3, context=SparseUniform(nnz=2.5)),
                               out_dir=out), "nnz"),
        (lambda out: small_cfg(env=EnvConfig(
            n=16, K=3, context=AlignedSpread(nuisance_dim=1.5)), out_dir=out), "nuisance_dim"),
        (lambda out: small_cfg(T=3.0, out_dir=out), "T"),
        (lambda out: small_cfg(m=2.5, out_dir=out), "m"),
        (lambda out: small_cfg(m=True, out_dir=out), "m"),
        (lambda out: small_cfg(env=EnvConfig(n=5, K=2, context="gaussian"), out_dir=out),
         "context"),
        (lambda out: small_cfg(env=EnvConfig(n=16, K=2, noise=None), out_dir=out), "noise"),
        (lambda out: small_cfg(env=EnvConfig(n=16, K=2, theta_norm="1"), out_dir=out),
         "theta_norm"),
        (lambda out: small_cfg(adaptive_beta="false", out_dir=out), "adaptive_beta"),
        (lambda out: small_cfg(adaptive_beta=1, out_dir=out), "adaptive_beta"),
        (lambda out: small_cfg(timing_in_csv="no", out_dir=out), "timing_in_csv"),
        (lambda out: small_cfg(beta="2", out_dir=out), "beta"),
        (lambda out: small_cfg(beta=True, out_dir=out), "beta"),
        (lambda out: small_cfg(lam="1", out_dir=out), "lam"),
        (lambda out: small_cfg(delta=None, out_dir=out), "delta"),
        (lambda out: small_cfg(out_dir=5), "out_dir"),
        (lambda out: small_cfg(env=EnvConfig(n=16, K=3, seed=2.7), out_dir=out), "seed"),
        (lambda out: small_cfg(env=EnvConfig(n=16, K=3, seed=False), out_dir=out), "seed"),
        (lambda out: small_cfg(seeds=(1.5, True), out_dir=out), "seeds"),
        (lambda out: small_cfg(seeds=(1, True), out_dir=out), "seeds"),
    ])
    def test_rejected_by_name_before_any_output(self, make, field, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^{field}: expected"):
            run_experiment(make(str(out)))
        assert not out.exists()

    def test_numpy_integer_sizes_pass(self):
        env = EnvConfig(n=np.int64(16), K=np.uint8(3), context=SparseUniform(np.int32(3)))
        cfg = small_cfg(env=env, m=np.int64(4), T=np.uint16(25))
        assert (cfg.env.n, cfg.env.K, cfg.m, cfg.T) == (16, 3, 4, 25)
        assert AlignedSpread(nuisance_dim=np.int64(2)).nuisance_dim == 2

    def test_unknown_field_rejected(self):
        d = experiment_config_to_dict(small_cfg())
        d["бogus"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            experiment_config_from_dict(d)

    def test_dict_of_a_replay_config_copies_no_rows(self):
        # the dict names the generator, not the rows: asdict once deep-copied them
        rows = np.zeros((1 << 17, 8))  # 8 MiB
        env = EnvConfig(n=8, K=4, context=Replay(ReplayDataset(n=8, K=4, rows=rows)))
        cfg = small_cfg(env=env, m=2, T=5)
        tracemalloc.start()
        try:
            d = experiment_config_to_dict(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert d["env"]["context"] == "replay" and d["seeds"] == [1, 2]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(experiment_config_to_dict(small_cfg())))
        assert load_experiment_config(str(path)) == small_cfg()
        with pytest.raises(ConfigError):
            load_experiment_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            load_experiment_config(str(bad))


class TestOracleParams:
    def test_identity_map_has_zero_distortion(self):
        env = make_env(EnvConfig(n=12, K=4, seed=3))
        p = oracle_theory_params(env, None, R=0.1, delta=0.05, lam=1.0, T=20)
        assert p.eps == 0.0 and p.eps1 == 0.0 and p.gamma == 0.0
        assert p.S == pytest.approx(np.linalg.norm(env.theta_star), rel=1e-12)

    def test_matches_manual_scan(self):
        env = make_env(EnvConfig(n=12, K=4, seed=4))
        P = ProjectionMatrix.from_entries(
            np.random.default_rng(5).standard_normal((3, 12)) / 2)
        p = oracle_theory_params(env, P, R=0.1, delta=0.05, lam=1.0, T=15)
        zeta = P.entries @ env.theta_star
        L = B = eps = 0.0
        for t in range(1, 16):
            for xd in env.draw_round(t):
                z = P.entries @ xd
                L = max(L, np.linalg.norm(z))
                B = max(B, abs(xd @ env.theta_star))
                eps = max(eps, abs(z @ zeta - xd @ env.theta_star))
        assert p.L == pytest.approx(L, rel=1e-12)
        assert p.B == pytest.approx(B, rel=1e-12)
        assert p.eps == pytest.approx(eps, rel=1e-12)
        assert p.eps1 == pytest.approx(eps / np.linalg.norm(env.theta_star), rel=1e-9)

    @pytest.mark.parametrize("scale,error", [
        (None, "S must be finite and positive, got inf"),
        (0.5, "S must be finite and positive, got inf"),
        (1e-60, "||theta*|| must be finite, got inf"),
    ])
    def test_an_overflowing_norm_is_rejected_before_any_draw(self, monkeypatch, scale, error):
        # ||zeta|| and ||theta*|| square through dot, so a theta_norm of 1e200
        # overflows them: the scan warned "overflow encountered in dot" (an
        # error under this suite's filterwarnings), drew every table, and only
        # then raised on S, or, for a P that shrinks theta* back into range,
        # set eps1 to 0 with an infinite ||theta*||
        env = make_env(EnvConfig(n=20, K=3, theta_norm=1e200, seed=1))
        P = None if scale is None else ProjectionMatrix.from_entries(
            scale * np.random.default_rng(7).standard_normal((4, 20)))
        drawn = []
        monkeypatch.setattr(environment.Environment, "_tables", lambda _, T: drawn.append(T))
        with pytest.raises(InvalidInputError, match="^" + re.escape(error) + "$"):
            oracle_theory_params(env, P, R=0.1, delta=0.05, lam=1.0, T=5)
        assert drawn == []

    def test_kept_rounds_are_the_environment_s(self):
        # a coverage seed's loop replays these instead of the environment's
        env = make_env(EnvConfig(n=12, K=4, context=SparseUniform(nnz=3),
                                 noise=NoiseSpec.gaussian(0.2), seed=6))
        P = ProjectionMatrix.from_entries(np.random.default_rng(7).standard_normal((3, 12)))
        _, kept = harness._oracle_scan(env, P, R=0.2, delta=0.05, lam=1.0, T=10, keep=True)
        Z, means = (np.concatenate([table[i] for table in kept]) for i in (1, 2))
        noise = [eps for _, _, _, table_noise in kept for eps in table_noise]
        rounds = [(table._rows(i * 4, (i + 1) * 4), mu, eps)
                  for ts, table, table_means, table_noise in env._tables(10)
                  for i, (mu, eps) in enumerate(zip(table_means, table_noise, strict=True))]
        for (block, mu, eps), z, kept_mu, kept_eps in zip(
                rounds, Z, means, noise, strict=True):
            np.testing.assert_array_equal(project_rows(P, block), z)
            np.testing.assert_array_equal(mu, kept_mu)
            assert eps == kept_eps


class TestRunExperiment:
    def test_single_arm_uniform_has_zero_regret(self):
        cfg = small_cfg(env=EnvConfig(n=16, K=1), algos=("uniform",))
        summary = run_experiment(cfg)
        assert summary.algo("uniform").final_regret_mean == 0.0

    def test_curves_are_nondecreasing_and_length_t(self):
        summary = run_experiment(small_cfg(algos=("cbrap-sg", "linucb", "uniform")))
        for algo in summary.algos:
            for curve in algo.regret_curves:
                assert len(curve) == 25
                assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        cfg = small_cfg(algos=("cbrap-sg", "uniform"))
        run_experiment(ExperimentConfig(**{**cfg.__dict__, "out_dir": out_a}))
        run_experiment(ExperimentConfig(**{**cfg.__dict__, "out_dir": out_b}))
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        csvs = [n for n in names if n.endswith(".csv")]
        assert len(csvs) == 4  # 2 algos x 2 seeds
        for name in csvs:
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b, name

    def test_timing_in_csv_breaks_nothing_but_is_real(self, tmp_path):
        out = str(tmp_path / "timed")
        cfg = small_cfg(timing_in_csv=True, out_dir=out)
        run_experiment(cfg)
        records = load_round_csv(os.path.join(out, "cbrap-sg_seed1.csv"))
        assert all(r.elapsed_ns > 0 for r in records)

    def test_summary_json_written(self, tmp_path):
        out = str(tmp_path / "s")
        run_experiment(small_cfg(out_dir=out, algos=("cbrap-rs",)))
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["T"] == 25
        assert data["algos"][0]["algo"] == "cbrap-rs"
        assert len(data["algos"][0]["regret_curves"]) == 2

    def test_each_round_is_drawn_once_for_all_algos(self, monkeypatch):
        # the algos of a seed run in lockstep on one environment: S seeds of
        # T rounds draw S*T rounds, a table at a time, however many algos
        # share them
        calls = []
        draw = harness.Environment._dense_table

        def counting(env, ts):
            calls.append(ts)
            return draw(env, ts)
        monkeypatch.setattr(harness.Environment, "_dense_table", counting)
        run_experiment(small_cfg(algos=("cbrap-sg", "linucb", "uniform")))
        assert sorted(t for ts in calls for t in ts) == sorted(list(range(1, 26)) * 2)

    def test_a_run_that_raises_mid_run_leaves_no_output_directory(self, tmp_path):
        # out_dir is made when the first seed's CSVs are written; finite replay
        # rows of 1e200 overflow the ridge update in round 1
        rows = np.full((4, 2), 1e200)
        env = EnvConfig(n=2, K=2, context=Replay(ReplayDataset(n=2, K=2, rows=rows)))
        out = tmp_path / "o"
        with pytest.raises(InvalidInputError, match="overflows the ridge update"):
            run_experiment(small_cfg(env=env, m=1, T=2, out_dir=str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("theta_norm, seeds, what, written", [
        (1.7e308, (0, 1), "sum of its finite regrets", []),
        (1e308, (0, 2), "mean of its final regrets over seeds", ["seed0", "seed2"]),
        (1e200, (0, 2), "std of its final regrets over seeds", ["seed0", "seed2"]),
    ])
    def test_finite_regrets_whose_sum_overflows_are_rejected(self, tmp_path, theta_norm,
                                                             seeds, what, written):
        # rows +-e1 give finite regrets of up to 2 |theta*_1| a round: the
        # run once logged a cum_regret of inf and wrote "inf" and "nan" into
        # summary.json, after numpy's overflow warnings (errors under this
        # suite's filterwarnings).  A seed's sum is checked before its CSVs
        # are written, and the mean and std over seeds before summary.json
        n, K, T = 50, 2, 64
        rows = np.zeros((T * K, n))
        rows[0::2, 0], rows[1::2, 0] = 1.0, -1.0
        env = EnvConfig(n=n, K=K, theta_norm=theta_norm,
                        context=Replay(ReplayDataset(n=n, K=K, rows=rows)))
        out = tmp_path / "o"
        with pytest.raises(InvalidInputError, match=f"uniform: the {what} overflows to inf"):
            run_experiment(small_cfg(env=env, m=1, T=T, algos=("uniform",), seeds=seeds,
                                     out_dir=str(out)))
        if written:  # the finished seeds' CSVs, and no summary.json
            assert sorted(os.listdir(out)) == [f"uniform_{w}.csv" for w in written]
        else:
            assert not out.exists()

    def test_adaptive_beta_reports_bound(self):
        summary = run_experiment(small_cfg(adaptive_beta=True))
        assert summary.theory_bound is not None and summary.theory_bound > 0
        assert 0.0 <= summary.success_probability <= 1.0


class TestOrthogonalEquivalenceArtifacts:
    def test_identical_chosen_columns_in_csvs(self, tmp_path):
        # m = n with an orthogonal test matrix: the projected policy's log
        # must match the full-dimensional baseline's, column for column
        from cbrap import (FixedBeta, PolicyConfig, cbrap_run, linucb_run)

        n = 10
        env = make_env(EnvConfig(n=n, K=4, context=AlignedSpread(),
                                 noise=NoiseSpec.gaussian(0.1), seed=6))
        Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))
        rec_p = cbrap_run(env, PolicyConfig(m=n, beta_mode=FixedBeta(1.0)), 80,
                          projection=ProjectionMatrix.from_entries(Q))
        rec_l = linucb_run(env, 1.0, FixedBeta(1.0), 80)
        path_p, path_l = str(tmp_path / "p.csv"), str(tmp_path / "l.csv")
        emit_csv(rec_p, path_p)
        emit_csv(rec_l, path_l)
        chosen_p = [r.chosen for r in load_round_csv(path_p)]
        chosen_l = [r.chosen for r in load_round_csv(path_l)]
        assert chosen_p == chosen_l


class TestCoverage:
    def test_a_beta_is_rejected_before_any_seed(self, monkeypatch):
        # the width is the oracle width times beta_scale: a beta was never read
        seeds = []
        monkeypatch.setattr(harness, "_coverage_seed", lambda *args: seeds.append(args))
        for beta in (7.0, 0.5):
            with pytest.raises(ConfigError, match=rf"^beta: coverage does not read it .*"
                                                  rf"got {beta}$"):
                coverage_experiment(small_cfg(beta=beta), 2)
        assert seeds == []

    def cfg(self):
        return ExperimentConfig(
            env=EnvConfig(n=40, K=5, noise=NoiseSpec.gaussian(0.05)),
            m=8, T=60, delta=0.05, seeds=(0,),
        )

    def test_noiseless_coverage_is_one(self):
        cfg = ExperimentConfig(env=EnvConfig(n=30, K=4), m=6, T=40,
                               delta=0.05, seeds=(0,))
        res = coverage_experiment(cfg, 12)
        assert res.coverage_rate == 1.0
        assert res.first_violation_hist == {}

    def test_noisy_coverage_high(self):
        res = coverage_experiment(self.cfg(), 25)
        # binomial 3-sigma slack below the 0.95 target at 25 seeds
        assert res.coverage_rate >= 0.95 - 3 * math.sqrt(0.95 * 0.05 / 25)
        assert res.dominance_fraction >= min(
            s.success_probability for s in res.per_seed)

    def test_halved_width_strictly_reduces_coverage(self):
        full = coverage_experiment(self.cfg(), 25)
        half = coverage_experiment(self.cfg(), 25, beta_scale=0.5)
        assert half.coverage_rate < full.coverage_rate
        assert sum(half.first_violation_hist.values()) > 0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_same_decisions_as_the_adaptive_run(self, seed, monkeypatch):
        # coverage and run_experiment(adaptive_beta=True) build the same
        # projection, oracle constants and ridge state, and share one loop
        runs = []
        run_rounds = policies._run_rounds

        def recording(*args, **kwargs):
            runs.append(run_rounds(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(harness, "_run_rounds", recording)
        cfg = ExperimentConfig(env=EnvConfig(n=200, K=10, noise=NoiseSpec.gaussian(0.1)),
                               m=20, T=300, seeds=(seed,))
        cov = coverage_experiment(cfg, 1).per_seed[0]
        run = run_experiment(dataclasses.replace(cfg, adaptive_beta=True))
        assert cov.cum_regret == run.algos[0].final_regret_mean
        [coverage_records], [run_records] = runs
        assert [(r.chosen, r.reward, r.instant_regret, r.ucb_gap) for r in coverage_records] \
            == [(r.chosen, r.reward, r.instant_regret, r.ucb_gap) for r in run_records]

    def test_replayed_rewards_are_python_floats(self, monkeypatch):
        # the scanned tables' noise replays as floats, as noise_draw gives it;
        # a numpy scalar would make every reward one and change its CSV repr
        runs = []
        run_rounds = policies._run_rounds

        def recording(*args, **kwargs):
            runs.append(run_rounds(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(harness, "_run_rounds", recording)
        coverage_experiment(small_cfg(T=20), 1)
        [[records]] = runs
        assert len(records) == 20 and all(type(r.reward) is float for r in records)

    def test_a_seed_draws_checks_and_projects_each_round_once(self, monkeypatch):
        # the round source draws and checks each table of rounds once; the
        # oracle scan projects it as a whole (one _project call a table) and
        # keeps its Z and means, and the loop runs on those without a second
        # check or projection
        calls, drawn = [], []  # appended to from the pool's threads too

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted
        draw = harness.Environment._dense_table
        monkeypatch.setattr(harness.Environment, "_dense_table",
                            lambda env, ts: drawn.append(ts) or draw(env, ts))
        for module in (environment, projection, policies, harness):
            for name in ("as_block", "_project"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(environment, "check_array",
                            counting("check_array", environment.check_array))
        cfg = ExperimentConfig(env=EnvConfig(n=200, K=10, noise=NoiseSpec.gaussian(0.1)),
                               m=20, T=300, seeds=(0,))
        coverage_experiment(cfg, 1)
        assert sorted(t for ts in drawn for t in ts) == list(range(1, 301))
        assert len(drawn) == 19  # tables of 16 rounds, the last of 12
        assert Counter(calls) == {"check_array": 19, "_project": 19}

    def test_replay_env_unsupported(self):
        ds = ReplayDataset(n=4, K=2, rows=np.zeros((4, 4)))
        cfg = ExperimentConfig(env=EnvConfig(n=4, K=2, context=Replay(ds)),
                               m=2, T=2, seeds=(0,))
        with pytest.raises(ConfigError, match="replay"):
            coverage_experiment(cfg, 2)

    def test_num_seeds_validated(self):
        with pytest.raises(ConfigError):
            coverage_experiment(self.cfg(), 0)

    @pytest.mark.parametrize("args,kwargs,field", [
        ((2.5,), {}, "num_seeds"), (("3",), {}, "num_seeds"),
        ((2,), {"beta_scale": "1"}, "beta_scale")])
    def test_argument_types_rejected_by_name(self, args, kwargs, field):
        with pytest.raises(ConfigError, match=f"^{field}: expected"):
            coverage_experiment(self.cfg(), *args, **kwargs)

    @pytest.mark.parametrize("algos", [
        ("linucb",), ("uniform",), ("cbrap-sg", "cbrap-rs"), ("cbrap-rs", "linucb")])
    def test_exactly_one_projected_algo(self, algos, monkeypatch):
        def no_seed(*args, **kwargs):
            raise AssertionError("a seed ran")
        monkeypatch.setattr(harness, "_coverage_seed", no_seed)
        cfg = dataclasses.replace(self.cfg(), algos=algos)
        with pytest.raises(ConfigError, match="algos"):
            coverage_experiment(cfg, 2)

    def test_random_sign_algo_runs_its_own_projection(self):
        sg, rs = (coverage_experiment(dataclasses.replace(self.cfg(), algos=(a,)), 2)
                  for a in ("cbrap-sg", "cbrap-rs"))
        assert [s.params.eps1 for s in sg.per_seed] != [s.params.eps1 for s in rs.per_seed]


class TestKaban:
    @pytest.mark.parametrize("trials", [2.5, "5", True])
    def test_trials_type_rejected_by_name(self, trials):
        with pytest.raises(ConfigError, match="^trials: expected int"):
            kaban_experiment([4], [0.5], trials)

    @pytest.mark.parametrize("m_list, eps1_list, name", [
        ([40.5], [0.9], "m_list"), ([True], [0.9], "m_list"), (["4"], [0.5], "m_list"),
        ([4], [True], "eps1_list"), ([4], ["0.5"], "eps1_list")])
    def test_list_element_rejected_by_name(self, m_list, eps1_list, name, monkeypatch):
        # each was a run (m=40, m=1, eps1=1.0) or a bare numpy error
        def no_sample(*args, **kwargs):
            raise AssertionError("a sample was drawn")
        monkeypatch.setattr(harness, "sg_distortion_sample", no_sample)
        with pytest.raises(ConfigError, match=f"^{name}: expected"):
            kaban_experiment(m_list, eps1_list, 10)

    def test_rates_below_bounds(self):
        cells = kaban_experiment([8, 32], [0.5, 0.75, 1.0], trials=20_000, seed=1)
        assert len(cells) == 6
        for c in cells:
            assert c.empirical_rate <= c.bound + c.slack
            assert not c.violated
            assert c.bound == kaban_failure_bound(c.m, c.eps1)

    def test_vacuous_bound_rows_trivially_pass(self):
        cells = kaban_experiment([4], [1e-6], trials=1000, seed=2)
        assert cells[0].bound == 1.0 and not cells[0].violated

    def test_rates_decrease_in_m(self):
        cells = kaban_experiment([8, 32, 128], [0.75], trials=20_000, seed=3)
        rates = [c.empirical_rate for c in cells]
        assert rates[0] >= rates[1] >= rates[2]

    def test_mean_distortion_shrinks_with_m(self):
        # same trials, fresh matrices: typical distortion scales like 1/sqrt(m)
        cells_small = kaban_experiment([8], [0.5], trials=5_000, seed=4)
        cells_large = kaban_experiment([128], [0.5], trials=5_000, seed=4)
        assert cells_large[0].empirical_rate <= cells_small[0].empirical_rate


class TestTimingSanity:
    def test_elapsed_positive_and_sparse_cost_n_free(self):
        # with sparse contexts the projection costs O(m * nnz), so doubling n
        # at fixed m must not change the per-round time by more than 2x
        from cbrap import PolicyConfig, SparseUniform, cbrap_run

        medians = {}
        for n in (2000, 4000):
            env = make_env(EnvConfig(n=n, K=10, context=SparseUniform(nnz=5),
                                     noise=NoiseSpec.gaussian(0.1), seed=0))
            records = cbrap_run(env, PolicyConfig(m=20, seed=1), 300)
            assert all(r.elapsed_ns > 0 for r in records)
            medians[n] = float(np.median([r.elapsed_ns for r in records[50:]]))
        assert medians[4000] <= 2.0 * medians[2000], medians


class TestArtifacts:
    def records(self):
        return [
            RoundRecord(t=1, chosen=0, reward=1 / 3, instant_regret=0.1,
                        ucb_gap=0.5, elapsed_ns=120),
            RoundRecord(t=2, chosen=2, reward=-0.25, instant_regret=0.0,
                        ucb_gap=float("inf"), elapsed_ns=80),
            RoundRecord(t=3, chosen=1, reward=0.7071067811865476,
                        instant_regret=1e-17, ucb_gap=0.0, elapsed_ns=95),
        ]

    def test_round_record_is_an_immutable_named_tuple(self):
        r = RoundRecord(t=3, chosen=1, reward=0.5, instant_regret=0.25,
                        ucb_gap=math.inf, elapsed_ns=7)
        assert r == RoundRecord(3, 1, 0.5, 0.25, math.inf, 7) and r.ucb_gap == math.inf
        assert r._fields == ("t", "chosen", "reward", "instant_regret", "ucb_gap",
                             "elapsed_ns")
        with pytest.raises(AttributeError):
            r.reward = 1.0
        with pytest.raises(TypeError):
            r[2] = 1.0

    def test_empty_records_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_csv([], path)
        text = open(path, encoding="utf-8").read()
        assert text == "t,chosen,reward,instant_regret,cum_regret,elapsed_ns\n"
        assert load_round_csv(path) == []

    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "r.csv")
        emit_csv(self.records(), path)
        back = load_round_csv(path)
        for orig, parsed in zip(self.records(), back):
            assert (orig.t, orig.chosen, orig.reward, orig.instant_regret,
                    orig.elapsed_ns) == \
                   (parsed.t, parsed.chosen, parsed.reward, parsed.instant_regret,
                    parsed.elapsed_ns)

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.builds(
        RoundRecord, t=st.integers(1, 2**63), chosen=st.integers(0, 2**31),
        reward=st.floats(allow_nan=False, allow_infinity=False),
        instant_regret=st.floats(min_value=0.0, allow_infinity=False),
        ucb_gap=st.just(0.0), elapsed_ns=st.integers(0, 2**63)), max_size=20))
    def test_round_trip_is_bit_exact(self, records):
        # -0.0, subnormals and magnitudes near the float maximum included
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.csv")
            emit_csv(records, path)
            back = load_round_csv(path)
        assert back == records
        assert [(r.reward.hex(), r.instant_regret.hex()) for r in back] == \
               [(r.reward.hex(), r.instant_regret.hex()) for r in records]

    def test_cum_regret_is_prefix_sum(self, tmp_path):
        path = str(tmp_path / "c.csv")
        emit_csv(self.records(), path)
        lines = open(path, encoding="utf-8").read().splitlines()[1:]
        cums = [float(line.split(",")[4]) for line in lines]
        insts = [float(line.split(",")[3]) for line in lines]
        assert cums == list(np.cumsum(insts))

    def test_trailing_newline(self, tmp_path):
        path = str(tmp_path / "n.csv")
        emit_csv(self.records(), path)
        assert open(path, "rb").read().endswith(b"\n")

    def test_corrupt_cum_column_detected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        emit_csv(self.records(), path)
        lines = open(path, encoding="utf-8").read().splitlines()
        parts = lines[1].split(",")
        parts[4] = "0.999"
        lines[1] = ",".join(parts)
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(DatasetError):
            load_round_csv(path)

    def test_emit_summary_json(self, tmp_path):
        path = str(tmp_path / "sum.json")
        summary = run_experiment(small_cfg())
        emit_summary(summary, path)
        raw = open(path, "rb").read()
        assert raw.endswith(b"\n")
        data = json.loads(raw)
        assert data["seeds"] == [1, 2]

    def test_numpy_infinities_are_written_as_strings(self, tmp_path):
        # a numpy float infinity is written as a Python one is, "inf" or
        # "-inf", never as JSON's non-standard Infinity, and a NaN, numpy's
        # or Python's, as "nan", never as JSON's non-standard NaN
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        summary = harness.ExperimentSummary(
            config={"beta": np.float64(np.inf), "delta": math.nan}, T=1, seeds=[0],
            algos=[harness.AlgoSummary(algo="uniform", regret_curves=[np.array([np.nan, 1.0])],
                                       final_regret_mean=np.float64(-np.inf),
                                       final_regret_std=np.float32(np.inf),
                                       mean_round_latency_ns=np.float64(2.5))],
            theory_bound=np.float64(np.inf), success_probability=np.float64(0.5))
        path = tmp_path / "summary.json"
        emit_summary(summary, str(path))
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
        assert data["config"]["beta"] == data["theory_bound"] == "inf"
        assert data["config"]["delta"] == "nan"
        assert data["algos"][0]["regret_curves"] == [["nan", 1.0]]
        assert data["algos"][0]["final_regret_mean"] == "-inf"
        assert data["algos"][0]["final_regret_std"] == "inf"
        assert data["algos"][0]["mean_round_latency_ns"] == 2.5
        assert data["success_probability"] == 0.5

    def test_summary_bytes_with_infinities_are_frozen(self, tmp_path):
        # an array of floats is written from one tolist(), unless it holds an
        # infinity; each infinity, in an array or a field, stays "inf" or
        # "-inf".  Digests frozen from the writer that streamed json.dump over
        # dataclasses.asdict copies
        curves = [np.array([0.5, np.inf]), np.array([0.25, 0.75])]
        experiment = harness.ExperimentSummary(
            config={"env": {"n": 4}, "beta": [1.5, -math.inf]}, T=2, seeds=[1, 2],
            algos=[harness.AlgoSummary(algo="uniform", regret_curves=curves,
                                       final_regret_mean=np.float64(1.0),
                                       final_regret_std=math.inf, mean_round_latency_ns=3.0)],
            theory_bound=-math.inf, success_probability=None)
        params = TheoryParams(R=0.1, S=1.0, L=1.0, B=1.0, lam=1.0, delta=0.05, eps=0.0,
                              eps1=0.0, gamma=0.0)
        coverage = harness.CoverageResult(coverage_rate=1.0, per_seed=[harness.SeedCoverage(
            seed=3, covered=True, first_violation=None, cum_regret=math.inf, regret_bound=2.5,
            success_probability=0.0, params=params)], first_violation_hist={1: 2})
        for summary, digest in [
                (experiment, "d8d98a3c29e0714b6ba8b48522de9e5b94207815e3249d2599bd37647ea06ee5"),
                (coverage, "fe0f79a36ca3ab2d6e0aad78e0ccedbc16c1695d9cf1b4882c998b46efbbfda1")]:
            path = tmp_path / "summary.json"
            emit_summary(summary, str(path))
            raw = path.read_bytes()
            assert b'"inf"' in raw and b"Infinity" not in raw
            assert hashlib.sha256(raw).hexdigest() == digest


class TestFrozenBytes:
    """SHA-256 digests of per-round CSVs, frozen from earlier releases.

    A change that keeps every draw, every policy's arithmetic and the CSV
    format leaves these digests as they are.  The long runs cross the
    1024-round boundary of the round-stream table; 2**63 + 5 is a seed of
    two 32-bit words.  The adaptive-beta case covers each UCB algo's oracle
    scan and the bounds averaged from them.

    The digests were taken under OpenBLAS's AVX-512 (SkylakeX) kernels.
    Its AVX2 kernels (Haswell, Zen) sum the means, projections and ridge
    products in another order, so every case here fails under them; CI
    prints the kernel OpenBLAS picked before it runs this class.
    """

    ALL = ("cbrap-sg", "cbrap-rs", "linucb", "uniform")
    CONFIGS = {
        "criterion-8": dict(env=EnvConfig(n=30, K=4, noise=NoiseSpec.gaussian(0.2)),
                            m=6, T=50, algos=("cbrap-sg", "linucb", "uniform"),
                            seeds=(1, 2)),
        "gaussian-unit": dict(env=EnvConfig(n=12, K=3,
                                            noise=NoiseSpec.bounded_uniform(0.3)),
                              m=4, T=1100, algos=ALL, seeds=(2**63 + 5,)),
        "sparse-uniform": dict(env=EnvConfig(n=16, K=3, context=SparseUniform(nnz=3),
                                             noise=NoiseSpec.gaussian(0.1)),
                               m=4, T=1100, algos=ALL, seeds=(7,)),
        "aligned-spread": dict(env=EnvConfig(n=16, K=3,
                                             context=AlignedSpread(nuisance_dim=10),
                                             noise=NoiseSpec.bounded_uniform(0.2)),
                               m=4, T=1100, algos=ALL, seeds=(2**63 + 5,)),
        "adaptive-beta": dict(env=EnvConfig(n=40, K=4,
                                            context=AlignedSpread(nuisance_dim=10),
                                            noise=NoiseSpec.gaussian(0.1)),
                              m=6, T=300, algos=ALL, seeds=(3, 2**63 + 5),
                              adaptive_beta=True),
    }
    DIGESTS = {
        "criterion-8":
            "1e9c06eba16ad7579cb96c4e34455c57b903aed749bec55c8626a8bfead10515",
        "gaussian-unit":
            "610590a8942327414939cb6b60ae9d536d39ce651a0b55524b178c52d0db15f3",
        "sparse-uniform":
            "8325710c18f668e5b21ac03b5b49b0d5125247967de730fcfaa17d97f511b481",
        "aligned-spread":
            "e9211df5699a899b634a0ad18a469ff9619c8516e187077b94b064b262c91c5e",
        "adaptive-beta":
            "dc1f497bf9df706f374e53cc382e7fee7fa29c1b3c66343010789ed66ebd9b74",
    }
    # exact reprs of (theory_bound, success_probability): each oracle scan's
    # bound, averaged over algos and seeds
    BOUNDS = {"adaptive-beta": ("2431.979177391334", "0.0")}

    @staticmethod
    def digest(out_dir: str) -> str:
        h = hashlib.sha256()
        for name in sorted(n for n in os.listdir(out_dir) if n.endswith(".csv")):
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_csvs_match_frozen_digest(self, tmp_path, name):
        summary = run_experiment(ExperimentConfig(**self.CONFIGS[name],
                                                  out_dir=str(tmp_path)))
        assert self.digest(str(tmp_path)) == self.DIGESTS[name]
        assert (repr(summary.theory_bound), repr(summary.success_probability)) \
            == self.BOUNDS.get(name, ("None", "None"))


class TestFrozenCoverage:
    """SHA-256 digests of each coverage seed's results, frozen from earlier
    releases: the exact reprs of covered, first_violation, cum_regret,
    regret_bound, success_probability and the oracle's TheoryParams.

    Three seeds per context generator at m=20, K=10, T=1000.  The narrow
    case shrinks the width under heavy noise, so its seeds leave the
    ellipsoid at rounds 22, 886 and 2 and freeze the seed's check too.

    Like ``TestFrozenBytes``, these digests hold under OpenBLAS's AVX-512
    (SkylakeX) kernels and fail under its AVX2 (Haswell, Zen) kernels.
    """

    NOISE = NoiseSpec.gaussian(0.1)
    CASES = {
        "gaussian-unit": (EnvConfig(n=200, K=10, noise=NOISE), 1.0),
        "sparse-uniform": (EnvConfig(n=400, K=10, context=SparseUniform(nnz=5),
                                     noise=NOISE), 1.0),
        "aligned-spread": (EnvConfig(n=100, K=10, context=AlignedSpread(nuisance_dim=10),
                                     noise=NOISE), 1.0),
        "narrow": (EnvConfig(n=200, K=10, noise=NoiseSpec.gaussian(1.0)), 0.2),
    }
    DIGESTS = {
        "gaussian-unit":
            "9c3aeb26a89c3d91da6a418673221792fc81821adf8ae6717341fdc552f1c23c",
        "sparse-uniform":
            "59aac7311f6773b87b45e187eb28cf9c533f4ebc9dddbf92da18c0e4ecc56dd6",
        "aligned-spread":
            "c8f1c75949207e9359a282bf07dc4d070ffaae3631b7c5097f9d2ba683cf9cae",
        "narrow":
            "4018d8c3d98854e2a8979239c7fb7e2b39f7609a9b07ec797a01bea89a80868e",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_per_seed_results_match_frozen_digest(self, name):
        env, beta_scale = self.CASES[name]
        result = coverage_experiment(ExperimentConfig(env=env, m=20, T=1000, seeds=(0,)),
                                     3, beta_scale=beta_scale)
        text = "\n".join(repr((s.covered, s.first_violation, s.cum_regret, s.regret_bound,
                               s.success_probability, s.params)) for s in result.per_seed)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name]
