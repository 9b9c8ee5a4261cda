"""Command-line interface: flags, config files, exit codes, artifacts."""

import json
import os
import warnings

import numpy as np
import pytest
from cbrap import (ConfigError, DatasetError, GaussianUnit, ReplayDataset,
                   load_context_dataset, load_experiment_config, load_round_csv,
                   save_context_dataset)
from cbrap.cli import _experiment_config, build_parser, main
from cbrap.harness import ALGOS, experiment_config_from_dict
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_flags_only(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = run_cli("run", "--algo", "cbrap-sg,uniform", "--n", "20", "--m", "4",
                       "--k", "3", "--t", "15", "--noise-r", "0.1",
                       "--seeds", "1,2", "--out", out)
        assert code == 0
        assert sorted(os.listdir(out)) == [
            "cbrap-sg_seed1.csv", "cbrap-sg_seed2.csv", "summary.json",
            "uniform_seed1.csv", "uniform_seed2.csv"]
        assert "final regret" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        args = ("run", "--algo", "cbrap-rs", "--n", "18", "--m", "3", "--k", "2",
                "--t", "10", "--seeds", "5")
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(*args, "--out", out_a) == 0
        assert run_cli(*args, "--out", out_b) == 0
        name = "cbrap-rs_seed5.csv"
        assert open(os.path.join(out_a, name), "rb").read() == \
               open(os.path.join(out_b, name), "rb").read()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {"env": {"n": 20, "k": 3, "noise": "gaussian", "noise_r": 0.1},
               "m": 4, "t": 12, "algos": ["uniform"], "seeds": [3]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli("run", "--config", str(path), "--t", "6")
        assert code == 0

    def test_missing_required_flags(self, capsys):
        assert run_cli("run", "--n", "10") == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_seed_list(self, capsys):
        assert run_cli("run", "--algo", "uniform", "--n", "10", "--m", "2",
                       "--k", "2", "--t", "5", "--seeds", "1,a") == 1
        assert "config error: seeds" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        assert run_cli("run", "--algo", "uniform", "--n", "10", "--m", "2",
                       "--k", "2", "--t", "5", "--seeds", "-1") == 1
        assert "config error: seeds" in capsys.readouterr().err

    def test_negative_seed_in_config_file(self, tmp_path, capsys):
        cfg = {"env": {"n": 20, "k": 3}, "m": 4, "t": 12, "algos": ["uniform"],
               "seeds": [-1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path)) == 1
        assert "config error: seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("fields,name", [
        ({"env": {"n": 20, "k": 3}, "beta": "abc"}, "beta"),
        ({"env": {"n": 20, "k": "x"}}, "k"),
    ])
    def test_non_numeric_config_field(self, tmp_path, capsys, fields, name):
        cfg = {"m": 4, "t": 12, "algos": ["uniform"], **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path)) == 1
        assert f"config error: {name}:" in capsys.readouterr().err

    def test_fractional_seed_in_config_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        for seeds in ([1.5], [True]):
            cfg = {"env": {"n": 20, "k": 3}, "m": 4, "t": 12,
                   "algos": ["uniform"], "seeds": seeds, "out_dir": str(out)}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            assert run_cli("run", "--config", str(path)) == 1
            assert "config error: seeds" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("fields,name", [
        ({"t": 5.9}, "t"), ({"m": 4.5}, "m"),
        ({"env": {"n": 20.7, "k": 3}}, "n"), ({"env": {"n": 20, "k": 3.9}}, "k"),
    ])
    def test_fractional_integer_field(self, tmp_path, capsys, fields, name):
        out = tmp_path / "o"
        cfg = {"env": {"n": 20, "k": 3}, "m": 4, "t": 5, "algos": ["uniform"],
               "out_dir": str(out), **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path)) == 1
        assert f"config error: {name}: expected int" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields,name,kind", [
        ({"env": {"n": 20, "k": True}}, "k", "int"), ({"m": True}, "m", "int"),
        ({"beta": False}, "beta", "float"),
        ({"adaptive_beta": "false"}, "adaptive_beta", "bool"),
        ({"adaptive_beta": 0}, "adaptive_beta", "bool"),
        ({"timing_in_csv": "true"}, "timing_in_csv", "bool"),
        ({"algos": 5}, "algos", "str or list of str"),
        ({"algos": {"uniform": 1}}, "algos", "str or list of str"),
        ({"out_dir": 5}, "out_dir", "str"),
        # an int path would open that file descriptor and read stdin
        ({"env": {"n": 20, "k": 3, "context": "replay", "replay_path": 0}},
         "replay_path", "str"),
    ])
    def test_boolean_and_number_fields_do_not_mix(self, tmp_path, capsys,
                                                  fields, name, kind):
        out = tmp_path / "o"
        cfg = {"env": {"n": 20, "k": 3}, "m": 4, "t": 5, "algos": ["uniform"],
               "out_dir": str(out), **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path)) == 1
        assert f"config error: {name}: expected {kind}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["noise_scale", "low", "high"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_aligned_spread_field(self, tmp_path, capsys, field, value):
        out = tmp_path / "o"
        cfg = {"env": {"n": 20, "k": 3, "context": "aligned-spread", field: value},
               "m": 4, "t": 5, "algos": ["uniform"], "out_dir": str(out)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))  # writes NaN / Infinity, which json.load reads
        assert run_cli("run", "--config", str(path)) == 1
        assert "config error: low, high and noise_scale must be finite" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields,message", [
        ({"lambda": float("inf")}, "lam must be finite and positive"),
        ({"beta": float("inf")}, "beta must be finite and positive"),
        ({"env": {"n": 20, "k": 3, "theta_norm": float("inf")}},
         "theta_norm must be finite and positive"),
        ({"env": {"n": 20, "k": 3, "noise": "gaussian", "noise_r": float("inf")}},
         "noise scale must be finite and positive"),
        ({"env": {"n": 20, "k": 3, "noise": "bounded-uniform", "noise_r": float("inf")}},
         "noise scale must be finite and positive"),
    ])
    def test_non_finite_number_field(self, tmp_path, capsys, fields, message):
        out = tmp_path / "o"
        cfg = {"env": {"n": 20, "k": 3}, "m": 4, "t": 5, "algos": ["cbrap-sg", "uniform"],
               "out_dir": str(out), **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))  # writes Infinity, which json.load reads
        assert run_cli("run", "--config", str(path)) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lambda", "--beta", "--noise-r"])
    def test_non_finite_number_flag(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert run_cli("run", "--n", "20", "--m", "4", "--k", "3", "--t", "5",
                       flag, "inf", "--out", str(out)) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--n", "20", "--m", "4", "--k", "0", "--t", "5"], "n and K must be >= 1"),
        (["--n", "0", "--m", "4", "--k", "3", "--t", "5"], "n and K must be >= 1"),
        ([{"env": {"n": 20, "k": 3, "context": "sparse-uniform", "nnz": 50},
           "m": 4, "t": 5}], "nnz must lie in [1, n]"),
        ([{"env": {"n": 20, "k": 3, "context": "aligned-spread", "nuisance_dim": 20},
           "m": 4, "t": 5}], "nuisance_dim must be <= n-1"),
        ([{"env": {"n": 20, "k": 3, "seed": -1}, "m": 4, "t": 5}], "seed: seed must be"),
    ])
    def test_env_errors_leave_no_output_directory(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        if isinstance(argv[0], dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(argv[0]))
            argv = ["--config", str(path)]
        assert run_cli("run", *argv, "--out", str(out)) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_values_load_as_integers(self, tmp_path):
        cfg = {"env": {"n": "20", "k": 3.0}, "m": "4", "t": 5, "algos": ["uniform"],
               "out_dir": str(tmp_path / "o")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path)) == 0
        summary = json.load(open(tmp_path / "o" / "summary.json"))
        assert summary["T"] == 5
        assert (summary["config"]["m"], summary["config"]["env"]["n"],
                summary["config"]["env"]["k"]) == (4, 20, 3)

    @pytest.mark.parametrize("algos", [["uniform,uniform"], ["uniform", "uniform"]])
    def test_repeated_algo_leaves_no_output_directory(self, tmp_path, capsys, algos):
        # a repeat would run the algo twice and overwrite its CSVs
        out = tmp_path / "o"
        argv = [arg for algo in algos for arg in ("--algo", algo)]
        assert run_cli("run", *argv, "--n", "10", "--m", "2", "--k", "2", "--t", "5",
                       "--out", str(out)) == 1
        assert "config error: algos" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "coverage"])
    def test_repeated_seed_leaves_no_output_directory(self, tmp_path, capsys, command):
        # a repeat would overwrite its CSVs and count its run twice
        out = tmp_path / "o"
        assert run_cli(command, "--n", "10", "--m", "2", "--k", "2", "--t", "5",
                       "--seeds", "1,1", "--out", str(out)) == 1
        assert "config error: seeds: each seed may appear once" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_algo(self, capsys):
        assert run_cli("run", "--algo", "zigzag", "--n", "10", "--m", "2",
                       "--k", "2", "--t", "5") == 1

    def test_bad_flag_exits_one(self):
        assert run_cli("run", "--not-a-flag") == 1

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_io_error_exit_two(self, capsys):
        code = run_cli("run", "--algo", "uniform", "--n", "10", "--m", "2",
                       "--k", "2", "--t", "5", "--out", "/dev/null/nope")
        assert code == 2
        assert "io error" in capsys.readouterr().err

    def test_replay_env(self, tmp_path):
        ds = ReplayDataset(n=4, K=2, rows=np.random.default_rng(0)
                           .standard_normal((10, 4)))
        csv = str(tmp_path / "ctx.csv")
        save_context_dataset(ds, csv)
        code = run_cli("run", "--algo", "linucb", "--n", "4", "--m", "2",
                       "--k", "2", "--t", "5", "--env", "replay",
                       "--replay", csv, "--out", str(tmp_path / "o"))
        assert code == 0

    def test_short_replay_rejected_before_any_artifact(self, tmp_path, capsys):
        ds = ReplayDataset(n=4, K=2, rows=np.zeros((10, 4)))  # 5 rounds
        csv = str(tmp_path / "ctx.csv")
        save_context_dataset(ds, csv)
        out = tmp_path / "o"
        code = run_cli("run", "--algo", "uniform", "--n", "4", "--m", "2",
                       "--k", "2", "--t", "6", "--env", "replay",
                       "--replay", csv, "--out", str(out))
        assert code == 1
        assert "config error: T" in capsys.readouterr().err
        assert not out.exists()

    def test_a_finite_replay_with_an_infinite_regret_exits_one(self, tmp_path, capsys):
        # means of +-1.5e308 are finite but their gap is not: the run once
        # logged an infinite regret, wrote NaN into summary.json and exited 0
        csv = tmp_path / "ctx.csv"
        csv.write_text("dim=1,arms=2\n" + "1e300\n-1e300\n" * 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "env": {"n": 1, "k": 2, "context": "replay", "replay_path": str(csv),
                    "theta_norm": 1.5e8},
            "m": 1, "t": 3, "algos": ["uniform"]}))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: instant regret must be finite, got inf\n"
        assert not out.exists()

    def test_a_replay_whose_means_overflow_prints_only_the_typed_error(self, tmp_path,
                                                                       capsys):
        # means of +-1e310 overflow: numpy's "overflow encountered in matmul"
        # warning, with its source line, once came before the error line
        csv = tmp_path / "ctx.csv"
        csv.write_text("dim=1,arms=2\n" + "1e300\n-1e300\n" * 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "env": {"n": 1, "k": 2, "context": "replay", "replay_path": str(csv),
                    "theta_norm": 1e10},
            "m": 1, "t": 3, "algos": ["uniform"]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # each warning, as the command line prints it
            assert run_cli("run", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert captured.err == "error: reward must be finite, got inf\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv,err", [
        (["--config", "aligned.json"], "config error: theta_norm: 1e+200 gives ||theta*|| = "
                                       "inf, which AlignedSpread cannot normalize"),
        (["--config", "adaptive.json"], "error: S must be finite and positive, got inf"),
        (["--n", "4", "--m", "2", "--k", "2", "--t", "3", "--lambda", "1e-320"],
         "error: lam must have a finite reciprocal, got 1e-320"),
    ])
    def test_an_overflowing_norm_or_lam_prints_only_the_typed_error(
            self, tmp_path, monkeypatch, capsys, argv, err):
        # numpy's overflow or invalid-value warning once came first: the
        # aligned run then exited 0 with a regret of about 8e201, the adaptive
        # one scanned every round before its error, and the tiny lam's error
        # blamed a row
        monkeypatch.chdir(tmp_path)
        env = {"n": 20, "k": 3, "theta_norm": 1e200}
        for name, extra in (("aligned.json", {"env": {**env, "context": "aligned-spread"}}),
                            ("adaptive.json", {"adaptive_beta": True})):
            (tmp_path / name).write_text(json.dumps(
                {"env": env, "m": 4, "t": 5, "algos": ["cbrap-sg"], **extra}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # each warning, as the command line prints it
            assert run_cli("run", *argv) == 1
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert captured.err == err + "\n"
        assert sorted(os.listdir(tmp_path)) == ["adaptive.json", "aligned.json"]

    def test_huge_replay_width_is_a_config_error(self, tmp_path, capsys):
        # each row's width is checked before the (rows, dim) array is allocated
        csv = tmp_path / "ctx.csv"
        csv.write_text("dim=100000000000000,arms=1\n1,2\n")
        assert run_cli("run", "--algo", "uniform", "--n", "2", "--m", "1", "--k", "1",
                       "--t", "1", "--replay", str(csv)) == 1
        err = capsys.readouterr().err
        assert "config error: " in err and "line 2: expected 100000000000000 values" in err

    def test_unallocatable_size_exits_one(self, capsys):
        # theta* alone would take 728 TiB, which no allocator grants
        assert run_cli("run", "--algo", "uniform", "--n", "100000000000000", "--m", "1",
                       "--k", "1", "--t", "1") == 1
        assert "error: Unable to allocate" in capsys.readouterr().err

    def test_replay_requires_path(self):
        assert run_cli("run", "--algo", "uniform", "--n", "4", "--m", "2",
                       "--k", "2", "--t", "5", "--env", "replay") == 1


# every config-file field, an env field as env.<name>
CONFIG_FIELDS = ["m", "t", "beta", "lambda", "delta", "seeds", "algos", "adaptive_beta",
                 "timing_in_csv", "out_dir", "env", "env.n", "env.k", "env.context",
                 "env.noise", "env.noise_r", "env.theta_norm", "env.nnz", "env.low",
                 "env.high", "env.noise_scale", "env.nuisance_dim", "env.replay_path"]
# wrong types for every field, and values of a right type but out of range
WRONG_JSON = st.sampled_from(["x", "", "2.5", True, False, None, 2.5, -1, 0, [], [1, [2]],
                              {}, {"a": 1}, float("nan"), float("inf"), -float("inf")])
NUMBER_FLAGS = ["--n", "--m", "--k", "--t", "--beta", "--lambda", "--delta", "--noise-r",
                "--seeds"]
WRONG_FLAG = st.sampled_from(["x", "", "2.5", "nan", "inf", "-1", "0", "1,x", "True"])


def read_config(*argv):
    return _experiment_config(build_parser().parse_args(["run", *argv]))


class TestOneReader:
    """Flags replace config-file fields, and one reader parses the result."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(5, 40), k=st.integers(1, 8), t=st.integers(1, 500),
           beta=st.floats(0.01, 10.0), lam=st.floats(0.01, 10.0),
           delta=st.floats(0.001, 0.999),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3, unique=True),
           algos=st.lists(st.sampled_from(ALGOS), min_size=1, unique=True),
           noise_r=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
           gen=st.sampled_from(["gaussian-unit", "sparse-uniform", "aligned-spread"]),
           adaptive=st.booleans(), data=st.data())
    def test_flags_and_files_give_one_config(self, tmp_path_factory, n, k, t, beta,
                                             lam, delta, seeds, algos, noise_r, gen,
                                             adaptive, data):
        m = data.draw(st.integers(1, n), label="m")
        flags = ["--n", str(n), "--k", str(k), "--m", str(m), "--t", str(t),
                 "--beta", repr(beta), "--lambda", repr(lam), "--delta", repr(delta),
                 "--seeds", ",".join(map(str, seeds)), "--noise-r", repr(noise_r),
                 "--env", gen, *(arg for a in algos for arg in ("--algo", a))]
        if adaptive:
            flags.append("--adaptive-beta")
        same = {"env": {"n": n, "k": k, "context": gen,
                        "noise": "gaussian" if noise_r else "none"},
                "m": m, "t": t, "beta": beta, "lambda": lam, "delta": delta,
                "seeds": seeds, "algos": algos, "adaptive_beta": adaptive}
        if noise_r:
            same["env"]["noise_r"] = noise_r
        # other valid values of every field a flag replaces
        other = {"env": {"n": n + 1, "k": k + 1, "context": "sparse-uniform", "nnz": 2,
                         "noise": "bounded-uniform", "noise_r": 0.5},
                 "m": 1, "t": t + 1, "beta": beta + 1, "lambda": lam + 1, "delta": 0.5,
                 "seeds": [99], "algos": "uniform", "adaptive_beta": False}
        path = tmp_path_factory.getbasetemp() / "reader.json"
        configs = [read_config(*flags)]
        for fields, argv in ((same, []), (other, flags)):
            path.write_text(json.dumps(fields))
            configs.append(read_config("--config", str(path), *argv))
        assert configs[0] == configs[1] == configs[2]
        assert (configs[0].env.n, configs[0].T, configs[0].algos) == (n, t, tuple(algos))

    def test_flag_replaces_a_field_before_any_check(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"env": {"n": 20, "k": 0}, "m": 4, "t": 5,
                                    "algos": ["uniform"]}))
        assert run_cli("run", "--config", str(path), "--k", "3",
                       "--out", str(tmp_path / "o")) == 0

    def test_env_flag_resets_the_generator_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"env": {"n": 20, "k": 3, "context": "sparse-uniform",
                                            "nnz": 7}, "m": 4, "t": 5}))
        cfg = read_config("--config", str(path), "--env", "gaussian-unit")
        assert cfg.env.context == GaussianUnit()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["run", "coverage"]),
           field=st.sampled_from(CONFIG_FIELDS), value=WRONG_JSON,
           flag=st.none() | st.tuples(st.sampled_from(NUMBER_FLAGS), WRONG_FLAG))
    def test_a_wrongly_typed_field_never_tracebacks(self, tmp_path_factory, capsys,
                                                    command, field, value, flag):
        # a file of valid fields but one, maybe with a wrongly typed flag on top
        cfg = {"env": {"n": 6, "k": 2, "noise": "gaussian", "noise_r": 0.1},
               "m": 2, "t": 3, "algos": ["cbrap-sg"]}
        *parents, key = field.split(".")
        (cfg[parents[0]] if parents else cfg)[key] = value
        tmp = tmp_path_factory.mktemp("wrong")
        path = tmp / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(tmp / "out")]
        if command == "coverage":
            argv[-1] = str(tmp / "cov.json")
            argv += ["--num-seeds", "1"]
        code = main(argv + list(flag or ()))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("env", ["abc", [1], None])
    def test_non_object_env_is_a_config_error(self, tmp_path, capsys, env):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"env": env, "m": 4, "t": 5}))
        assert run_cli("run", "--config", str(path), "--n", "20", "--k", "3") == 1
        assert "config error: env config must be an object" in capsys.readouterr().err


# a file of each input format whose second line is not UTF-8
NOT_UTF8 = {
    "context csv": b"dim=2,arms=1\n\xff\xfe,1\n",
    "round csv": b"t,chosen,reward,instant_regret,cum_regret,elapsed_ns\n\xff\xfe\n",
    "config": b'{"env": {"n": 2, "k": 1},\n"m": "\xff"}\n',
}


class TestOneWayIn:
    """One reader for every input file, one key for every config field and
    one flag for a run's seeds."""

    @pytest.mark.parametrize("fmt,reader,error", [
        ("context csv", load_context_dataset, DatasetError),
        ("round csv", load_round_csv, DatasetError),
        ("config", load_experiment_config, ConfigError),
    ])
    def test_a_file_that_is_not_utf8_is_a_typed_error(self, tmp_path, fmt, reader, error):
        path = tmp_path / "bin"
        path.write_bytes(NOT_UTF8[fmt])
        with pytest.raises(error, match=f"^cannot read {path}: 'utf-8' codec"):
            reader(str(path))

    @pytest.mark.parametrize("fmt,argv", [
        ("context csv", ["--n", "2", "--m", "1", "--k", "1", "--t", "1", "--replay"]),
        ("config", ["--config"]),
    ])
    def test_a_file_that_is_not_utf8_exits_one_in_one_line(self, tmp_path, capsys, fmt, argv):
        path = tmp_path / "bin"
        path.write_bytes(NOT_UTF8[fmt])
        assert run_cli("run", *argv, str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [
        ("T", 5), ("lam", 2.0), ("algo", "uniform"), ("seed", 1), ("env.K", 3)])
    def test_a_second_spelling_is_an_unknown_field(self, field, value):
        # each once shadowed or was shadowed by its one spelling without a word
        d = {"env": {"n": 20, "k": 3}, "m": 4, "t": 5}
        *parents, key = field.split(".")
        (d[parents[0]] if parents else d)[key] = value
        with pytest.raises(ConfigError, match=rf"^unknown (env|experiment) config "
                                              rf"fields: \['{key}'\]"):
            experiment_config_from_dict(d)

    def test_an_experiment_s_env_takes_no_seed(self, tmp_path, capsys):
        # a run replaces the env's seed with each of seeds: it once ran seed 0
        # while summary.json said env.seed 5
        d = {"env": {"n": 20, "k": 3, "seed": 5}, "m": 4, "t": 5}
        with pytest.raises(ConfigError, match="^env.seed: .*'seeds'"):
            experiment_config_from_dict(d)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        for command in ("run", "coverage"):
            assert run_cli(command, "--config", str(path)) == 1
            assert capsys.readouterr().err.startswith("config error: env.seed: ")

    @pytest.mark.parametrize("command,flag", [
        ("run", "--seed"), ("coverage", "--seed"), ("coverage", "--beta"),
        ("coverage", "--adaptive-beta"), ("run", "--seed=5"), ("coverage", "--adapt"),
    ])
    def test_a_removed_or_shortened_flag_exits_one(self, capsys, command, flag):
        # coverage's width is the oracle width times --beta-scale; a flag is
        # never shortened, so --beta cannot reach it, nor --seed reach --seeds
        argv = [command, "--n", "20", "--m", "4", "--k", "3", "--t", "5",
                "--num-seeds" if command == "coverage" else "--seeds", "1", flag]
        if flag in ("--seed", "--beta"):
            argv.append("5")
        assert run_cli(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_a_run_s_summary_config_reruns_it(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli("run", "--algo", "cbrap-sg,linucb,uniform", "--adaptive-beta",
                       "--n", "20", "--m", "4", "--k", "3", "--t", "40", "--lambda", "0.5",
                       "--delta", "0.1", "--noise-r", "0.1", "--env", "aligned-spread",
                       "--seeds", "3,1", "--out", str(first)) == 0
        block = json.loads((first / "summary.json").read_text())["config"]
        assert {"t", "lambda"} <= set(block) and not {"T", "lam"} & set(block)
        assert "seed" not in block["env"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(block))
        assert run_cli("run", "--config", str(path), "--out", str(again)) == 0
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(again)) and len(names) == 7
        for name in names:
            if name.endswith(".csv"):
                assert (first / name).read_bytes() == (again / name).read_bytes()


class TestCoverage:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "cov.json")
        code = run_cli("coverage", "--n", "24", "--m", "5", "--k", "3",
                       "--t", "20", "--noise-r", "0.05", "--num-seeds", "5",
                       "--out", out)
        assert code == 0
        assert "coverage rate" in capsys.readouterr().out
        assert json.load(open(out))["coverage_rate"] >= 0.0

    def test_strict_violation_exit_three(self):
        # widths shrunk a thousandfold miss zeta, so full coverage fails
        code = run_cli("coverage", "--n", "24", "--m", "5", "--k", "3",
                       "--t", "10", "--num-seeds", "3", "--strict",
                       "--beta-scale", "1e-3", "--min-coverage", "1.0")
        assert code == 3

    @pytest.mark.parametrize("flag,value,message", [
        ("--beta-scale", "inf", "beta_scale must be finite and positive"),
        ("--beta-scale", "nan", "beta_scale must be finite and positive"),
        ("--beta-scale", "0", "beta_scale must be finite and positive"),
        ("--beta-scale", "-1", "beta_scale must be finite and positive"),
        ("--min-coverage", "1.5", "--min-coverage must lie in [0, 1]"),
        ("--min-coverage", "-0.1", "--min-coverage must lie in [0, 1]"),
        ("--min-coverage", "nan", "--min-coverage must lie in [0, 1]"),
    ])
    def test_bad_width_or_target_is_a_config_error(self, tmp_path, capsys,
                                                    flag, value, message):
        out = tmp_path / "cov.json"
        code = run_cli("coverage", "--n", "24", "--m", "5", "--k", "3", "--t", "10",
                       "--num-seeds", "3", "--strict", flag, value, "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert "coverage rate" not in captured.out and not out.exists()

    def test_a_config_beta_is_a_config_error(self, tmp_path, capsys):
        # coverage's width is the oracle width times --beta-scale: a beta of 7
        # once printed the same report as none
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": {"n": 24, "k": 3}, "m": 5, "t": 10, "beta": 7.0}))
        out = tmp_path / "cov.json"
        code = run_cli("coverage", "--config", str(cfg), "--num-seeds", "3", "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: beta: coverage does not read it")
        assert "coverage rate" not in captured.out and not out.exists()

    @pytest.mark.parametrize("algo", ["linucb", "uniform", "cbrap-sg,cbrap-rs"])
    def test_coverage_needs_one_projected_algo(self, tmp_path, capsys, algo):
        out = tmp_path / "cov.json"
        code = run_cli("coverage", "--algo", algo, "--n", "24", "--m", "5", "--k", "3",
                       "--t", "10", "--num-seeds", "3", "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert "config error: algos" in captured.err
        assert "coverage rate" not in captured.out and not out.exists()


class TestKaban:
    def test_table_and_json(self, tmp_path, capsys):
        out = str(tmp_path / "kaban.json")
        code = run_cli("kaban", "--m-list", "8,16", "--eps1-list", "0.5,1.0",
                       "--trials", "4000", "--out", out)
        assert code == 0
        printed = capsys.readouterr().out
        assert "bound" in printed and "ok" in printed
        assert len(json.load(open(out))) == 4

    def test_strict_passes_when_bounds_hold(self):
        assert run_cli("kaban", "--m-list", "16", "--eps1-list", "0.75",
                       "--trials", "4000", "--strict") == 0

    def test_empty_list_rejected(self):
        assert run_cli("kaban", "--m-list", "", "--trials", "100") == 1

    def test_non_integer_m_list(self, capsys):
        assert run_cli("kaban", "--m-list", "8,x", "--trials", "100") == 1
        assert "config error: --m-list" in capsys.readouterr().err

    def test_non_numeric_eps1_list(self, capsys):
        assert run_cli("kaban", "--eps1-list", "0.5,y", "--trials", "100") == 1
        assert "config error: --eps1-list" in capsys.readouterr().err

    def test_non_finite_eps1_list(self, capsys):
        assert run_cli("kaban", "--eps1-list", "nan,inf", "--trials", "100") == 1
        captured = capsys.readouterr()
        assert "config error: eps1" in captured.err
        assert "ok" not in captured.out
