"""Command-line interface: flags, config files, exit codes, artifacts."""

import json
import os

import numpy as np
import pytest
from cbrap import ReplayDataset, save_context_dataset
from cbrap.cli import main


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
                "--t", "10", "--seed", "5")
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
                       "--k", "2", "--t", "5", "--seed", "-1") == 1
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
        ({"lambda": float("inf")}, "lam: must be finite and positive"),
        ({"beta": float("inf")}, "beta: must be finite and positive"),
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

    def test_replay_requires_path(self):
        assert run_cli("run", "--algo", "uniform", "--n", "4", "--m", "2",
                       "--k", "2", "--t", "5", "--env", "replay") == 1


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
