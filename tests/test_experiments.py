"""Config validation, runner outputs, CSV schemas, determinism, CLI codes."""

import json
import os

import numpy as np
import pytest

from blaq.cli import main as cli_main
from blaq.config import config_from_dict, load_config
from blaq.errors import ConfigError
from blaq.experiments import (TRAJECTORY_HEADER, TRAINING_HEADER, run,
                              run_toy2d, run_toy_pow32, run_train_mnist,
                              toy2d_quantized_floor_loss)
from blaq.mnist import make_synthetic_fixture


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({"experiment": "toy2d"})
        assert cfg.optimizer == "blaq" and cfg.bitwidth == 1
        assert cfg.a == 0.6 and cfg.m == 5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"experiment": "toy2d", "learning_rate": 0.1})
        assert "learning_rate" in str(exc.value)

    @pytest.mark.parametrize("patch", [
        {"experiment": "nope"},
        {"optimizer": "sgd"},
        {"bitwidth": 0},
        {"a": 1.5},
        {"m": 0},
        {"beta2": 1.0},
        {"eps": 0.0},
        {"steps": -5},
        {"batch_size": 0},
        {"window": 0},
        {"track_coords": 9},
        {"c": -1.0},
        {"eta_schedule": [[5, 0.1]]},
        {"sweep_bitwidths": [0, 2]},
    ])
    def test_bad_values_rejected(self, patch):
        data = {"experiment": "toy2d"}
        data.update(patch)
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"optimizer": "laq", "steps": 50}))
        cfg = load_config(str(path), {"steps": "75", "a": "0.3"}, experiment="toy2d")
        assert cfg.experiment == "toy2d"
        assert cfg.optimizer == "laq"
        assert cfg.steps == 75
        assert cfg.a == 0.3

    def test_experiment_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "toy2d"}))
        with pytest.raises(ConfigError):
            load_config(str(path), {}, experiment="toy-pow32")

    def test_schedule_resolution(self):
        cfg = config_from_dict({"experiment": "toy2d",
                                "eta_schedule": [[0, 0.1], [10, 0.05]]})
        sched = cfg.schedule()
        assert sched.at(5) == 0.1 and sched.at(10) == 0.05


def toy_cfg(tmp_path, experiment="toy2d", **kw):
    data = {"experiment": experiment, "output_dir": str(tmp_path / "run"),
            "steps": 60, "window": 20}
    data.update(kw)
    return config_from_dict(data)


class TestToyRunners:
    def test_toy2d_full_precision_approaches_minimum(self, tmp_path):
        cfg = toy_cfg(tmp_path, optimizer="full-precision", steps=300)
        out = run_toy2d(cfg)
        final = np.asarray(out["metrics"]["final_w"])
        assert np.linalg.norm(final - np.array([0.054, -0.055]), np.inf) < 1e-4

    def test_toy2d_outputs_and_headers(self, tmp_path):
        cfg = toy_cfg(tmp_path)
        out = run_toy2d(cfg)
        d = out["out_dir"]
        assert os.path.exists(os.path.join(d, "config.json"))
        with open(os.path.join(d, "trajectory.csv")) as fh:
            assert fh.readline().strip() == TRAJECTORY_HEADER
        metrics = json.load(open(os.path.join(d, "metrics.json")))
        assert "flip_count" in metrics and "direction_change_count" in metrics

    def test_toy2d_records_every_step(self, tmp_path):
        cfg = toy_cfg(tmp_path, steps=45)
        out = run_toy2d(cfg)
        assert len(out["record"]) == 46     # initial snapshot plus each step
        assert out["record"].steps[-1] == 45

    def test_quantized_floor_constant(self):
        assert toy2d_quantized_floor_loss(1) == pytest.approx(5e-6 / 6.0, rel=1e-12)

    def test_pow32_runs_and_reports(self, tmp_path):
        cfg = toy_cfg(tmp_path, experiment="toy-pow32", steps=80, window=30)
        out = run_toy_pow32(cfg)
        metrics = out["metrics"]
        assert "flip_count" in metrics
        assert os.path.exists(os.path.join(out["out_dir"], "trajectory.csv"))

    def test_bad_omega0_rejected(self, tmp_path):
        cfg = toy_cfg(tmp_path, omega0=[1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            run_toy2d(cfg)

    def test_backtracking_damps_oscillation_amplitude(self, tmp_path):
        # trailing-window amplitude of the full-precision weights:
        # backtracking below baseline under the oscillatory preset
        amps = {}
        for opt in ("laq", "blaq"):
            cfg = toy_cfg(tmp_path / opt, optimizer=opt, steps=600, window=100,
                          eta_schedule=[[0, 0.2]], beta2=0.9)
            metrics = run_toy2d(cfg)["metrics"]
            amps[opt] = max(metrics["oscillation_amplitude"].values())
        assert amps["blaq"] < amps["laq"]


class TestDeterminism:
    def test_toy2d_byte_identical_rerun(self, tmp_path):
        cfg = config_from_dict({"experiment": "toy2d", "seed": 3,
                                "steps": 80, "output_dir": str(tmp_path / "run")})
        run_toy2d(cfg)
        names = ("config.json", "trajectory.csv", "metrics.json")
        first = {n: (tmp_path / "run" / n).read_bytes() for n in names}
        run_toy2d(cfg)
        for n in names:
            assert (tmp_path / "run" / n).read_bytes() == first[n], f"{n} changed on rerun"


class TestMnistRunner:
    def test_trains_on_synthetic_fixture(self, tmp_path):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"),
                                          n_train=120, n_test=60, seed=7)
        cfg = config_from_dict({
            "experiment": "train-mnist", "optimizer": "blaq", "epochs": 5,
            "batch_size": 32, "hidden": [16], "track_coords": 4,
            "data_dir": data_dir, "output_dir": str(tmp_path / "run"),
            "eta_schedule": [[0, 0.01]],
        })
        out = run_train_mnist(cfg)
        d = out["out_dir"]
        with open(os.path.join(d, "training.csv")) as fh:
            assert fh.readline().strip() == TRAINING_HEADER
            rows = fh.read().strip().split("\n")
        assert len(rows) == 5
        metrics = json.load(open(os.path.join(d, "metrics.json")))
        assert 0.0 <= metrics["final_test_accuracy"] <= 1.0
        assert len(metrics["tracked_coords"]) == 4
        # the synthetic task is learnable: templates plus mild noise;
        # chance would be 0.1
        assert metrics["final_test_accuracy"] >= 0.5

    def test_missing_data_is_config_error(self, tmp_path):
        cfg = config_from_dict({
            "experiment": "train-mnist",
            "data_dir": str(tmp_path / "absent"),
            "output_dir": str(tmp_path / "run"),
        })
        with pytest.raises(ConfigError):
            run_train_mnist(cfg)

    def test_deterministic_rerun(self, tmp_path):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"),
                                          n_train=80, n_test=40, seed=9)
        outputs = []
        for name in ("a", "b"):
            cfg = config_from_dict({
                "experiment": "train-mnist", "epochs": 1, "batch_size": 20,
                "hidden": [8], "track_coords": 3, "data_dir": data_dir,
                "output_dir": str(tmp_path / name), "eta_schedule": [[0, 0.01]],
            })
            run_train_mnist(cfg)
            outputs.append(tmp_path / name)
        for fname in ("training.csv", "trajectory.csv", "metrics.json"):
            assert (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes()

    def test_laq_and_blaq_share_tracked_coords(self, tmp_path):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"),
                                          n_train=60, n_test=30, seed=3)
        coords = []
        for opt in ("laq", "blaq"):
            cfg = config_from_dict({
                "experiment": "train-mnist", "optimizer": opt, "epochs": 1,
                "batch_size": 20, "hidden": [8], "track_coords": 4,
                "data_dir": data_dir, "output_dir": str(tmp_path / opt),
                "eta_schedule": [[0, 0.01]],
            })
            out = run_train_mnist(cfg)
            coords.append(out["metrics"]["tracked_coords"])
        assert coords[0] == coords[1]


class TestCli:
    def test_success_exit_zero(self, tmp_path):
        code = cli_main(["toy2d", "--steps", "40", "--window", "10",
                         "--output-dir", str(tmp_path / "run")])
        assert code == 0

    def test_bad_config_exit_two(self, tmp_path):
        code = cli_main(["toy2d", "--bogus-key", "1"])
        assert code == 2

    def test_bad_value_exit_two(self):
        assert cli_main(["toy2d", "--bitwidth", "0"]) == 2

    def test_bitwidth_above_grid_maximum_exit_two(self):
        assert cli_main(["toy2d", "--bitwidth", "17"]) == 2
        assert cli_main(["theory-check", "--bitwidth", "20"]) == 2
        assert cli_main(["toy2d", "--sweep-bitwidths", "[1,17]"]) == 2

    def test_widest_bitwidth_runs(self, tmp_path):
        code = cli_main(["toy2d", "--bitwidth", "16", "--steps", "5",
                         "--output-dir", str(tmp_path / "run")])
        assert code == 0

    def test_failed_check_exit_one(self, tmp_path):
        # an 8-instance suite at a shortened budget misses its ordering target
        code = cli_main(["theory-check", "--n-instances", "8", "--seed", "0",
                         "--steps", "150", "--output-dir", str(tmp_path / "run")])
        assert code == 1

    def test_missing_data_exit_two(self, tmp_path):
        code = cli_main(["train-mnist", "--data-dir", str(tmp_path / "absent"),
                         "--output-dir", str(tmp_path / "run")])
        assert code == 2

    def test_config_file_flow(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"steps": 35, "window": 10,
                                        "output_dir": str(tmp_path / "run")}))
        assert cli_main(["toy-pow32", "--config", str(cfg_path)]) == 0
        assert os.path.exists(tmp_path / "run" / "metrics.json")

    def test_short_override_is_not_the_config_flag(self, tmp_path):
        out = tmp_path / "run"
        assert cli_main(["toy-pow32", "--c", "2.0", "--steps", "20", "--window", "10",
                         "--output-dir", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["c"] == 2.0

    def test_dispatcher(self, tmp_path):
        cfg = config_from_dict({"experiment": "toy-pow32", "steps": 30,
                                "window": 10, "output_dir": str(tmp_path / "r")})
        out = run(cfg)
        assert "metrics" in out


class TestCliLimits:
    @pytest.mark.parametrize("argv, where", [
        (["toy-pow32", "--eta-schedule", "[[0,1e300]]"], "node 2 (power) at step 1"),
        (["toy2d", "--omega0", "[1e308,1]"], "node 3 (square)"),
    ])
    def test_divergence_exit_three(self, tmp_path, capsys, argv, where):
        code = cli_main(argv + ["--output-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("diverged: ") and where in err
        assert "Traceback" not in err

    def test_sweep_breakpoint_limit_exit_two(self, tmp_path, capsys):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"),
                                          n_train=40, n_test=20, seed=2)
        out = tmp_path / "run"
        code = cli_main(["train-mnist", "--bitwidth", "9", "--data-dir", data_dir,
                         "--output-dir", str(out)])
        assert code == 2
        assert "breakpoints" in capsys.readouterr().err
        assert not (out / "training.csv").exists()
        assert cli_main(["theory-check", "--theory-dim", "1000", "--bitwidth", "16",
                         "--output-dir", str(tmp_path / "theory")]) == 2

    @pytest.mark.parametrize("argv", [
        ["toy2d", "--eps", "NaN"],
        ["toy2d", "--eps", "Infinity"],
        ["toy2d", "--eta-schedule", "[[0,NaN]]"],
        ["toy2d", "--eta-schedule", "[[0,Infinity]]"],
        ["toy2d", "--eta-schedule", "[[0,0.1],[Infinity,0.2]]"],
        ["toy2d", "--window", "1"],
        ["theory-check", "--seed", "-1"],
        ["train-mnist", "--seed", "-1"],
        ["toy2d", "--omega0", "5"],
        ["toy2d", "--omega0", "[Infinity,1]"],
        ["toy2d", "--omega0", "[]"],
        ["toy-pow32", "--omega0", "[]"],
        ["toy-pow32", "--c", "-Infinity"],
        ["train-mnist", "--hidden", "[0]"],
        ["train-mnist", "--hidden", "[-3]"],
        ["train-mnist", "--hidden", "5"],
        ["train-mnist", "--hidden", "[2.5]"],
    ])
    def test_rejected_config_exit_two(self, tmp_path, capsys, argv):
        code = cli_main(argv + ["--output-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, key", [
        (["theory-check", "--theory-dim", "1000000000000"], "theory_dim"),
        (["theory-check", "--theory-dim", "20000000"], "theory_dim"),
        (["train-mnist", "--hidden", "[1000000000000]"], "hidden"),
    ])
    def test_oversized_config_exit_two(self, tmp_path, capsys, argv, key):
        # rejected before the suite draws or the model is built
        data_dir = make_synthetic_fixture(str(tmp_path / "data"),
                                          n_train=40, n_test=20, seed=2)
        out = tmp_path / "run"
        code = cli_main(argv + ["--data-dir", data_dir, "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {key} ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unusable_output_dir_exit_two(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n")
        code = cli_main(["toy2d", "--steps", "5", "--output-dir", str(plain / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sweep", ["[]", "[1,1]", "[4,2,4]"])
    def test_empty_or_repeated_sweep_exit_two(self, tmp_path, capsys, sweep):
        with pytest.raises(ConfigError, match="distinct"):
            config_from_dict({"experiment": "toy2d", "sweep_bitwidths": json.loads(sweep)})
        out = tmp_path / "run"
        code = cli_main(["toy2d", "--sweep-bitwidths", sweep, "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_one_step_mnist_run(self, tmp_path):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"),
                                          n_train=40, n_test=20, seed=2)
        out = tmp_path / "run"
        assert cli_main(["train-mnist", "--epochs", "1", "--data-dir", data_dir,
                         "--output-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["final_quarter_window"] == 1
