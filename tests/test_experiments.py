"""Config validation, runner outputs, CSV schemas, determinism, CLI codes."""

import dataclasses
import importlib.util
import json
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import blaq
from blaq.cli import main as cli_main
from blaq import experiments, theory
from blaq.config import ExperimentConfig, config_from_dict, load_config
from blaq.curvature import LrSchedule
from blaq.errors import ConfigError
from blaq.experiments import (TRAJECTORY_HEADER, TRAINING_HEADER, run,
                              run_toy2d, run_toy_pow32, run_train_mnist,
                              toy2d_quantized_floor_loss, write_json)
from blaq.mnist import make_synthetic_fixture


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({"experiment": "toy2d"})
        assert cfg.optimizer == "blaq" and cfg.bitwidth == 1
        assert cfg.a == 0.6

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
        {"m": 5},
        {"output_dir": 5},
        {"data_dir": ["x"]},
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

    def test_experiment_override_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="override says experiment='toy-pow32'"):
            load_config(None, {"experiment": "toy-pow32"}, experiment="toy2d")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "toy-pow32"}))
        with pytest.raises(ConfigError, match="config file says"):
            load_config(str(path), {"experiment": "toy2d"}, experiment="toy2d")
        cfg = load_config(None, {"experiment": "toy2d", "steps": "5"}, experiment="toy2d")
        assert cfg.experiment == "toy2d" and cfg.steps == 5

    def test_schedule_resolution(self):
        cfg = config_from_dict({"experiment": "toy2d",
                                "eta_schedule": [[0, 0.1], [10, 0.05]]})
        sched = cfg.schedule()
        assert sched.at(5) == 0.1 and sched.at(10) == 0.05

    def test_integral_float_schedule_step_accepted(self):
        cfg = config_from_dict({"experiment": "toy2d", "eta_schedule": [[0, 0.1], [2.0, 0.05]]})
        assert cfg.schedule().entries == [(0, 0.1), (2, 0.05)]

    def test_rate_rejected_exactly_where_eps_over_rate_overflows(self):
        # 1 / 6e-309 is about 1.67e308; 1 / 5e-309 overflows
        base = {"experiment": "toy2d", "eps": 1.0}
        assert config_from_dict({**base, "eta_schedule": [[0, 6e-309]]}).eps == 1.0
        with pytest.raises(ConfigError, match="eps / rate overflows"):
            config_from_dict({**base, "eta_schedule": [[0, 0.1], [5, 5e-309]]})
        # a runner's default schedule is held to the same rule
        cfg = config_from_dict({"experiment": "toy2d", "eps": 1e308})
        with pytest.raises(ConfigError, match="rate 0.1 is too small"):
            cfg.schedule(LrSchedule.constant(0.1))
        assert cfg.schedule(LrSchedule.constant(1.0)).entries == [(0, 1.0)]

    def test_rate_rejected_exactly_where_eps_over_rate_rounds_to_zero(self):
        # 1e-320 / 1e3 is a subnormal; 1e-320 / 1e4 rounds to 0
        base = {"experiment": "toy2d", "eps": 1e-320}
        assert config_from_dict({**base, "eta_schedule": [[0, 1e3]]}).eps == 1e-320
        with pytest.raises(ConfigError, match="eps / rate rounds to 0"):
            config_from_dict({**base, "eta_schedule": [[0, 0.1], [5, 1e4]]})


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

    def test_sweep_report_echoes_the_sub_runs_window(self, tmp_path):
        out = tmp_path / "sweep"
        cli_main(["toy2d", "--sweep-bitwidths", "[1,2]", "--steps", "5", "--output-dir", str(out)])
        report = json.loads((out / "zigzag_report.json").read_text())
        windows = {json.loads(p.read_text())["window"] for p in out.glob("*/metrics.json")}
        assert windows == {report["window"]} == {6}

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


class TestWriteJson:
    def test_numpy_values_written_as_their_python_equivalents(self, tmp_path):
        nan = float("nan")
        payload = {
            "f64": np.float64(0.1), "nan": np.float64(nan), "py_nan": nan,
            "i64": np.int64(-7), "bool": np.bool_(True), "py_bool": False,
            "matrix": np.array([[1.5, -2.0], [1e-300, 3.0]]), "ints": np.arange(3),
            "tuple": (1, np.float64(2.5), "x", (np.bool_(False), None)),
            "nested": {"list": [np.int64(2), np.array([0.1, nan])], "empty": np.array([])},
        }
        plain = {
            "f64": 0.1, "nan": nan, "py_nan": nan, "i64": -7, "bool": True, "py_bool": False,
            "matrix": [[1.5, -2.0], [1e-300, 3.0]], "ints": [0, 1, 2],
            "tuple": [1, 2.5, "x", [False, None]],
            "nested": {"list": [2, [0.1, nan]], "empty": []},
        }
        write_json(tmp_path / "out.json", payload)
        text = (tmp_path / "out.json").read_text()
        assert text == json.dumps(plain, indent=2, sort_keys=True) + "\n"
        assert '"f64": 0.1,' in text and '"nan": NaN,' in text and '"bool": true,' in text

    def test_other_objects_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            write_json(tmp_path / "out.json", {"x": object()})


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


DIVERGING_RUNS = [
    (["toy-pow32", "--eta-schedule", "[[0,1e300]]"], "non-finite loss (inf) at step 1"),
    (["toy2d", "--omega0", "[1e308,1]"], "non-finite loss (inf) at step 0"),
    # only the loss overflows: the gradient at w0 is finite
    (["toy2d", "--omega0", "[1e160,1]"], "non-finite loss (inf) at step 0"),
    (["toy-pow32", "--c", "1e308", "--omega0", "[1e10]"], "non-finite loss (inf) at step 0"),
    # the 1-bit scale (d . |w|) / sum(d) underflows to 0
    (["toy2d", "--omega0", "[5e-324,0]"], "projection scale is not positive: 0.0"),
    # sum(d) / n^2 of the 8-bit sweep underflows
    (["toy-pow32", "--omega0", "[1.0]", "--bitwidth", "8", "--optimizer", "laq", "--eps", "1e-320",
      "--eta-schedule", "[[0,1.0]]", "--c", "1e-300"],
     "projection weights underflow: sum(d) / 16384 is 0 at step 1"),
    # g* * g* overflows at the trial point, and at a = 1 the mixed metric
    # is 1 * d + 0 * inf = NaN
    (["toy-pow32", "--omega0", "[1e-200]", "--a", "1", "--c", "1e200"],
     "metric is not finite at step 1"),
    # both metrics are infinite from a zero start; at a = 0 the mix is 0 * inf + inf
    (["toy-pow32", "--omega0", "[0]", "--a", "0", "--c", "1e300"], "metric is not finite at step 1"),
    # eps / rate is finite for every drawn rate; the projection's sums overflow
    (["theory-check", "--eps", "1e307"], "projection scale is not finite: nan at step 1"),
]


class TestCliLimits:
    @pytest.mark.parametrize("argv, where", DIVERGING_RUNS)
    def test_divergence_exit_three(self, tmp_path, capsys, argv, where):
        code = cli_main(argv + ["--output-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("diverged: ") and where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [argv for argv, _ in DIVERGING_RUNS])
    def test_divergence_is_the_first_stderr_line_of_a_process(self, tmp_path, argv):
        # numpy's overflow warnings would come first; the CLI silences them
        src = os.path.dirname(os.path.dirname(os.path.abspath(blaq.__file__)))
        out = subprocess.run([sys.executable, "-m", "blaq.cli", *argv,
                              "--output-dir", str(tmp_path / "run")],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
        assert out.returncode == 3
        assert out.stderr.splitlines()[0].startswith("diverged: ")
        assert "Warning" not in out.stderr

    def test_trainer_divergence_names_the_step(self, tmp_path, capsys):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"),
                                          n_train=40, n_test=20, seed=2)
        out = tmp_path / "run"
        code = cli_main(["train-mnist", "--eta-schedule", "[[0,1e300]]", "--data-dir", data_dir,
                         "--output-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1
        assert err[0].startswith("diverged: ") and err[0].endswith(" at step 1")
        assert not out.exists()

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
        ["toy2d", "--m", "5"],
        # eps / rate rounds to 0, so the metric D could be 0
        ["toy-pow32", "--omega0", "[0.3]", "--eps", "1e-320", "--eta-schedule", "[[0,1e100]]",
         "--c", "1e-300"],
        ["train-mnist", "--eps", "1e-320", "--eta-schedule", "[[0,1e300]]"],
        ["toy2d", "--eta-schedule", "[[0.5,1]]"],
        ["toy2d", "--eta-schedule", "[[false,1]]"],
        ["toy2d", "--eta-schedule", '[["0",1]]'],
        ["toy2d", "--steps", "true"],
        ["toy2d", "--omega0", "[1" + "0" * 400 + "]"],
        ["toy2d", "--eps", "1" + "0" * 400],
        # eps / rate overflows, so the metric D is infinite
        ["toy-pow32", "--omega0", "[-0.0]", "--a", "1", "--eps", "1e10",
         "--eta-schedule", "[[0,1e-300]]"],
        ["toy2d", "--optimizer", "full-precision", "--eps", "1e10",
         "--eta-schedule", "[[0,1e-300]]"],
        ["toy2d", "--eps", "1e308"],            # against the default rate 0.1
        # runs that would record more than MAX_TRACE_FLOATS floats
        ["toy2d", "--steps", "1" + "0" * 400],
        ["toy-pow32", "--steps", "1" + "0" * 400],
        ["toy2d", "--sweep-bitwidths", "[1,2]", "--steps", "1" + "0" * 400],
        ["theory-check", "--steps", "1" + "0" * 400],
        ["theory-check", "--n-instances", "1" + "0" * 400],
        # eps / rate overflows at every rate c/L1 the theorem suite draws
        ["theory-check", "--eps", "1e308"],
        # overrides that json cannot parse stay raw strings, which validation rejects
        ["toy2d", "--omega0", "[" * 30000 + "]" * 30000],
        ["toy2d", "--steps", "1" + "0" * 5000],
        # the package downloads nothing: fetch_url is not a key
        ["train-mnist", "--fetch-url", "x"],
        # rejected values kilobytes long; their messages are cut to one short line
        ["toy2d", "--a", "x" * 5000],
        ["toy2d", "--optimizer", "x" * 5000],
        ["train-mnist", "--hidden", "[" + ",".join(["-1"] * 3000) + "]"],
    ])
    def test_rejected_config_exit_two(self, tmp_path, capsys, argv):
        code = cli_main(argv + ["--output-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err) - 1 <= 400

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",                                             # not UTF-8
        b'{"omega0": ' + b"[" * 30000 + b"]" * 30000 + b"}",         # nested too deep
        b'{"steps": 1' + b"0" * 5000 + b"}",                        # over the digit limit
    ])
    def test_unreadable_config_file_exit_two(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        out = tmp_path / "run"
        code = cli_main(["toy2d", "--config", str(path), "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot read config {path}: ")
        assert err.count("\n") == 1
        assert not out.exists()

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

    def test_experiment_override_exit_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["toy2d", "--experiment", "toy-pow32", "--steps", "5",
                         "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "toy-pow32" in err
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


class Reached(Exception):
    """Raised by a stand-in for the first stage after the size check."""


def _reached(*args, **kwargs):
    raise Reached


class TestRunSizeLimits:
    """steps, epochs and n_instances each have a finite largest accepted
    value, from the one budget theory.MAX_TRACE_FLOATS = 2^24 floats."""

    def test_endless_steps_exit_two_at_once(self, tmp_path, capsys):
        out = tmp_path / "run"
        start = time.perf_counter()
        code = cli_main(["toy2d", "--steps", "1" + "0" * 400, "--output-dir", str(out)])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: steps 1000")
        assert len(err.splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("argv, first_rejected, stage, message", [
        # toy2d records 3 x 2 floats per row, steps + 1 rows
        (["toy2d", "--steps"], 2_796_202, (experiments, "run_toy_objective"),
         "steps 2796202 on 2 weights record 16777218 floats"),
        # 50 instances of 4 floats per row, steps + 1 rows
        (["theory-check", "--steps"], 83_886, (theory, "draw_instance"),
         "n_instances 50 of 83886 steps at theory_dim 4 record 16777400 floats"),
        # 301 rows of 4 floats per instance
        (["theory-check", "--n-instances"], 13_935, (theory, "draw_instance"),
         "n_instances 13935 of 300 steps at theory_dim 4 record 16777740 floats"),
        # one step per epoch (40 images, batch 128), 3 x 8 tracked floats per step
        (["train-mnist", "--data-dir", "{data}", "--epochs"], 699_051,
         (experiments, "train_classifier"),
         "epochs 699051 of 1 steps at track_coords 8 record 16777224 floats"),
    ])
    def test_first_rejected_value(self, tmp_path, capsys, monkeypatch, argv, first_rejected,
                                  stage, message):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"), n_train=40, n_test=20, seed=2)
        argv = [a.format(data=data_dir) for a in argv]
        out = tmp_path / "run"
        monkeypatch.setattr(*stage, _reached)
        with pytest.raises(Reached):
            cli_main(argv + [str(first_rejected - 1), "--output-dir", str(out)])
        assert cli_main(argv + [str(first_rejected), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}, above the limit of 16777216\n"
        assert not out.exists()


def _assert_same_run(first, second):
    """The same output files, byte for byte; config.json may differ only
    in its output_dir."""
    files = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
    assert files == sorted(str(p.relative_to(second)) for p in second.rglob("*") if p.is_file())
    for rel in files:
        a, b = (first / rel).read_bytes(), (second / rel).read_bytes()
        if os.path.basename(rel) != "config.json":
            assert a == b, rel
            continue
        a, b = json.loads(a), json.loads(b)
        assert a.pop("output_dir").startswith(str(first))
        assert b.pop("output_dir").startswith(str(second))
        assert a == b


class TestConfigRoundTrip:
    """A run's own config.json loads back as --config and reruns the run."""

    @pytest.mark.parametrize("argv", [
        ["toy2d", "--steps", "40"],
        ["toy2d", "--steps", "40", "--eta-schedule", "[[0,0.1],[20,0.05]]",
         "--omega0", "[0.5,-1]"],
        ["toy2d", "--sweep-bitwidths", "[1,2]", "--eta-schedule", "[[0,0.2]]",
         "--beta2", "0.9", "--steps", "300", "--window", "100"],
        ["toy-pow32", "--optimizer", "laq", "--steps", "30"],
        ["theory-check", "--n-instances", "3"],
        ["train-mnist", "--epochs", "1", "--hidden", "[8]", "--data-dir", "{data}"],
    ])
    def test_rerun_from_the_echo_is_byte_identical(self, tmp_path, argv):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"),
                                          n_train=40, n_test=20, seed=2)
        argv = [a.format(data=data_dir) for a in argv]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli_main(argv + ["--output-dir", str(first)]) == 0
        assert cli_main([argv[0], "--config", str(first / "config.json"),
                         "--output-dir", str(second)]) == 0
        _assert_same_run(first, second)
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for path in first.rglob("config.json"):
            assert set(json.loads(path.read_text())) == fields, path

    @pytest.mark.parametrize("override", [
        ["--steps", "80"],
        ["--omega0", "[0.5,-1]"],
        ["--eta-schedule", "[[0,0.05]]"],
        ["--steps", "null"],
    ])
    def test_override_replaces_the_echoed_value(self, tmp_path, override):
        echoed, rerun, direct = tmp_path / "echoed", tmp_path / "rerun", tmp_path / "direct"
        assert cli_main(["toy2d", "--steps", "120", "--output-dir", str(echoed)]) == 0
        assert cli_main(["toy2d", "--config", str(echoed / "config.json"), *override,
                         "--output-dir", str(rerun)]) == 0
        assert cli_main(["toy2d", "--steps", "120", *override, "--output-dir", str(direct)]) == 0
        _assert_same_run(direct, rerun)

    @pytest.mark.parametrize("key", ["resolved_steps", "resolved_omega0",
                                     "resolved_eta_schedule", "resolved_steps_per_epoch"])
    def test_resolved_keys_are_checked(self, key):
        # the keys of the older echo format are results, not config keys
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"experiment": "toy2d", key: 40})

    def test_edited_resolved_value_exit_two(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert cli_main(["toy2d", "--steps", "20", "--output-dir", str(first)]) == 0
        echo = json.loads((first / "config.json").read_text())
        echo["resolved_steps"] = 20     # an echo in the older format
        (tmp_path / "edited.json").write_text(json.dumps(echo))
        out = tmp_path / "second"
        code = cli_main(["toy2d", "--config", str(tmp_path / "edited.json"),
                         "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['resolved_steps']\n"
        assert not out.exists()

    def test_default_toy2d_metrics_hold_the_resolved_values(self, tmp_path):
        assert cli_main(["toy2d", "--output-dir", str(tmp_path)]) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["resolved_steps"] == 600
        assert metrics["resolved_omega0"] == [1.0, 1.0]
        assert metrics["resolved_eta_schedule"] == [[0, 0.1]]


# Start values, from signed zeros and subnormals to near-overflow, and the
# other knobs of a toy run at the ends of their ranges.
CONTRACT_OMEGA0 = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e-160, 0.3, -0.7, 1.0,
                   1e150, 1e200, 1e300, 1.7e308]


def contract_sweep_runs(n=150, seed=0):
    """n seeded toy runs of 20 steps over CONTRACT_OMEGA0, bitwidths
    {1, 2, 3, 8, 16}, every optimizer, eps in {1e-320, 1e-8, 1e10}, rates
    in {1e-300, 1, 1e100, 1e300}, mixing coefficients a in {0, 0.6, 1}
    and c in {1e-300, 1e300}."""
    rng = np.random.default_rng(seed)

    def pick(values):
        return values[int(rng.integers(len(values)))]

    for _ in range(n):
        experiment = pick(["toy2d", "toy-pow32"])
        dim = 2 if experiment == "toy2d" else int(rng.integers(1, 4))
        argv = [experiment, "--steps", "20",
                "--omega0", json.dumps([pick(CONTRACT_OMEGA0) for _ in range(dim)]),
                "--bitwidth", str(pick([1, 2, 3, 8, 16])),
                "--optimizer", pick(["laq", "blaq", "full-precision"]),
                "--eps", repr(pick([1e-320, 1e-8, 1e10])),
                "--eta-schedule", json.dumps([[0, pick([1e-300, 1.0, 1e100, 1e300])]]),
                "--a", pick(["0", "0.6", "1"])]
        if experiment == "toy-pow32":
            argv += ["--c", repr(pick([1e-300, 1e300]))]
        yield argv


class TestExitCodeContract:
    """Every input ends in exit 0-3 with a one-line message, never a traceback."""

    def test_seeded_sweep_of_extreme_toy_inputs(self, tmp_path, capsys):
        codes = []
        for i, argv in enumerate(contract_sweep_runs()):
            code = cli_main(argv + ["--output-dir", str(tmp_path / str(i))])
            assert code in (0, 1, 2, 3), argv
            assert len(capsys.readouterr().err.splitlines()) == (code != 0), argv
            codes.append(code)
        # the sweep reaches finished runs, rejected configs and divergences
        assert {0, 2, 3} <= set(codes)

    def test_negative_idx_dimension_exit_two(self, tmp_path, capsys):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"), n_train=40, n_test=20, seed=2)
        path = os.path.join(data_dir, "train-images-idx3-ubyte")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">iiii", 2051, -1, -1, 16) + bytes(16))
        code = cli_main(["train-mnist", "--data-dir", data_dir,
                         "--output-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: negative dimension -1 at offset 4")
        assert "Traceback" not in err


def _load_tool(name):
    """A script of the repository's tools/ directory, as a module."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsVerdict:
    """tools/bench_pairs.py: the regression verdict on fixed numbers."""

    verdict = staticmethod(_load_tool("bench_pairs").regression_verdict)
    # median 10.2, quartiles 10.05 and 10.35: an IQR of 0.3 against an
    # allowance of 1.02 at bound 0.1
    NARROW = [10.4, 10.0, 10.3, 10.1, 10.2]
    # median 10, quartiles 6.5 and 13.5: an IQR of 7 against 1.0
    WIDE = [5.0, 8.0, 10.0, 12.0, 15.0]

    @pytest.mark.parametrize("parent, change, better, expected", [
        (NARROW, [11.3, 11.3, 11.3], "lower", "worse by more than the bound"),
        (NARROW, [11.2, 11.2, 11.2], "lower", "within bound"),
        (NARROW, [9.0, 9.5, 12.0], "lower", "within bound"),
        (NARROW, [9.1, 9.1, 9.1], "higher", "worse by more than the bound"),
        (NARROW, [9.3, 9.3, 9.3], "higher", "within bound"),
        (WIDE, [10.5, 10.5, 10.5], "lower", "unresolved"),
        (WIDE, [9.5, 9.5, 9.5], "higher", "unresolved"),
        (WIDE, [4.9, 4.9, 4.9], "lower", "within bound"),
        (WIDE, [15.1, 15.1, 15.1], "higher", "within bound"),
        (WIDE, [11.1, 11.1, 11.1], "lower", "worse by more than the bound"),
        # exactly the bound is within it
        ([10.0] * 5, [11.0] * 5, "lower", "within bound"),
    ])
    def test_verdicts(self, parent, change, better, expected):
        assert self.verdict(parent, change, better, 0.1) == expected
