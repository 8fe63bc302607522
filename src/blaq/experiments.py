"""End-to-end experiment runners with file outputs.

Every run writes a config echo (JSON), a trajectory or epoch CSV, and a
metrics summary (JSON).  All randomness is seeded from the config, and
floats are serialized with shortest round-trip formatting, so re-running
the same config reproduces every output byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import mnist as mnist_io
from .curvature import CurvatureState, LrSchedule
from .errors import CheckFailed, ConfigError
from .metrics import (TrajectoryRecord, direction_change_count, flip_count,
                      oscillation_amplitude, steps_to_tolerance)
from .models import TOY2D_CENTER, TOY2D_COEFFS, abs_power_objective, fig1_quadratic
from .optimizers import BlaqConfig, FullPrecisionState, LayerQuantState, step
from .quantizer import QuantGrid
from .theory import DiagonalQuadratic, quantized_loss_floor, run_suite
from .training import train_classifier

TRAJECTORY_HEADER = "step,loss,coord_id,w,w_hat,delta_w"
TRAINING_HEADER = "epoch,train_loss,test_accuracy"

# Defaults per experiment (used when the config leaves them unset).
TOY2D_STEPS = 600
POW32_STEPS = 1000
THEORY_STEPS = 300

# Loss tolerance used for the steps-to-floor metric on the 2-D toy.
FLOOR_TOL = 1e-4


def toy2d_default_schedule():
    """Constant rate; 0.1 is large enough to escape wrong-code basins on
    this objective and the adaptive metric still settles the iterates."""
    return LrSchedule.constant(0.1)


def pow32_default_schedule():
    return LrSchedule.constant(0.01)


def mnist_default_schedule(steps_per_epoch):
    """Base rate halved at epochs 10 and 15."""
    return LrSchedule([(0, 0.005), (10 * steps_per_epoch, 0.0025),
                       (15 * steps_per_epoch, 0.00125)])


# ---- serialization helpers ----

def _native(obj):
    if isinstance(obj, dict):
        return {k: _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):    # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_native(v) for v in obj.tolist()]
    return obj


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_native(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(path, record, coord_ids):
    with open(path, "w") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for i, step in enumerate(record.steps):
            loss = repr(float(record.losses[i]))
            for j, cid in enumerate(coord_ids):
                fh.write(f"{step},{loss},{cid},{float(record.w[i][j])!r},"
                         f"{float(record.w_hat[i][j])!r},{float(record.updates[i][j])!r}\n")


def write_training_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(TRAINING_HEADER + "\n")
        for epoch, loss, acc in rows:
            fh.write(f"{epoch},{float(loss)!r},{float(acc)!r}\n")


def _out_dir(cfg):
    if cfg.output_dir:
        path = cfg.output_dir
    else:
        tag = f"{cfg.optimizer}-k{cfg.bitwidth}-seed{cfg.seed}"
        path = os.path.join("runs", cfg.experiment, tag)
    os.makedirs(path, exist_ok=True)
    return path


# ---- single-vector toy runs ----

def run_toy_objective(objective, cfg, schedule, steps):
    """Drive one optimizer on a toy objective, recording every step."""
    w0 = np.asarray(objective.graph.get_parameter(objective.param_name)).reshape(-1)
    grid = QuantGrid(cfg.bitwidth)
    opt_cfg = BlaqConfig(grid=grid, a=cfg.a, m=cfg.m)
    curv = CurvatureState(len(w0), schedule, cfg.beta2, cfg.eps)
    if cfg.optimizer == "full-precision":
        state = FullPrecisionState(w=w0.copy(), curvature=curv)
    else:
        state = LayerQuantState.initialize(w0, grid, curv, m=cfg.m)

    record = TrajectoryRecord()

    def snapshot(step_idx, prev_w):
        w = state.w.copy()
        levels = state.code.beta.copy() if cfg.optimizer != "full-precision" else w.copy()
        loss = objective.loss_at(state.w_hat())
        record.append(step_idx, loss, w, levels, w - prev_w)
        return w

    prev = snapshot(0, w0)
    for t in range(1, steps + 1):
        step(cfg.optimizer, state, objective.grad_at, opt_cfg)
        prev = snapshot(t, prev)
    return state, record


def _toy_metrics(cfg, state, record, window, floor_target):
    n = len(record.w[0])
    window = min(window, len(record))
    out = {
        "window": window,
        "final_w": state.w,
        "final_loss": record.losses[-1],
        "flip_count": {str(i): flip_count(record, i, window) for i in range(n)},
        "oscillation_amplitude": {str(i): oscillation_amplitude(record, i, window)
                                  for i in range(n)},
        "direction_change_count": direction_change_count(record, window),
    }
    if cfg.optimizer != "full-precision":
        out["final_alpha"] = state.code.alpha
        out["final_beta"] = state.code.beta
    if floor_target is not None:
        out["loss_floor_target"] = floor_target
        out["steps_to_floor_tol"] = steps_to_tolerance(record, floor_target, FLOOR_TOL)
    return out


def run_toy2d(cfg):
    if cfg.sweep_bitwidths:
        return _run_toy2d_sweep(cfg)
    steps = cfg.steps or TOY2D_STEPS
    schedule = cfg.schedule(toy2d_default_schedule())
    omega0 = cfg.omega0 or [1.0, 1.0]
    if len(omega0) != 2:
        raise ConfigError(f"toy2d needs a 2-D omega0, got {omega0}")
    objective = fig1_quadratic(omega0)
    state, record = run_toy_objective(objective, cfg, schedule, steps)

    floor = 0.0 if cfg.optimizer == "full-precision" else toy2d_quantized_floor_loss(cfg.bitwidth)
    metrics = _toy_metrics(cfg, state, record, cfg.window, floor)

    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"),
               cfg.echo(resolved_steps=steps, resolved_omega0=list(omega0),
                        resolved_eta_schedule=schedule.as_pairs()))
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), record, list(range(2)))
    write_json(os.path.join(out, "metrics.json"), metrics)
    return {"state": state, "record": record, "metrics": metrics, "out_dir": out}


def toy2d_quantized_floor_loss(bitwidth):
    """Lowest loss of the 2-D toy over scaled k-bit codes."""
    objective = DiagonalQuadratic(lam=2.0 * np.asarray(TOY2D_COEFFS), center=TOY2D_CENTER)
    return quantized_loss_floor(objective, QuantGrid(bitwidth))[0]


def _run_toy2d_sweep(cfg):
    """Bitwidth sweep report: flip/direction counts for the baseline at
    each k plus the backtracking variant at the smallest k."""
    ks = sorted(cfg.sweep_bitwidths)
    steps = cfg.steps or TOY2D_STEPS
    window = cfg.window
    runs = {}
    for k in ks:
        sub = dataclasses.replace(cfg, optimizer="laq", bitwidth=k, sweep_bitwidths=None,
                                  output_dir=os.path.join(_out_dir(cfg), f"laq-k{k}"))
        runs[("laq", k)] = run_toy2d(sub)
    k0 = ks[0]
    sub = dataclasses.replace(cfg, optimizer="blaq", bitwidth=k0, sweep_bitwidths=None,
                              output_dir=os.path.join(_out_dir(cfg), f"blaq-k{k0}"))
    runs[("blaq", k0)] = run_toy2d(sub)

    def total_flips(res):
        return sum(res["metrics"]["flip_count"].values())

    def max_amplitude(res):
        return max(res["metrics"]["oscillation_amplitude"].values())

    laq_flips = {k: total_flips(runs[("laq", k)]) for k in ks}
    blaq_flips = total_flips(runs[("blaq", k0)])
    laq_dc = {k: runs[("laq", k)]["metrics"]["direction_change_count"] for k in ks}
    blaq_dc = runs[("blaq", k0)]["metrics"]["direction_change_count"]
    laq_amp = max_amplitude(runs[("laq", k0)])
    blaq_amp = max_amplitude(runs[("blaq", k0)])
    ordering_ok = all(laq_flips[a] >= laq_flips[b] for a, b in zip(ks[:-1], ks[1:]))
    blaq_less = (blaq_flips < laq_flips[k0] and blaq_dc < laq_dc[k0]
                 and blaq_amp < laq_amp)

    report = {
        "bitwidths": ks,
        "window": window,
        "laq_flip_count": {str(k): v for k, v in laq_flips.items()},
        "blaq_flip_count": {str(k0): blaq_flips},
        "laq_direction_changes": {str(k): v for k, v in laq_dc.items()},
        "blaq_direction_changes": {str(k0): blaq_dc},
        "laq_oscillation_amplitude": {str(k0): laq_amp},
        "blaq_oscillation_amplitude": {str(k0): blaq_amp},
        "flips_non_increasing_in_bitwidth": ordering_ok,
        "blaq_below_laq": blaq_less,
    }
    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"), cfg.echo(resolved_steps=steps))
    write_json(os.path.join(out, "zigzag_report.json"), report)
    if not (ordering_ok and blaq_less):
        raise CheckFailed(f"zig-zag ordering violated: {report}")
    return {"report": report, "runs": runs, "out_dir": out}


def run_toy_pow32(cfg):
    steps = cfg.steps or POW32_STEPS
    schedule = cfg.schedule(pow32_default_schedule())
    omega0 = cfg.omega0 or [0.5]
    objective = abs_power_objective(c=cfg.c, exponent=1.5, w0=omega0)
    state, record = run_toy_objective(objective, cfg, schedule, steps)
    metrics = _toy_metrics(cfg, state, record, cfg.window, None)
    metrics["final_abs_w"] = np.abs(state.w)

    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"),
               cfg.echo(resolved_steps=steps, resolved_omega0=list(omega0),
                        resolved_eta_schedule=schedule.as_pairs()))
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), record,
                         list(range(len(omega0))))
    write_json(os.path.join(out, "metrics.json"), metrics)
    return {"state": state, "record": record, "metrics": metrics, "out_dir": out}


def run_train_mnist(cfg, dataset=None):
    if dataset is None:
        data_dir = cfg.data_dir or mnist_io.default_data_dir()
        if not mnist_io.dataset_present(data_dir):
            if cfg.fetch_url:
                mnist_io.fetch_mnist(data_dir, cfg.fetch_url)
            else:
                raise ConfigError(
                    f"dataset not found under {data_dir!r}; set data_dir, "
                    f"{mnist_io.DATA_DIR_ENV}, or fetch_url")
        dataset = mnist_io.load_mnist(data_dir)

    steps_per_epoch = int(np.ceil(len(dataset.train_images) / cfg.batch_size))
    schedule = cfg.schedule(mnist_default_schedule(steps_per_epoch))
    result = train_classifier(dataset, cfg, schedule)

    total_steps = len(result.trajectory)
    quarter = min(max(total_steps // 4, 2), total_steps)
    flips = {str(cid): flip_count(result.trajectory, j, quarter)
             for j, cid in enumerate(result.tracked_coords)}
    metrics = {
        "final_test_accuracy": result.final_accuracy,
        "tracked_coords": result.tracked_coords,
        "final_quarter_window": quarter,
        "flip_count_final_quarter": flips,
        "layer_alphas": result.layer_alphas,
        "steps_per_epoch": result.steps_per_epoch,
    }
    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"),
               cfg.echo(resolved_eta_schedule=schedule.as_pairs(),
                        resolved_steps_per_epoch=steps_per_epoch))
    write_training_csv(os.path.join(out, "training.csv"), result.epoch_rows)
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), result.trajectory,
                         result.tracked_coords)
    write_json(os.path.join(out, "metrics.json"), metrics)
    return {"result": result, "metrics": metrics, "out_dir": out}


def run_theory_check(cfg):
    steps = cfg.steps or THEORY_STEPS
    report = run_suite(cfg, steps)
    target = int(np.ceil(0.9 * report["n_ran"])) if report["n_ran"] else 0
    report["checks"] = {
        "ordering_target": target,
        "ordering_ok": report["blaq_not_worse"] >= target,
        "bound_ok": report["total_bound_violations"] == 0,
    }
    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"), cfg.echo(resolved_steps=steps))
    write_json(os.path.join(out, "theory_report.json"), report)
    if not (report["checks"]["ordering_ok"] and report["checks"]["bound_ok"]):
        raise CheckFailed(f"theory checks failed: {report['checks']}")
    return {"report": report, "out_dir": out}


RUNNERS = {
    "toy2d": run_toy2d,
    "toy-pow32": run_toy_pow32,
    "train-mnist": run_train_mnist,
    "theory-check": run_theory_check,
}


def run(cfg):
    return RUNNERS[cfg.experiment](cfg)
