"""End-to-end experiment runners with file outputs.

Every run writes its config (JSON, `dataclasses.asdict` of the config,
which loads back as `--config`), a trajectory or epoch CSV, and a
metrics summary or report (JSON) that also holds the `resolved_*` values
the run filled in from its defaults.  All randomness is seeded from the
config, and floats are serialized with shortest round-trip formatting,
so re-running the same config reproduces every output byte for byte.
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
from .models import TOY2D_QUADRATIC, abs_power_objective, fig1_quadratic
from .optimizers import new_layer, run_steps
from .quantizer import QuantGrid
from .theory import check_trace_floats, quantized_loss_floor, run_suite
from .training import steps_per_epoch, train_classifier

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

def _numpy_to_json(obj):
    """numpy scalars and arrays as Python numbers and lists; `json.dump`
    calls this only for objects it cannot encode itself."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_numpy_to_json)
        fh.write("\n")


def write_trajectory_csv(path, record, coord_ids):
    rows = zip(record.steps, record.losses, record.w.tolist(), record.w_hat.tolist(),
               record.updates.tolist())
    with open(path, "w") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for step, loss, w, w_hat, update in rows:
            head = f"{step},{loss!r},"
            fh.writelines(f"{head}{cid},{a!r},{b!r},{d!r}\n"
                          for cid, a, b, d in zip(coord_ids, w, w_hat, update))


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
    w0 = objective.w0
    grid = None if cfg.optimizer == "full-precision" else QuantGrid(cfg.bitwidth)
    state = new_layer(w0, grid, CurvatureState(len(w0), schedule, cfg.beta2, cfg.eps))
    record = TrajectoryRecord(w0)

    def observe(t):
        record.append(t, objective.loss_at(state.w_hat()), state.w, state.levels())

    run_steps(cfg.optimizer, state, objective.grad_at, cfg.a, steps, observe)
    return state, record


def _check_toy_record(steps, omega0):
    """A toy run records w, its levels and the update, len(omega0) floats
    each, at steps + 1 points."""
    check_trace_floats(3 * len(omega0) * (steps + 1),
                       f"steps {steps} on {len(omega0)} weights")


def _run_toy(cfg, default_steps, default_schedule, default_omega0, make_objective,
             extra_metrics):
    """The body of a toy run: resolve the unset steps, schedule and omega0
    from the defaults, drive the optimizer on `make_objective(omega0)`,
    summarize the trajectory plus the entries of `extra_metrics(state,
    record)` and the resolved values, and write config.json,
    trajectory.csv and metrics.json."""
    steps = cfg.steps or default_steps
    schedule = cfg.schedule(default_schedule)
    omega0 = cfg.omega0 or default_omega0
    _check_toy_record(steps, omega0)
    state, record = run_toy_objective(make_objective(omega0), cfg, schedule, steps)

    n = len(omega0)
    window = min(cfg.window, len(record))
    metrics = {
        "window": window,
        "final_w": state.w,
        "final_loss": record.losses[-1],
        "flip_count": {str(i): flip_count(record, i, window) for i in range(n)},
        "oscillation_amplitude": {str(i): oscillation_amplitude(record, i, window)
                                  for i in range(n)},
        "direction_change_count": direction_change_count(record, window),
    }
    if state.code is not None:
        metrics["final_alpha"] = state.code.alpha
        metrics["final_beta"] = state.code.beta
    metrics.update(extra_metrics(state, record))
    metrics.update(resolved_steps=steps, resolved_omega0=list(omega0),
                   resolved_eta_schedule=schedule.as_pairs())

    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"), dataclasses.asdict(cfg))
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), record, list(range(n)))
    write_json(os.path.join(out, "metrics.json"), metrics)
    return {"state": state, "record": record, "metrics": metrics, "out_dir": out}


def run_toy2d(cfg):
    if cfg.sweep_bitwidths:
        return _run_toy2d_sweep(cfg)

    def objective(omega0):
        if len(omega0) != 2:
            raise ConfigError(f"toy2d needs a 2-D omega0, got {omega0}")
        return fig1_quadratic(omega0)

    def floor_metrics(state, record):
        floor = 0.0 if state.code is None else toy2d_quantized_floor_loss(cfg.bitwidth)
        return {"loss_floor_target": floor,
                "steps_to_floor_tol": steps_to_tolerance(record, floor, FLOOR_TOL)}

    return _run_toy(cfg, TOY2D_STEPS, toy2d_default_schedule(), [1.0, 1.0], objective,
                    floor_metrics)


def toy2d_quantized_floor_loss(bitwidth):
    """Lowest loss of the 2-D toy over scaled k-bit codes."""
    return quantized_loss_floor(TOY2D_QUADRATIC, QuantGrid(bitwidth))[0]


def _run_toy2d_sweep(cfg):
    """Bitwidth sweep report: flip/direction counts for the baseline at
    each k plus the backtracking variant at the smallest k."""
    ks = sorted(cfg.sweep_bitwidths)
    steps = cfg.steps or TOY2D_STEPS
    _check_toy_record(steps, cfg.omega0 or [1.0, 1.0])
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
        "window": runs[("blaq", k0)]["metrics"]["window"],   # as clipped by every sub-run
        "laq_flip_count": {str(k): v for k, v in laq_flips.items()},
        "blaq_flip_count": {str(k0): blaq_flips},
        "laq_direction_changes": {str(k): v for k, v in laq_dc.items()},
        "blaq_direction_changes": {str(k0): blaq_dc},
        "laq_oscillation_amplitude": {str(k0): laq_amp},
        "blaq_oscillation_amplitude": {str(k0): blaq_amp},
        "flips_non_increasing_in_bitwidth": ordering_ok,
        "blaq_below_laq": blaq_less,
        "resolved_steps": steps,
    }
    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"), dataclasses.asdict(cfg))
    write_json(os.path.join(out, "zigzag_report.json"), report)
    if not (ordering_ok and blaq_less):
        raise CheckFailed(f"zig-zag ordering violated: {report}")
    return {"report": report, "runs": runs, "out_dir": out}


def run_toy_pow32(cfg):
    return _run_toy(cfg, POW32_STEPS, pow32_default_schedule(), [0.5],
                    lambda omega0: abs_power_objective(c=cfg.c, w0=omega0),
                    lambda state, record: {"final_abs_w": np.abs(state.w)})


def run_train_mnist(cfg, dataset=None):
    if dataset is None:
        data_dir = cfg.data_dir or mnist_io.default_data_dir()
        if not mnist_io.dataset_present(data_dir):
            raise ConfigError(f"dataset not found under {data_dir!r}; set data_dir or "
                              f"{mnist_io.DATA_DIR_ENV}")
        dataset = mnist_io.load_mnist(data_dir)

    per_epoch = steps_per_epoch(len(dataset.train_images), cfg.batch_size)
    # the trajectory: w, its levels and the update of each tracked weight
    check_trace_floats(3 * cfg.track_coords * cfg.epochs * per_epoch,
                       f"epochs {cfg.epochs} of {per_epoch} steps at track_coords "
                       f"{cfg.track_coords}")
    schedule = cfg.schedule(mnist_default_schedule(per_epoch))
    result = train_classifier(dataset, cfg, schedule)

    total_steps = len(result.trajectory)
    quarter = min(max(total_steps // 4, 2), total_steps)
    flips = {str(cid): flip_count(result.trajectory, j, quarter)
             for j, cid in enumerate(result.tracked_coords)}
    metrics = {
        "final_test_accuracy": result.epoch_rows[-1][2],
        "tracked_coords": result.tracked_coords,
        "final_quarter_window": quarter,
        "flip_count_final_quarter": flips,
        "layer_alphas": result.layer_alphas,
        "steps_per_epoch": per_epoch,
        "resolved_eta_schedule": schedule.as_pairs(),
    }
    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"), dataclasses.asdict(cfg))
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
    report["resolved_steps"] = steps
    out = _out_dir(cfg)
    write_json(os.path.join(out, "config.json"), dataclasses.asdict(cfg))
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
