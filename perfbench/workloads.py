"""The four benchmark workloads: CLI calls, inputs, and output gates.

Each workload is a list of ``blaq.cli.main`` argument vectors plus a
gate per call that reads the call's output files and returns a problem
description, or None when the outputs are right.  Inputs are made from
the workload seed; the package sees only the generated files and
arguments.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

STEP_FUNCTIONS = (("blaq.optimizers", "laq_step"), ("blaq.optimizers", "blaq_step"),
                  ("blaq.optimizers", "full_precision_step"))

# Criterion 1: minimizer of the 2-D toy and the scale of its 1-bit optimum.
TOY2D_CENTER = (0.054, -0.055)
ALPHA_STAR = (5.0 * 0.054 + 0.055) / 6.0
# Criterion 3: starts of the 3/2-power runs and the flip limits over the
# last 100 steps.
POW32_STARTS = (0.1, 0.5, 1.0, -0.7)
LAQ_MIN_FLIPS = 50
BLAQ_MAX_FLIPS = 5

# MNIST-shaped fixture: 5 minibatches of 128 per epoch, 8 epochs, so each
# run takes 40 optimizer steps.  After 40 steps laq at k=2 reached test
# accuracy 0.33-0.90 over seeds 0-11; after 5 it is still near chance.
MNIST_BATCH = 128
MNIST_TRAIN = 5 * MNIST_BATCH
MNIST_TEST = 1000
MNIST_EPOCHS = 8
CHANCE_ACCURACY = 0.1


@dataclass
class Call:
    name: str
    argv: list
    out_dir: str
    gate: object           # gate(out_dirs by call name) -> problem or None


@dataclass
class Workload:
    calls: list
    step_kind: str         # the population behind step_ms_p50 / step_ms_tail
    step_start: tuple      # (module, attr) that opens a step
    step_end: tuple        # (module, attr) whose return closes a step
    counted: tuple         # (module, attr) whose calls are optimizer steps
    make_inputs: object = None   # make_inputs(blaq modules) before the first call


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _normalized_code(metrics):
    alpha, beta = metrics["final_alpha"], list(metrics["final_beta"])
    if alpha < 0:
        alpha, beta = -alpha, [-b for b in beta]
    return alpha, beta


# ---- toy: acceptance criteria 1-3 through the CLI ----

def _gate_fp(dirs):
    final = _load(dirs["c1-full-precision"], "metrics.json")["final_w"]
    if max(abs(a - b) for a, b in zip(final, TOY2D_CENTER)) >= 1e-6:
        return f"full-precision terminal point {final} is not the minimizer"
    return None


def _gate_toy2d_code(opt):
    def gate(dirs):
        alpha, beta = _normalized_code(_load(dirs[f"c1-{opt}"], "metrics.json"))
        if beta != [1.0, -1.0]:
            return f"{opt} terminal code {beta}, expected [1, -1]"
        if abs(alpha - ALPHA_STAR) > 1e-4:
            return f"{opt} terminal scale {alpha}, expected {ALPHA_STAR} +- 1e-4"
        if opt == "blaq":
            laq = _load(dirs["c1-laq"], "metrics.json")["steps_to_floor_tol"]
            blaq = _load(dirs["c1-blaq"], "metrics.json")["steps_to_floor_tol"]
            if laq is None or blaq is None or not blaq < laq:
                return f"blaq reached the floor at step {blaq}, laq at {laq}"
        return None
    return gate


def _gate_sweep(dirs):
    report = _load(dirs["c2-sweep"], "zigzag_report.json")
    flips = report["laq_flip_count"]
    if not flips["1"] >= flips["2"] >= flips["4"]:
        return f"laq flips not non-increasing in bitwidth: {flips}"
    if not report["blaq_flip_count"]["1"] < flips["1"]:
        return f"blaq flips {report['blaq_flip_count']} not below laq {flips['1']}"
    if not report["blaq_direction_changes"]["1"] < report["laq_direction_changes"]["1"]:
        return "blaq direction changes not below laq"
    return None


def _gate_pow32(name, opt):
    def gate(dirs):
        flips = _load(dirs[name], "metrics.json")["flip_count"]["0"]
        if opt == "laq" and flips < LAQ_MIN_FLIPS:
            return f"{name}: laq flipped {flips} < {LAQ_MIN_FLIPS} times in the last 100 steps"
        if opt == "blaq" and flips > BLAQ_MAX_FLIPS:
            return f"{name}: blaq flipped {flips} > {BLAQ_MAX_FLIPS} times in the last 100 steps"
        return None
    return gate


def toy(seed, work, tiny):
    calls = []

    def add(name, argv, gate):
        out = os.path.join(work, name)
        calls.append(Call(name, argv + ["--seed", str(seed), "--output-dir", out], out, gate))

    add("c1-full-precision", ["toy2d", "--optimizer", "full-precision"], _gate_fp)
    for opt in ("laq", "blaq"):
        add(f"c1-{opt}", ["toy2d", "--optimizer", opt], _gate_toy2d_code(opt))
    add("c2-sweep", ["toy2d", "--sweep-bitwidths", "[1,2,4]", "--eta-schedule", "[[0,0.2]]",
                     "--beta2", "0.9", "--steps", "600", "--window", "100"], _gate_sweep)
    for w0 in POW32_STARTS:
        for opt in ("laq", "blaq"):
            name = f"c3-{opt}-{w0}"
            add(name, ["toy-pow32", "--optimizer", opt, "--omega0", f"[{w0}]"],
                _gate_pow32(name, opt))
    return Workload(calls, "blaq_step calls",
                    ("blaq.optimizers", "blaq_step"), ("blaq.optimizers", "blaq_step"),
                    STEP_FUNCTIONS)


# ---- theory: the default theorem suite ----

def _gate_theory(dirs):
    checks = _load(dirs["suite"], "theory_report.json")["checks"]
    if not (checks["ordering_ok"] and checks["bound_ok"]):
        return f"theory checks failed: {checks}"
    return None


def theory(seed, work, tiny):
    # The default 50-instance suite draws its instances from its own fixed
    # seed; the workload seed does not change it.
    n = 5 if tiny else 50
    out = os.path.join(work, "suite")
    argv = ["theory-check", "--n-instances", str(n), "--output-dir", out]
    return Workload([Call("suite", argv, out, _gate_theory)],
                    "theory.check_instance calls",
                    ("blaq.theory", "check_instance"), ("blaq.theory", "check_instance"),
                    STEP_FUNCTIONS[:2])


# ---- mnist: train-mnist on a synthetic IDX fixture ----

def _gate_mnist(dirs):
    with open(os.path.join(dirs["train"], "training.csv")) as fh:
        rows = fh.read().split()[1:]
    for row in rows:
        epoch, loss, _ = row.split(",")
        if not math.isfinite(float(loss)):
            return f"epoch {epoch}: non-finite train loss {loss}"
    accuracy = _load(dirs["train"], "metrics.json")["final_test_accuracy"]
    if not accuracy > CHANCE_ACCURACY:
        return f"test accuracy {accuracy} is not above chance {CHANCE_ACCURACY}"
    return None


def _mnist(optimizer, bitwidth, seed, work, tiny):
    data = os.path.join(work, "data")
    out = os.path.join(work, "train")
    epochs = 1 if tiny else MNIST_EPOCHS

    def make_inputs(blaq):
        blaq["blaq.mnist"].make_synthetic_fixture(
            data, n_train=MNIST_TRAIN, n_test=MNIST_TEST, seed=seed)

    argv = ["train-mnist", "--optimizer", optimizer, "--bitwidth", str(bitwidth),
            "--epochs", str(epochs), "--batch-size", str(MNIST_BATCH), "--seed", str(seed),
            "--data-dir", data, "--output-dir", out]
    return Workload([Call("train", argv, out, _gate_mnist)],
                    f"{optimizer} minibatch steps (first gradient evaluation to trajectory record)",
                    ("blaq.models", "MlpClassifier.eval_batch"),
                    ("blaq.metrics", "TrajectoryRecord.append"),
                    (("blaq.metrics", "TrajectoryRecord.append"),),
                    make_inputs)


def mnist_k1(seed, work, tiny):
    return _mnist("blaq", 1, seed, work, tiny)


def mnist_k2(seed, work, tiny):
    return _mnist("laq", 2, seed, work, tiny)


WORKLOADS = {"toy": toy, "theory": theory, "mnist-k1": mnist_k1, "mnist-k2": mnist_k2}


def build(name, seed, work, tiny=False):
    """The workload `name` for one seed, writing under directory `work`."""
    return WORKLOADS[name](seed, os.path.abspath(work), tiny)
