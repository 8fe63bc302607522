"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The classifier criterion needs the real dataset; it is skipped
with an explicit message when no local copy is available (the package
downloads nothing).
"""

import os
import time

import numpy as np
import pytest

from blaq.config import config_from_dict
from blaq.curvature import CurvatureState, LrSchedule
from blaq.experiments import (run_theory_check, run_toy2d, run_train_mnist,
                              toy2d_quantized_floor_loss)
from blaq.models import MlpClassifier, abs_power_objective
from blaq.optimizers import blaq_step, laq_step, new_layer
from blaq.quantizer import (QuantGrid, exhaustive_project, project,
                            weighted_objective)
from blaq.theory import TheoryParams, theorem1_bound
from blaq import mnist as mnist_io
from helpers import finite_difference_grad, grads_close


class Criterion:
    """Times a criterion body and prints one PASS line on success."""

    def __init__(self, number, description, limit_seconds=None):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"\nACCEPTANCE {self.number} PASS - {self.description} ({elapsed:.2f}s)")
            if self.limit is not None:
                assert elapsed < self.limit, (
                    f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.2f}s")
        else:
            print(f"\nACCEPTANCE {self.number} FAIL - {self.description} ({elapsed:.2f}s)")
        return False


ALPHA_STAR = (5.0 * 0.054 + 0.055) / 6.0      # scale of the 1-bit optimum


def test_criterion_1_toy2d_reproduction(tmp_path):
    with Criterion(1, "2-D toy: terminal points and convergence ordering", 5.0):
        runs = {}
        for opt in ("full-precision", "laq", "blaq"):
            cfg = config_from_dict({"experiment": "toy2d", "optimizer": opt,
                                    "output_dir": str(tmp_path / opt)})
            runs[opt] = run_toy2d(cfg)["metrics"]

        final = np.asarray(runs["full-precision"]["final_w"])
        assert np.linalg.norm(final - np.array([0.054, -0.055]), np.inf) < 1e-6

        # the brute-force oracle agrees with the closed-form scale
        floor = toy2d_quantized_floor_loss(1)
        assert floor == pytest.approx(5e-6 / 6.0, rel=1e-9)
        for opt in ("laq", "blaq"):
            beta = np.asarray(runs[opt]["final_beta"])
            alpha = runs[opt]["final_alpha"]
            if alpha < 0:
                alpha, beta = -alpha, -beta
            assert list(beta) == [1.0, -1.0], f"{opt} terminal code off"
            assert abs(alpha - ALPHA_STAR) <= 1e-4, f"{opt} terminal scale off"

        laq_hit = runs["laq"]["steps_to_floor_tol"]
        blaq_hit = runs["blaq"]["steps_to_floor_tol"]
        assert laq_hit is not None and blaq_hit is not None
        assert blaq_hit < laq_hit, f"expected faster backtracking run: {blaq_hit} vs {laq_hit}"


def test_criterion_2_zigzag_ordering(tmp_path):
    with Criterion(2, "zig-zag ordering across bitwidths on the 2-D toy", 10.0):
        cfg = config_from_dict({
            "experiment": "toy2d", "sweep_bitwidths": [1, 2, 4],
            "eta_schedule": [[0, 0.2]], "beta2": 0.9, "steps": 600,
            "window": 100, "output_dir": str(tmp_path / "sweep"),
        })
        report = run_toy2d(cfg)["report"]
        laq_flips = {int(k): v for k, v in report["laq_flip_count"].items()}
        blaq_flips = report["blaq_flip_count"]["1"]
        assert laq_flips[1] >= laq_flips[2] >= laq_flips[4]
        assert blaq_flips < laq_flips[1]
        assert report["blaq_direction_changes"]["1"] < report["laq_direction_changes"]["1"]


def test_criterion_3_pow32_counterexample():
    with Criterion(3, "3/2-power counterexample: baseline oscillates, backtracking settles", 2.0):
        grid = QuantGrid(1)
        schedule = LrSchedule.constant(0.01)

        def flips(kind, w0):
            objective = abs_power_objective(c=1.0, w0=[w0])
            state = new_layer(
                np.array([w0]), grid, CurvatureState(1, schedule, beta2=0.999))
            levels = [state.code.beta[0]]
            for _ in range(1000):
                if kind == "laq":
                    laq_step(state, objective.grad_at)
                else:
                    blaq_step(state, objective.grad_at, 0.6)
                levels.append(state.code.beta[0])
            tail = levels[-100:]     # same window semantics as flip_count
            return sum(1 for a, b in zip(tail[:-1], tail[1:]) if a != b)

        for w0 in (0.1, 0.5, 1.0, -0.7):
            assert flips("laq", w0) >= 50, f"baseline failed to oscillate from {w0}"
            assert flips("blaq", w0) <= 5, f"backtracking failed to settle from {w0}"


def test_criterion_4_quantizer_oracle():
    with Criterion(4, "projection matches exhaustive search; 1-bit closed form exact", 5.0):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 3))
            w = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
            d = rng.uniform(0.1, 5.0, size=n)
            code = project(w, d, QuantGrid(k))
            obj = weighted_objective(w, d, code.alpha, code.beta)
            ref, _, _ = exhaustive_project(w, d, QuantGrid(k))
            assert obj <= ref + 1e-9

        grid = QuantGrid(1)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            w = rng.normal(size=n)
            if not np.any(w):
                continue
            d = rng.uniform(0.05, 5.0, size=n)
            code = project(w, d, grid)
            assert np.array_equal(code.beta, np.where(w >= 0, 1.0, -1.0))
            assert code.alpha == float(np.dot(d, np.abs(w)) / d.sum())


def test_criterion_5_gradient_correctness():
    with Criterion(5, "reverse-mode gradients match central finite differences", 10.0):
        rng = np.random.default_rng(42)
        probes = 0

        def check_graph(graph, names):
            nonlocal probes
            graph.forward({})
            grads = graph.backward()
            for name in names:
                base = graph.get_parameter(name)

                def f(values, _name=name):
                    graph.set_parameter(_name, values)
                    return graph.forward({})

                fd = finite_difference_grad(f, base)
                graph.set_parameter(name, base)
                assert grads_close(grads[name], fd), f"gradient mismatch for {name}"
                probes += 1

        from blaq.autodiff import Graph

        for _ in range(18):
            g = Graph()
            a = g.parameter("a", rng.normal(size=(3, 4)))
            b = g.parameter("b", rng.normal(size=(4, 2)))
            c = g.parameter("c", rng.normal(size=2))
            g.mark_loss(g.reduce_sum(g.square(g.add_bias(g.matmul(a, b), c))))
            check_graph(g, ["a", "b", "c"])

        for _ in range(20):
            g = Graph()
            x = rng.normal(size=(4, 3))
            x += np.sign(x) * 1e-3
            p = g.parameter("x", x)
            relu_part = g.reduce_sum(g.square(g.relu(p)))
            homogeneous = g.reduce_mean(g.add(g.abs(p), g.power(p, 1.5)))
            g.mark_loss(g.add(relu_part, g.shift(g.scale(homogeneous, -1.5), 0.2)))
            check_graph(g, ["x"])

        for _ in range(15):
            g = Graph()
            z = g.parameter("z", rng.normal(size=(6, 4)))
            labels = g.constant(rng.integers(0, 4, size=6).astype(float))
            g.mark_loss(g.softmax_cross_entropy(z, labels))
            check_graph(g, ["z"])

        # full classifier graphs: every parameter of each model is a probe
        for _ in range(5):
            sizes = [int(rng.integers(5, 9)), int(rng.integers(4, 8)), int(rng.integers(3, 6))]
            model = MlpClassifier(sizes, seed=int(rng.integers(10000)))
            x = rng.normal(size=(3, sizes[0]))
            y = rng.integers(0, sizes[-1], size=3)
            gr = model.graph
            gr.forward({"x": x, "y": y})
            grads = gr.backward()
            for name in model.weight_names + model.bias_names:
                base = gr.get_parameter(name)

                def f(values, _name=name):
                    gr.set_parameter(_name, values)
                    return gr.forward({"x": x, "y": y})

                fd = finite_difference_grad(f, base)
                gr.set_parameter(name, base)
                assert grads_close(grads[name], fd), f"MLP gradient mismatch for {name}"
                probes += 1

        assert probes >= 100, f"only {probes} gradient probes ran"


def test_criterion_6_theorem_checks(tmp_path):
    with Criterion(6, "bound formula, trajectory bound, and mixing-range ordering", 30.0):
        assert theorem1_bound(TheoryParams(L1=2.0, mu=1.0, eta=0.25, delta=1.0)) == 1.0

        cfg = config_from_dict({"experiment": "theory-check",
                                "output_dir": str(tmp_path / "theory")})
        report = run_theory_check(cfg)["report"]
        assert report["n_ran"] == 50
        assert report["total_bound_violations"] == 0, "trajectory bound violated"
        assert report["blaq_not_worse"] >= 45, (
            f"ordering held in only {report['blaq_not_worse']}/50 instances")


def _real_dataset_dir():
    for candidate in (os.environ.get(mnist_io.DATA_DIR_ENV), mnist_io.default_data_dir()):
        if candidate and mnist_io.dataset_present(candidate):
            return candidate
    return None


@pytest.mark.skipif(_real_dataset_dir() is None,
                    reason="MNIST IDX files not found under BLAQ_DATA_DIR or "
                           "~/.cache/blaq-mnist; the package downloads nothing")
def test_criterion_7_mnist_desk_scale(tmp_path):
    with Criterion(7, "1-bit classifier accuracy and per-coordinate flip ordering", 1800.0):
        data_dir = _real_dataset_dir()
        dataset = mnist_io.load_mnist(data_dir)
        results = {}
        for opt in ("blaq", "laq"):
            cfg = config_from_dict({
                "experiment": "train-mnist", "optimizer": opt, "bitwidth": 1,
                "a": 0.6, "epochs": 20, "batch_size": 128, "seed": 0,
                "output_dir": str(tmp_path / opt),
            })
            results[opt] = run_train_mnist(cfg, dataset=dataset)["metrics"]

        acc_blaq = results["blaq"]["final_test_accuracy"]
        acc_laq = results["laq"]["final_test_accuracy"]
        assert acc_blaq >= 0.975, f"accuracy too low: {acc_blaq}"
        assert acc_blaq >= acc_laq - 0.002, f"{acc_blaq} vs {acc_laq}"

        flips_blaq = results["blaq"]["flip_count_final_quarter"]
        flips_laq = results["laq"]["flip_count_final_quarter"]
        assert results["blaq"]["tracked_coords"] == results["laq"]["tracked_coords"]
        lower = sum(1 for cid in flips_blaq if flips_blaq[cid] < flips_laq[cid])
        assert lower > len(flips_blaq) / 2, (
            f"flips lower on only {lower} of {len(flips_blaq)} tracked coordinates")


def test_criterion_8_determinism(tmp_path):
    with Criterion(8, "identical config and seed reproduce outputs byte for byte"):
        specs = [
            ("toy2d", {"experiment": "toy2d", "steps": 200},
             ("config.json", "trajectory.csv", "metrics.json")),
            ("pow32", {"experiment": "toy-pow32", "steps": 400},
             ("config.json", "trajectory.csv", "metrics.json")),
            ("theory", {"experiment": "theory-check", "n_instances": 10},
             ("config.json", "theory_report.json")),
        ]
        from blaq.experiments import run
        for name, data, files in specs:
            out_dir = str(tmp_path / name)
            cfg = config_from_dict({**data, "output_dir": out_dir})
            run(cfg)
            first = {f: open(os.path.join(out_dir, f), "rb").read() for f in files}
            run(cfg)
            for f in files:
                again = open(os.path.join(out_dir, f), "rb").read()
                assert again == first[f], f"{name}/{f} changed on identical rerun"
