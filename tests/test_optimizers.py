"""Update rules: arithmetic, base points, mixing, evaluation counts."""

import numpy as np
import pytest

from blaq import optimizers
from blaq.buffers import IN_PLACE_MIN_SIZE
from blaq.curvature import CurvatureState, LrSchedule
from blaq.errors import ConfigError, NumericError
from blaq.metrics import TrajectoryRecord, flip_count
from blaq.models import abs_power_objective, fig1_quadratic
from blaq.optimizers import (LayerState, blaq_step, full_precision_step, laq_step,
                             new_layer, run_steps, step)
from blaq.quantizer import MAX_SWEEP_BREAKPOINTS, QuantGrid, ScaledCode, project
from helpers import same_bits


class FixedCurvature:
    """Stub returning a pinned diagonal; lets tests control the metric."""

    def __init__(self, d):
        self.d = np.asarray(d, dtype=np.float64)
        self.step = 0

    def update(self, g):
        self.step += 1
        return self.d.copy()

    def peek(self, g):
        return self.d.copy()

    def copy(self):
        dup = FixedCurvature(self.d)
        dup.step = self.step
        return dup


class CountingGrad:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.points = []

    def __call__(self, w):
        self.calls += 1
        self.points.append(np.array(w, dtype=np.float64))
        return self.fn(w)


def make_state(w, alpha, beta, curvature, grid=QuantGrid(1)):
    return LayerState(
        w=np.asarray(w, dtype=np.float64),
        code=ScaledCode(alpha, np.asarray(beta, dtype=np.float64)),
        curvature=curvature,
        grid=grid,
    )


class TestLaqStep:
    def test_proximal_arithmetic(self):
        # w_hat = [0.4, -0.4], g = [0.1, -0.2], D = [2, 4] -> w = [0.35, -0.35]
        state = make_state([0.4, -0.4], 0.4, [1.0, -1.0], FixedCurvature([2.0, 4.0]))
        grad = CountingGrad(lambda w: np.array([0.1, -0.2]))
        laq_step(state, grad)
        assert np.allclose(state.w, [0.35, -0.35], atol=1e-15)
        assert np.array_equal(grad.points[0], [0.4, -0.4])

    def test_base_point_is_quantized(self):
        # full-precision w differs from the code; the step must start at alpha*beta
        state = make_state([0.9, -0.1], 0.5, [1.0, -1.0], FixedCurvature([1.0, 1.0]))
        laq_step(state, CountingGrad(lambda w: np.zeros(2)))
        assert np.allclose(state.w, [0.5, -0.5])

    def test_zero_gradient_fixed_point(self):
        state = make_state([0.4, -0.4], 0.4, [1.0, -1.0], FixedCurvature([2.0, 2.0]))
        laq_step(state, CountingGrad(lambda w: np.zeros(2)))
        assert state.code.alpha == 0.4
        assert list(state.code.beta) == [1.0, -1.0]

    def test_single_evaluation(self):
        state = make_state([0.4, -0.4], 0.4, [1.0, -1.0], FixedCurvature([1.0, 1.0]))
        grad = CountingGrad(lambda w: np.array([0.1, 0.1]))
        for _ in range(7):
            laq_step(state, grad)
        assert grad.calls == 7


class TestBlaqStages:
    """The forward search and the backtrack inside one blaq_step, seen
    through the second evaluation point and the g_hat left after the step."""

    def test_stage1_base_point_is_full_precision(self):
        # w = [0.35, -0.35] differs from w_hat = [0.5, -0.5]; g = [0.1, -0.2],
        # D = [2, 4] -> the trial point is the code of w* = [0.30, -0.30]
        state = make_state([0.35, -0.35], 0.5, [1.0, -1.0], FixedCurvature([2.0, 4.0]))
        grad = CountingGrad(lambda w: np.array([0.1, -0.2]))
        blaq_step(state, grad, 0.6)
        assert np.array_equal(grad.points[0], [0.5, -0.5])
        w_star = np.array([0.35, -0.35]) - np.array([0.1, -0.2]) / np.array([2.0, 4.0])
        assert np.allclose(w_star, [0.30, -0.30], atol=1e-15)
        expected = project(w_star, np.array([2.0, 4.0]), state.grid)
        assert np.array_equal(grad.points[1], expected.w_hat())

    def test_stage1_zero_gradient(self):
        w = np.array([0.35, -0.2])
        state = make_state(w, 0.5, [1.0, -1.0], FixedCurvature([2.0, 4.0]), QuantGrid(2))
        grad = CountingGrad(lambda w: np.zeros(2))
        blaq_step(state, grad, 0.6)
        expected = project(w, np.array([2.0, 4.0]), QuantGrid(2))
        assert np.array_equal(grad.points[1], expected.w_hat())

    def test_stage1_from_origin_moves_along_negative_gradient(self):
        # a full-precision layer's trial point is w - g/D exactly; with
        # metric 1/eta it lies eta * (0.54, -0.11) from (0, 0)
        obj = fig1_quadratic()
        eta = 0.05
        state = LayerState(w=np.zeros(2),
                                   curvature=FixedCurvature([1.0 / eta, 1.0 / eta]))
        grad = CountingGrad(obj.grad_at)
        blaq_step(state, grad, 0.6)
        g = obj.grad_at([0.0, 0.0])
        assert np.array_equal(grad.points[0], [0.0, 0.0])
        assert np.array_equal(grad.points[1], np.zeros(2) - g / np.array([1.0 / eta] * 2))
        assert np.allclose(grad.points[1], eta * np.array([0.54, -0.11]), atol=1e-15)

    def test_stage1_trial_gradient_at_trial_point(self):
        # a = 0: the step keeps exactly the gradient taken at the trial point
        state = make_state([0.35, -0.35], 0.35, [1.0, -1.0], FixedCurvature([2.0, 4.0]))
        grad = CountingGrad(lambda w: np.array([0.1, -0.2]) + np.asarray(w))
        blaq_step(state, grad, 0.0)
        assert grad.calls == 2
        assert np.array_equal(state.g_hat, np.array([0.1, -0.2]) + grad.points[1])

    def test_stage2_mixing_values(self):
        # a = 0.6, g = [1, 0], g* = [0, 1] -> mixed [0.6, 0.4]
        state = make_state([1.0, 1.0], 1e-8, [1.0, 1.0], FixedCurvature([1.0, 1.0]))
        answers = iter([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        blaq_step(state, CountingGrad(lambda w: next(answers)), 0.6)
        assert np.allclose(state.g_hat, [0.6, 0.4], atol=1e-15)


class TestBlaqStep:
    def test_two_evaluations_per_step(self):
        obj = fig1_quadratic()
        grid = QuantGrid(1)
        state = new_layer(
            np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))
        grad = CountingGrad(obj.grad_at)
        starts = []
        for t in range(5):
            starts.append(state.w_hat())
            blaq_step(state, grad, 0.6)
        assert grad.calls == 10
        # first evaluation of each step happens at the current quantized point
        for t, w_hat in enumerate(starts):
            assert np.array_equal(grad.points[2 * t], w_hat)

    def test_endpoint_a_one_equals_base_step(self):
        # a = 1: the backtrack reduces to stepping from w with (g, D)
        obj = fig1_quadratic()
        grid = QuantGrid(1)

        def fresh_state():
            return new_layer(
                np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))

        state = fresh_state()
        blaq_step(state, obj.grad_at, 1.0)

        ref = fresh_state()
        g = obj.grad_at(ref.w_hat())
        d = ref.curvature.update(g)
        w_expected = ref.w - g / d
        assert np.array_equal(state.w, w_expected)

    def test_endpoint_a_zero_uses_trial_quantities(self):
        obj = fig1_quadratic()
        grid = QuantGrid(1)
        state = new_layer(
            np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))

        # reproduce by hand
        ref = new_layer(
            np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))
        g = obj.grad_at(ref.w_hat())
        d = ref.curvature.update(g)
        w_star = ref.w - g / d
        code_star = project(w_star, d, grid)
        g_star = obj.grad_at(code_star.w_hat())
        d_star = ref.curvature.copy().update(g_star)
        w_expected = ref.w - g_star / d_star

        blaq_step(state, obj.grad_at, 0.0)
        assert np.allclose(state.w, w_expected, atol=1e-15)
        assert np.array_equal(state.g_hat, g_star)

    def test_mixed_metric_positive(self):
        rng = np.random.default_rng(3)
        obj = fig1_quadratic()
        grid = QuantGrid(1)
        for a in rng.uniform(0, 1, size=10):
            state = new_layer(
                rng.normal(size=2), grid, CurvatureState(2, LrSchedule.constant(0.1)))
            for _ in range(5):
                blaq_step(state, obj.grad_at, float(a))
                assert np.all(state.d_hat > 0.0)

    def test_code_invariants_hold_along_trajectory(self):
        obj = fig1_quadratic()
        grid = QuantGrid(2)
        state = new_layer(
            np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.05)))
        for _ in range(50):
            blaq_step(state, obj.grad_at, 0.6)
            assert state.code.alpha > 0.0
            assert all(b in grid.levels for b in state.code.beta)

    def test_deterministic_trajectories(self):
        def run():
            obj = fig1_quadratic()
            grid = QuantGrid(1)
            state = new_layer(
                np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))
            traj = []
            for _ in range(40):
                blaq_step(state, obj.grad_at, 0.6)
                traj.append(state.w.copy())
            return np.array(traj)

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("a", [-0.1, 1.5, float("nan")])
    def test_mixing_coefficient_outside_unit_interval_rejected(self, a):
        state = new_layer(
            np.array([1.0, 1.0]), QuantGrid(1), CurvatureState(2, LrSchedule.constant(0.1)))
        grad = CountingGrad(fig1_quadratic().grad_at)
        with pytest.raises(ValueError, match="mixing coefficient"):
            blaq_step(state, grad, a)
        assert grad.calls == 0 and state.curvature.step == 0

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_mixing_coefficient_endpoints_run(self, a):
        state = new_layer(
            np.array([1.0, 1.0]), QuantGrid(1), CurvatureState(2, LrSchedule.constant(0.1)))
        blaq_step(state, fig1_quadratic().grad_at, a)
        assert state.curvature.step == 1


class TestFullPrecision:
    def test_zero_gradient_no_movement(self):
        state = LayerState(w=np.array([1.0, -2.0]),
                                   curvature=CurvatureState(2, LrSchedule.constant(0.1)))
        full_precision_step(state, lambda w: np.zeros(2))
        assert list(state.w) == [1.0, -2.0]

    def test_monotone_descent_region(self):
        # 0.5*L*w^2 far from the optimum: adaptive steps shrink the loss
        L = 4.0
        state = LayerState(w=np.array([2.0]),
                                   curvature=CurvatureState(1, LrSchedule.constant(0.05)))
        losses = []
        for _ in range(20):
            full_precision_step(state, lambda w: L * w)
            losses.append(0.5 * L * float(state.w[0]) ** 2)
        assert all(b < a for a, b in zip(losses[:-1], losses[1:]))

    def test_converges_on_anisotropic_quadratic(self):
        obj = fig1_quadratic()
        state = LayerState(w=np.array([1.0, 1.0]),
                                   curvature=CurvatureState(2, LrSchedule.constant(0.05)))
        for t in range(500):
            full_precision_step(state, obj.grad_at)
        assert np.linalg.norm(state.w - np.array([0.054, -0.055]), np.inf) < 1e-6


class TestPow32Counterexample:
    def test_full_precision_magnitude_shrinks_monotonically(self):
        # descent on a function convex in |w|: |w| falls until the iterate
        # first crosses zero and stays pinned at step scale afterwards
        obj = abs_power_objective(c=1.0, w0=[0.5])
        state = LayerState(
            w=np.array([0.5]), curvature=CurvatureState(1, LrSchedule.constant(0.01)))
        trace = [0.5]
        for _ in range(1000):
            full_precision_step(state, obj.grad_at)
            trace.append(float(state.w[0]))
        trace = np.array(trace)
        crossing = int(np.argmax(trace < 0.0))
        assert crossing > 0
        assert np.all(np.diff(np.abs(trace[:crossing])) <= 1e-15)
        assert np.max(np.abs(trace[crossing:])) <= 0.02

    def test_baseline_oscillates_and_backtracking_settles(self):
        # single init here; the acceptance suite sweeps all four
        grid = QuantGrid(1)

        def flips(kind):
            obj = abs_power_objective(c=1.0, w0=[0.5])
            state = new_layer(
                np.array([0.5]), grid, CurvatureState(1, LrSchedule.constant(0.01)))
            record = TrajectoryRecord(state.w)
            record.append(0, 0.0, state.w, state.code.beta)
            for t in range(1, 1001):
                if kind == "laq":
                    laq_step(state, obj.grad_at)
                else:
                    blaq_step(state, obj.grad_at, 0.6)
                record.append(t, 0.0, state.w, state.code.beta)
            return flip_count(record, 0, 100)

        assert flips("laq") >= 50
        assert flips("blaq") <= 5


def separable_parts():
    """Two independent objectives: the 2-D quadratic and the 3/2 power."""
    return fig1_quadratic(), abs_power_objective(c=1.0, w0=[0.5])


def fresh_layer(kind, w0, quantized):
    curv = CurvatureState(len(w0), LrSchedule.constant(0.05))
    if quantized:
        return new_layer(np.array(w0), QuantGrid(2), curv)
    return LayerState(w=np.array(w0), curvature=curv)


class TestLayerLists:
    @pytest.mark.parametrize("kind, quantized", [
        ("laq", (True, False)), ("blaq", (True, False)),
        ("full-precision", (False, False))])
    def test_joint_step_equals_single_steps(self, kind, quantized):
        quad, power = separable_parts()
        starts = ([1.0, 1.0], [0.5])
        joint = [fresh_layer(kind, w0, q) for w0, q in zip(starts, quantized)]
        alone = [fresh_layer(kind, w0, q) for w0, q in zip(starts, quantized)]

        def joint_grad(points):
            return [quad.grad_at(points[0]), power.grad_at(points[1])]

        for _ in range(6):
            step(kind, joint, joint_grad, 0.6)
            step(kind, alone[0], quad.grad_at, 0.6)
            step(kind, alone[1], power.grad_at, 0.6)
        for j, s in zip(joint, alone):
            assert np.array_equal(j.w, s.w)
            assert np.array_equal(j.g_hat, s.g_hat)
            assert np.array_equal(j.d_hat, s.d_hat)
            assert j.curvature.step == s.curvature.step == 6
        if quantized[0]:
            assert joint[0].code.alpha == alone[0].code.alpha
            assert np.array_equal(joint[0].code.beta, alone[0].code.beta)

    @pytest.mark.parametrize("kind, evaluations", [
        ("laq", 1), ("blaq", 2), ("full-precision", 1)])
    def test_one_joint_evaluation_per_gradient(self, kind, evaluations):
        quad, power = separable_parts()
        layers = [fresh_layer(kind, [1.0, 1.0], kind != "full-precision"),
                  fresh_layer(kind, [0.5], False)]
        calls = []

        def grad(points):
            calls.append(len(points))
            return [quad.grad_at(points[0]), power.grad_at(points[1])]

        for _ in range(4):
            step(kind, layers, grad, 0.6)
        assert calls == [2] * (4 * evaluations)

    def test_full_precision_trial_point_is_the_forward_step(self):
        # a full-precision layer's trial point is w - g/D, not w
        layers = [make_state([0.4, -0.4], 0.4, [1.0, -1.0], FixedCurvature([2.0, 4.0])),
                  LayerState(w=np.array([1.0]), curvature=FixedCurvature([4.0]))]
        seen = []

        def grad(points):
            seen.append([np.array(p) for p in points])
            return [np.array([0.1, -0.2]), np.array([2.0])]

        blaq_step(layers, grad, 0.6)
        assert np.array_equal(seen[1][1], [0.5])
        w_star = np.array([0.4, -0.4]) - np.array([0.1, -0.2]) / np.array([2.0, 4.0])
        trial_code = project(w_star, np.array([2.0, 4.0]), QuantGrid(1))
        assert np.array_equal(seen[1][0], trial_code.w_hat())

    @pytest.mark.parametrize("kind", ["laq", "blaq"])
    def test_each_layer_keeps_its_own_grid(self, kind):
        # a 1-bit and a 3-bit layer in one list, pulled toward [0.4, 0.1]
        grids = (QuantGrid(1), QuantGrid(3))
        layers = [new_layer(np.array([1.0, 1.0]), grid,
                            CurvatureState(2, LrSchedule.constant(0.05)))
                  for grid in grids]
        center = np.array([0.4, 0.1])

        def grad(points):
            return [p - center for p in points]

        for _ in range(60):
            step(kind, layers, grad, 0.6)
            for s, grid in zip(layers, grids):
                assert s.grid is grid
                assert all(b in grid.levels for b in s.code.beta)
        assert not set(layers[1].code.beta) <= set(grids[0].levels)

    def test_unknown_kind_rejected(self):
        state = fresh_layer("laq", [1.0, 1.0], True)
        with pytest.raises(ValueError):
            step("sgd", state, fig1_quadratic().grad_at, 0.6)

    def test_divergence_names_the_step(self):
        # blaq evaluates twice per step, so call 83 is the first of step 42
        objective, calls = fig1_quadratic(), []

        def grad(w):
            calls.append(w)
            if len(calls) == 83:
                raise NumericError("non-finite value at node 2 (power)")
            return objective.grad_at(w)

        state = fresh_layer("blaq", [1.0, 1.0], True)
        with pytest.raises(NumericError, match=r"node 2 \(power\) at step 42$"):
            run_steps("blaq", state, grad, 0.6, 50, lambda t: None)
        assert state.curvature.step == 41

    @pytest.mark.parametrize("kind, a", [
        ("blaq", 1.0), ("blaq", 0.0), ("blaq", 0.6), ("laq", 0.6), ("full-precision", 0.6)])
    def test_infinite_metric_is_a_numeric_error(self, kind, a):
        # g * g overflows, so a metric is infinite; blaq's trial gradient is
        # the large one, and at a = 1 its mix forms 0 * inf = NaN
        state = fresh_layer(kind, [1.0, -1.0], kind != "full-precision")
        calls = []

        def grad(w):
            calls.append(w)
            return np.full(2, 1.0 if kind == "blaq" and len(calls) == 1 else 1e200)

        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="^metric is not finite at step 1$"):
            run_steps(kind, state, grad, a, 1, lambda t: None)


class TestConstructorAndDriver:
    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_run_steps_observes_before_and_after_every_step(self, monkeypatch, steps):
        events = []

        def recorded_step(*args):
            events.append("step")
            return step(*args)

        monkeypatch.setattr(optimizers, "step", recorded_step)
        state = fresh_layer("laq", [1.0, 1.0], True)
        run_steps("laq", state, fig1_quadratic().grad_at, 0.6, steps, events.append)
        assert events == [0] + [e for t in range(1, steps + 1) for e in ("step", t)]
        assert state.curvature.step == steps

    def test_full_precision_layer_owns_a_copy_of_w0(self):
        w0 = np.array([1.0, -2.0])
        state = new_layer(w0, None, CurvatureState(2, LrSchedule.constant(0.1)))
        assert state.grid is None and state.code is None
        assert not np.shares_memory(state.w, w0)
        step("full-precision", state, fig1_quadratic().grad_at, 0.6)
        state.w += 1.0
        assert w0.tolist() == [1.0, -2.0]

    def test_quantized_layer_owns_a_copy_of_w0(self):
        w0 = np.array([0.3, -1.2, 0.7])
        state = new_layer(w0, QuantGrid(2), CurvatureState(3, LrSchedule.constant(0.1)))
        assert not np.shares_memory(state.w, w0)
        step("laq", state, lambda w: w - 0.5, 0.6)
        state.w += 1.0
        assert w0.tolist() == [0.3, -1.2, 0.7]

    def test_quantized_layer_is_the_initialized_state(self):
        # the start weights placed on the grid under the unit metric
        w0 = np.array([0.3, -1.2, 0.7])
        state = new_layer(w0, QuantGrid(2), CurvatureState(3, LrSchedule.constant(0.1)))
        ref = project(w0, np.ones_like(w0), QuantGrid(2))
        assert state.grid.bitwidth == 2 and state.code is not None
        assert same_bits(state.w, w0) and same_bits(state.w_hat(), ref.w_hat())

    def test_levels_are_the_code_or_the_weights(self):
        def layers():
            return [new_layer([0.3, -1.2, 0.7], grid, CurvatureState(3, LrSchedule.constant(0.1)))
                    for grid in (QuantGrid(2), None)]

        for taken in (0, 1):
            quantized, plain = layers()
            for _ in range(taken):
                step("laq", quantized, lambda w: w - 0.5, 0.6)
                step("full-precision", plain, lambda w: w - 0.5, 0.6)
            assert quantized.levels() is quantized.code.beta
            assert plain.levels() is plain.w

    def test_oversized_quantized_layer_rejected(self):
        grid = QuantGrid(16)
        n = MAX_SWEEP_BREAKPOINTS // (grid.resolution - 1) + 1
        with pytest.raises(ConfigError, match="projection breakpoints, above the limit of"):
            new_layer(np.ones(n), grid, CurvatureState(n, LrSchedule.constant(0.1)))


def _reference_proximal_step(layers, grad_at):
    """The proximal step written out as one expression per quantity."""
    points = [s.w_hat() for s in layers]
    for s, w_hat, g in zip(layers, points, grad_at(points)):
        s.g_hat = np.asarray(g, dtype=np.float64)
        s.d_hat = s.curvature.update(s.g_hat)
        s.place(w_hat - s.g_hat / s.d_hat, s.d_hat)


def _reference_blaq_step(layers, grad_at, a):
    """The backtracking step written out, with the trial metric taken from
    a copy of the curvature."""
    trial_points = []
    for s, g in zip(layers, grad_at([s.w_hat() for s in layers])):
        s.g_hat = np.asarray(g, dtype=np.float64)
        s.d_hat = s.curvature.update(s.g_hat)
        w_star = s.w - s.g_hat / s.d_hat
        code_star = s.fit(w_star, s.d_hat)
        trial_points.append(w_star if code_star is None else code_star.w_hat())
    for s, g_star in zip(layers, grad_at(trial_points)):
        g_star = np.asarray(g_star, dtype=np.float64)
        d_star = s.curvature.copy().update(g_star)
        s.g_hat = a * s.g_hat + (1.0 - a) * g_star
        s.d_hat = a * s.d_hat + (1.0 - a) * d_star
        s.place(s.w - s.g_hat / s.d_hat, s.d_hat)


def _mixed_layers(seed):
    """1-bit, 2-bit and full-precision layers, each once on either side of
    the size from which the metric and the sign are computed in place,
    with a joint quadratic gradient whose curvature differs per
    coordinate."""
    rng = np.random.default_rng(seed)
    big = IN_PLACE_MIN_SIZE + 3
    kinds = [(1, 40), (1, big), (2, 30), (2, big), (None, 5), (None, big)]
    schedule = LrSchedule([(0, 0.05), (4, 0.02)])
    layers = []
    for k, n in kinds:
        curvature = CurvatureState(n, schedule, 0.99)
        w0 = rng.normal(size=n)
        layers.append(LayerState(w=w0, curvature=curvature) if k is None
                      else new_layer(w0, QuantGrid(k), curvature))
    lams = [rng.uniform(0.5, 5.0, size=n) for _, n in kinds]
    centers = [rng.normal(size=n) * 0.3 for _, n in kinds]

    def grad_at(points):
        return [lam * (p - c) for lam, p, c in zip(lams, points, centers)]

    return layers, grad_at


class TestStepsAgainstReference:
    """The steps against one expression per quantity, the trial metric
    from a copy of the curvature."""

    @pytest.mark.parametrize("kind, a", [("laq", 0.6), ("blaq", 0.6), ("blaq", 0.0),
                                         ("blaq", 1.0), ("blaq", 0.3)])
    def test_bit_identical_to_the_plain_expressions(self, kind, a):
        lean, grad_at = _mixed_layers(41)
        plain, _ = _mixed_layers(41)
        for _ in range(8):
            step(kind, lean, grad_at, a)
            if kind == "laq":
                _reference_proximal_step(plain, grad_at)
            else:
                _reference_blaq_step(plain, grad_at, a)
            for x, y in zip(lean, plain):
                for name in ("w", "g_hat", "d_hat"):
                    assert same_bits(getattr(x, name), getattr(y, name)), name
                assert same_bits(x.curvature.v, y.curvature.v)
                if x.grid is not None:
                    assert x.code.alpha == y.code.alpha
                    assert same_bits(x.code.beta, y.code.beta)

    @pytest.mark.parametrize("n", [6, IN_PLACE_MIN_SIZE])
    @pytest.mark.parametrize("kind", ["laq", "blaq", "full-precision"])
    def test_no_caller_array_is_written(self, kind, n):
        rng = np.random.default_rng(42)
        held = [rng.normal(size=n), rng.normal(size=3)]
        kept = [w.copy() for w in held]
        schedule = LrSchedule.constant(0.1)
        if kind == "full-precision":
            layers = [LayerState(w=w, curvature=CurvatureState(w.size, schedule))
                      for w in held]
        else:
            layers = [make_state(held[0], 0.5, np.sign(held[0]), CurvatureState(n, schedule)),
                      LayerState(w=held[1], curvature=CurvatureState(3, schedule))]
        handed = []     # (array, its value when handed over), both directions

        def grad_at(points):
            grads = [np.cos(3.0 * p) for p in points]
            handed.extend((x, x.copy()) for x in [*points, *grads])
            return grads

        for _ in range(5):
            step(kind, layers, grad_at, 0.6)
        assert all(np.array_equal(w, k) for w, k in zip(held, kept))
        assert handed and all(np.array_equal(x, value) for x, value in handed)
