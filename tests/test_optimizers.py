"""Update rules: arithmetic, base points, mixing, evaluation counts."""

import numpy as np
import pytest

from blaq.curvature import CurvatureState, LrSchedule
from blaq.errors import ConfigError, NumericError
from blaq.metrics import TrajectoryRecord, flip_count
from blaq.models import abs_power_objective, fig1_quadratic
from blaq.optimizers import (BlaqConfig, FullPrecisionState, LayerQuantState,
                             blaq_step, full_precision_step, laq_step, step)
from blaq.quantizer import MAX_SWEEP_BREAKPOINTS, QuantGrid, ScaledCode, project


class FixedCurvature:
    """Stub returning a pinned diagonal; lets tests control the metric."""

    def __init__(self, d):
        self.d = np.asarray(d, dtype=np.float64)
        self.step = 0

    def update(self, g):
        self.step += 1
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


def make_state(w, alpha, beta, curvature):
    return LayerQuantState(
        w=np.asarray(w, dtype=np.float64),
        code=ScaledCode(alpha, np.asarray(beta, dtype=np.float64)),
        curvature=curvature,
    )


class TestLaqStep:
    def test_proximal_arithmetic(self):
        # w_hat = [0.4, -0.4], g = [0.1, -0.2], D = [2, 4] -> w = [0.35, -0.35]
        state = make_state([0.4, -0.4], 0.4, [1.0, -1.0], FixedCurvature([2.0, 4.0]))
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        grad = CountingGrad(lambda w: np.array([0.1, -0.2]))
        laq_step(state, grad, cfg)
        assert np.allclose(state.w, [0.35, -0.35], atol=1e-15)
        assert np.array_equal(grad.points[0], [0.4, -0.4])

    def test_base_point_is_quantized(self):
        # full-precision w differs from the code; the step must start at alpha*beta
        state = make_state([0.9, -0.1], 0.5, [1.0, -1.0], FixedCurvature([1.0, 1.0]))
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        laq_step(state, CountingGrad(lambda w: np.zeros(2)), cfg)
        assert np.allclose(state.w, [0.5, -0.5])

    def test_zero_gradient_fixed_point(self):
        state = make_state([0.4, -0.4], 0.4, [1.0, -1.0], FixedCurvature([2.0, 2.0]))
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        laq_step(state, CountingGrad(lambda w: np.zeros(2)), cfg)
        assert state.code.alpha == 0.4
        assert list(state.code.beta) == [1.0, -1.0]

    def test_single_evaluation(self):
        state = make_state([0.4, -0.4], 0.4, [1.0, -1.0], FixedCurvature([1.0, 1.0]))
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        grad = CountingGrad(lambda w: np.array([0.1, 0.1]))
        for _ in range(7):
            laq_step(state, grad, cfg)
        assert grad.calls == 7


class TestBlaqStages:
    """The forward search and the backtrack inside one blaq_step, seen
    through the second evaluation point and the g_hat left after the step."""

    def test_stage1_base_point_is_full_precision(self):
        # w = [0.35, -0.35] differs from w_hat = [0.5, -0.5]; g = [0.1, -0.2],
        # D = [2, 4] -> the trial point is the code of w* = [0.30, -0.30]
        state = make_state([0.35, -0.35], 0.5, [1.0, -1.0], FixedCurvature([2.0, 4.0]))
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        grad = CountingGrad(lambda w: np.array([0.1, -0.2]))
        blaq_step(state, grad, cfg)
        assert np.array_equal(grad.points[0], [0.5, -0.5])
        w_star = np.array([0.35, -0.35]) - np.array([0.1, -0.2]) / np.array([2.0, 4.0])
        assert np.allclose(w_star, [0.30, -0.30], atol=1e-15)
        expected = project(w_star, np.array([2.0, 4.0]), cfg.grid, cfg.m)
        assert np.array_equal(grad.points[1], expected.w_hat())

    def test_stage1_zero_gradient(self):
        w = np.array([0.35, -0.2])
        state = make_state(w, 0.5, [1.0, -1.0], FixedCurvature([2.0, 4.0]))
        cfg = BlaqConfig(grid=QuantGrid(2), a=0.6, m=5)
        grad = CountingGrad(lambda w: np.zeros(2))
        blaq_step(state, grad, cfg)
        expected = project(w, np.array([2.0, 4.0]), cfg.grid, cfg.m)
        assert np.array_equal(grad.points[1], expected.w_hat())

    def test_stage1_from_origin_moves_along_negative_gradient(self):
        # a full-precision layer's trial point is w - g/D exactly; with
        # metric 1/eta it lies eta * (0.54, -0.11) from (0, 0)
        obj = fig1_quadratic()
        eta = 0.05
        state = FullPrecisionState(w=np.zeros(2),
                                   curvature=FixedCurvature([1.0 / eta, 1.0 / eta]))
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        grad = CountingGrad(obj.grad_at)
        blaq_step(state, grad, cfg)
        g = obj.grad_at([0.0, 0.0])
        assert np.array_equal(grad.points[0], [0.0, 0.0])
        assert np.array_equal(grad.points[1], np.zeros(2) - g / np.array([1.0 / eta] * 2))
        assert np.allclose(grad.points[1], eta * np.array([0.54, -0.11]), atol=1e-15)

    def test_stage1_trial_gradient_at_trial_point(self):
        # a = 0: the step keeps exactly the gradient taken at the trial point
        state = make_state([0.35, -0.35], 0.35, [1.0, -1.0], FixedCurvature([2.0, 4.0]))
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.0, m=5)
        grad = CountingGrad(lambda w: np.array([0.1, -0.2]) + np.asarray(w))
        blaq_step(state, grad, cfg)
        assert grad.calls == 2
        assert np.array_equal(state.g_hat, np.array([0.1, -0.2]) + grad.points[1])

    def test_stage2_mixing_values(self):
        # a = 0.6, g = [1, 0], g* = [0, 1] -> mixed [0.6, 0.4]
        state = make_state([1.0, 1.0], 1e-8, [1.0, 1.0], FixedCurvature([1.0, 1.0]))
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        answers = iter([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        blaq_step(state, CountingGrad(lambda w: next(answers)), cfg)
        assert np.allclose(state.g_hat, [0.6, 0.4], atol=1e-15)


class TestBlaqStep:
    def test_two_evaluations_per_step(self):
        obj = fig1_quadratic()
        grid = QuantGrid(1)
        state = LayerQuantState.initialize(
            np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))
        cfg = BlaqConfig(grid=grid, a=0.6, m=5)
        grad = CountingGrad(obj.grad_at)
        starts = []
        for t in range(5):
            starts.append(state.w_hat())
            blaq_step(state, grad, cfg)
        assert grad.calls == 10
        # first evaluation of each step happens at the current quantized point
        for t, w_hat in enumerate(starts):
            assert np.array_equal(grad.points[2 * t], w_hat)

    def test_endpoint_a_one_equals_base_step(self):
        # a = 1: the backtrack reduces to stepping from w with (g, D)
        obj = fig1_quadratic()
        grid = QuantGrid(1)

        def fresh_state():
            return LayerQuantState.initialize(
                np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))

        state = fresh_state()
        cfg = BlaqConfig(grid=grid, a=1.0, m=5)
        blaq_step(state, obj.grad_at, cfg)

        ref = fresh_state()
        g = obj.grad_at(ref.w_hat())
        d = ref.curvature.update(g)
        w_expected = ref.w - g / d
        assert np.array_equal(state.w, w_expected)

    def test_endpoint_a_zero_uses_trial_quantities(self):
        obj = fig1_quadratic()
        grid = QuantGrid(1)
        state = LayerQuantState.initialize(
            np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))
        cfg = BlaqConfig(grid=grid, a=0.0, m=5)

        # reproduce by hand
        ref = LayerQuantState.initialize(
            np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))
        g = obj.grad_at(ref.w_hat())
        d = ref.curvature.update(g)
        w_star = ref.w - g / d
        code_star = project(w_star, d, grid, 5)
        g_star = obj.grad_at(code_star.w_hat())
        d_star = ref.curvature.copy().update(g_star)
        w_expected = ref.w - g_star / d_star

        blaq_step(state, obj.grad_at, cfg)
        assert np.allclose(state.w, w_expected, atol=1e-15)
        assert np.array_equal(state.g_hat, g_star)

    def test_mixed_metric_positive(self):
        rng = np.random.default_rng(3)
        obj = fig1_quadratic()
        grid = QuantGrid(1)
        for a in rng.uniform(0, 1, size=10):
            state = LayerQuantState.initialize(
                rng.normal(size=2), grid, CurvatureState(2, LrSchedule.constant(0.1)))
            cfg = BlaqConfig(grid=grid, a=float(a), m=5)
            for _ in range(5):
                blaq_step(state, obj.grad_at, cfg)
                assert np.all(state.d_hat > 0.0)

    def test_code_invariants_hold_along_trajectory(self):
        obj = fig1_quadratic()
        grid = QuantGrid(2)
        state = LayerQuantState.initialize(
            np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.05)))
        cfg = BlaqConfig(grid=grid, a=0.6, m=5)
        for _ in range(50):
            blaq_step(state, obj.grad_at, cfg)
            assert state.code.alpha > 0.0
            assert all(b in grid.levels for b in state.code.beta)

    def test_deterministic_trajectories(self):
        def run():
            obj = fig1_quadratic()
            grid = QuantGrid(1)
            state = LayerQuantState.initialize(
                np.array([1.0, 1.0]), grid, CurvatureState(2, LrSchedule.constant(0.1)))
            cfg = BlaqConfig(grid=grid, a=0.6, m=5)
            traj = []
            for _ in range(40):
                blaq_step(state, obj.grad_at, cfg)
                traj.append(state.w.copy())
            return np.array(traj)

        assert np.array_equal(run(), run())


class TestFullPrecision:
    def test_zero_gradient_no_movement(self):
        state = FullPrecisionState(w=np.array([1.0, -2.0]),
                                   curvature=CurvatureState(2, LrSchedule.constant(0.1)))
        full_precision_step(state, lambda w: np.zeros(2))
        assert list(state.w) == [1.0, -2.0]

    def test_monotone_descent_region(self):
        # 0.5*L*w^2 far from the optimum: adaptive steps shrink the loss
        L = 4.0
        state = FullPrecisionState(w=np.array([2.0]),
                                   curvature=CurvatureState(1, LrSchedule.constant(0.05)))
        losses = []
        for _ in range(20):
            full_precision_step(state, lambda w: L * w)
            losses.append(0.5 * L * float(state.w[0]) ** 2)
        assert all(b < a for a, b in zip(losses[:-1], losses[1:]))

    def test_converges_on_anisotropic_quadratic(self):
        obj = fig1_quadratic()
        state = FullPrecisionState(w=np.array([1.0, 1.0]),
                                   curvature=CurvatureState(2, LrSchedule.constant(0.05)))
        for t in range(500):
            full_precision_step(state, obj.grad_at)
        assert np.linalg.norm(state.w - np.array([0.054, -0.055]), np.inf) < 1e-6


class TestPow32Counterexample:
    def test_full_precision_magnitude_shrinks_monotonically(self):
        # descent on a function convex in |w|: |w| falls until the iterate
        # first crosses zero and stays pinned at step scale afterwards
        obj = abs_power_objective(c=1.0, w0=[0.5])
        state = FullPrecisionState(
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
            state = LayerQuantState.initialize(
                np.array([0.5]), grid, CurvatureState(1, LrSchedule.constant(0.01)))
            cfg = BlaqConfig(grid=grid, a=0.6, m=5)
            record = TrajectoryRecord()
            record.append(0, 0.0, state.w, state.code.beta, np.zeros(1))
            for t in range(1, 1001):
                if kind == "laq":
                    laq_step(state, obj.grad_at, cfg)
                else:
                    blaq_step(state, obj.grad_at, cfg)
                record.append(t, 0.0, state.w, state.code.beta, np.zeros(1))
            return flip_count(record, 0, 100)

        assert flips("laq") >= 50
        assert flips("blaq") <= 5


def separable_parts():
    """Two independent objectives: the 2-D quadratic and the 3/2 power."""
    return fig1_quadratic(), abs_power_objective(c=1.0, w0=[0.5])


def fresh_layer(kind, w0, quantized):
    curv = CurvatureState(len(w0), LrSchedule.constant(0.05))
    if quantized:
        return LayerQuantState.initialize(np.array(w0), QuantGrid(2), curv)
    return FullPrecisionState(w=np.array(w0), curvature=curv)


class TestLayerLists:
    @pytest.mark.parametrize("kind, quantized", [
        ("laq", (True, False)), ("blaq", (True, False)),
        ("full-precision", (False, False))])
    def test_joint_step_equals_single_steps(self, kind, quantized):
        quad, power = separable_parts()
        cfg = BlaqConfig(grid=QuantGrid(2), a=0.6, m=5)
        starts = ([1.0, 1.0], [0.5])
        joint = [fresh_layer(kind, w0, q) for w0, q in zip(starts, quantized)]
        alone = [fresh_layer(kind, w0, q) for w0, q in zip(starts, quantized)]

        def joint_grad(points):
            return [quad.grad_at(points[0]), power.grad_at(points[1])]

        for _ in range(6):
            step(kind, joint, joint_grad, cfg)
            step(kind, alone[0], quad.grad_at, cfg)
            step(kind, alone[1], power.grad_at, cfg)
        for j, s in zip(joint, alone):
            assert np.array_equal(j.w, s.w)
            assert np.array_equal(j.g_hat, s.g_hat)
            assert np.array_equal(j.d_hat, s.d_hat)
            assert j.step_count == s.step_count == 6
        if quantized[0]:
            assert joint[0].code.alpha == alone[0].code.alpha
            assert np.array_equal(joint[0].code.beta, alone[0].code.beta)

    @pytest.mark.parametrize("kind, evaluations", [
        ("laq", 1), ("blaq", 2), ("full-precision", 1)])
    def test_one_joint_evaluation_per_gradient(self, kind, evaluations):
        quad, power = separable_parts()
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        layers = [fresh_layer(kind, [1.0, 1.0], kind != "full-precision"),
                  fresh_layer(kind, [0.5], False)]
        calls = []

        def grad(points):
            calls.append(len(points))
            return [quad.grad_at(points[0]), power.grad_at(points[1])]

        for _ in range(4):
            step(kind, layers, grad, cfg)
        assert calls == [2] * (4 * evaluations)

    def test_full_precision_trial_point_is_the_forward_step(self):
        # a full-precision layer's trial point is w - g/D, not w
        cfg = BlaqConfig(grid=QuantGrid(1), a=0.6, m=5)
        layers = [make_state([0.4, -0.4], 0.4, [1.0, -1.0], FixedCurvature([2.0, 4.0])),
                  FullPrecisionState(w=np.array([1.0]), curvature=FixedCurvature([4.0]))]
        seen = []

        def grad(points):
            seen.append([np.array(p) for p in points])
            return [np.array([0.1, -0.2]), np.array([2.0])]

        blaq_step(layers, grad, cfg)
        assert np.array_equal(seen[1][1], [0.5])
        w_star = np.array([0.4, -0.4]) - np.array([0.1, -0.2]) / np.array([2.0, 4.0])
        trial_code = project(w_star, np.array([2.0, 4.0]), cfg.grid, cfg.m)
        assert np.array_equal(seen[1][0], trial_code.w_hat())

    def test_unknown_kind_rejected(self):
        state = fresh_layer("laq", [1.0, 1.0], True)
        with pytest.raises(ValueError):
            step("sgd", state, fig1_quadratic().grad_at,
                 BlaqConfig(grid=QuantGrid(1)))

    def test_divergence_names_the_step(self):
        def grad(w):
            raise NumericError("non-finite value at node 2 (power)")

        state = fresh_layer("blaq", [1.0, 1.0], True)
        state.step_count = 41
        with pytest.raises(NumericError, match=r"node 2 \(power\) at step 42"):
            step("blaq", state, grad, BlaqConfig(grid=QuantGrid(1)))

    def test_breakpoint_limit_rejects_layer(self):
        grid = QuantGrid(16)
        n = MAX_SWEEP_BREAKPOINTS // (grid.resolution - 1) + 1
        with pytest.raises(ConfigError):
            LayerQuantState.initialize(np.ones(n), grid, CurvatureState(n, LrSchedule.constant(0.1)))
