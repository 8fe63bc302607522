"""Second-moment curvature metric and the learning-rate schedule."""

import numpy as np
import pytest

from blaq.curvature import CurvatureState, LrSchedule
from blaq.errors import NumericError


class TestLrSchedule:
    def test_constant(self):
        s = LrSchedule.constant(0.05)
        assert s.at(1) == 0.05 and s.at(10_000) == 0.05

    def test_piecewise(self):
        s = LrSchedule([(0, 0.1), (100, 0.05), (200, 0.01)])
        assert s.at(0) == 0.1
        assert s.at(99) == 0.1
        assert s.at(100) == 0.05
        assert s.at(500) == 0.01

    def test_decayed_builder(self):
        s = LrSchedule.decayed(0.2, hold=50, factor=0.5, every=25, total=120)
        assert s.at(49) == 0.2
        assert s.at(50) == 0.1
        assert s.at(75) == 0.05
        assert s.at(100) == 0.025

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule([])
        with pytest.raises(ValueError):
            LrSchedule([(5, 0.1)])
        with pytest.raises(ValueError):
            LrSchedule([(0, 0.1), (0, 0.2)])
        with pytest.raises(ValueError):
            LrSchedule([(0, 0.1), (10, -0.2)])
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                LrSchedule([(0, 0.1), (10, rate)])


class TestCurvatureUpdate:
    def test_first_step_hand_value(self):
        # beta2 = 0.999: after one update v = 0.001*g^2, bias correction
        # divides by 0.001, so sqrt(v_hat) = |g| exactly.
        state = CurvatureState(2, LrSchedule.constant(0.1), beta2=0.999, eps=1e-8)
        d = state.update(np.array([1.0, 0.0]))
        assert np.isclose(d[0], (1.0 + 1e-8) / 0.1, rtol=1e-12)
        assert np.isclose(d[1], 1e-8 / 0.1, rtol=1e-12)

    def test_zero_gradient_keeps_direction(self):
        state = CurvatureState(3, LrSchedule.constant(0.5), beta2=0.9)
        state.update(np.array([1.0, 2.0, 3.0]))
        v_before = state.v.copy()
        d = state.update(np.zeros(3))
        assert np.allclose(state.v, 0.9 * v_before)
        v_hat = state.v / (1.0 - 0.9 ** 2)
        assert np.allclose(d, (np.sqrt(v_hat) + state.eps) / 0.5)

    def test_constant_gradient_fixed_point(self):
        # with constant g the bias-corrected moment equals g^2 at every step
        state = CurvatureState(2, LrSchedule.constant(0.2), beta2=0.999, eps=1e-8)
        g = np.array([0.3, -1.7])
        for _ in range(50):
            d = state.update(g)
            assert np.allclose(d, (np.abs(g) + 1e-8) / 0.2, rtol=1e-12)

    def test_positivity(self):
        rng = np.random.default_rng(0)
        state = CurvatureState(8, LrSchedule.constant(0.01), beta2=0.95)
        for _ in range(100):
            d = state.update(rng.normal(scale=rng.uniform(0, 2), size=8))
            assert np.all(d > 0.0)

    def test_gradient_scaling_scales_root_moment(self):
        rng = np.random.default_rng(1)
        gs = [rng.normal(size=4) for _ in range(20)]
        c = 3.7
        s1 = CurvatureState(4, LrSchedule.constant(0.1), beta2=0.99)
        s2 = CurvatureState(4, LrSchedule.constant(0.1), beta2=0.99)
        for g in gs:
            d1 = s1.update(g)
            d2 = s2.update(c * g)
        root1 = d1 * 0.1 - s1.eps
        root2 = d2 * 0.1 - s2.eps
        assert np.allclose(root2, c * root1, rtol=1e-12)

    def test_memoryless_limit(self):
        state = CurvatureState(3, LrSchedule.constant(0.05), beta2=0.0, eps=1e-8)
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = rng.normal(size=3)
            d = state.update(g)
            assert np.allclose(d, (np.abs(g) + 1e-8) / 0.05, rtol=1e-12)

    def test_schedule_drives_metric(self):
        state = CurvatureState(1, LrSchedule([(0, 1.0), (2, 0.5)]), beta2=0.0, eps=1e-8)
        d1 = state.update(np.array([2.0]))
        assert np.isclose(d1[0], (2.0 + 1e-8) / 1.0)
        d2 = state.update(np.array([2.0]))
        assert np.isclose(d2[0], (2.0 + 1e-8) / 0.5)

    def test_copy_is_independent(self):
        state = CurvatureState(2, LrSchedule.constant(0.1))
        state.update(np.array([1.0, 1.0]))
        dup = state.copy()
        dup.update(np.array([5.0, 5.0]))
        assert dup.step == state.step + 1
        assert not np.allclose(dup.v, state.v)

    def test_errors(self):
        state = CurvatureState(2, LrSchedule.constant(0.1))
        with pytest.raises(ValueError):
            state.update(np.ones(3))
        with pytest.raises(NumericError):
            state.update(np.array([1.0, float("nan")]))
        with pytest.raises(ValueError):
            CurvatureState(2, LrSchedule.constant(0.1), beta2=1.0)
        with pytest.raises(ValueError):
            CurvatureState(2, LrSchedule.constant(0.1), eps=0.0)
        with pytest.raises(ValueError):
            CurvatureState(2, LrSchedule.constant(0.1)).d_hat()
