"""Second-moment curvature metric and the learning-rate schedule."""

import warnings

import numpy as np
import pytest

from blaq.buffers import IN_PLACE_MIN_SIZE
from blaq.curvature import CurvatureState, LrSchedule, all_finite
from blaq.errors import NumericError
from helpers import same_bits


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


def _reference_update(v, step, g, beta2, eps, schedule):
    """The update written out as one expression per quantity, on copies."""
    v = beta2 * v + (1.0 - beta2) * g * g
    step += 1
    v_hat = v / (1.0 - beta2 ** step)
    return v, step, (np.sqrt(v_hat) + eps) / schedule.at(step)


class TestUpdateAndPeek:
    # the rate changes at step 3, so a peek that used the current step's
    # rate instead of the next one would show
    SCHEDULE = LrSchedule([(0, 0.1), (3, 0.02), (5, 0.3)])

    # both sides of the size from which the metric is computed in place
    SIZES = [1, 4, 50, IN_PLACE_MIN_SIZE]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("beta2", [0.0, 0.9, 0.999])
    def test_update_matches_the_expression_bit_for_bit(self, beta2, n):
        rng = np.random.default_rng(31)
        state = CurvatureState(n, self.SCHEDULE, beta2=beta2, eps=1e-8)
        v, step = np.zeros(n), 0
        for _ in range(7):
            g = rng.normal(size=n) * 10.0 ** rng.integers(-6, 4)
            v, step, d_ref = _reference_update(v, step, g, beta2, 1e-8, self.SCHEDULE)
            assert same_bits(state.update(g), d_ref)
            assert same_bits(state.v, v) and state.step == step

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("beta2", [0.0, 0.9, 0.999])
    def test_peek_is_copy_update_and_changes_nothing(self, beta2, n):
        rng = np.random.default_rng(32)
        state = CurvatureState(n, self.SCHEDULE, beta2=beta2, eps=1e-6)
        for _ in range(7):
            state.update(rng.normal(size=n))
            v_before, step_before = state.v.copy(), state.step
            g = rng.normal(size=n) * 3.0
            peeked = state.peek(g)
            assert same_bits(peeked, state.copy().update(g))
            assert same_bits(state.v, v_before) and state.step == step_before

    def test_peek_before_any_update(self):
        state = CurvatureState(3, self.SCHEDULE)
        g = np.array([1.0, -2.0, 0.0])
        assert same_bits(state.peek(g), state.copy().update(g))
        assert state.step == 0 and not state.v.any()

    @pytest.mark.parametrize("n", SIZES)
    def test_update_and_peek_return_new_arrays(self, n):
        state = CurvatureState(n, self.SCHEDULE)
        g = np.ones(n)
        d = state.update(g)
        assert not np.shares_memory(d, state.v)
        assert not np.shares_memory(state.peek(g), state.v)
        assert not np.shares_memory(state.peek(g), d)

    def test_peek_errors(self):
        state = CurvatureState(2, self.SCHEDULE)
        with pytest.raises(ValueError):
            state.peek(np.ones(3))
        with pytest.raises(NumericError):
            state.peek(np.array([1.0, float("inf")]))
        assert state.step == 0 and not state.v.any()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_keeps_its_message(self, n, bad):
        state = CurvatureState(n, self.SCHEDULE)
        g = np.ones(n)
        g[n // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the check itself warns of nothing
            for call in (state.update, state.peek):
                with pytest.raises(NumericError) as exc:
                    call(g)
                assert str(exc.value) == "gradient contains non-finite entries"
        assert state.step == 0 and not state.v.any()

    @pytest.mark.parametrize("n", SIZES)
    def test_largest_finite_gradient_accepted(self, n):
        # g . g overflows, so the elementwise test gives the verdict
        state = CurvatureState(n, self.SCHEDULE)
        g = np.full(n, 1e308)
        g[0] = -1e308
        with np.errstate(over="ignore"):     # g * g overflows in the moment
            state.peek(g)
            d = state.update(g)
        assert state.step == 1 and (d > 0.0).all()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("value, finite", [
        (np.nan, False), (np.inf, False), (-np.inf, False), (1e308, True),
        (-1e200, True), (5e-324, True), (-0.0, True)])
    def test_all_finite_is_the_elementwise_verdict(self, n, value, finite):
        x = np.linspace(-2.0, 2.0, n)
        x[-1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all_finite(x) is finite is bool(np.isfinite(x).all())

    @pytest.mark.parametrize("n", SIZES)
    def test_rejected_update_leaves_the_state(self, n):
        state = CurvatureState(n, self.SCHEDULE)
        state.update(np.arange(1.0, n + 1.0))
        v = state.v.copy()
        with pytest.raises(NumericError):
            state.update(np.full(n, np.nan))
        assert same_bits(state.v, v) and state.step == 1
