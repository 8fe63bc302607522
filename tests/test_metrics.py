"""Trajectory diagnostics: amplitudes, flips, direction changes."""

import numpy as np
import pytest

from blaq.metrics import (TrajectoryRecord, direction_change_count, flip_count,
                          oscillation_amplitude, sample_coordinates,
                          steps_to_tolerance)
from helpers import same_bits


def record_from(w_traces, w_hat_traces=None, losses=None, start=None):
    """Build a record from per-step coordinate rows, started at `start`
    (default the first row, so that the first update is zero)."""
    w_traces = np.atleast_2d(np.asarray(w_traces, dtype=np.float64))
    n = w_traces.shape[0]
    w_hat_traces = w_traces if w_hat_traces is None else np.atleast_2d(np.asarray(w_hat_traces, float))
    losses = np.zeros(n) if losses is None else losses
    rec = TrajectoryRecord(w_traces[0] if start is None else start)
    for t in range(n):
        rec.append(t, losses[t], w_traces[t], w_hat_traces[t])
    return rec


def rows_with_updates(updates):
    """w rows from a zero start whose differences are `updates`."""
    return np.cumsum(np.asarray(updates, dtype=np.float64), axis=0)


class TestRecord:
    def test_strictly_increasing_steps(self):
        rec = TrajectoryRecord([1.0])
        rec.append(0, 0.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            rec.append(0, 0.0, [1.0], [1.0])

    def test_constant_dimensions(self):
        rec = TrajectoryRecord([1.0, 2.0])
        rec.append(0, 0.0, [1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            rec.append(1, 0.0, [1.0], [1.0])

    def test_update_width_is_checked(self):
        # an update is w minus the row before it, so w must have the
        # start's width, and w_hat with it
        rec = TrajectoryRecord([1.0, 2.0])
        with pytest.raises(ValueError, match="must each hold 2 entries"):
            rec.append(0, 0.0, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        rec.append(0, 0.0, [1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="must each hold 2 entries"):
            rec.append(1, 0.0, [1.0, 2.0], [1.0, 1.0, 1.0])
        assert len(rec) == 1

    def test_rows_survive_the_buffer_growing(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(3, 200, 2))
        rec = record_from(rows[0], rows[1], start=rows[2][0])
        assert rec.w.shape == (200, 2)
        assert np.array_equal(rec.w, rows[0]) and np.array_equal(rec.w_hat, rows[1])
        assert np.array_equal(rec.updates[1:], rows[0][1:] - rows[0][:-1])

    def test_updates_are_the_runners_differences_bit_for_bit(self):
        # the oracle: each w minus the row recorded before it, the start before the first
        rng = np.random.default_rng(7)
        start = rng.normal(size=3)
        rows = start + np.cumsum(rng.normal(size=(200, 3)) * 1e-3, axis=0)
        rec, prev_w, stored = TrajectoryRecord(start), start, []
        for t, w in enumerate(rows):
            rec.append(t, 0.0, w, w)
            stored.append(w - prev_w)
            prev_w = rec.w[-1]
        assert same_bits(rec.updates, np.array(stored))
        assert not np.array_equal(rec.updates[0], np.zeros(3))


class TestOscillationAmplitude:
    def test_constant_trace_is_zero(self):
        rec = record_from([[0.1], [0.1], [0.1]])
        assert oscillation_amplitude(rec, 0, 3) == 0.0

    def test_max_step_delta(self):
        rec = record_from([[0.0], [0.002], [0.001]])
        assert oscillation_amplitude(rec, 0, 3) == 0.002

    def test_window_restriction(self):
        rec = record_from([[0.0], [5.0], [5.0], [5.0]])
        assert oscillation_amplitude(rec, 0, 3) == 0.0

    def test_zero_iff_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            trace = rng.normal(size=(6, 1))
            rec = record_from(trace)
            amp = oscillation_amplitude(rec, 0, 6)
            assert amp >= 0.0
            assert (amp == 0.0) == bool(np.all(trace == trace[0]))

    def test_empty_window_rejected(self):
        rec = record_from([[0.0], [1.0]])
        with pytest.raises(ValueError):
            oscillation_amplitude(rec, 0, 0)
        with pytest.raises(ValueError):
            oscillation_amplitude(rec, 0, 3)


class TestFlipCount:
    def test_counting(self):
        rec = record_from(np.zeros((5, 1)), [[1.0], [-1.0], [1.0], [1.0], [-1.0]])
        assert flip_count(rec, 0, 5) == 3

    def test_constant_trace(self):
        rec = record_from(np.zeros((4, 1)), np.ones((4, 1)))
        assert flip_count(rec, 0, 4) == 0

    def test_bounded_by_window(self):
        rng = np.random.default_rng(1)
        levels = rng.choice([-1.0, 1.0], size=(30, 2))
        rec = record_from(np.zeros((30, 2)), levels)
        for window in (2, 5, 30):
            assert flip_count(rec, 0, window) <= window - 1

    def test_prepend_invariance(self):
        tail = [[1.0], [-1.0], [1.0]]
        rec_short = record_from(np.zeros((3, 1)), tail)
        rec_long = record_from(np.zeros((6, 1)), [[1.0], [1.0], [1.0]] + tail)
        assert flip_count(rec_short, 0, 3) == flip_count(rec_long, 0, 3)


class TestDirectionChanges:
    def test_opposed_updates(self):
        rec = record_from(rows_with_updates([[1.0, 0.0], [-1.0, 0.1]]), start=[0.0, 0.0])
        assert direction_change_count(rec, 2) == 1

    def test_orthogonal_not_counted(self):
        rec = record_from(rows_with_updates([[1.0, 0.0], [0.0, 1.0]]), start=[0.0, 0.0])
        assert direction_change_count(rec, 2) == 0

    def test_identical_updates(self):
        rec = record_from(rows_with_updates([[1.0, 1.0]] * 4), start=[0.0, 0.0])
        assert direction_change_count(rec, 4) == 0

    def test_needs_two_updates(self):
        rec = record_from(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            direction_change_count(rec, 1)

    def test_bounded_by_window(self):
        rng = np.random.default_rng(2)
        rec = record_from(rows_with_updates(rng.normal(size=(20, 3))), start=np.zeros(3))
        assert direction_change_count(rec, 20) <= 19


class TestStepsToTolerance:
    def test_first_hit(self):
        rec = record_from(np.zeros((4, 1)), losses=[3.0, 2.0, 1.0, 0.5])
        assert steps_to_tolerance(rec, 0.0, 1.0) == 2

    def test_never_reached(self):
        rec = record_from(np.zeros((3, 1)), losses=[3.0, 2.5, 2.0])
        assert steps_to_tolerance(rec, 0.0, 1.0) is None

    def test_reports_recorded_step_index(self):
        rec = TrajectoryRecord([0.0])
        for step, loss in ((10, 5.0), (20, 0.5), (30, 0.1)):
            rec.append(step, loss, [0.0], [1.0])
        assert steps_to_tolerance(rec, 0.0, 1.0) == 20

    def test_tolerance_must_be_positive(self):
        rec = record_from(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            steps_to_tolerance(rec, 0.0, 0.0)


class TestSampling:
    def test_seeded_and_sorted(self):
        a = sample_coordinates(np.random.default_rng(5), 1000, 8)
        b = sample_coordinates(np.random.default_rng(5), 1000, 8)
        assert np.array_equal(a, b)
        assert list(a) == sorted(a)
        assert len(set(a)) == 8

    def test_count_clipped_to_total(self):
        assert len(sample_coordinates(np.random.default_rng(0), 3, 8)) == 3
