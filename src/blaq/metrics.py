"""Zig-zag diagnostics over recorded optimization trajectories.

A TrajectoryRecord keeps per-step snapshots of the tracked coordinates:
the full-precision value and the quantized code level; the step deltas
are derived from the values and the start.  The quantized snapshot
stores the grid level (code) of each coordinate rather than the
scale-times-code product: the layer scale drifts by a tiny amount on
every step, so counting raw value changes would register a flip at
every step for any moving optimizer and say nothing about oscillation.
Level changes are exactly the sign flips of the 1-bit case, generalized
to finer grids.
"""

from __future__ import annotations

import numpy as np


class TrajectoryRecord:
    """Per-step log of the coordinates that start at `start`: (step index,
    loss, w, quantized level).

    `w` and `w_hat` are 2-D float64 arrays, one row of `start`'s width per
    step, views of buffers that double when full.  `updates` is derived:
    each row of w minus the row before it, the first row minus `start`."""

    def __init__(self, start):
        self.start = np.array(start, dtype=np.float64).reshape(-1)
        self.steps = []
        self.losses = []
        self._w = self._w_hat = np.empty((0, self.start.size))

    def append(self, step, loss, w, w_hat):
        n = len(self.steps)
        if n and step <= self.steps[-1]:
            raise ValueError(f"step indices must be strictly increasing, got {step}")
        w, w_hat = np.asarray(w), np.asarray(w_hat)
        width = self.start.size
        if w.size != width or w_hat.size != width:
            raise ValueError(f"w and w_hat must each hold {width} entries")
        if n == len(self._w):       # full: double the buffers, from 64 rows
            self._w, self._w_hat = (
                np.concatenate([rows, np.empty((max(n, 64), width))])
                for rows in (self._w, self._w_hat))
        self._w[n] = w.reshape(-1)
        self._w_hat[n] = w_hat.reshape(-1)
        self.steps.append(int(step))
        self.losses.append(float(loss))

    w = property(lambda self: self._w[:len(self.steps)])
    w_hat = property(lambda self: self._w_hat[:len(self.steps)])
    updates = property(lambda self: np.diff(self.w, axis=0, prepend=self.start[None]))

    def __len__(self):
        return len(self.steps)


def _check_window(record, window):
    if window < 1:
        raise ValueError("window must contain at least one step")
    if window > len(record):
        raise ValueError(f"window {window} exceeds record length {len(record)}")


def oscillation_amplitude(record, coord, window):
    """Largest per-step move of a full-precision coordinate in the window."""
    _check_window(record, window)
    trace = record.w[-window:, coord]
    if len(trace) < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(trace))))


def flip_count(record, coord, window):
    """Number of quantized-level changes of a coordinate in the window."""
    _check_window(record, window)
    trace = record.w_hat[-window:, coord]
    if len(trace) < 2:
        return 0
    return int(np.count_nonzero(trace[1:] != trace[:-1]))


def direction_change_count(record, window):
    """Count consecutive update pairs pointing more than 90 degrees apart."""
    _check_window(record, window)
    updates = record.updates[-window:]
    if len(updates) < 2:
        raise ValueError("window must contain at least two update vectors")
    count = 0
    for prev, cur in zip(updates[:-1], updates[1:]):
        if float(np.dot(prev, cur)) < 0.0:
            count += 1
    return count


def steps_to_tolerance(record, target, tol):
    """First recorded step index with loss - target <= tol, else None."""
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    for step, loss in zip(record.steps, record.losses):
        if loss - target <= tol:
            return step
    return None


def sample_coordinates(rng, total, count):
    """Seeded draw of distinct coordinate indices, sorted for stable output."""
    count = min(count, total)
    return np.sort(rng.choice(total, size=count, replace=False))
