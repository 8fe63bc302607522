"""Diagonal curvature metric from bias-corrected second-moment statistics.

The positive diagonal D returned by `CurvatureState.update` plays the
role of the Hessian diagonal in the proximal step w - g/D and in the
weighted projection norm.  It is built so that with an identity
quantizer, the step w - g/D reduces to the familiar adaptive-gradient
update eta * g / (sqrt(v_hat) + eps).
"""

from __future__ import annotations

import math

import numpy as np

from .buffers import IN_PLACE_MIN_SIZE
from .errors import NumericError


def scalar(x):
    """The float x as a 0-d float64 array, the same double.

    numpy takes a Python float operand through its weak-scalar promotion,
    which on a 1- to 4-entry vector costs as much as the arithmetic
    (v / x on 4 entries took 0.77 us against 0.38 us, numpy 2.4); a 0-d
    array skips it and gives the same bits.
    """
    return np.array(x, dtype=np.float64)


def all_finite(x):
    """Whether every entry of the float64 vector x is finite.

    x . x is finite only when every entry is, so one dot decides almost
    every call, at any length; where it is not (an infinite or NaN entry,
    or a sum of squares that overflows, as for 1e200) the elementwise test
    decides.  `np.vdot` sets no numpy warning for an inf or NaN product.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


class LrSchedule:
    """Piecewise-constant learning rate keyed by step index.

    Entries are (from_step, value) pairs; the value with the largest
    from_step <= t applies at step t.  The first entry must start at 0.
    """

    def __init__(self, entries):
        entries = [(int(s), float(v)) for s, v in entries]
        if not entries:
            raise ValueError("schedule needs at least one entry")
        if entries[0][0] != 0:
            raise ValueError("schedule must start at step 0")
        steps = [s for s, _ in entries]
        if sorted(set(steps)) != steps:
            raise ValueError("schedule steps must be strictly increasing")
        if not all(0.0 < v < math.inf for _, v in entries):
            raise ValueError("learning rates must be finite and positive")
        self.entries = entries

    @classmethod
    def constant(cls, eta):
        return cls([(0, eta)])

    def at(self, step):
        eta = self.entries[0][1]
        for s, v in self.entries:
            if step >= s:
                eta = v
            else:
                break
        return eta

    def as_pairs(self):
        return [[s, v] for s, v in self.entries]


class CurvatureState:
    """Running second-moment estimate and the derived positive diagonal."""

    def __init__(self, dim, lr_schedule, beta2=0.999, eps=1e-8):
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must lie in [0, 1), got {beta2}")
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.v = np.zeros(int(dim), dtype=np.float64)
        self.step = 0
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.lr_schedule = lr_schedule
        # the scalar operands as 0-d float64 arrays (`scalar`)
        self._beta2 = scalar(self.beta2)
        self._fresh_weight = scalar(1.0 - self.beta2)
        self._eps = scalar(self.eps)

    def update(self, g):
        """Advance the moment estimate with g and return the diagonal D.

        v <- beta2*v + (1-beta2)*g*g (in place on a long vector), then
        D = (sqrt(v_hat) + eps) / eta_t with v_hat the bias-corrected
        moment.  Every entry of D is strictly positive, and D is a new
        array.
        """
        fresh = self._fresh(g)
        if fresh.size < IN_PLACE_MIN_SIZE:
            self.v = self._beta2 * self.v + fresh
        else:
            self.v *= self.beta2
            self.v += fresh
        self.step += 1
        return self._diagonal(self.v, self.step)

    def peek(self, g):
        """The diagonal `update(g)` would return, with no state change:
        bit for bit `copy().update(g)`, without copying v."""
        fresh = self._fresh(g)
        if fresh.size < IN_PLACE_MIN_SIZE:
            return self._diagonal(self._beta2 * self.v + fresh, self.step + 1)
        v = self._beta2 * self.v
        v += fresh
        return self._diagonal(v, self.step + 1, out=v)

    def _fresh(self, g):
        """(1-beta2)*g*g for a checked gradient g, in a new array."""
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.v.shape:
            raise ValueError(f"gradient shape {g.shape} does not match state {self.v.shape}")
        if not all_finite(g):
            raise NumericError("gradient contains non-finite entries")
        fresh = self._fresh_weight * g
        fresh *= g
        return fresh

    def _diagonal(self, v, step, out=None):
        """(sqrt(v_hat) + eps) / eta_step with v_hat = v / (1 - beta2^step);
        on a long vector into `out` when given, else a new array."""
        correction = scalar(1.0 - self.beta2 ** step)
        eta = scalar(self.lr_schedule.at(step))
        if v.size < IN_PLACE_MIN_SIZE:
            return (np.sqrt(v / correction) + self._eps) / eta
        d = np.divide(v, correction, out=out)
        np.sqrt(d, out=d)
        d += self._eps
        d /= eta
        return d

    def copy(self):
        dup = CurvatureState(len(self.v), self.lr_schedule, self.beta2, self.eps)
        dup.v = self.v.copy()
        dup.step = self.step
        return dup
