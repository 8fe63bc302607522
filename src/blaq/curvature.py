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

from .errors import NumericError


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

    @classmethod
    def decayed(cls, eta0, hold, factor, every, total):
        """Constant until `hold`, then scaled by `factor` every `every` steps."""
        entries = [(0, eta0)]
        step, eta = hold, eta0
        while step < total:
            eta *= factor
            entries.append((step, eta))
            step += every
        return cls(entries)

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

    def update(self, g):
        """Advance the moment estimate with g and return the diagonal D.

        v <- beta2*v + (1-beta2)*g*g, then D = (sqrt(v_hat) + eps) / eta_t
        with v_hat the bias-corrected moment.  Every entry of D is
        strictly positive.
        """
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.v.shape:
            raise ValueError(f"gradient shape {g.shape} does not match state {self.v.shape}")
        if not np.isfinite(g).all():
            raise NumericError("gradient contains non-finite entries")
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        self.step += 1
        return self.d_hat()

    def d_hat(self):
        """Diagonal for the current statistics (no state change)."""
        if self.step == 0:
            raise ValueError("no update has been applied yet")
        correction = 1.0 - self.beta2 ** self.step
        v_hat = self.v / correction
        eta = self.lr_schedule.at(self.step)
        return (np.sqrt(v_hat) + self.eps) / eta

    def copy(self):
        dup = CurvatureState(len(self.v), self.lr_schedule, self.beta2, self.eps)
        dup.v = self.v.copy()
        dup.step = self.step
        return dup
