"""Symmetric fixed-point grids and the loss-aware scaled projection.

A k-bit grid holds the 2^k levels {±i/2^(k-1) : i = 1..2^(k-1)}; zero is
never a level and the extremes are ±1.  Quantized weights are represented
as a single positive scale times a grid-valued code vector.  The fit
minimizes the diagonally weighted squared error exactly: for n weights,
one sorted sweep over the n (2^(k-1) - 1) scales where the nearest code
changes finds the best code, at O(n 2^(k-1) log(n 2^(k-1))) cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

# Scale assigned when the input vector is exactly zero; keeps w_hat ~ 0
# while preserving alpha > 0.
ZERO_VECTOR_ALPHA = 1e-8

MAX_BITWIDTH = 16

# Largest breakpoint count n (2^(k-1) - 1) a layer of n weights may bring
# to the sweep, which holds several arrays of that length at once.
MAX_SWEEP_BREAKPOINTS = 2 ** 24


class QuantGrid:
    """Level set for k-bit weights, sorted ascending."""

    __slots__ = ("bitwidth", "levels")

    def __init__(self, bitwidth):
        if not isinstance(bitwidth, (int, np.integer)) or bitwidth < 1:
            raise ValueError(f"bitwidth must be a positive integer, got {bitwidth!r}")
        if bitwidth > MAX_BITWIDTH:
            raise ValueError(f"bitwidth {bitwidth} exceeds supported maximum {MAX_BITWIDTH}")
        half = 2 ** (bitwidth - 1)
        pos = np.arange(1, half + 1, dtype=np.float64) / half
        self.bitwidth = int(bitwidth)
        self.levels = np.concatenate([-pos[::-1], pos])

    @property
    def resolution(self):
        """Count of positive levels, 2^(k-1)."""
        return 2 ** (self.bitwidth - 1)

    def __repr__(self):
        return f"QuantGrid(bitwidth={self.bitwidth})"


def nearest_level(grid, x):
    """Round to the closest grid level; ties go away from zero.

    Values beyond +-1 clamp to the extreme levels, and x = 0 maps to the
    smallest positive level (sign(0) is taken as +1).  Accepts scalars or
    arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    sign = np.where(arr < 0.0, -1.0, 1.0)
    n = grid.resolution
    # floor(m + 0.5) rounds half-up on the non-negative magnitude, which is
    # exactly "ties away from zero" after the sign is reapplied.
    idx = np.minimum(np.maximum(np.floor(np.abs(arr) * n + 0.5), 1.0), float(n))
    out = sign * idx / n
    return float(out) if arr.ndim == 0 else out


@dataclass
class ScaledCode:
    """Quantized weights as alpha * beta with beta on the grid."""

    alpha: float
    beta: np.ndarray

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def w_hat(self):
        return self.alpha * self.beta


def weighted_objective(w, d, alpha, beta):
    """0.5 * sum_i d_i (w_i - alpha*beta_i)^2."""
    r = w - alpha * beta
    return 0.5 * float(np.dot(d, r * r))


def _validate_projection_args(w, d, m):
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if w.shape != d.shape or w.ndim != 1:
        raise ValueError(f"w and d must be equal-length vectors, got {w.shape} and {d.shape}")
    if not (d > 0.0).all():
        raise ValueError("all weights d must be strictly positive")
    if m < 1:
        raise ValueError(f"iteration count m must be >= 1, got {m}")
    return w, d


def _sweep_scale(w, d, grid):
    """Optimal scale of the best code, by one sorted breakpoint sweep.

    With n = 2^(k-1) positive levels j/n, the best code for a fixed alpha
    is nearest(w/alpha), and coordinate i moves from level j/n up to
    (j+1)/n as alpha falls through 2n|w_i|/(2j+1).  Starting from the
    all-level-1 code (alpha -> inf), crossing the breakpoints in
    descending order visits every code of that family.  With
    S_wb = sum d|w||beta| and S_bb = sum d beta^2, a code's objective at
    its own optimal scale is 0.5 * (sum d w^2 - S_wb^2 / S_bb), so the
    prefix maximizing S_wb^2 / S_bb is the global optimum.  Prefixes
    within a relative 1e-12 of the best tie (float noise between
    scale-equivalent codes such as [1, 1] and [0.5, 0.5]); the last one,
    with the largest levels and smallest scale, wins.  Returns
    S_wb / S_bb of the winning prefix.  Needs k >= 2: the 1-bit grid has
    no breakpoints.
    """
    n = grid.resolution
    mags = np.abs(w)
    s_wb = float(np.dot(d, mags)) / n
    s_bb = float(d.sum()) / (n * n)
    odd = np.arange(3, 2 * n, 2, dtype=np.float64)           # 2j+1, j = 1..n-1
    # ascending order of the negated breakpoints is the descending sweep;
    # zero weights sit at the end (alpha = 0 is never crossed) and are cut
    order = np.argsort(np.multiply.outer(mags, -2.0 * n / odd), axis=None)
    order = order[:np.count_nonzero(mags) * (n - 1)]
    wb = (d * mags)[order // (n - 1)]
    wb /= n
    wb[0] += s_wb
    np.cumsum(wb, out=wb)
    bb = np.multiply.outer(d, odd / (n * n)).reshape(-1)[order]
    del order
    bb[0] += s_bb
    np.cumsum(bb, out=bb)
    ratio = wb * wb
    ratio /= bb
    best = max(s_wb * s_wb / s_bb, float(ratio.max()))
    ties = np.flatnonzero(ratio >= best - 1e-12 * best)
    if not ties.size:
        return s_wb / s_bb
    last = ties[-1]
    return float(wb[last] / bb[last])


def _fit(w, d, grid):
    """Swept scale, then one code half-step and one scale half-step.

    On the 1-bit grid the code is sign(w) (zeros and -0.0 map to +1), so
    the sweep and the code half-step are skipped.  Returns the final code
    as (alpha, beta).
    """
    if grid.bitwidth == 1:
        beta = np.where(w < 0.0, -1.0, 1.0)
    else:
        beta = nearest_level(grid, w / _sweep_scale(w, d, grid))
    alpha = float(np.dot(d, w * beta) / np.dot(d, beta * beta))
    if not math.isfinite(alpha):
        raise NumericError(f"projection scale is not finite: {alpha}")
    return alpha, beta


def project(w, d, grid, m):
    """Fit (alpha, beta) minimizing the d-weighted squared error to w.

    Exact: the breakpoint sweep finds the scale of the globally best
    code in O(n 2^(k-1) log(n 2^(k-1))) time and O(n 2^(k-1)) memory,
    then one code half-step (per-entry nearest level of w/alpha) and one
    scale half-step (alpha = sum(d*w*beta) / sum(d*beta^2)) finish it.
    On the 1-bit grid there are no breakpoints and this is the closed
    form beta = sign(w), alpha = sum(d*|w|)/sum(d).  The iteration count
    `m` is validated (m >= 1) but unused: alternating code and scale
    updates from the exact optimum change nothing.  A scale that is not
    finite (a NaN or infinite w, or an overflowing sum) is a NumericError.
    """
    w, d = _validate_projection_args(w, d, m)
    if not w.any():
        return ScaledCode(ZERO_VECTOR_ALPHA, np.ones_like(w))
    return ScaledCode(*_fit(w, d, grid))


def exhaustive_project(w, d, grid):
    """Brute-force reference: best objective over every code vector.

    Only feasible for tiny n and k; used as the oracle for project.
    Mirrored codes share the same w_hat, so the unconstrained per-code
    optimal scale loses nothing against the alpha > 0 constraint.
    """
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    n = len(w)
    best = None
    grids = np.meshgrid(*([grid.levels] * n), indexing="ij")
    codes = np.stack([g.reshape(-1) for g in grids], axis=1)
    for beta in codes:
        denom = float(np.dot(d, beta * beta))
        alpha = float(np.dot(d, w * beta) / denom)
        obj = weighted_objective(w, d, alpha, beta)
        if best is None or obj < best[0]:
            best = (obj, alpha, beta.copy())
    return best
