"""Per-layer quantized update rules.

Three step kinds act on a single layer's flattened weight vector:

* `laq_step` — proximal step taken from the quantized point, then a
  weighted projection back onto the scaled grid.
* `blaq_stage1` / `blaq_stage2` — a trial step from the full-precision
  point followed by a backtracked update using the convex combination of
  the current and trial gradients (and metrics).  `blaq_step` drives the
  two stages.
* `full_precision_step` — the same adaptive proximal step with the
  identity projection (no quantization).

The asymmetry of base points (quantized for LAQ, full-precision for the
backtracking variant) is deliberate and load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureState
from .errors import StateError
from .quantizer import QuantGrid, ScaledCode, project


@dataclass
class BlaqConfig:
    """Mixing coefficient, projection iteration count, and the level grid.

    `m` is kept for config compatibility; the exact projection ignores it.
    """

    grid: QuantGrid
    a: float = 0.6
    m: int = 5

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"mixing coefficient a must lie in [0, 1], got {self.a}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


@dataclass
class LayerQuantState:
    """Full-precision weights, their scaled code, and curvature statistics."""

    w: np.ndarray
    code: ScaledCode
    curvature: CurvatureState
    g_hat: np.ndarray | None = None
    d_hat: np.ndarray | None = None
    step_count: int = 0

    @classmethod
    def initialize(cls, w0, grid, curvature, m=5):
        """Project the initial weights with unit metric (no statistics yet)."""
        w0 = np.asarray(w0, dtype=np.float64).copy()
        code = project(w0, np.ones_like(w0), grid, m)
        return cls(w=w0, code=code, curvature=curvature)

    def w_hat(self):
        return self.code.w_hat()


@dataclass
class FullPrecisionState:
    """Baseline state: weights plus curvature, identity projection."""

    w: np.ndarray
    curvature: CurvatureState
    g_hat: np.ndarray | None = None
    d_hat: np.ndarray | None = None
    step_count: int = 0

    def w_hat(self):
        return self.w


@dataclass
class TrialState:
    """One-step-forward quantities; consumed only by blaq_stage2."""

    w_star: np.ndarray
    code_star: ScaledCode
    g_star: np.ndarray
    d_star: np.ndarray
    base_step: int


def laq_step(state, grad_at, cfg):
    """One loss-aware step: gradient at the quantized point, proximal
    move from that point, reprojection under the fresh metric."""
    w_hat = state.w_hat()
    g = np.asarray(grad_at(w_hat), dtype=np.float64)
    d = state.curvature.update(g)
    w_new = w_hat - g / d
    state.code = project(w_new, d, cfg.grid, cfg.m)
    state.w = w_new
    state.g_hat = g
    state.d_hat = d
    state.step_count += 1
    return state


def blaq_stage1(state, grad_at, cfg):
    """One-step forward search from the full-precision point.

    Requires state.g_hat / state.d_hat to be current for the present
    quantized point (blaq_step refreshes them).  The trial curvature is
    advanced on a copy so the real statistics are untouched.
    """
    if state.g_hat is None or state.d_hat is None:
        raise StateError("stage 1 needs current gradient and metric; run blaq_step")
    w_star = state.w - state.g_hat / state.d_hat
    code_star = project(w_star, state.d_hat, cfg.grid, cfg.m)
    g_star = np.asarray(grad_at(code_star.w_hat()), dtype=np.float64)
    trial_curv = state.curvature.copy()
    d_star = trial_curv.update(g_star)
    return TrialState(w_star, code_star, g_star, d_star, base_step=state.step_count)


def blaq_stage2(state, trial, cfg):
    """Backtracked update mixing current and trial gradients/metrics."""
    if trial.base_step != state.step_count:
        raise StateError(
            f"stale trial: built at step {trial.base_step}, state is at {state.step_count}"
        )
    a = cfg.a
    g_mix = a * state.g_hat + (1.0 - a) * trial.g_star
    d_mix = a * state.d_hat + (1.0 - a) * trial.d_star
    w_new = state.w - g_mix / d_mix
    state.code = project(w_new, d_mix, cfg.grid, cfg.m)
    state.w = w_new
    state.g_hat = g_mix
    state.d_hat = d_mix
    state.step_count += 1
    return state


def blaq_step(state, grad_at, cfg):
    """Full backtracking step: refresh, forward search, backtrack.

    Exactly two gradient evaluations: at the current quantized point and
    at the trial quantized point.
    """
    g = np.asarray(grad_at(state.w_hat()), dtype=np.float64)
    state.g_hat = g
    state.d_hat = state.curvature.update(g)
    trial = blaq_stage1(state, grad_at, cfg)
    return blaq_stage2(state, trial, cfg)


def full_precision_step(state, grad_at):
    """Adaptive proximal step with the identity projection."""
    g = np.asarray(grad_at(state.w), dtype=np.float64)
    d = state.curvature.update(g)
    state.w = state.w - g / d
    state.g_hat = g
    state.d_hat = d
    state.step_count += 1
    return state
