"""Quantized update rules over a list of layers.

Every step acts on a list of layer states that share one joint gradient
callback, `grad_at(points) -> grads`, with one flat vector per layer in
each list; a bare state with a single-vector `grad_at` is the one-layer
case.  A `LayerQuantState` projects onto its scaled grid, and a
`FullPrecisionState` is a layer with the identity projection, so the
weights and the biases of a network take the same step.

* `laq_step` — proximal step taken from the quantized point, then a
  weighted projection back onto the scaled grid; one gradient evaluation.
* `blaq_step` — a trial step from the full-precision point followed by a
  backtracked update using the convex combination of the current and
  trial gradients (and metrics); exactly two gradient evaluations for
  all layers.
* `full_precision_step` — the same proximal step, for layers that all
  have the identity projection.
* `step` — one step of the rule named by the optimizer config key.

The asymmetry of base points (quantized for LAQ, full-precision for the
backtracking variant) is deliberate and load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureState
from .errors import ConfigError, NumericError
from .quantizer import MAX_SWEEP_BREAKPOINTS, QuantGrid, ScaledCode, project


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
        """Project the initial weights with unit metric (no statistics yet).

        Rejects a layer whose projection sweep would cross more than
        `quantizer.MAX_SWEEP_BREAKPOINTS` breakpoints.
        """
        w0 = np.asarray(w0, dtype=np.float64).copy()
        breakpoints = w0.size * (grid.resolution - 1)
        if breakpoints > MAX_SWEEP_BREAKPOINTS:
            raise ConfigError(
                f"a {w0.size}-weight layer at {grid.bitwidth} bits needs {breakpoints} "
                f"projection breakpoints, above the limit of {MAX_SWEEP_BREAKPOINTS}")
        code = project(w0, np.ones_like(w0), grid, m)
        return cls(w=w0, code=code, curvature=curvature)

    def w_hat(self):
        return self.code.w_hat()

    def fit(self, w, d, cfg):
        """The scaled code of weights w under metric d."""
        return project(w, d, cfg.grid, cfg.m)

    def place(self, w, d, cfg):
        """Take full-precision weights w and their code under metric d."""
        self.code = project(w, d, cfg.grid, cfg.m)
        self.w = w


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

    def fit(self, w, d, cfg):
        """Identity projection: there is no code."""
        return None

    def place(self, w, d, cfg):
        self.w = w


def _as_layers(states, grad_at=None):
    """Layer list and joint gradient; a bare state is the one-layer case."""
    if isinstance(states, list):
        return states, grad_at
    if grad_at is None:
        return [states], None
    return [states], lambda points: [grad_at(points[0])]


def _proximal_step(states, grad_at, cfg):
    """Gradient at every layer's quantized point, proximal move from that
    point, reprojection under the fresh metric."""
    layers, grad_at = _as_layers(states, grad_at)
    points = [s.w_hat() for s in layers]
    for s, w_hat, g in zip(layers, points, grad_at(points)):
        g = np.asarray(g, dtype=np.float64)
        d = s.curvature.update(g)
        s.g_hat, s.d_hat = g, d
        s.place(w_hat - g / d, d, cfg)
        s.step_count += 1
    return states


def laq_step(states, grad_at, cfg):
    """One loss-aware step: gradient at the quantized point, proximal
    move from that point, reprojection under the fresh metric."""
    return _proximal_step(states, grad_at, cfg)


def blaq_step(states, grad_at, cfg):
    """One backtracking step: refresh, forward search, backtrack.

    Exactly two joint gradient evaluations.  The first, at the current
    quantized points, refreshes each layer's g_hat / d_hat.  The second
    is at the trial points: the codes of w - g_hat/d_hat, taken from the
    full-precision w.  The trial metric advances a copy of the curvature,
    so the real statistics are untouched.  Each layer then steps from w
    with the mixtures a*g_hat + (1-a)*g* and a*d_hat + (1-a)*d*.
    """
    layers, grad_at = _as_layers(states, grad_at)
    trial_points = []
    for s, g in zip(layers, grad_at([s.w_hat() for s in layers])):
        s.g_hat = np.asarray(g, dtype=np.float64)
        s.d_hat = s.curvature.update(s.g_hat)
        w_star = s.w - s.g_hat / s.d_hat
        code_star = s.fit(w_star, s.d_hat, cfg)
        trial_points.append(w_star if code_star is None else code_star.w_hat())
    a = cfg.a
    for s, g_star in zip(layers, grad_at(trial_points)):
        g_star = np.asarray(g_star, dtype=np.float64)
        d_star = s.curvature.copy().update(g_star)
        s.g_hat = a * s.g_hat + (1.0 - a) * g_star
        s.d_hat = a * s.d_hat + (1.0 - a) * d_star
        s.place(s.w - s.g_hat / s.d_hat, s.d_hat, cfg)
        s.step_count += 1
    return states


def full_precision_step(states, grad_at, cfg=None):
    """Adaptive proximal step with the identity projection."""
    return _proximal_step(states, grad_at, cfg)


def step(kind, states, grad_at, cfg):
    """One step of optimizer `kind` ("laq", "blaq" or "full-precision").

    A NumericError raised inside the step gains the step number.
    """
    layers, _ = _as_layers(states)
    number = layers[0].step_count + 1
    try:
        if kind == "laq":
            return laq_step(states, grad_at, cfg)
        if kind == "blaq":
            return blaq_step(states, grad_at, cfg)
        if kind == "full-precision":
            return full_precision_step(states, grad_at, cfg)
    except NumericError as e:
        raise NumericError(f"{e} at step {number}") from e
    raise ValueError(f"unknown optimizer {kind!r}")
