"""Quantized update rules over a list of layers.

Every step acts on a list of layer states that share one joint gradient
callback, `grad_at(points) -> grads`, with one flat vector per layer in
each list; a bare state with a single-vector `grad_at` is the one-layer
case.  Every layer is a `LayerState`: a quantized one carries its level
grid and projects onto that grid scaled; a full-precision one has no
grid, which is the identity projection, so the weights and the biases
of a network take the same step.

* `laq_step(states, grad_at)` — proximal step taken from the quantized
  point, then a weighted projection back onto the scaled grid; one
  gradient evaluation.
* `blaq_step(states, grad_at, a)` — a trial step from the full-precision
  point followed by a backtracked update using the convex combination,
  with weight a in [0, 1], of the current and trial gradients (and
  metrics); exactly two gradient evaluations for all layers.
* `full_precision_step(states, grad_at)` — the same proximal step, for
  layers that all have the identity projection.
* `step(kind, states, grad_at, a)` — one step of the rule named by the
  optimizer config key.
* `new_layer(w0, grid, curvature)` — the one layer constructor: a layer
  on `grid`, or a full-precision layer when `grid` is None.
* `run_steps(kind, states, grad_at, a, steps, observe)` — the one step
  driver, with a per-step observer; it owns the step number, which every
  NumericError it passes on names.

The asymmetry of base points (quantized for LAQ, full-precision for the
backtracking variant) is deliberate and load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureState, all_finite, scalar
from .errors import ConfigError, NumericError
from .quantizer import MAX_SWEEP_BREAKPOINTS, QuantGrid, ScaledCode, project


@dataclass
class LayerState:
    """Full-precision weights and curvature statistics; on a quantized
    layer also its level grid, fixed when the layer is made, and the
    weights' scaled code on it.  `grid` None is the identity projection:
    the layer has no code and its levels are its weights."""

    w: np.ndarray
    curvature: CurvatureState
    grid: QuantGrid | None = None
    code: ScaledCode | None = None
    g_hat: np.ndarray | None = None
    d_hat: np.ndarray | None = None

    def w_hat(self):
        return self.w if self.code is None else self.code.w_hat()

    def levels(self):
        """The grid level of each weight; the weights without a grid."""
        return self.w if self.code is None else self.code.beta

    def fit(self, w, d):
        """The scaled code of weights w under metric d; None without a grid."""
        return None if self.grid is None else project(w, d, self.grid)

    def place(self, w, d):
        """Take full-precision weights w and their code under metric d."""
        self.code = None if self.grid is None else project(w, d, self.grid)
        self.w = w


def new_layer(w0, grid, curvature):
    """A layer holding its own copy of `w0`, on `grid` or full-precision
    when `grid` is None, placed under the unit metric (no statistics yet).

    Rejects a layer whose projection sweep would cross more than
    `quantizer.MAX_SWEEP_BREAKPOINTS` breakpoints.
    """
    layer = LayerState(np.array(w0, dtype=np.float64), curvature, grid)
    breakpoints = 0 if grid is None else layer.w.size * (grid.resolution - 1)
    if breakpoints > MAX_SWEEP_BREAKPOINTS:
        raise ConfigError(
            f"a {layer.w.size}-weight layer at {grid.bitwidth} bits needs {breakpoints} "
            f"projection breakpoints, above the limit of {MAX_SWEEP_BREAKPOINTS}")
    layer.place(layer.w, np.ones_like(layer.w))
    return layer


def _as_layers(states, grad_at):
    """Layer list and joint gradient; a bare state is the one-layer case."""
    if isinstance(states, list):
        return states, grad_at
    return [states], lambda points: [grad_at(points[0])]


def _finite_metric(d):
    """d, the metric a layer is placed under; an entry that is not finite
    (g*g overflowed, or a mix formed 0 * inf) is a NumericError."""
    if not all_finite(d):
        raise NumericError("metric is not finite")
    return d


def _proximal_step(states, grad_at):
    """Gradient at every layer's quantized point, proximal move from that
    point, reprojection under the fresh metric."""
    layers, grad_at = _as_layers(states, grad_at)
    points = [s.w_hat() for s in layers]
    for s, w_hat, g in zip(layers, points, grad_at(points)):
        g = np.asarray(g, dtype=np.float64)
        d = _finite_metric(s.curvature.update(g))
        s.g_hat, s.d_hat = g, d
        s.place(w_hat - g / d, d)
    return states


def laq_step(states, grad_at):
    """One loss-aware step: gradient at the quantized point, proximal
    move from that point, reprojection under the fresh metric."""
    return _proximal_step(states, grad_at)


def blaq_step(states, grad_at, a):
    """One backtracking step: refresh, forward search, backtrack.

    Exactly two joint gradient evaluations.  The first, at the current
    quantized points, refreshes each layer's g_hat / d_hat.  The second
    is at the trial points: the codes of w - g_hat/d_hat, taken from the
    full-precision w.  The trial metric is the curvature's `peek`, so the
    real statistics are untouched.  Each layer then steps from w with the
    mixtures a*g_hat + (1-a)*g* and a*d_hat + (1-a)*d*, for a mixing
    coefficient a in [0, 1].
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing coefficient a must lie in [0, 1], got {a}")
    layers, grad_at = _as_layers(states, grad_at)
    a_now, a_trial = scalar(a), scalar(1.0 - a)
    trial_points = []
    for s, g in zip(layers, grad_at([s.w_hat() for s in layers])):
        s.g_hat = np.asarray(g, dtype=np.float64)
        s.d_hat = s.curvature.update(s.g_hat)
        w_star = s.w - s.g_hat / s.d_hat
        code_star = s.fit(w_star, s.d_hat)
        trial_points.append(w_star if code_star is None else code_star.w_hat())
    for s, g_star in zip(layers, grad_at(trial_points)):
        g_star = np.asarray(g_star, dtype=np.float64)
        d_star = s.curvature.peek(g_star)
        s.g_hat = a_now * s.g_hat + a_trial * g_star
        s.d_hat = _finite_metric(a_now * s.d_hat + a_trial * d_star)
        s.place(s.w - s.g_hat / s.d_hat, s.d_hat)
    return states


def full_precision_step(states, grad_at):
    """Adaptive proximal step with the identity projection."""
    return _proximal_step(states, grad_at)


def step(kind, states, grad_at, a):
    """One step of optimizer `kind` ("laq", "blaq" or "full-precision");
    only the backtracking step reads the mixing coefficient `a`."""
    if kind == "laq":
        return laq_step(states, grad_at)
    if kind == "blaq":
        return blaq_step(states, grad_at, a)
    if kind == "full-precision":
        return full_precision_step(states, grad_at)
    raise ValueError(f"unknown optimizer {kind!r}")


def run_steps(kind, states, grad_at, a, steps, observe):
    """Call `observe(0)`, then for t = 1..steps take one `step` and call
    `observe(t)`; returns the states.  A NumericError raised by step t or
    by `observe(t)` gains the step number t."""
    for t in range(steps + 1):
        try:
            if t:
                step(kind, states, grad_at, a)
            observe(t)
        except NumericError as e:
            raise NumericError(f"{e} at step {t}") from e
    return states
