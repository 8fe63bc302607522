"""Minibatch training loop for the quantized classifier.

Each weight matrix is a `LayerQuantState` (a `FullPrecisionState` for
the full-precision baseline) and each bias a `FullPrecisionState`; one
call of `optimizers.step` per minibatch moves them all, with a joint
gradient from one network evaluation.  The loss-aware step therefore
evaluates the network once per minibatch and the backtracking step
exactly twice (current point, then every layer's trial point, biases
included).  The trainer does no update arithmetic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureState
from .errors import ConfigError
from .metrics import TrajectoryRecord, sample_coordinates
from .models import MlpClassifier
from .optimizers import BlaqConfig, FullPrecisionState, LayerQuantState, step
from .quantizer import QuantGrid

# Largest weight matrix, fan_in x fan_out, the trainer builds.
MAX_LAYER_WEIGHTS = 2 ** 24


@dataclass
class TrainResult:
    epoch_rows: list = field(default_factory=list)   # (epoch, train_loss, test_accuracy)
    trajectory: TrajectoryRecord = field(default_factory=TrajectoryRecord)
    tracked_coords: list = field(default_factory=list)   # global flat indices
    final_accuracy: float = 0.0
    layer_alphas: list = field(default_factory=list)
    steps_per_epoch: int = 0


def train_classifier(dataset, cfg, schedule):
    """Train the relu classifier as a validated config says, under `schedule`.

    Returns a TrainResult with per-epoch loss/accuracy, a per-step
    trajectory of the tracked weight coordinates, and the final layer
    scales.  A weight matrix above MAX_LAYER_WEIGHTS is a ConfigError.
    """
    n_features = dataset.train_images.shape[1]
    n_classes = int(dataset.train_labels.max()) + 1
    sizes = [n_features, *cfg.hidden, n_classes]
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        if fan_in * fan_out > MAX_LAYER_WEIGHTS:
            raise ConfigError(f"hidden {cfg.hidden} gives a {fan_in} x {fan_out} weight matrix, "
                              f"above the limit of {MAX_LAYER_WEIGHTS} weights")
    ss = np.random.SeedSequence(cfg.seed)
    init_seed, shuffle_seed, track_seed = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]

    model = MlpClassifier(sizes, seed=init_seed)
    grid = QuantGrid(cfg.bitwidth)
    opt_cfg = BlaqConfig(grid=grid, a=cfg.a, m=cfg.m)
    quantize = cfg.optimizer in ("laq", "blaq")

    def initial_state(name, quantized):
        w0 = model.graph.get_parameter(name).reshape(-1)
        curvature = CurvatureState(w0.size, schedule, cfg.beta2, cfg.eps)
        if quantized:
            return LayerQuantState.initialize(w0, grid, curvature, m=cfg.m)
        return FullPrecisionState(w=w0.copy(), curvature=curvature)

    weights = [initial_state(name, quantize) for name in model.weight_names]
    states = weights + [initial_state(name, False) for name in model.bias_names]
    n_weights = len(weights)

    offsets = np.cumsum([0] + [s.w.size for s in weights])
    track_rng = np.random.default_rng(track_seed)
    coords = [int(c) for c in sample_coordinates(track_rng, int(offsets[-1]), cfg.track_coords)]
    tracked = []    # (layer state, index in the layer) per tracked coordinate
    for c in coords:
        li = int(np.searchsorted(offsets, c, side="right")) - 1
        tracked.append((weights[li], c - int(offsets[li])))

    def tracked_values(levels):
        """The tracked coordinates' full-precision weights, or their grid
        levels when `levels` is set."""
        return np.array([s.code.beta[i] if levels else s.w[i] for s, i in tracked],
                        dtype=np.float64)

    def split(points):
        """Weight matrices and bias vectors of a joint point list."""
        return ([p.reshape(shape) for p, shape in zip(points, model.weight_shapes)],
                points[n_weights:])

    def test_accuracy():
        return model.accuracy(dataset.test_images, dataset.test_labels,
                              *split([s.w_hat() for s in states]))

    result = TrainResult(tracked_coords=coords)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    n = len(dataset.train_images)
    t = 0
    prev_w = tracked_values(False)

    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            x, y = dataset.train_images[idx], dataset.train_labels[idx]
            losses = []

            def grad_at(points):
                loss, wg, bg = model.eval_batch(x, y, *split(points))
                losses.append(loss)
                return wg + bg

            step(cfg.optimizer, states, grad_at, opt_cfg)
            loss = losses[0]
            epoch_losses.append(loss)

            cur_w = tracked_values(False)
            result.trajectory.append(t, loss, cur_w, tracked_values(quantize), cur_w - prev_w)
            prev_w = cur_w
            t += 1

        result.epoch_rows.append((epoch, float(np.mean(epoch_losses)), test_accuracy()))

    result.final_accuracy = result.epoch_rows[-1][2]
    result.layer_alphas = [float(s.code.alpha) if quantize else None for s in weights]
    result.steps_per_epoch = int(np.ceil(n / cfg.batch_size))
    return result
