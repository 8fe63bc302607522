"""Minibatch training loop for the quantized classifier.

Each weight matrix is an `optimizers.LayerState` on the config's grid
(without a grid for the full-precision baseline) and each bias one
without a grid, all built by `optimizers.new_layer`.
`optimizers.run_steps` takes one step per minibatch and moves them all,
with a joint gradient from one network evaluation.  The loss-aware step
therefore evaluates the network once per minibatch and the backtracking
step exactly twice (current point, then every layer's trial point,
biases included).  The trainer does no update arithmetic of its own: its
observer records each step, with the levels that each layer reports,
closes each epoch and draws the next minibatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureState
from .errors import ConfigError
from .metrics import TrajectoryRecord, sample_coordinates
from .mnist import pixels_to_float
from .models import MlpClassifier
from .optimizers import new_layer, run_steps
from .quantizer import QuantGrid

# Largest weight matrix, fan_in x fan_out, the trainer builds.
MAX_LAYER_WEIGHTS = 2 ** 24


@dataclass
class TrainResult:
    epoch_rows: list                # (epoch, train_loss, test_accuracy)
    trajectory: TrajectoryRecord
    tracked_coords: list            # global flat indices
    layer_alphas: list


def steps_per_epoch(n_train, batch_size):
    """Minibatches in one pass over n_train images, the last one short
    when batch_size does not divide n_train."""
    return -(-n_train // batch_size)


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

    def initial_state(name, grid):
        w0 = model.graph.get_parameter(name).reshape(-1)
        return new_layer(w0, grid, CurvatureState(w0.size, schedule, cfg.beta2, cfg.eps))

    grid = None if cfg.optimizer == "full-precision" else QuantGrid(cfg.bitwidth)
    weights = [initial_state(name, grid) for name in model.weight_names]
    states = weights + [initial_state(name, None) for name in model.bias_names]

    offsets = np.cumsum([0] + [s.w.size for s in weights])
    track_rng = np.random.default_rng(track_seed)
    coords = [int(c) for c in sample_coordinates(track_rng, int(offsets[-1]), cfg.track_coords)]
    tracked = []    # (layer state, index in the layer) per tracked coordinate
    for c in coords:
        li = int(np.searchsorted(offsets, c, side="right")) - 1
        tracked.append((weights[li], c - int(offsets[li])))

    def tracked_values(levels):
        """The tracked coordinates' full-precision weights, or their
        layers' `levels()` when `levels` is set."""
        return np.array([s.levels()[i] if levels else s.w[i] for s, i in tracked],
                        dtype=np.float64)

    def split(points):
        """Weight and bias vectors of a joint point list."""
        return points[:len(weights)], points[len(weights):]

    n = len(dataset.train_images)
    per_epoch = steps_per_epoch(n, cfg.batch_size)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    def minibatches():
        """(pixels, labels) of every step: a fresh permutation per epoch,
        cut into batch_size slices."""
        for _ in range(cfg.epochs):
            perm = shuffle_rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                yield pixels_to_float(dataset.train_images[idx]), dataset.train_labels[idx]

    batches = minibatches()
    batch, losses = None, []    # the current minibatch and its evaluations' losses
    result = TrainResult([], TrajectoryRecord(tracked_values(False)), coords, [])

    def grad_at(points):
        loss, wg, bg = model.eval_batch(*batch, *split(points))
        losses.append(loss)
        return wg + bg

    def observe(t):
        """Record step t - 1 with its first evaluation's loss, close the
        epoch it ends, then draw the minibatch of step t + 1."""
        nonlocal batch
        if t:
            result.trajectory.append(t - 1, losses[0], tracked_values(False),
                                     tracked_values(True))
            losses.clear()
            if t % per_epoch == 0:
                epoch_loss = float(np.mean(result.trajectory.losses[-per_epoch:]))
                accuracy = model.accuracy(dataset.test_images, dataset.test_labels,
                                          *split([s.w_hat() for s in states]))
                result.epoch_rows.append((t // per_epoch, epoch_loss, accuracy))
        batch = next(batches, None)

    run_steps(cfg.optimizer, states, grad_at, cfg.a, cfg.epochs * per_epoch, observe)
    result.layer_alphas = [None if s.code is None else float(s.code.alpha) for s in weights]
    return result
