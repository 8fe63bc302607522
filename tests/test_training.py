"""Trainer: one optimizer step per minibatch through the shared update rules."""

import numpy as np
import pytest

from blaq.config import config_from_dict
from blaq.curvature import CurvatureState, LrSchedule
from blaq.mnist import load_mnist, make_synthetic_fixture
from blaq.models import MlpClassifier
from blaq.training import train_classifier

SCHEDULE = LrSchedule.constant(0.01)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data_dir = make_synthetic_fixture(str(tmp_path_factory.mktemp("data")),
                                      n_train=50, n_test=20, seed=4)
    return load_mnist(data_dir)


def recording_eval_batch(monkeypatch):
    """Record the loss, biases and bias gradients of every eval_batch call."""
    calls = []
    original = MlpClassifier.eval_batch

    def eval_batch(self, x, y, weights, biases):
        loss, wg, bg = original(self, x, y, weights, biases)
        calls.append((loss, [np.array(b) for b in biases], [np.array(g) for g in bg]))
        return loss, wg, bg

    monkeypatch.setattr(MlpClassifier, "eval_batch", eval_batch)
    return calls


def train(dataset, optimizer, epochs=1):
    cfg = config_from_dict({"experiment": "train-mnist", "optimizer": optimizer,
                            "bitwidth": 1, "epochs": epochs, "batch_size": 20,
                            "hidden": [6], "track_coords": 3})
    return train_classifier(dataset, cfg, SCHEDULE)


@pytest.mark.parametrize("optimizer, per_step", [
    ("laq", 1), ("full-precision", 1), ("blaq", 2)])
def test_network_evaluations_per_minibatch(dataset, monkeypatch, optimizer, per_step):
    calls = recording_eval_batch(monkeypatch)
    result = train(dataset, optimizer, epochs=2)
    assert result.steps_per_epoch == 3
    assert len(result.trajectory) == 6
    assert len(calls) == 6 * per_step


def test_blaq_trial_biases_take_the_forward_step(dataset, monkeypatch):
    calls = recording_eval_batch(monkeypatch)
    train(dataset, "blaq")
    (_, b, g), (_, b_trial, _) = calls[0], calls[1]
    for bias, grad, trial in zip(b, g, b_trial):
        d = CurvatureState(len(bias), SCHEDULE).update(grad)
        assert np.array_equal(trial, bias - grad / d)
        assert not np.array_equal(trial, bias)


def test_recorded_loss_is_the_current_point(dataset, monkeypatch):
    calls = recording_eval_batch(monkeypatch)
    result = train(dataset, "blaq")
    assert list(result.trajectory.losses) == [loss for loss, _, _ in calls[::2]]
