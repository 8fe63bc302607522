"""Trainer: one optimizer step per minibatch through the shared update rules,
and the chunked accuracy pass over uint8 test pixels."""

import tracemalloc

import numpy as np
import pytest

from blaq.config import config_from_dict
from blaq.curvature import CurvatureState, LrSchedule
from blaq.errors import NumericError
from blaq.mnist import load_mnist, make_synthetic_fixture
from blaq.models import EVAL_ROWS, MlpClassifier, eval_chunks
from blaq.training import steps_per_epoch, train_classifier

from helpers import same_bits

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
    assert steps_per_epoch(len(dataset.train_images), 20) == 3
    assert len(result.trajectory) == 6
    assert [row[0] for row in result.epoch_rows] == [1, 2]
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


def forward_logits(model, x, weights, biases):
    """Logits through `Graph.forward`, 1,000 float rows per pass."""
    model.set_weights(weights, biases)
    out = []
    for start in range(0, len(x), 1000):
        block = x[start:start + 1000]
        model.graph.forward({"x": block, "y": np.zeros(len(block))})
        out.append(model.logits_node.value.copy())
    return np.concatenate(out)


def model_point(model, seed=0):
    """The model's initial weights and small random biases."""
    rng = np.random.default_rng(seed)
    weights = [model.graph.get_parameter(n) for n in model.weight_names]
    biases = [rng.normal(0.0, 0.1, size=w.shape[1]) for w in weights]
    return weights, biases


class TestEvaluation:
    # 1,003 and 1,201 end in a 3- and a 201-row tail; 201 rows cut as
    # 200 + 1 would send the last row through gemv and change its bits
    @pytest.mark.parametrize("n_test", [50, 1000, 1003, 1201, 2500])
    def test_logits_and_accuracy_match_the_forward_pass_bit_for_bit(self, tmp_path, n_test):
        ds = load_mnist(make_synthetic_fixture(str(tmp_path), n_train=10, n_test=n_test,
                                               seed=n_test))
        model = MlpClassifier([784, 256, 128, 64, 10], seed=1)
        weights, biases = model_point(model)
        expected = forward_logits(model, ds.test_images / 255.0, weights, biases)
        logits = model.logits_for(ds.test_images, weights, biases)
        assert same_bits(logits, expected)
        hits = int(np.sum(np.argmax(expected, axis=1) == ds.test_labels))
        assert model.accuracy(ds.test_images, ds.test_labels, weights, biases) == hits / n_test

    @pytest.mark.parametrize("n", [1, 199, 200, 999, 1000, 1001, 1003, 2500, 10000])
    def test_chunks_cut_full_blocks_and_keep_the_tail_whole(self, n):
        block, chunk = EVAL_ROWS
        chunks = list(eval_chunks(n))
        assert [a for a, _ in chunks[1:]] == [b for _, b in chunks[:-1]]
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        full = n - n % block
        assert all(b - a == chunk for a, b in chunks if b <= full)
        assert [(a, b) for a, b in chunks if b > full] == ([(full, n)] if n % block else [])

    @pytest.mark.parametrize("layer", [0, -1])
    def test_non_finite_logit_raises_the_forward_pass_message(self, dataset, layer):
        model = MlpClassifier([784, 16, 10], seed=2)
        weights, biases = model_point(model)
        weights[layer] = np.full_like(weights[layer], 1e308)
        x = dataset.test_images / 255.0
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as forward:
                model.eval_batch(x, dataset.test_labels, weights, biases)
            with pytest.raises(NumericError) as chunked:
                model.accuracy(dataset.test_images, dataset.test_labels, weights, biases)
        assert str(chunked.value) == str(forward.value)
        assert str(forward.value).startswith("non-finite value at node ")


def test_training_holds_under_half_a_float64_copy_of_the_images(tmp_path):
    n_train = 4000
    data_dir = make_synthetic_fixture(str(tmp_path), n_train=n_train, n_test=1000, seed=3)
    cfg = config_from_dict({"experiment": "train-mnist", "epochs": 1, "batch_size": 128,
                            "hidden": [16]})
    tracemalloc.start()
    try:
        train_classifier(load_mnist(data_dir), cfg, SCHEDULE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    float64_images = n_train * 784 * 8
    assert peak < float64_images / 2, f"traced peak {peak / 1e6:.1f} MB"
