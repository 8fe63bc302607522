"""Objectives: the closed-form toys and the fully-connected classifier."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Graph
from .curvature import all_finite
from .errors import NumericError
from .mnist import pixels_to_float
from .theory import DiagonalQuadratic

# Rows per block and per chunk of an accuracy pass.  Each full block is
# evaluated in chunks; the rows after the last full block go as one call.
# That way every row meets the BLAS kernel a whole-block pass gave it (a
# single trailing row goes through gemv, not gemm) and its logits keep
# their bits, while a full block holds one chunk's activations at a time.
EVAL_ROWS = (1000, 200)


def eval_chunks(n):
    """(start, stop) of each chunk of an accuracy pass over n rows."""
    block, chunk = EVAL_ROWS
    full = n - n % block
    for start in range(0, full, chunk):
        yield start, start + chunk
    if full < n:
        yield full, n


class ToyObjective:
    """A closed-form objective of one vector, started at w0: `loss_at` and
    `grad_at` raise NumericError where `loss(w)` or `grad(w)` is not finite."""

    def __init__(self, loss, grad, w0):
        self.loss = loss
        self.grad = grad
        self.w0 = np.array(w0, dtype=np.float64).reshape(-1)

    def loss_at(self, w):
        loss = self.loss(w)
        if not math.isfinite(loss):
            raise NumericError(f"non-finite loss ({loss!r})")
        return loss

    def grad_at(self, w):
        grad = self.grad(w)
        if not all_finite(grad):
            raise NumericError("non-finite gradient")
        return grad


# The 2-D toy quadratic: coefficients and minimizer.
TOY2D_COEFFS = (5.0, 1.0)
TOY2D_CENTER = (0.054, -0.055)
# sum_i coeffs_i * (w_i - center_i)^2, the 2-D toy's loss, as a diagonal quadratic
TOY2D_QUADRATIC = DiagonalQuadratic(2.0 * np.asarray(TOY2D_COEFFS), TOY2D_CENTER)


def fig1_quadratic(w0=(1.0, 1.0)):
    """The 2-D anisotropic quadratic used for trajectory pictures."""
    return ToyObjective(TOY2D_QUADRATIC.loss, TOY2D_QUADRATIC.grad, w0)


def abs_power_objective(c=1.0, w0=(0.5,)):
    """loss(w) = c * sum_i |w_i|^1.5, gradient (c * (1.5 * |w|^0.5)) * sign(w).

    The gradient magnitude vanishes at the minimum like |w|^0.5, which
    is what makes coarse quantized steps overshoot and oscillate there.
    Both keep the bits of the same toy built on the autodiff graph, whose
    reverse pass multiplies in that order (tests/test_models.py).
    """
    def loss(w):
        return float((c * np.abs(w) ** 1.5).sum())

    def grad(w):
        return (c * (1.5 * np.abs(w) ** 0.5)) * np.sign(w)

    return ToyObjective(loss, grad, w0)


class MlpClassifier:
    """Relu MLP with softmax cross-entropy, built on the autodiff graph.

    Weight matrices are the quantization targets; biases stay
    full-precision.  `eval_batch` gives loss and per-parameter gradients
    for one (x, y) minibatch; `logits_for` and `accuracy` score uint8
    pixel rows chunk by chunk (`eval_chunks`), computing the logits only.
    """

    def __init__(self, layer_sizes, seed=0):
        rng = np.random.default_rng(seed)
        g = Graph()
        x = g.placeholder("x", (None, layer_sizes[0]))
        y = g.placeholder("y", (None,))
        self.weight_names = []
        self.bias_names = []
        self.weight_shapes = []
        h = x
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            wn, bn = f"W{i + 1}", f"b{i + 1}"
            init = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            w = g.parameter(wn, init)
            b = g.parameter(bn, np.zeros(fan_out))
            h = g.add_bias(g.matmul(h, w), b)
            if i < len(layer_sizes) - 2:
                h = g.relu(h)
            self.weight_names.append(wn)
            self.bias_names.append(bn)
            self.weight_shapes.append((fan_in, fan_out))
        self.logits_node = h
        g.mark_loss(g.softmax_cross_entropy(h, y))
        self.graph = g

    def set_weights(self, weights, biases):
        for name, values, shape in zip(self.weight_names, weights, self.weight_shapes):
            self.graph.set_parameter(name, np.asarray(values).reshape(shape))
        for name, values in zip(self.bias_names, biases):
            self.graph.set_parameter(name, values)

    def eval_batch(self, x, y, weights, biases):
        """Returns (loss, weight grads flattened, bias grads)."""
        self.set_weights(weights, biases)
        loss = self.graph.forward({"x": x, "y": y})
        grads = self.graph.backward()
        wg = [grads[n].reshape(-1) for n in self.weight_names]
        bg = [grads[n] for n in self.bias_names]
        return loss, wg, bg

    def logits_for(self, pixels, weights, biases):
        """Logits of uint8 pixel rows, evaluated one chunk at a time."""
        self.set_weights(weights, biases)
        return np.concatenate([
            self.graph.evaluate(self.logits_node, {"x": pixels_to_float(pixels[start:stop])})
            for start, stop in eval_chunks(len(pixels))])

    def accuracy(self, pixels, labels, weights, biases):
        hits = np.argmax(self.logits_for(pixels, weights, biases), axis=1) == labels
        return int(np.sum(hits)) / len(pixels)
