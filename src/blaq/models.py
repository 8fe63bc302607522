"""Graph builders: toy objectives and the fully-connected classifier."""

from __future__ import annotations

import numpy as np

from .autodiff import Graph
from .mnist import pixels_to_float

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
    """A graph over a single parameter vector, with loss/grad helpers.

    The point and loss of the last successful forward pass are kept, so
    a `grad_at` at the point of the preceding `loss_at` (a toy run's
    snapshot of w_hat, then the next step's first gradient) runs only the
    backward pass.  Points match when their float64 bytes do; a forward
    pass that raises forgets the point.  The memo holds while the graph
    is driven only through these two methods.  The graph gets a copy of
    the point, so a caller's later write into its array cannot reach a
    remembered pass.
    """

    def __init__(self, graph, param_name):
        self.graph = graph
        self.param_name = param_name
        self._shape = graph.get_parameter(param_name).shape
        self._last = None           # (point bytes, loss) of the last forward pass

    def loss_at(self, w):
        w = np.asarray(w, dtype=np.float64).reshape(self._shape)
        key = w.tobytes()
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        self._last = None
        self.graph.set_parameter(self.param_name, w.copy())
        loss = self.graph.forward({})
        self._last = (key, loss)
        return loss

    def grad_at(self, w):
        self.loss_at(w)
        return self.graph.backward()[self.param_name].reshape(-1)


def weighted_quadratic(coeffs, centers, w0=None):
    """loss(w) = sum_i coeffs_i * (w_i - centers_i)^2."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n = len(coeffs)
    g = Graph()
    w = g.parameter("w", np.zeros((1, n)) if w0 is None else np.asarray(w0).reshape(1, n))
    shifted = g.add_bias(w, g.constant(-centers))
    sq = g.square(shifted)
    weighted = g.matmul(sq, g.constant(coeffs.reshape(n, 1)))
    g.mark_loss(g.reduce_sum(weighted))
    return ToyObjective(g, "w")


# The 2-D toy quadratic: coefficients and minimizer.
TOY2D_COEFFS = (5.0, 1.0)
TOY2D_CENTER = (0.054, -0.055)


def fig1_quadratic(w0=(1.0, 1.0)):
    """The 2-D anisotropic quadratic used for trajectory pictures."""
    return weighted_quadratic(TOY2D_COEFFS, TOY2D_CENTER, w0)


def abs_power_objective(c=1.0, exponent=1.5, w0=(0.5,)):
    """loss(w) = c * sum_i |w_i|^exponent.

    The gradient magnitude vanishes at the minimum like |w|^(p-1), which
    is what makes coarse quantized steps overshoot and oscillate there.
    """
    w0 = np.asarray(w0, dtype=np.float64).reshape(-1)
    g = Graph()
    w = g.parameter("w", w0)
    powered = g.power(g.abs(w), exponent)
    g.mark_loss(g.reduce_sum(g.scale(powered, c)))
    return ToyObjective(g, "w")


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
