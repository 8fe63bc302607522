"""Reverse-mode automatic differentiation over dense float64 arrays.

Supports the primitives of small fully-connected classifiers and of the
elementwise objectives of the gradient checks: matmul, bias addition,
relu, softmax cross-entropy, elementwise square/abs/power, scalar
scale/shift, full reductions, elementwise add.  Shapes are checked when
nodes are built; a leading batch dimension may be left open (`None`)
and is bound at forward time.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, StateError


def _shapes_match(expected, actual):
    """Static shape vs concrete shape; None entries are wildcards."""
    if len(expected) != len(actual):
        return False
    return all(e is None or e == a for e, a in zip(expected, actual))


class Node:
    """One graph node: an op kind, its input node ids, and cached arrays."""

    __slots__ = ("uid", "kind", "inputs", "shape", "aux", "needs_grad", "value", "grad")

    def __init__(self, uid, kind, inputs, shape, aux=None, needs_grad=False):
        self.uid = uid
        self.kind = kind
        self.inputs = inputs
        self.shape = shape      # static shape; None = open (batch) dim
        self.aux = aux or {}
        self.needs_grad = needs_grad    # a parameter can be reached from here
        self.value = None
        self.grad = None

    def __repr__(self):
        return f"Node({self.uid}, {self.kind}, shape={self.shape})"


class Graph:
    """A topologically ordered computation graph with a scalar loss.

    Build once (placeholders, parameters, ops), then alternate
    `forward(inputs)` / `backward()`.  Parameters persist across calls
    and are updated with `set_parameter`, which keeps a float64 array as
    given: the graph then holds the caller's array, and a later write
    into it changes the parameter.  The reverse pass forms a partial
    only toward inputs from which a parameter can be reached, so
    placeholders and constants never get one.
    """

    def __init__(self):
        self.nodes = []
        self._params = {}            # name -> node uid
        self._placeholders = {}      # name -> node uid
        self._loss_uid = None

    # ---- leaves ----

    def placeholder(self, name, shape):
        """Named input bound at forward time; leading dim may be None."""
        if name in self._placeholders or name in self._params:
            raise ValueError(f"duplicate leaf name {name!r}")
        node = self._new("placeholder", [], tuple(shape), {"name": name})
        self._placeholders[name] = node.uid
        return node

    def parameter(self, name, init):
        """Trainable leaf with persistent value."""
        if name in self._placeholders or name in self._params:
            raise ValueError(f"duplicate leaf name {name!r}")
        arr = np.asarray(init, dtype=np.float64).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"parameter {name!r} init must be finite")
        node = self._new("parameter", [], arr.shape, {"name": name})
        node.value = arr
        self._params[name] = node.uid
        return node

    def constant(self, values):
        """Fixed non-trainable leaf."""
        arr = np.asarray(values, dtype=np.float64).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("constant must be finite")
        node = self._new("constant", [], arr.shape)
        node.value = arr
        return node

    # ---- primitives ----

    def matmul(self, a, b):
        sa, sb = a.shape, b.shape
        if len(sa) != 2 or len(sb) != 2:
            raise ValueError(f"matmul needs 2-D operands, got {sa} and {sb}")
        if sa[1] is not None and sb[0] is not None and sa[1] != sb[0]:
            raise ValueError(f"matmul inner dims disagree: {sa} @ {sb}")
        return self._new("matmul", [a, b], (sa[0], sb[1]))

    def add_bias(self, x, bias):
        sx, sb = x.shape, bias.shape
        if len(sx) != 2 or len(sb) != 1:
            raise ValueError(f"add_bias needs 2-D input and 1-D bias, got {sx}, {sb}")
        if sx[1] is not None and sb[0] is not None and sx[1] != sb[0]:
            raise ValueError(f"bias length {sb[0]} does not match width {sx[1]}")
        return self._new("add_bias", [x, bias], sx)

    def add(self, a, b):
        if not _shapes_match(a.shape, b.shape) and not _shapes_match(b.shape, a.shape):
            raise ValueError(f"add needs equal shapes, got {a.shape} and {b.shape}")
        return self._new("add", [a, b], a.shape)

    def relu(self, x):
        return self._new("relu", [x], x.shape)

    def square(self, x):
        return self._new("square", [x], x.shape)

    def abs(self, x):
        return self._new("abs", [x], x.shape)

    def power(self, x, exponent):
        """Signed power sign(x)*|x|^p with adjoint p*|x|^(p-1)."""
        return self._new("power", [x], x.shape, {"p": float(exponent)})

    def scale(self, x, factor):
        return self._new("scale", [x], x.shape, {"c": float(factor)})

    def shift(self, x, offset):
        return self._new("shift", [x], x.shape, {"c": float(offset)})

    def reduce_sum(self, x):
        return self._new("reduce_sum", [x], ())

    def reduce_mean(self, x):
        return self._new("reduce_mean", [x], ())

    def softmax_cross_entropy(self, logits, labels):
        """Mean cross-entropy of softmax(logits) against integer labels."""
        sl, sy = logits.shape, labels.shape
        if len(sl) != 2 or len(sy) != 1:
            raise ValueError(f"softmax_cross_entropy needs (B,C) logits and (B,) labels, got {sl}, {sy}")
        if sl[0] is not None and sy[0] is not None and sl[0] != sy[0]:
            raise ValueError(f"batch sizes disagree: {sl} vs {sy}")
        return self._new("softmax_cross_entropy", [logits, labels], ())

    def mark_loss(self, node):
        if node.shape != ():
            raise ValueError(f"loss must be scalar, got shape {node.shape}")
        self._loss_uid = node.uid
        return node

    # ---- execution ----

    def forward(self, inputs=None):
        """Evaluate the loss's ancestors, each node keeping its value for
        `backward`; returns the loss as a Python float."""
        if self._loss_uid is None:
            raise StateError("no loss node marked")
        return float(self._walk(self.nodes[self._loss_uid], inputs or {}, keep=True))

    def evaluate(self, target, inputs):
        """The value of node `target` for `inputs`, without a full forward pass.

        The walk of `forward`, so the value matches a forward pass bit for
        bit, but each intermediate array is dropped once its last consumer
        has run, and no node keeps a value: `backward` still sees the last
        `forward`.  Only the placeholders `target` depends on must be bound.
        """
        return self._walk(target, inputs, keep=False)

    def _walk(self, target, inputs, keep):
        """Run the ops `target` depends on, in build order, checking that
        every value is finite; return the target's value.  With `keep`,
        every node it reaches stores its value; without, each array is
        dropped after its last consumer."""
        values = {}
        for name, given in inputs.items():
            node, arr = self._checked_input(name, given)
            values[node.uid] = arr
        needed = {target.uid}
        for uid in range(target.uid, -1, -1):
            if uid in needed:
                needed.update(self.nodes[uid].inputs)
        order = sorted(needed)
        missing = sorted(self.nodes[uid].aux["name"] for uid in order
                         if self.nodes[uid].kind == "placeholder" and uid not in values)
        if missing:
            raise ValueError(f"unbound inputs: {missing}")
        last_use = {} if keep else {i: uid for uid in order for i in self.nodes[uid].inputs}
        for uid in order:
            node = self.nodes[uid]
            if node.kind in ("parameter", "constant"):
                values[uid] = node.value
            elif node.kind != "placeholder":
                value = _FORWARD[node.kind](node, *(values[i] for i in node.inputs))
                for i in node.inputs:
                    if last_use.get(i) == uid:
                        values.pop(i, None)
                if not np.isfinite(value).all():
                    raise NumericError(f"non-finite value at node {uid} ({node.kind})")
                values[uid] = value
            if keep:
                node.value = values[uid]
        return values[target.uid]

    def backward(self):
        """Reverse pass; returns {parameter name: gradient array}."""
        if self._loss_uid is None or self.nodes[self._loss_uid].value is None:
            raise StateError("backward called before forward")
        for node in self.nodes:
            node.grad = None
        loss = self.nodes[self._loss_uid]
        loss.grad = np.array(1.0)
        for node in reversed(self.nodes[: self._loss_uid + 1]):
            if node.grad is None:
                continue
            if node.kind in ("placeholder", "parameter", "constant"):
                continue
            args = [self.nodes[i].value for i in node.inputs]
            for uid, partial in zip(node.inputs, _BACKWARD[node.kind]):
                child = self.nodes[uid]
                if partial is None or not child.needs_grad:
                    continue
                part = partial(node, node.grad, *args)
                child.grad = part if child.grad is None else child.grad + part
        out = {}
        for name, uid in self._params.items():
            node = self.nodes[uid]
            grad = node.grad if node.grad is not None else np.zeros_like(node.value)
            out[name] = grad
        return out

    # ---- parameter access ----

    def set_parameter(self, name, values):
        node = self.nodes[self._params[name]]
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != node.value.shape:
            raise ValueError(f"parameter {name!r} has shape {node.value.shape}, got {arr.shape}")
        node.value = arr

    def get_parameter(self, name):
        return self.nodes[self._params[name]].value.copy()

    def _checked_input(self, name, values):
        """A placeholder's node and `values` as a checked float64 array."""
        if name not in self._placeholders:
            raise ValueError(f"unknown input {name!r}")
        arr = np.asarray(values, dtype=np.float64)
        node = self.nodes[self._placeholders[name]]
        if not _shapes_match(node.shape, arr.shape):
            raise ValueError(f"input {name!r} has shape {arr.shape}, expected {node.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"input {name!r} must be finite")
        return node, arr

    def _new(self, kind, input_nodes, shape, aux=None):
        needs_grad = kind == "parameter" or any(n.needs_grad for n in input_nodes)
        node = Node(len(self.nodes), kind, [n.uid for n in input_nodes], shape, aux, needs_grad)
        self.nodes.append(node)
        return node


# ---- forward rules ----

def _softmax(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def _fw_softmax_ce(node, logits, labels):
    n, c = logits.shape
    idx = labels.astype(np.int64)
    if not np.all(labels == idx) or idx.min() < 0 or idx.max() >= c:
        raise ValueError(f"labels must be integers in [0, {c})")
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return np.array((lse - logits[np.arange(n), idx]).mean())


_FORWARD = {
    "matmul": lambda node, a, b: a @ b,
    "add_bias": lambda node, x, b: x + b,
    "add": lambda node, a, b: a + b,
    "relu": lambda node, x: np.maximum(x, 0.0),
    "square": lambda node, x: x * x,
    "abs": lambda node, x: np.abs(x),
    "power": lambda node, x: np.sign(x) * np.abs(x) ** node.aux["p"],
    "scale": lambda node, x: node.aux["c"] * x,
    "shift": lambda node, x: x + node.aux["c"],
    "reduce_sum": lambda node, x: np.array(x.sum()),
    "reduce_mean": lambda node, x: np.array(x.mean()),
    "softmax_cross_entropy": _fw_softmax_ce,
}


# ---- adjoint rules: per input, (node, upstream grad, *input values) -> partial ----
# None marks an input that takes no gradient (the labels).

def _bw_power(node, g, x):
    p = node.aux["p"]
    mag = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = p * mag ** (p - 1.0)
    d = np.where(mag == 0.0, 0.0, d)
    return g * d


def _bw_softmax_ce(node, g, logits, labels):
    n, c = logits.shape
    p = _softmax(logits)
    p[np.arange(n), labels.astype(np.int64)] -= 1.0
    return g * p / n


_BACKWARD = {
    "matmul": (lambda node, g, a, b: g @ b.T, lambda node, g, a, b: a.T @ g),
    "add_bias": (lambda node, g, x, b: g, lambda node, g, x, b: g.sum(axis=0)),
    "add": (lambda node, g, a, b: g, lambda node, g, a, b: g),
    "relu": (lambda node, g, x: g * (x > 0.0),),
    "square": (lambda node, g, x: g * 2.0 * x,),
    "abs": (lambda node, g, x: g * np.sign(x),),
    "power": (_bw_power,),
    "scale": (lambda node, g, x: g * node.aux["c"],),
    "shift": (lambda node, g, x: g,),
    "reduce_sum": (lambda node, g, x: g * np.ones_like(x),),
    "reduce_mean": (lambda node, g, x: g * np.ones_like(x) / x.size,),
    "softmax_cross_entropy": (_bw_softmax_ce, None),
}
