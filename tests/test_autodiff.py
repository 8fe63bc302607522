"""Autodiff engine: values, adjoints vs finite differences, error paths."""

import math

import numpy as np
import pytest

from blaq.autodiff import _BACKWARD, _FORWARD, Graph
from blaq.errors import NumericError, StateError
from blaq.models import MlpClassifier
from helpers import finite_difference_grad, grads_close, same_bits, toy2d_graph


def mlp_batch(seed):
    rng = np.random.default_rng(seed)
    model = MlpClassifier([12, 9, 7, 5], seed=seed)
    return model, rng.normal(size=(6, 12)), rng.integers(0, 5, size=6)


def scalar_square_graph(value):
    g = Graph()
    w = g.parameter("w", [value])
    g.mark_loss(g.reduce_sum(g.square(w)))
    return g


class TestForward:
    def test_square_at_three(self):
        g = scalar_square_graph(3.0)
        assert g.forward({}) == 9.0

    def test_anisotropic_quadratic_at_minimum(self):
        assert toy2d_graph([0.054, -0.055]).forward({}) == 0.0

    def test_uniform_logits_cross_entropy(self):
        # zero weights -> uniform softmax -> loss is log of the class count
        model = MlpClassifier([784, 100, 10], seed=0)
        zeros_w = [np.zeros(s) for s in model.weight_shapes]
        zeros_b = [np.zeros(s[1]) for s in model.weight_shapes]
        x = np.random.default_rng(0).uniform(size=(4, 784))
        y = np.array([3, 1, 4, 1])
        loss, _, _ = model.eval_batch(x, y, zeros_w, zeros_b)
        assert abs(loss - math.log(10)) < 1e-12

    def test_relu_values(self):
        g = Graph()
        x = g.parameter("x", [-1.0, 2.0])
        r = g.relu(x)
        g.mark_loss(g.reduce_sum(r))
        g.forward({})
        assert list(r.value) == [0.0, 2.0]

    def test_matmul_shape(self):
        g = Graph()
        a = g.parameter("a", np.ones((2, 3)))
        b = g.parameter("b", np.ones((3, 4)))
        node = g.matmul(a, b)
        assert node.shape == (2, 4)
        g.mark_loss(g.reduce_sum(node))
        g.forward({})
        assert node.value.shape == (2, 4)

    def test_deterministic_bit_identical(self):
        model = MlpClassifier([20, 16, 5], seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 20))
        y = rng.integers(0, 5, size=8)
        w = [model.graph.get_parameter(n) for n in model.weight_names]
        b = [model.graph.get_parameter(n) for n in model.bias_names]
        l1, g1, _ = model.eval_batch(x, y, w, b)
        l2, g2, _ = model.eval_batch(x, y, w, b)
        assert l1 == l2
        for u, v in zip(g1, g2):
            assert np.array_equal(u, v)


class TestBackward:
    def test_square_gradient(self):
        g = scalar_square_graph(3.0)
        g.forward({})
        assert g.backward()["w"][0] == 6.0

    def test_quadratic_gradient_at_origin(self):
        g = toy2d_graph([0.0, 0.0])
        g.forward({})
        assert np.allclose(g.backward()["w"], [[-0.54, 0.11]], atol=1e-15)

    def test_power_adjoint_value(self):
        # d/dx sign(x)|x|^1.5 at x = 4 is 1.5 * sqrt(4) = 3
        g = Graph()
        x = g.parameter("x", [4.0])
        g.mark_loss(g.reduce_sum(g.power(x, 1.5)))
        g.forward({})
        assert g.backward()["x"][0] == 3.0

    def test_backward_before_forward_raises(self):
        g = scalar_square_graph(1.0)
        with pytest.raises(StateError):
            g.backward()

    def test_gradient_shapes_match_parameters(self):
        model = MlpClassifier([6, 5, 4], seed=0)
        x = np.random.default_rng(0).normal(size=(3, 6))
        y = np.array([0, 1, 2])
        model.graph.forward({"x": x, "y": y})
        grads = model.graph.backward()
        for name in model.weight_names + model.bias_names:
            assert grads[name].shape == model.graph.get_parameter(name).shape

    def test_every_reachable_node_has_matching_grad(self):
        g = toy2d_graph([0.3, 0.7])
        g.forward({})
        g.backward()
        reached = [n for n in g.nodes if n.grad is not None]
        assert reached
        for n in reached:
            assert n.grad.shape == n.value.shape


class TestGradientPruning:
    """Partials are formed only toward inputs that lead to a parameter."""

    def test_mlp_gradients_match_the_unpruned_pass_bit_for_bit(self):
        for seed in range(5):
            model, x, y = mlp_batch(seed)
            g = model.graph
            g.forward({"x": x, "y": y})
            pruned = g.backward()
            for node in g.nodes:
                node.needs_grad = True      # the reference: every partial formed
            g.forward({"x": x, "y": y})
            full = g.backward()
            assert set(pruned) == set(full)
            for name in pruned:
                assert same_bits(pruned[name], full[name])

    def test_no_partial_for_placeholders_or_constants(self):
        model, x, y = mlp_batch(7)
        g = model.graph
        g.forward({"x": x, "y": y})
        g.backward()
        leaves = [n for n in g.nodes if n.kind in ("placeholder", "constant")]
        assert leaves and all(n.grad is None for n in leaves)
        # the first matmul is x @ W1: only W1's partial is formed
        first = next(n for n in g.nodes if n.kind == "matmul")
        assert [g.nodes[i].kind for i in first.inputs] == ["placeholder", "parameter"]
        assert g.nodes[first.inputs[1]].grad is not None

        toy = toy2d_graph([0.3, 0.7])
        toy.forward({})
        toy.backward()
        constants = [n for n in toy.nodes if n.kind == "constant"]
        assert len(constants) == 2
        assert all(n.grad is None for n in constants)

    def test_needs_grad_is_set_when_the_graph_is_built(self):
        g = Graph()
        x = g.placeholder("x", (None, 3))
        c = g.constant(np.ones((3, 2)))
        w = g.parameter("w", np.ones((3, 2)))
        const_only = g.matmul(x, c)
        with_param = g.matmul(x, w)
        assert not (x.needs_grad or c.needs_grad or const_only.needs_grad)
        assert w.needs_grad and with_param.needs_grad
        assert g.add(const_only, with_param).needs_grad


class TestEvaluate:
    """`Graph.evaluate`: one node's value, the forward pass left alone."""

    def test_every_node_matches_the_forward_pass_bit_for_bit(self):
        model, x, y = mlp_batch(0)
        g = model.graph
        g.forward({"x": x, "y": y})
        for node in g.nodes:
            if node.kind == "placeholder":
                continue
            assert same_bits(g.evaluate(node, {"x": x, "y": y}), node.value)

    def test_logits_need_only_x_and_leave_the_cached_pass_alone(self):
        model, x, y = mlp_batch(1)
        g = model.graph
        g.forward({"x": x, "y": y})
        cached = [n.value for n in g.nodes]
        grads = g.backward()
        logits = g.evaluate(model.logits_node, {"x": x[:2]})
        assert logits.shape == (2, 5)
        assert all(n.value is v for n, v in zip(g.nodes, cached))
        again = g.backward()
        assert all(same_bits(grads[name], again[name]) for name in grads)

    def test_unbound_and_unknown_inputs_rejected(self):
        model, x, _ = mlp_batch(2)
        with pytest.raises(ValueError, match="unbound inputs: \\['x'\\]"):
            model.graph.evaluate(model.logits_node, {})
        with pytest.raises(ValueError, match="unknown input"):
            model.graph.evaluate(model.logits_node, {"x": x, "bogus": x})
        with pytest.raises(ValueError, match="must be finite"):
            model.graph.evaluate(model.logits_node, {"x": np.full((1, 12), np.nan)})

    def test_overflow_names_the_node_as_forward_does(self):
        g = Graph()
        x = g.parameter("x", [1e100])
        sq = g.square(g.square(x))
        g.mark_loss(g.reduce_sum(sq))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError) as forward:
                g.forward({})
            with pytest.raises(NumericError) as evaluated:
                g.evaluate(sq, {})
        assert str(evaluated.value) == str(forward.value) == "non-finite value at node 2 (square)"


def test_every_forward_rule_has_an_adjoint():
    assert sorted(_FORWARD) == sorted(_BACKWARD)


class TestErrors:
    def test_matmul_shape_mismatch_at_construction(self):
        g = Graph()
        a = g.parameter("a", np.ones((2, 3)))
        b = g.parameter("b", np.ones((4, 2)))
        with pytest.raises(ValueError):
            g.matmul(a, b)

    def test_bias_width_mismatch(self):
        g = Graph()
        x = g.parameter("x", np.ones((2, 3)))
        b = g.parameter("b", np.ones(4))
        with pytest.raises(ValueError):
            g.add_bias(x, b)

    def test_overflow_names_the_node(self):
        g = Graph()
        x = g.parameter("x", [1e200])
        sq = g.square(x)
        g.mark_loss(g.reduce_sum(g.square(sq)))
        with pytest.raises(NumericError) as exc, np.errstate(over="ignore"):
            g.forward({})
        assert "node" in str(exc.value)

    def test_unbound_input_rejected(self):
        g = Graph()
        x = g.placeholder("x", (None, 2))
        g.mark_loss(g.reduce_sum(x))
        with pytest.raises(ValueError):
            g.forward({})

    def test_unknown_input_rejected(self):
        g = scalar_square_graph(1.0)
        with pytest.raises(ValueError):
            g.forward({"bogus": np.ones(1)})

    def test_bad_labels_rejected(self):
        g = Graph()
        logits = g.parameter("z", np.zeros((2, 3)))
        y = g.placeholder("y", (None,))
        g.mark_loss(g.softmax_cross_entropy(logits, y))
        with pytest.raises(ValueError):
            g.forward({"y": np.array([0.0, 10.0])})


def _gradcheck(build, n_probes, rng):
    """build(rng) -> (graph, param names); compares backward to central FD."""
    for _ in range(n_probes):
        g, names = build(rng)
        g.forward({})
        grads = g.backward()
        for name in names:
            base = g.get_parameter(name)

            def f(values, _name=name, _g=g):
                _g.set_parameter(_name, values)
                return _g.forward({})

            fd = finite_difference_grad(f, base)
            g.set_parameter(name, base)
            assert grads_close(grads[name], fd), f"adjoint mismatch for {name}"


def _away_from_kinks(rng, shape, margin=1e-3):
    x = rng.normal(size=shape)
    return x + np.sign(x) * margin


class TestFiniteDifferenceOracle:
    """Every primitive's reverse-mode gradient against central differences."""

    def test_matmul_and_bias(self):
        def build(rng):
            g = Graph()
            a = g.parameter("a", rng.normal(size=(3, 4)))
            b = g.parameter("b", rng.normal(size=(4, 2)))
            c = g.parameter("c", rng.normal(size=2))
            out = g.add_bias(g.matmul(a, b), c)
            g.mark_loss(g.reduce_sum(g.square(out)))
            return g, ["a", "b", "c"]
        _gradcheck(build, 15, np.random.default_rng(10))

    def test_relu(self):
        def build(rng):
            g = Graph()
            x = g.parameter("x", _away_from_kinks(rng, (4, 3)))
            g.mark_loss(g.reduce_sum(g.square(g.relu(x))))
            return g, ["x"]
        _gradcheck(build, 15, np.random.default_rng(11))

    def test_square_abs(self):
        def build(rng):
            g = Graph()
            x = g.parameter("x", _away_from_kinks(rng, (5,)))
            g.mark_loss(g.reduce_sum(g.add(g.square(x), g.abs(x))))
            return g, ["x"]
        _gradcheck(build, 15, np.random.default_rng(12))

    def test_signed_power(self):
        def build(rng):
            g = Graph()
            x = g.parameter("x", _away_from_kinks(rng, (4,), margin=0.1))
            g.mark_loss(g.reduce_sum(g.power(x, 1.5)))
            return g, ["x"]
        _gradcheck(build, 15, np.random.default_rng(13))

    def test_scale_shift_mean(self):
        def build(rng):
            g = Graph()
            x = g.parameter("x", rng.normal(size=(3, 3)))
            out = g.shift(g.scale(x, -2.5), 0.75)
            g.mark_loss(g.reduce_mean(g.square(out)))
            return g, ["x"]
        _gradcheck(build, 15, np.random.default_rng(14))

    def test_softmax_cross_entropy(self):
        def build(rng):
            g = Graph()
            z = g.parameter("z", rng.normal(size=(6, 4)))
            y = g.constant(rng.integers(0, 4, size=6).astype(float))
            # labels enter as a constant leaf so only logits carry gradient
            g.mark_loss(g.softmax_cross_entropy(z, y))
            return g, ["z"]
        _gradcheck(build, 15, np.random.default_rng(15))

    def test_full_mlp(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            sizes = [int(rng.integers(4, 8)), int(rng.integers(4, 8)), int(rng.integers(3, 6))]
            model = MlpClassifier(sizes, seed=int(rng.integers(10000)))
            x = rng.normal(size=(3, sizes[0]))
            y = rng.integers(0, sizes[-1], size=3)
            g = model.graph
            g.forward({"x": x, "y": y})
            grads = g.backward()
            for name in model.weight_names + model.bias_names:
                base = g.get_parameter(name)

                def f(values, _name=name):
                    g.set_parameter(_name, values)
                    return g.forward({"x": x, "y": y})

                fd = finite_difference_grad(f, base)
                g.set_parameter(name, base)
                assert grads_close(grads[name], fd), f"MLP adjoint mismatch for {name}"


class TestLinearity:
    def test_gradient_of_sum_is_sum_of_gradients(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            w0 = rng.normal(size=2)
            c1, c2 = rng.normal(size=2), rng.normal(size=2)
            k1, k2 = rng.uniform(0.5, 3.0, size=2), rng.uniform(0.5, 3.0, size=2)

            def quad_grad(coeffs, centers):
                g = Graph()
                w = g.parameter("w", w0.reshape(1, 2))
                shifted = g.add_bias(w, g.constant(-centers))
                g.mark_loss(g.reduce_sum(g.matmul(g.square(shifted), g.constant(coeffs.reshape(2, 1)))))
                g.forward({})
                return g.backward()["w"]

            def sum_grad():
                g = Graph()
                w = g.parameter("w", w0.reshape(1, 2))
                parts = []
                for coeffs, centers in ((k1, c1), (k2, c2)):
                    shifted = g.add_bias(w, g.constant(-centers))
                    parts.append(g.matmul(g.square(shifted), g.constant(coeffs.reshape(2, 1))))
                g.mark_loss(g.reduce_sum(g.add(*parts)))
                g.forward({})
                return g.backward()["w"]

            combined = sum_grad()
            separate = quad_grad(k1, c1) + quad_grad(k2, c2)
            assert np.allclose(combined, separate, atol=1e-12)


class TestParametersHeldAsGiven:
    """`set_parameter` keeps the caller's float64 array."""

    def test_eval_batch_shares_memory_with_the_arrays_handed_to_it(self):
        rng = np.random.default_rng(3)
        model = MlpClassifier([12, 9, 7, 5], seed=3)
        weights = [rng.normal(size=a * b) for a, b in model.weight_shapes]
        biases = [rng.normal(size=b) for _, b in model.weight_shapes]
        x, y = rng.normal(size=(6, 12)), rng.integers(0, 5, size=6)
        model.eval_batch(x, y, weights, biases)
        for name, arr in zip(model.weight_names + model.bias_names, weights + biases):
            assert np.shares_memory(model.graph.nodes[model.graph._params[name]].value, arr)
        weights[0][0] = 123.0
        assert model.graph.get_parameter("W1")[0, 0] == 123.0

    def test_non_float64_values_are_converted(self):
        g = Graph()
        g.mark_loss(g.reduce_sum(g.parameter("w", np.zeros(3))))
        values = np.array([1, 2, 3], dtype=np.int64)
        g.set_parameter("w", values)
        values[0] = 7
        assert list(g.get_parameter("w")) == [1.0, 2.0, 3.0]
