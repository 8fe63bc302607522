"""Autodiff engine: values, adjoints vs finite differences, error paths."""

import math

import numpy as np
import pytest

from blaq.autodiff import Graph
from blaq.errors import NumericError, StateError
from blaq.models import MlpClassifier, fig1_quadratic
from helpers import finite_difference_grad, grads_close


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
        obj = fig1_quadratic()
        assert obj.loss_at([0.054, -0.055]) == 0.0

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
        obj = fig1_quadratic()
        grad = obj.grad_at([0.0, 0.0])
        assert np.allclose(grad, [-0.54, 0.11], atol=1e-15)

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
        obj = fig1_quadratic()
        obj.grad_at([0.3, 0.7])
        g = obj.graph
        for uid, grad in g.gradients.items():
            assert grad.shape == g.nodes[uid].value.shape


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


class TestToyObjectiveMemo:
    @pytest.fixture
    def forwards(self, monkeypatch):
        calls = []
        original = Graph.forward

        def counting(graph, inputs=None):
            calls.append(graph)
            return original(graph, inputs)

        monkeypatch.setattr(Graph, "forward", counting)
        return calls

    def test_grad_after_loss_at_the_same_point_reuses_the_forward_pass(self, forwards):
        obj = fig1_quadratic()
        loss = obj.loss_at(np.array([0.3, -0.2]))
        grad = obj.grad_at(np.array([0.3, -0.2]))
        assert len(forwards) == 1
        assert obj.loss_at([0.3, -0.2]) == loss
        assert len(forwards) == 1
        fresh = fig1_quadratic()
        assert np.array_equal(fresh.grad_at([0.3, -0.2]), grad)
        assert fresh.graph.forward({}) == loss

    def test_another_point_runs_a_fresh_forward_pass(self, forwards):
        obj = fig1_quadratic()
        obj.loss_at([0.3, -0.2])
        grad = obj.grad_at([0.3, 0.2])
        assert len(forwards) == 2
        # -0.0 and 0.0 differ in their bytes, so the memo does not match
        obj.loss_at([0.0, 0.2])
        obj.grad_at([-0.0, 0.2])
        assert len(forwards) == 4
        assert np.array_equal(grad, fig1_quadratic().grad_at([0.3, 0.2]))

    def test_failed_forward_pass_is_not_remembered(self, forwards):
        obj = fig1_quadratic()
        good = obj.loss_at([0.3, -0.2])
        for call in (obj.loss_at, obj.grad_at, obj.loss_at):
            with pytest.raises(NumericError, match=r"node 3 \(square\)"):
                call([1e200, -0.2])
        assert len(forwards) == 4
        assert obj.loss_at([0.3, -0.2]) == good
        assert len(forwards) == 5
