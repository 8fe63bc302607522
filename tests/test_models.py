"""Closed-form toy objectives against the same toys built on the autodiff graph."""

import warnings

import numpy as np
import pytest

from blaq.errors import NumericError
from blaq.models import ToyObjective, abs_power_objective, fig1_quadratic
from helpers import graph_loss_and_grad, pow32_graph, same_bits, toy2d_graph

POINTS = 10_000     # per toy; the 3/2-power toy's are split over c and dimension


def toy_points(rng, n, dim, log10_range=(-330.0, 100.0)):
    """n seeded points: half standard normal, half with magnitudes spread
    log-uniformly over `log10_range` (below about 1e-308 they are
    subnormal, below about 5e-324 they round to +-0.0), and every tenth
    point with a +-0.0 coordinate."""
    sign = rng.choice([-1.0, 1.0], size=(n, dim))
    wide = sign * 10.0 ** rng.uniform(*log10_range, size=(n, dim))
    points = np.where(rng.random((n, 1)) < 0.5, rng.normal(size=(n, dim)), wide)
    points[::10, rng.integers(dim)] = sign[::10, 0] * 0.0
    return points


def assert_same_as_graph(objective, graph, points):
    """At every point both sides raise NumericError for the loss, or give
    loss and gradient with the same bits."""
    raised = 0
    with np.errstate(all="ignore"):
        for w in points:
            try:
                loss, grad = graph_loss_and_grad(graph, w)
            except NumericError:
                raised += 1
                with pytest.raises(NumericError, match="non-finite loss"):
                    objective.loss_at(w)
                continue
            assert same_bits(objective.loss_at(w), loss), w
            assert same_bits(objective.grad_at(w), grad), w
    return raised


def test_toy2d_matches_the_graph_bit_for_bit():
    rng = np.random.default_rng(15)
    points = toy_points(rng, POINTS, 2)
    assert np.any(points == 0.0) and np.any((points != 0.0) & (np.abs(points) < 2.2e-308))
    assert assert_same_as_graph(fig1_quadratic(), toy2d_graph([1.0, 1.0]), points) == 0


def test_toy2d_overflows_where_the_graph_does():
    # 5 * w^2 crosses the float64 maximum near |w| = 6e153
    rng = np.random.default_rng(16)
    points = toy_points(rng, 2000, 2, log10_range=(153.0, 154.5))
    raised = assert_same_as_graph(fig1_quadratic(), toy2d_graph([1.0, 1.0]), points)
    assert 0 < raised < len(points)


@pytest.mark.parametrize("c", [0.3, 1.0, 2.0])
def test_pow32_matches_the_graph_bit_for_bit(c):
    rng = np.random.default_rng(int(10 * c))
    for dim in (1, 2, 3):
        points = toy_points(rng, POINTS // 9 + 1, dim)
        assert assert_same_as_graph(abs_power_objective(c=c), pow32_graph(c, np.ones(dim)),
                                    points) == 0
        # |w|^1.5 crosses the float64 maximum near |w| = 1e205
        points = toy_points(rng, 200, dim, log10_range=(204.0, 206.0))
        raised = assert_same_as_graph(abs_power_objective(c=c), pow32_graph(c, np.ones(dim)),
                                      points)
        assert 0 < raised < len(points)


@pytest.mark.parametrize("objective, graph, w", [
    (fig1_quadratic(), toy2d_graph([1.0, 1.0]), [1e160, 0.3]),    # the gradient stays finite
    (abs_power_objective(c=2.0), pow32_graph(2.0, [1.0]), [-1e250]),
])
def test_an_overflowing_loss_raises_on_both_sides(objective, graph, w):
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"non-finite value at node"):
            graph_loss_and_grad(graph, w)
        with pytest.raises(NumericError, match=r"^non-finite loss \(inf\)$"):
            objective.loss_at(w)
        assert np.isfinite(objective.grad_at(w)).all()


def test_an_overflowing_gradient_raises():
    # the loss 1.7e308 is finite; the gradient 1.5 * 1.7e308 is not
    objective = abs_power_objective(c=1.7e308)
    assert objective.loss_at([1.0]) == 1.7e308
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite gradient"):
        objective.grad_at([1.0])


@pytest.mark.parametrize("n", [1, 4, 1024])
@pytest.mark.parametrize("value, finite", [
    (np.nan, False), (np.inf, False), (-np.inf, False), (1e308, True), (5e-324, True)])
def test_gradient_check_verdict_without_warnings(n, value, finite):
    grad = np.linspace(-1.0, 1.0, n)
    grad[n // 2] = value
    objective = ToyObjective(lambda w: 0.0, lambda w: grad, np.zeros(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if finite:
            assert objective.grad_at(np.zeros(n)) is grad
        else:
            with pytest.raises(NumericError, match="^non-finite gradient$"):
                objective.grad_at(np.zeros(n))


def test_start_point_is_a_flat_copy():
    w0 = np.array([[0.3, -0.2]])
    objective = fig1_quadratic(w0)
    w0[0, 0] = 5.0
    assert objective.w0.tolist() == [0.3, -0.2]
