"""Shared test utilities: finite-difference oracle, tolerances, bit equality,
the two toy objectives built on the autodiff graph, and the per-step bound
check."""

import numpy as np

from blaq.autodiff import Graph
from blaq.models import TOY2D_CENTER, TOY2D_COEFFS
from blaq.theory import BOUND_REL_SLACK, TheoryParams, theorem1_bound

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


def finite_difference_grad(f, x, h=FD_STEP):
    """Central-difference gradient of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def grads_close(analytic, numeric, rel=REL_TOL, floor=ABS_FLOOR):
    """Elementwise relative check, errors below the floor always pass."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return bool(np.all((err <= rel * scale) | (err <= floor)))


def same_bits(x, y):
    """Equal float64 bit patterns: tells -0.0 from 0.0 and matches NaNs."""
    return np.array_equal(np.asarray(x, dtype=np.float64).view(np.uint64),
                          np.asarray(y, dtype=np.float64).view(np.uint64))


def toy2d_graph(w0):
    """The 2-D toy on the graph: sum_i coeffs_i * (w_i - center_i)^2, with
    the parameter "w" of shape (1, 2)."""
    coeffs = np.asarray(TOY2D_COEFFS)
    g = Graph()
    w = g.parameter("w", np.reshape(w0, (1, 2)))
    shifted = g.add_bias(w, g.constant(-np.asarray(TOY2D_CENTER)))
    g.mark_loss(g.reduce_sum(g.matmul(g.square(shifted), g.constant(coeffs.reshape(2, 1)))))
    return g


def pow32_graph(c, w0):
    """The 3/2-power toy on the graph: c * sum_i |w_i|^1.5."""
    g = Graph()
    w = g.parameter("w", np.reshape(w0, -1))
    g.mark_loss(g.reduce_sum(g.scale(g.power(g.abs(w), 1.5), c)))
    return g


def graph_loss_and_grad(graph, w):
    """Loss and flat gradient of a toy graph at w."""
    graph.set_parameter("w", np.reshape(w, graph.get_parameter("w").shape))
    loss = graph.forward({})
    return loss, graph.backward()["w"].reshape(-1)


def count_bound_violations_per_step(objective, trace, schedule):
    """The one-step bound checked one step at a time, with scalar norms,
    bounds and losses: the oracle for `theory.count_bound_violations`."""
    L1, mu = objective.L1, objective.mu
    w_star = objective.center
    violations = 0
    checked = 0
    for t in range(len(trace) - 1):
        delta = float(np.linalg.norm(trace[t] - w_star))
        eta = schedule.at(t + 1)
        bound = theorem1_bound(TheoryParams(L1, mu, eta, delta))
        if bound <= 0.0:
            continue
        checked += 1
        observed = objective.loss(trace[t + 1])
        if observed > bound * (1.0 + BOUND_REL_SLACK) + 1e-15:
            violations += 1
    return violations, checked
