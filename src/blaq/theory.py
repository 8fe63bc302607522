"""Numeric checks of the convergence bound and the mixing-range claim.

Runs the quantized optimizers on diagonal positive-definite quadratics
with known smoothness/strong-convexity constants, evaluates the one-step
loss bound along the trajectory, and compares final losses between the
backtracking and baseline optimizers for mixing coefficients drawn
inside the admissible interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curvature import CurvatureState, LrSchedule
from .errors import ConfigError
from .optimizers import BlaqConfig, LayerQuantState, step
from .quantizer import QuantGrid, project

# Relative slack for the trajectory bound check; float noise only, the
# inequality itself is asserted as stated.
BOUND_REL_SLACK = 1e-9

# Largest fp-iterate trace, (steps + 1) x dim floats, one suite run keeps.
MAX_TRACE_FLOATS = 2 ** 24


@dataclass
class TheoryParams:
    """Constants entering the convergence bound."""

    L1: float
    mu: float
    eta: float
    delta: float

    def __post_init__(self):
        if self.L1 <= 0 or self.mu <= 0 or self.eta <= 0 or self.delta < 0:
            raise ValueError("L1, mu, eta must be positive and delta non-negative")
        if self.mu > self.L1:
            raise ValueError(f"mu={self.mu} exceeds L1={self.L1}")


def theorem1_bound(p):
    """One-step optimality-gap bound: (L1 + L1^3 eta^2 - 2 mu^2 eta)/2 * delta^2."""
    return 0.5 * (p.L1 + p.L1**3 * p.eta**2 - 2.0 * p.mu**2 * p.eta) * p.delta**2


class Interval(NamedTuple):
    lower: float
    upper: float

    @property
    def empty(self):
        return self.lower >= self.upper

    def contains(self, x):
        return self.lower < x < self.upper


def theorem2_region(L1, eta):
    """Open interval of mixing coefficients (2/(L1*eta) - 1, 1).

    Empty exactly when L1*eta <= 1.
    """
    if L1 <= 0 or eta <= 0:
        raise ValueError("L1 and eta must be positive")
    return Interval(2.0 / (L1 * eta) - 1.0, 1.0)


class DiagonalQuadratic:
    """loss(w) = 0.5 * sum_i lam_i (w_i - c_i)^2 with lam > 0."""

    def __init__(self, lam, center):
        self.lam = np.asarray(lam, dtype=np.float64)
        self.center = np.asarray(center, dtype=np.float64)
        if self.lam.shape != self.center.shape or np.any(self.lam <= 0):
            raise ValueError("lam and center must match and lam must be positive")

    @property
    def L1(self):
        return float(self.lam.max())

    @property
    def mu(self):
        return float(self.lam.min())

    @property
    def dim(self):
        return len(self.lam)

    def loss(self, w):
        r = np.asarray(w) - self.center
        return 0.5 * float(np.dot(self.lam, r * r))

    def grad(self, w):
        return self.lam * (np.asarray(w) - self.center)


def quantized_loss_floor(objective, grid):
    """Minimum of the loss over scaled codes.

    The loss is the lam-weighted squared error to the center, so the
    exact projection of the center under weights lam is the optimum.
    Returns (loss, alpha, beta) at the optimum.
    """
    code = project(objective.center, objective.lam, grid, 1)
    return objective.loss(code.w_hat()), code.alpha, code.beta


def _run_quantized(objective, kind, grid, a, m, steps, schedule, beta2, eps, w0):
    """Run one optimizer; returns (final state, fp-iterate trace)."""
    w0 = np.asarray(w0, dtype=np.float64)
    curv = CurvatureState(len(w0), schedule, beta2=beta2, eps=eps)
    state = LayerQuantState.initialize(w0, grid, curv, m=m)
    cfg = BlaqConfig(grid=grid, a=a, m=m)
    trace = [state.w.copy()]
    for _ in range(steps):
        step(kind, state, objective.grad, cfg)
        trace.append(state.w.copy())
    return state, np.array(trace)


def compare_convergence(objective, grid, a, steps, schedule=None, m=5,
                        beta2=0.99, eps=1e-8, w0=None):
    """Run both optimizers from identical initialization and schedule.

    Returns the loss of each final quantized iterate as
    (loss_blaq, loss_laq).
    """
    if schedule is None:
        schedule = LrSchedule.constant(1.2 / objective.L1)
    if w0 is None:
        w0 = objective.center + 1.0
    blaq_state, _ = _run_quantized(objective, "blaq", grid, a, m, steps, schedule, beta2, eps, w0)
    laq_state, _ = _run_quantized(objective, "laq", grid, a, m, steps, schedule, beta2, eps, w0)
    return objective.loss(blaq_state.w_hat()), objective.loss(laq_state.w_hat())


def count_bound_violations(objective, trace, schedule):
    """Check the one-step bound along a trajectory.

    At step t the distance delta = ||w^t - w*|| instantiates the bound on
    loss(w^{t+1}) - loss(w*); checked wherever the bound is positive.
    Returns (violations, checked).
    """
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


def draw_instance(rng, dim=4):
    """One random quadratic plus run hyperparameters.

    Constants are drawn so the admissible mixing interval is non-empty
    (L1*eta > 1) and the comparison reflects convergence behavior rather
    than representation error: center magnitudes are close to each other
    (so a scaled sign code can express the optimum well), steps are a
    little above the 1/L1 threshold, and the mixing coefficient sits in
    the admissible interval away from the degenerate a = 1 endpoint.
    """
    L1 = float(np.exp(rng.uniform(np.log(5.0), np.log(10.0))))
    mu = float(L1 * rng.uniform(0.15, 0.40))
    lam = np.concatenate([[mu, L1], np.exp(rng.uniform(np.log(mu), np.log(L1), size=dim - 2))])
    rng.shuffle(lam)
    signs = rng.choice([-1.0, 1.0], size=dim)
    center = signs * rng.uniform(0.85, 0.95, size=dim)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    w0 = center + direction * rng.uniform(1.5, 2.5)
    c_eta = rng.uniform(1.05, 1.2)
    eta0 = c_eta / L1
    lo = max(theorem2_region(L1, eta0).lower, 0.0)
    a = float(rng.uniform(lo + 0.02, 0.93))
    return {"lam": lam, "center": center, "w0": w0, "eta0": eta0, "a": a}


def check_instance(lam, center, w0, eta0, a, cfg, steps):
    """Run one instance under a validated config; returns a JSON-ready row.

    If the admissible interval for the given (L1, eta0) is empty the
    instance is reported as skipped rather than failed.
    """
    objective = DiagonalQuadratic(lam, center)
    region = theorem2_region(objective.L1, eta0)
    row = {
        "L1": objective.L1,
        "mu": objective.mu,
        "eta": eta0,
        "a": a,
        "delta_definition": "||w_t - w_star|| at the step being bounded",
    }
    if region.empty:
        row["skipped"] = True
        row["reason"] = "empty mixing interval (L1*eta <= 1)"
        return row
    grid = QuantGrid(cfg.bitwidth)
    schedule = LrSchedule.constant(eta0)
    blaq_state, blaq_trace = _run_quantized(
        objective, "blaq", grid, a, cfg.m, steps, schedule, cfg.beta2, cfg.eps, w0)
    laq_state, _ = _run_quantized(
        objective, "laq", grid, a, cfg.m, steps, schedule, cfg.beta2, cfg.eps, w0)
    violations, checked = count_bound_violations(objective, blaq_trace, schedule)
    row.update({
        "skipped": False,
        "a_in_region": region.contains(a),
        "loss_blaq": objective.loss(blaq_state.w_hat()),
        "loss_laq": objective.loss(laq_state.w_hat()),
        "bound_violations": violations,
        "bound_checked_steps": checked,
    })
    return row


def run_suite(cfg, steps):
    """Draw and check the suite of a validated config, `steps` steps per
    run; returns a JSON-ready report.  A run's trace may hold at most
    MAX_TRACE_FLOATS floats, checked before the first draw.
    """
    trace_floats = (steps + 1) * cfg.theory_dim
    if trace_floats > MAX_TRACE_FLOATS:
        raise ConfigError(f"theory_dim {cfg.theory_dim} over {steps} steps needs a trace of "
                          f"{trace_floats} floats, above the limit of {MAX_TRACE_FLOATS}")
    rng = np.random.default_rng(cfg.seed)
    rows = [check_instance(**draw_instance(rng, dim=cfg.theory_dim), cfg=cfg, steps=steps)
            for _ in range(cfg.n_instances)]
    ran = [r for r in rows if not r.get("skipped")]
    ordered = sum(1 for r in ran if r["loss_blaq"] <= r["loss_laq"] + 1e-9)
    return {
        "n_instances": cfg.n_instances,
        "n_ran": len(ran),
        "n_skipped": len(rows) - len(ran),
        "blaq_not_worse": ordered,
        "total_bound_violations": sum(r["bound_violations"] for r in ran),
        "instances": rows,
    }
