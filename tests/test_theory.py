"""Convergence-bound formula, admissible interval, and suite machinery."""

import numpy as np
import pytest

from blaq.config import config_from_dict
from blaq.curvature import LrSchedule
from blaq.quantizer import QuantGrid, exhaustive_project
from blaq.theory import (DiagonalQuadratic, TheoryParams, check_instance,
                         compare_convergence, count_bound_violations,
                         draw_instance, quantized_loss_floor, run_suite,
                         theorem1_bound, theorem2_region)


class TestBoundFormula:
    def test_spot_value(self):
        assert theorem1_bound(TheoryParams(L1=2.0, mu=1.0, eta=0.25, delta=1.0)) == 1.0

    def test_zero_distance(self):
        assert theorem1_bound(TheoryParams(L1=2.0, mu=1.0, eta=0.25, delta=0.0)) == 0.0

    def test_balanced_case(self):
        assert theorem1_bound(TheoryParams(L1=1.0, mu=1.0, eta=1.0, delta=1.0)) == 0.0

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            L1 = rng.uniform(0.5, 10.0)
            p = TheoryParams(L1=L1, mu=rng.uniform(0.1, L1), eta=rng.uniform(0.01, 2.0),
                             delta=rng.uniform(0.0, 5.0))
            reference = (p.L1 + p.L1 * p.L1 * p.L1 * p.eta * p.eta
                         - 2.0 * p.mu * p.mu * p.eta) / 2.0 * p.delta * p.delta
            assert theorem1_bound(p) == pytest.approx(reference, rel=1e-15)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TheoryParams(L1=1.0, mu=2.0, eta=0.1, delta=1.0)
        with pytest.raises(ValueError):
            TheoryParams(L1=-1.0, mu=0.5, eta=0.1, delta=1.0)


class TestMixingRegion:
    def test_example_values(self):
        region = theorem2_region(2.0, 0.9)
        assert region.lower == pytest.approx(2.0 / 1.8 - 1.0)
        assert region.upper == 1.0
        assert not region.empty

    def test_empty_region(self):
        region = theorem2_region(1.0, 0.5)
        assert region.lower == 3.0
        assert region.empty

    def test_boundary_case(self):
        region = theorem2_region(4.0, 0.5)
        assert region.lower == 0.0
        assert not region.empty
        assert region.contains(0.5)
        assert not region.contains(0.0)
        assert not region.contains(1.0)

    def test_empty_iff_leta_at_most_one(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            L1, eta = rng.uniform(0.1, 5.0, size=2)
            assert theorem2_region(L1, eta).empty == (L1 * eta <= 1.0)


class TestQuadraticFamily:
    def test_loss_and_grad(self):
        q = DiagonalQuadratic([10.0, 2.0], [0.054, -0.055])
        assert q.L1 == 10.0 and q.mu == 2.0
        assert q.loss([0.054, -0.055]) == 0.0
        assert np.allclose(q.grad([0.0, 0.0]), [-0.54, 0.11])

    def test_drawn_instances_have_exact_constants(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inst = draw_instance(rng)
            q = DiagonalQuadratic(inst["lam"], inst["center"])
            assert q.L1 == inst["lam"].max()
            assert q.mu == inst["lam"].min()
            assert not theorem2_region(q.L1, inst["eta0"]).empty
            assert theorem2_region(q.L1, inst["eta0"]).contains(inst["a"])

    def test_quantized_floor_on_the_2d_toy(self):
        q = DiagonalQuadratic([10.0, 2.0], [0.054, -0.055])
        loss, alpha, beta = quantized_loss_floor(q, QuantGrid(1))
        assert list(beta) == [1.0, -1.0]
        assert alpha == pytest.approx(0.325 / 6.0, abs=1e-15)
        assert loss == pytest.approx(5e-6 / 6.0, rel=1e-12)

    def test_floor_matches_exhaustive_search(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3):
            for _ in range(30):
                q = DiagonalQuadratic(rng.uniform(0.5, 10.0, size=3), rng.normal(size=3))
                loss, alpha, beta = quantized_loss_floor(q, QuantGrid(k))
                ref, _, _ = exhaustive_project(q.center, q.lam, QuantGrid(k))
                assert alpha > 0.0
                assert loss <= ref + 1e-12 * max(1.0, ref)

    def test_widest_grid_floor_is_cheap(self):
        # the 2-D toy at 16 bits: 65,534 breakpoints, no code enumeration
        q = DiagonalQuadratic([10.0, 2.0], [0.054, -0.055])
        loss, _, _ = quantized_loss_floor(q, QuantGrid(16))
        assert 0.0 <= loss <= quantized_loss_floor(q, QuantGrid(8))[0] + 1e-12


class TestCompareConvergence:
    def test_2d_quadratic_ordering(self):
        q = DiagonalQuadratic([10.0, 2.0], [0.054, -0.055])
        region = theorem2_region(q.L1, 0.12)
        assert region.contains(0.75)
        loss_blaq, loss_laq = compare_convergence(
            q, QuantGrid(1), a=0.75, steps=300,
            schedule=LrSchedule.constant(0.12), beta2=0.95,
            w0=np.array([1.0, 1.0]))
        assert loss_blaq <= loss_laq + 1e-9

    def test_a_one_endpoint_reported_not_asserted(self):
        q = DiagonalQuadratic([10.0, 2.0], [0.054, -0.055])
        loss_blaq, loss_laq = compare_convergence(
            q, QuantGrid(1), a=1.0, steps=100,
            schedule=LrSchedule.constant(0.12), beta2=0.95,
            w0=np.array([1.0, 1.0]))
        assert np.isfinite(loss_blaq) and np.isfinite(loss_laq)

    def test_isotropic_symmetric_losses_agree(self):
        q = DiagonalQuadratic(np.ones(4), np.zeros(4))
        floor, _, _ = quantized_loss_floor(q, QuantGrid(1))
        assert floor == pytest.approx(0.0, abs=1e-15)
        schedule = LrSchedule.decayed(0.5, hold=50, factor=0.5, every=10, total=300)
        loss_blaq, loss_laq = compare_convergence(
            q, QuantGrid(1), a=0.6, steps=300, schedule=schedule,
            beta2=0.95, w0=np.full(4, 1.5))
        assert abs(loss_blaq - loss_laq) <= 1e-9


def theory_cfg(**keys):
    return config_from_dict({"experiment": "theory-check", **keys})


class TestSuite:
    def test_skipped_when_region_empty(self):
        row = check_instance(lam=np.array([1.0, 2.0]), center=np.array([0.9, -0.9]),
                             w0=np.array([1.5, -1.5]), eta0=0.1, a=0.5,
                             cfg=theory_cfg(), steps=300)
        assert row["skipped"] is True
        assert "empty" in row["reason"]

    def test_instance_row_fields(self):
        rng = np.random.default_rng(3)
        row = check_instance(cfg=theory_cfg(), steps=80, **draw_instance(rng))
        for key in ("L1", "mu", "eta", "a", "loss_blaq", "loss_laq",
                    "bound_violations", "bound_checked_steps", "delta_definition"):
            assert key in row
        assert row["a_in_region"]

    def test_small_suite_structure(self):
        report = run_suite(theory_cfg(n_instances=6, seed=1), 80)
        assert report["n_instances"] == 6
        assert report["n_ran"] + report["n_skipped"] == 6
        assert len(report["instances"]) == 6
        assert 0 <= report["blaq_not_worse"] <= report["n_ran"]

    def test_bound_checker_skips_zero_distance_steps(self):
        # sitting exactly at the minimizer gives delta = 0, bound = 0,
        # and the step is skipped rather than checked
        q = DiagonalQuadratic([2.0, 1.0], [0.3, -0.4])
        trace = np.array([q.center, q.center, q.center])
        violations, checked = count_bound_violations(q, trace, LrSchedule.constant(0.1))
        assert violations == 0 and checked == 0

    def test_bound_checker_counts(self):
        rng = np.random.default_rng(4)
        inst = draw_instance(rng)
        q = DiagonalQuadratic(inst["lam"], inst["center"])
        schedule = LrSchedule.constant(inst["eta0"])
        from blaq.theory import _run_quantized
        _, trace = _run_quantized(q, "blaq", QuantGrid(1), inst["a"], 5, 60,
                                  schedule, 0.95, 1e-8, inst["w0"])
        violations, checked = count_bound_violations(q, trace, schedule)
        assert checked > 0
        assert violations == 0
