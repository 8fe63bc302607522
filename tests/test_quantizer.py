"""Level grids and the alternating scaled projection against brute force."""

import numpy as np
import pytest

from blaq.errors import NumericError
from blaq.quantizer import (QuantGrid, ScaledCode, exhaustive_project,
                            nearest_level, project, weighted_objective,
                            ZERO_VECTOR_ALPHA)


class TestQuantGrid:
    def test_one_bit_levels(self):
        assert list(QuantGrid(1).levels) == [-1.0, 1.0]

    def test_two_bit_levels(self):
        assert list(QuantGrid(2).levels) == [-1.0, -0.5, 0.5, 1.0]

    def test_three_bit_levels(self):
        expected = [-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0]
        assert list(QuantGrid(3).levels) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_structure(self, k):
        levels = QuantGrid(k).levels
        assert len(levels) == 2 ** k
        assert levels[0] == -1.0 and levels[-1] == 1.0
        assert 0.0 not in levels
        assert np.allclose(levels, -levels[::-1])

    def test_rejects_bad_bitwidth(self):
        for bad in (0, -1, 1.5, "2"):
            with pytest.raises(ValueError):
                QuantGrid(bad)


class TestNearestLevel:
    def test_simple_rounding(self):
        assert nearest_level(QuantGrid(2), 0.6) == 0.5

    def test_clamp_beyond_one(self):
        assert nearest_level(QuantGrid(1), -2.0) == -1.0
        assert nearest_level(QuantGrid(3), 7.5) == 1.0

    def test_tie_rounds_away_from_zero(self):
        assert nearest_level(QuantGrid(2), 0.75) == 1.0
        assert nearest_level(QuantGrid(2), -0.75) == -1.0

    def test_zero_maps_to_smallest_positive(self):
        assert nearest_level(QuantGrid(2), 0.0) == 0.5
        assert nearest_level(QuantGrid(1), 0.0) == 1.0

    def test_matches_argmin_on_random_values(self):
        rng = np.random.default_rng(0)
        for k in (1, 2, 3):
            grid = QuantGrid(k)
            for x in rng.uniform(-1.5, 1.5, size=200):
                got = nearest_level(grid, x)
                dists = np.abs(grid.levels - x)
                assert abs(x - got) == dists.min()

    def test_vectorized(self):
        grid = QuantGrid(2)
        out = nearest_level(grid, np.array([0.6, -0.75, 2.0]))
        assert list(out) == [0.5, -1.0, 1.0]


class TestScaledCode:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            ScaledCode(0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            ScaledCode(-0.3, np.array([1.0]))

    def test_w_hat(self):
        code = ScaledCode(0.5, np.array([1.0, -1.0]))
        assert list(code.w_hat()) == [0.5, -0.5]


class TestProject:
    def test_one_bit_closed_form_example(self):
        # brute force over the four sign codes gives alpha = 0.4
        w, d = np.array([0.3, -0.5]), np.array([1.0, 1.0])
        obj, alpha_ref, beta_ref = exhaustive_project(w, d, QuantGrid(1))
        code = project(w, d, QuantGrid(1), m=1)
        assert list(code.beta) == [1.0, -1.0]
        assert code.alpha == 0.4
        assert abs(abs(alpha_ref) - 0.4) < 1e-15
        assert weighted_objective(w, d, code.alpha, code.beta) <= obj + 1e-15

    def test_fixed_point_recovers_code(self):
        grid = QuantGrid(2)
        alpha, beta = 0.37, np.array([1.0, -0.5, 0.5, -1.0])
        w = alpha * beta
        d = np.array([2.0, 1.0, 0.5, 3.0])
        code = project(w, d, grid, m=5)
        assert np.array_equal(code.beta, beta)
        assert abs(code.alpha - alpha) < 1e-15
        assert weighted_objective(w, d, code.alpha, code.beta) == 0.0

    def test_example_k2_matches_exhaustive(self):
        w, d = np.array([1.0, 0.25]), np.array([2.0, 1.0])
        code = project(w, d, QuantGrid(2), m=5)
        obj = weighted_objective(w, d, code.alpha, code.beta)
        ref, _, _ = exhaustive_project(w, d, QuantGrid(2))
        assert obj <= ref + 1e-12

    def test_oracle_equivalence_200_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 3))
            w = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
            d = rng.uniform(0.1, 5.0, size=n)
            code = project(w, d, QuantGrid(k), m=10)
            obj = weighted_objective(w, d, code.alpha, code.beta)
            ref, _, _ = exhaustive_project(w, d, QuantGrid(k))
            assert obj <= ref + 1e-9

    def test_scale_covariance(self):
        rng = np.random.default_rng(9)
        grid = QuantGrid(2)
        for _ in range(50):
            w = rng.normal(size=4)
            d = rng.uniform(0.1, 2.0, size=4)
            c = float(rng.uniform(0.1, 10.0))
            base = project(w, d, grid, m=5)
            scaled = project(c * w, d, grid, m=5)
            assert np.array_equal(base.beta, scaled.beta)
            assert np.isclose(scaled.alpha, c * base.alpha, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        grid = QuantGrid(2)
        for _ in range(50):
            w = rng.normal(size=5)
            d = rng.uniform(0.1, 2.0, size=5)
            perm = rng.permutation(5)
            base = project(w, d, grid, m=5)
            permuted = project(w[perm], d[perm], grid, m=5)
            # alpha comes from permuted reductions; equality holds to rounding
            assert np.isclose(permuted.alpha, base.alpha, rtol=1e-12)
            assert np.array_equal(permuted.beta, base.beta[perm])

    def test_one_bit_closed_form_1000_random(self):
        rng = np.random.default_rng(11)
        grid = QuantGrid(1)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            w = rng.normal(size=n)
            if not np.any(w):
                continue
            d = rng.uniform(0.05, 5.0, size=n)
            code = project(w, d, grid, m=1)
            beta_expected = np.where(w >= 0, 1.0, -1.0)
            alpha_expected = float(np.dot(d, np.abs(w)) / d.sum())
            assert np.array_equal(code.beta, beta_expected)
            assert code.alpha == alpha_expected

    def test_zero_vector_degenerate(self):
        code = project(np.zeros(3), np.ones(3), QuantGrid(1), m=5)
        assert code.alpha == ZERO_VECTOR_ALPHA
        assert list(code.beta) == [1.0, 1.0, 1.0]

    def test_domain_errors(self):
        w = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            project(w, np.array([1.0, 0.0]), QuantGrid(1), m=5)
        with pytest.raises(ValueError):
            project(w, np.array([1.0, -1.0]), QuantGrid(1), m=5)
        with pytest.raises(ValueError):
            project(w, np.ones(3), QuantGrid(1), m=5)
        with pytest.raises(ValueError):
            project(w, np.ones(2), QuantGrid(1), m=0)

    @pytest.mark.parametrize("k, w", [
        (1, [np.inf, 1.0]), (1, [1e308, 1e308]), (1, [np.nan, 1.0]),
        (2, [np.inf, 1.0]), (2, [1e308, 1e308]), (2, [np.nan, 1.0]),
    ])
    def test_non_finite_scale_raises(self, k, w):
        # an infinity, a NaN or an overflowing sum(d*|w|) leaves no finite scale
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
            project(np.array(w), np.ones(2), QuantGrid(k), m=1)


class TestBreakpointSweep:
    def test_matches_exhaustive_three_and_four_bits(self):
        rng = np.random.default_rng(12)
        for k, max_n in ((3, 4), (4, 3)):
            grid = QuantGrid(k)
            for _ in range(60):
                n = int(rng.integers(1, max_n + 1))
                w = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
                d = rng.uniform(0.1, 5.0, size=n)
                code = project(w, d, grid, m=1)
                obj = weighted_objective(w, d, code.alpha, code.beta)
                ref, _, _ = exhaustive_project(w, d, grid)
                assert obj <= ref + 1e-12 * max(1.0, ref)

    @pytest.mark.parametrize("k", [2, 4])
    def test_equal_magnitudes_take_the_largest_levels(self, k):
        # every code with all levels equal fits exactly; the tie goes to level 1
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            w = 0.37 * rng.choice([-1.0, 1.0], size=n)
            d = rng.uniform(0.1, 5.0, size=n)
            code = project(w, d, QuantGrid(k), m=5)
            assert np.max(np.abs(code.beta)) == 1.0
            assert np.array_equal(code.beta, np.sign(w))

    def test_one_bit_is_the_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(14)
        grid = QuantGrid(1)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            w = rng.normal(size=n)
            d = rng.uniform(0.05, 5.0, size=n)
            s = np.sign(w)
            code = project(w, d, grid, m=5)
            assert np.array_equal(code.beta, s)
            assert code.alpha == float(np.dot(d, w * s) / np.dot(d, s * s))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_long_vector_beats_a_dense_scale_scan(self, k):
        rng = np.random.default_rng(15 + k)
        grid = QuantGrid(k)
        w = rng.normal(size=500) * rng.uniform(0.1, 2.0, size=500)
        d = rng.uniform(0.1, 5.0, size=500)
        code = project(w, d, grid, m=5)
        obj = weighted_objective(w, d, code.alpha, code.beta)
        scan = np.geomspace(1e-3, 3.0 * np.abs(w).max(), 4000)
        best_scan = min(weighted_objective(w, d, a, nearest_level(grid, w / a)) for a in scan)
        assert obj <= best_scan

    def test_m_is_validated_but_inert(self):
        rng = np.random.default_rng(16)
        w, d = rng.normal(size=40), rng.uniform(0.1, 2.0, size=40)
        first = project(w, d, QuantGrid(3), m=1)
        many = project(w, d, QuantGrid(3), m=50)
        assert first.alpha == many.alpha
        assert np.array_equal(first.beta, many.beta)


def _one_bit_by_the_sweep_formula(w, d):
    """The 1-bit code as the sweep path computed it: the code half-step
    from the scale sum(d|w|)/sum(d), then the scale half-step."""
    beta = nearest_level(QuantGrid(1), w / (float(np.dot(d, np.abs(w))) / float(d.sum())))
    return float(np.dot(d, w * beta) / np.dot(d, beta * beta)), beta


class TestOneBitDirect:
    @pytest.mark.parametrize("w", [
        [0.7], [-0.7], [-0.0, 2.0], [0.0, -3.0, 0.0], [-0.0, -0.0, 1e-3],
        [0.5, -0.0, 0.0, -0.25, 1.5],
    ])
    def test_matches_the_sweep_path_with_zeros(self, w):
        w = np.array(w)
        d = np.linspace(0.3, 2.0, len(w))
        alpha, beta = _one_bit_by_the_sweep_formula(w, d)
        code = project(w, d, QuantGrid(1), m=5)
        assert code.alpha == alpha
        assert code.beta.tobytes() == beta.tobytes()

    @pytest.mark.parametrize("n", [1, 200_704])
    def test_matches_the_sweep_path_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            w = rng.normal(size=n)
            w[rng.random(n) < 0.1] = 0.0
            w[rng.random(n) < 0.1] = -0.0
            d = rng.uniform(0.05, 5.0, size=n)
            if not w.any():
                continue
            alpha, beta = _one_bit_by_the_sweep_formula(w, d)
            code = project(w, d, QuantGrid(1), m=5)
            assert code.alpha == alpha
            assert code.beta.tobytes() == beta.tobytes()
