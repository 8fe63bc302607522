"""Level grids and the alternating scaled projection against brute force."""

import numpy as np
import pytest

from blaq import quantizer
from blaq.buffers import IN_PLACE_MIN_SIZE
from blaq.errors import NumericError
from blaq.quantizer import (QuantGrid, ScaledCode, _sign, exhaustive_project,
                            nearest_level, project, weighted_objective,
                            ZERO_VECTOR_ALPHA)
from helpers import same_bits


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


# -0.0, +-subnormals (the smallest and the largest), NaN of both signs, infinities
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     -2.2250738585072009e-308, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0])


def _nearest_level_with_where(grid, x):
    """nearest_level as written with np.where and one expression."""
    arr = np.asarray(x, dtype=np.float64)
    sign = np.where(arr < 0.0, -1.0, 1.0)
    n = grid.resolution
    idx = np.minimum(np.maximum(np.floor(np.abs(arr) * n + 0.5), 1.0), float(n))
    out = sign * idx / n
    return float(out) if arr.ndim == 0 else out


class TestBranchFreeSign:
    @pytest.mark.parametrize("copies", [1, IN_PLACE_MIN_SIZE // len(SPECIALS) + 1])
    def test_sign_equals_where_on_special_values(self, copies):
        x = np.tile(SPECIALS, copies)
        assert same_bits(_sign(x), np.where(x < 0.0, -1.0, 1.0))
        assert list(_sign(x)[:2]) == [1.0, 1.0]

    def test_sign_equals_where_on_random_values(self):
        x = np.random.default_rng(5).normal(size=10_000) * 10.0 ** np.arange(-150, 150, 0.03)
        assert same_bits(_sign(x), np.where(x < 0.0, -1.0, 1.0))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_nearest_level_bit_for_bit(self, k):
        grid = QuantGrid(k)
        rng = np.random.default_rng(k)
        x = np.concatenate([SPECIALS, rng.uniform(-1.5, 1.5, size=2000),
                            nearest_level(grid, rng.uniform(-1, 1, size=50)) * 1.0])
        assert same_bits(nearest_level(grid, x), _nearest_level_with_where(grid, x))
        for v in SPECIALS:
            got, want = nearest_level(grid, v), _nearest_level_with_where(grid, v)
            assert type(got) is float and same_bits(got, want)
            assert type(nearest_level(grid, np.asarray(v))) is float

    @pytest.mark.parametrize("copies", [1, IN_PLACE_MIN_SIZE // 6 + 1])
    def test_one_bit_code_of_signed_zeros_and_subnormals(self, copies):
        w = np.tile(SPECIALS[:6], copies)
        code = project(w, np.ones(w.size), QuantGrid(1))
        assert same_bits(code.beta, np.where(w < 0.0, -1.0, 1.0))


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
        code = project(w, d, QuantGrid(1))
        assert list(code.beta) == [1.0, -1.0]
        assert code.alpha == 0.4
        assert abs(abs(alpha_ref) - 0.4) < 1e-15
        assert weighted_objective(w, d, code.alpha, code.beta) <= obj + 1e-15

    def test_fixed_point_recovers_code(self):
        grid = QuantGrid(2)
        alpha, beta = 0.37, np.array([1.0, -0.5, 0.5, -1.0])
        w = alpha * beta
        d = np.array([2.0, 1.0, 0.5, 3.0])
        code = project(w, d, grid)
        assert np.array_equal(code.beta, beta)
        assert abs(code.alpha - alpha) < 1e-15
        assert weighted_objective(w, d, code.alpha, code.beta) == 0.0

    def test_example_k2_matches_exhaustive(self):
        w, d = np.array([1.0, 0.25]), np.array([2.0, 1.0])
        code = project(w, d, QuantGrid(2))
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
            code = project(w, d, QuantGrid(k))
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
            base = project(w, d, grid)
            scaled = project(c * w, d, grid)
            assert np.array_equal(base.beta, scaled.beta)
            assert np.isclose(scaled.alpha, c * base.alpha, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        grid = QuantGrid(2)
        for _ in range(50):
            w = rng.normal(size=5)
            d = rng.uniform(0.1, 2.0, size=5)
            perm = rng.permutation(5)
            base = project(w, d, grid)
            permuted = project(w[perm], d[perm], grid)
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
            code = project(w, d, grid)
            beta_expected = np.where(w >= 0, 1.0, -1.0)
            alpha_expected = float(np.dot(d, np.abs(w)) / d.sum())
            assert np.array_equal(code.beta, beta_expected)
            assert code.alpha == alpha_expected

    def test_zero_vector_degenerate(self):
        code = project(np.zeros(3), np.ones(3), QuantGrid(1))
        assert code.alpha == ZERO_VECTOR_ALPHA
        assert list(code.beta) == [1.0, 1.0, 1.0]

    def test_domain_errors(self):
        w = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            project(w, np.array([1.0, 0.0]), QuantGrid(1))
        with pytest.raises(ValueError):
            project(w, np.array([1.0, -1.0]), QuantGrid(1))
        with pytest.raises(ValueError):
            project(w, np.ones(3), QuantGrid(1))

    # lengths on both sides of the size where the zero test changes form
    CHECK_SIZES = [1, 4, IN_PLACE_MIN_SIZE, 3 * IN_PLACE_MIN_SIZE]

    @pytest.mark.parametrize("n", CHECK_SIZES)
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.0, -1.0, -np.inf])
    def test_non_positive_weight_keeps_its_message(self, n, bad):
        w = np.linspace(-1.0, 2.0, n)
        d = np.ones(n)
        d[n // 3] = bad
        with pytest.raises(ValueError) as exc:
            project(w, d, QuantGrid(1))
        assert str(exc.value) == "all weights d must be strictly positive"

    @pytest.mark.parametrize("n", CHECK_SIZES)
    def test_subnormal_and_infinite_weights_accepted(self, n):
        w = np.ones(n)
        for tiny in (np.full(n, 5e-324), np.concatenate([np.ones(n - 1), [5e-324]])):
            code = project(w, tiny, QuantGrid(1))
            assert code.alpha == 1.0 and (code.beta == 1.0).all()
        # an infinite weight passes the argument check; the scale is then NaN
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match="projection scale is not finite: nan"):
            project(w, np.full(n, np.inf), QuantGrid(1))

    @pytest.mark.parametrize("n", CHECK_SIZES)
    def test_signed_zero_vector_takes_the_zero_code(self, n):
        w = np.zeros(n)
        w[::2] = -0.0
        code = project(w, np.ones(n), QuantGrid(2))
        assert code.alpha == ZERO_VECTOR_ALPHA and (code.beta == 1.0).all()

    @pytest.mark.parametrize("n", CHECK_SIZES)
    def test_one_nan_weight_is_not_the_zero_code(self, n):
        w = np.zeros(n)
        w[n - 1] = np.nan
        with pytest.raises(NumericError) as exc:
            project(w, np.ones(n), QuantGrid(1))
        assert str(exc.value) == "projection scale is not finite: nan"

    @pytest.mark.parametrize("k, w", [
        (1, [np.inf, 1.0]), (1, [1e308, 1e308]), (1, [np.nan, 1.0]),
        (2, [np.inf, 1.0]), (2, [1e308, 1e308]), (2, [np.nan, 1.0]),
    ])
    def test_non_finite_scale_raises(self, k, w):
        # an infinity, a NaN or an overflowing sum(d*|w|) leaves no finite scale
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
            project(np.array(w), np.ones(2), QuantGrid(k))

    def test_underflowing_scale_raises(self):
        # (d . |w|) / sum(d) of [5e-324, 0] rounds to 0: no positive scale
        with pytest.raises(NumericError, match="projection scale is not positive: 0.0"):
            project(np.array([5e-324, 0.0]), np.ones(2), QuantGrid(1))

    def test_subnormal_weights_on_a_long_sweep(self):
        # the bucket width of 20,000 weights of 5e-324 rounds to 0; the
        # sweep falls back to sorting every breakpoint
        w = np.full(20000, 5e-324)
        with np.errstate(all="ignore"):
            code = project(w, np.ones_like(w), QuantGrid(2))
        assert code.alpha == 5e-324 and (code.beta == 1.0).all()

    def test_underflowing_sweep_weights_raise(self):
        # sum(d) / n^2 of the 8-bit sweep rounds to 0
        with pytest.raises(NumericError, match="projection weights underflow"):
            project(np.array([1.0]), np.array([1e-320]), QuantGrid(8))


class TestBreakpointSweep:
    def test_matches_exhaustive_three_and_four_bits(self):
        rng = np.random.default_rng(12)
        for k, max_n in ((3, 4), (4, 3)):
            grid = QuantGrid(k)
            for _ in range(60):
                n = int(rng.integers(1, max_n + 1))
                w = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
                d = rng.uniform(0.1, 5.0, size=n)
                code = project(w, d, grid)
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
            code = project(w, d, QuantGrid(k))
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
            code = project(w, d, grid)
            assert np.array_equal(code.beta, s)
            assert code.alpha == float(np.dot(d, w * s) / np.dot(d, s * s))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_long_vector_beats_a_dense_scale_scan(self, k):
        rng = np.random.default_rng(15 + k)
        grid = QuantGrid(k)
        w = rng.normal(size=500) * rng.uniform(0.1, 2.0, size=500)
        d = rng.uniform(0.1, 5.0, size=500)
        code = project(w, d, grid)
        obj = weighted_objective(w, d, code.alpha, code.beta)
        scan = np.geomspace(1e-3, 3.0 * np.abs(w).max(), 4000)
        best_scan = min(weighted_objective(w, d, a, nearest_level(grid, w / a)) for a in scan)
        assert obj <= best_scan


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
        code = project(w, d, QuantGrid(1))
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
            code = project(w, d, QuantGrid(1))
            assert code.alpha == alpha
            assert code.beta.tobytes() == beta.tobytes()


def _weights(kind, m, rng):
    """A weight vector of one of the shapes a sweep must handle."""
    if kind == "normal":
        return rng.normal(size=m)
    if kind == "heavy":
        return rng.standard_t(2, size=m)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size=m)
    if kind == "rounded":                       # many repeated magnitudes
        return np.round(rng.normal(size=m), 2)
    if kind == "zeros":
        w = rng.normal(size=m)
        w[rng.random(m) < 0.1] = 0.0
        return w
    if kind == "equal":                         # every breakpoint of a level step equal
        return 0.37 * rng.choice([-1.0, 1.0], size=m)
    raise ValueError(kind)


WEIGHT_KINDS = ["normal", "heavy", "uniform", "rounded", "zeros", "equal"]


def _whole_sort_code(monkeypatch, w, d, grid):
    """project with every sweep sorting all of its breakpoints."""
    with monkeypatch.context() as patch:
        patch.setattr(quantizer, "BUCKET_SWEEP_MIN", 2 ** 62)
        return project(w, d, grid)


def _same_code(a, b):
    return same_bits(a.alpha, b.alpha) and same_bits(a.beta, b.beta)


class TestBucketedSweep:
    """The sweep that sorts only the buckets able to hold the best scale."""

    @pytest.mark.parametrize("block", [quantizer.BUCKET_BLOCK, 2])
    @pytest.mark.parametrize("k, max_n", [(2, 6), (3, 4), (4, 3)])
    def test_matches_exhaustive_on_small_vectors(self, monkeypatch, block, k, max_n):
        monkeypatch.setattr(quantizer, "BUCKET_SWEEP_MIN", 1)
        monkeypatch.setattr(quantizer, "BUCKET_BLOCK", block)
        rng = np.random.default_rng(40 + k)
        grid = QuantGrid(k)
        for _ in range(40):
            n = int(rng.integers(1, max_n + 1))
            w = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
            w[rng.random(n) < 0.2] = 0.0
            d = rng.uniform(0.1, 5.0, size=n)
            if not w.any():
                continue
            code = project(w, d, grid)
            obj = weighted_objective(w, d, code.alpha, code.beta)
            ref, _, _ = exhaustive_project(w, d, grid)
            assert obj <= ref + 1e-12 * max(1.0, ref)

    @pytest.mark.parametrize("block", [quantizer.BUCKET_BLOCK, 7])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_candidates_match_the_whole_sort_on_short_vectors(self, monkeypatch, block, k):
        # 100-400 weights: the candidates are few enough to be sorted on
        # their own in most cases, and every block shape is taken
        rng = np.random.default_rng(150 + k)   # its cases include peaks inside a bucket
        grid = QuantGrid(k)
        calls = []
        sums = quantizer._candidate_sums

        def recording(*args):
            out = sums(*args)
            calls.append(out is not None)
            return out

        for case in range(80):
            m = int(rng.integers(100, 401))
            w = _weights(WEIGHT_KINDS[int(rng.integers(len(WEIGHT_KINDS)))], m, rng)
            # d over twelve decades puts sharp peaks inside buckets
            d = 10.0 ** rng.uniform(-6.0, 6.0, size=m) if case % 2 else rng.uniform(0.1, 5.0, size=m)
            ref = _whole_sort_code(monkeypatch, w, d, grid)
            with monkeypatch.context() as patch:
                patch.setattr(quantizer, "BUCKET_SWEEP_MIN", 1)
                patch.setattr(quantizer, "BUCKET_BLOCK", block)
                patch.setattr(quantizer, "_candidate_sums", recording)
                code = project(w, d, grid)
            assert _same_code(code, ref)
        assert sum(calls) >= 40

    @pytest.mark.parametrize("kind", WEIGHT_KINDS + ["wide-d"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bit_for_bit_with_the_whole_sort_on_a_layer(self, monkeypatch, kind, k):
        rng = np.random.default_rng(60 + k)
        m = 200_000
        if kind == "wide-d":                        # d over twelve decades
            w = rng.normal(size=m)
            d = 10.0 ** rng.uniform(-6.0, 6.0, size=m)
        else:
            w = _weights(kind, m, rng)
            d = rng.uniform(0.1, 5.0, size=m)
        grid = QuantGrid(k)
        assert _same_code(project(w, d, grid), _whole_sort_code(monkeypatch, w, d, grid))

    def test_few_breakpoints_reach_a_sort(self, monkeypatch):
        rng = np.random.default_rng(70)
        m = 200_000
        w, d = rng.normal(size=m), rng.uniform(0.1, 5.0, size=m)
        sorted_sizes = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            sorted_sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        project(w, d, QuantGrid(2))
        assert sorted_sizes and sum(sorted_sizes) < m // 8
