import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ideal_block_affinity
from iescluster.affinity import affinity_global, affinity_local, normalized_laplacian
from iescluster.errors import (
    DimensionError,
    InvalidParameterError,
    IsolatedPointsError,
)
from iescluster.linalg import pairwise_distances, symmetric_eigen
from iescluster.njw import build_affinity
from iescluster.scaling import estimate_global_sigma, estimate_local_sigmas

finite_floats = st.floats(min_value=-30, max_value=30, allow_nan=False)


def data_matrices(max_n=15, max_m=4):
    return st.tuples(
        st.integers(min_value=2, max_value=max_n),
        st.integers(min_value=1, max_value=max_m),
    ).flatmap(lambda nm: arrays(np.float64, nm, elements=finite_floats))


def global_oracle(data, sigma_sq, exponent):
    """The textbook expression, one temporary per step."""
    d = pairwise_distances(data)
    term = d**2 if exponent == 2 else d
    a = np.exp(-term / (2.0 * sigma_sq))
    np.fill_diagonal(a, 0.0)
    return a


def local_oracle(data, sigmas, exponent):
    """The textbook expression with the zero-scale limit filled in after."""
    d = pairwise_distances(data)
    term = d**2 if exponent == 2 else d
    denom = np.outer(sigmas, sigmas)
    zero = denom == 0.0
    a = np.exp(-term / np.where(zero, 1.0, denom))
    a[zero] = np.where(term[zero] == 0.0, 1.0, 0.0)
    np.fill_diagonal(a, 0.0)
    return a


def data_with_duplicates(rng, n=60, m=7):
    data = rng.normal(0, 3, (n, m))
    data[1] = data[2] = data[0]
    return data


class TestFusedAffinity:
    """The fused affinities and the Laplacian against the textbook
    expression, bit for bit, each built in its input's buffer."""

    @pytest.mark.parametrize("exponent", [1, 2])
    def test_global(self, rng, exponent):
        data = data_with_duplicates(rng)
        expected = global_oracle(data, 1.7, exponent)
        dist = pairwise_distances(data)
        a = affinity_global(dist, 1.7, exponent)
        assert np.array_equal(a, expected)
        assert a is dist  # the buffer became the affinity

    @pytest.mark.parametrize("exponent", [1, 2])
    def test_local(self, rng, exponent):
        data = data_with_duplicates(rng)
        # Zero scales on the duplicates and on one distinct point, plus a
        # pair whose product underflows to zero.
        sigmas = rng.uniform(0.5, 4.0, data.shape[0])
        sigmas[[0, 1, 5]] = 0.0
        sigmas[[7, 8]] = 1e-170
        expected = local_oracle(data, sigmas, exponent)
        dist = pairwise_distances(data)
        a = affinity_local(dist, sigmas, exponent)
        assert np.array_equal(a, expected)
        assert a is dist  # the buffer became the affinity

    @pytest.mark.parametrize("local", [False, True])
    def test_laplacian(self, rng, local):
        x = data_with_duplicates(rng)
        scaling = estimate_local_sigmas(x, pairwise_distances(x)) if local else estimate_global_sigma(x)
        a = build_affinity(pairwise_distances(x), scaling)
        inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        expected = a * np.outer(inv_sqrt, inv_sqrt)
        lap = normalized_laplacian(a)
        assert np.array_equal(lap, expected)
        assert lap is a  # a float64 affinity is scaled where it lies

    def test_laplacian_copies_other_input(self):
        a = ideal_block_affinity((3, 4)).astype(np.float32)
        before = a.copy()
        lap = normalized_laplacian(a)
        assert lap.dtype == np.float64
        assert np.array_equal(a, before)

    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            affinity_local(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(DimensionError):
            affinity_global(np.zeros((3, 2)), 1.0)
        # A rejected call leaves the buffer as it was.
        dist = pairwise_distances(np.eye(3))
        before = dist.copy()
        with pytest.raises(DimensionError):
            affinity_local(dist, [1.0, 1.0])
        assert np.array_equal(dist, before)


class TestAffinityGlobal:
    def test_identical_points(self):
        a = affinity_global(pairwise_distances([[1.0, 2.0], [1.0, 2.0]]), sigma_sq=3.0)
        assert a[0, 1] == 1.0
        assert a[0, 0] == 0.0 and a[1, 1] == 0.0

    def test_unit_distance_hand_value(self):
        # exp(-1^2 / (2 * 0.5)) = exp(-1)
        a = affinity_global(pairwise_distances([[0.0], [1.0]]), sigma_sq=0.5)
        assert a[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_huge_sigma_saturates(self, rng):
        data = rng.uniform(-5, 5, (8, 3))
        a = affinity_global(pairwise_distances(data), sigma_sq=1e12)
        off = a[~np.eye(8, dtype=bool)]
        assert np.all(off > 1 - 1e-9)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            affinity_global(pairwise_distances(np.eye(2)), sigma_sq=0.0)

    @pytest.mark.parametrize("sigma_sq", [np.inf, -np.inf, np.nan])
    def test_non_finite_sigma_rejected(self, sigma_sq):
        with pytest.raises(InvalidParameterError):
            affinity_global(pairwise_distances(np.eye(2)), sigma_sq=sigma_sq)

    def test_distance_exponent_one(self):
        # literal unsquared reading: exp(-1 / (2 * 0.5)) = exp(-1) for d=1,
        # and exp(-2/1) for d=2
        a = affinity_global(pairwise_distances([[0.0], [2.0]]), sigma_sq=0.5, distance_exponent=1)
        assert a[0, 1] == pytest.approx(math.exp(-2.0), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data_matrices(), st.floats(min_value=0.01, max_value=100))
    def test_bounds_symmetry_zero_diagonal(self, data, sigma_sq):
        a = affinity_global(pairwise_distances(data), sigma_sq)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert np.all((a >= 0) & (a <= 1))

    @settings(max_examples=30, deadline=None)
    @given(data_matrices(), st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, data, shift):
        a = affinity_global(pairwise_distances(data), 2.0)
        b = affinity_global(pairwise_distances(data + shift), 2.0)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


class TestAffinityLocal:
    def test_distance_equals_both_sigmas(self):
        # d = 5, sigma_i = sigma_j = 5: exp(-25 / 25) = exp(-1)
        data = np.array([[0.0, 0.0], [3.0, 4.0]])
        a = affinity_local(pairwise_distances(data), [5.0, 5.0])
        assert a[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_identical_points_zero_sigma(self):
        a = affinity_local(pairwise_distances([[2.0], [2.0]]), [0.0, 0.0])
        assert a[0, 1] == 1.0

    def test_distinct_points_zero_sigma(self):
        a = affinity_local(pairwise_distances([[0.0], [3.0]]), [0.0, 1.0])
        assert a[0, 1] == 0.0

    def test_three_points_brute_force(self):
        data = np.array([[0.0], [1.0], [10.0]])
        sigmas = np.array([10.0, 9.0, 10.0])
        a = affinity_local(pairwise_distances(data), sigmas)
        for i in range(3):
            for j in range(3):
                if i == j:
                    expected = 0.0
                else:
                    d2 = (data[i, 0] - data[j, 0]) ** 2
                    expected = math.exp(-d2 / (sigmas[i] * sigmas[j]))
                assert abs(a[i, j] - expected) <= 1e-12

    @pytest.mark.parametrize("exponent", [1, 2])
    def test_row_blocks_match_outer_product(self, rng, exponent):
        # 600 rows span three blocks of the sigma product. Rows 0-2 and the
        # pair 255/256 across the first block boundary repeat a point, so
        # their sigmas (k = 1) are 0 and take the zero-scale limit.
        x = rng.normal(0, 1, (600, 3))
        x[1] = x[2] = x[0]
        x[256] = x[255]
        sigmas = estimate_local_sigmas(x, pairwise_distances(x), 1).local_sigmas
        assert np.flatnonzero(sigmas == 0).tolist() == [0, 1, 2, 255, 256]
        a = affinity_local(pairwise_distances(x), sigmas, exponent)
        assert np.array_equal(a, local_oracle(x, sigmas, exponent))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            affinity_local(pairwise_distances(np.eye(3)), [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigmas_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            affinity_local(pairwise_distances(np.eye(3)), [1.0, bad, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(data_matrices(max_n=10), st.floats(min_value=-50, max_value=50))
    def test_shift_invariance_and_bounds(self, data, shift):
        sigmas = np.full(data.shape[0], 2.0)
        a = affinity_local(pairwise_distances(data), sigmas)
        b = affinity_local(pairwise_distances(data + shift), sigmas)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)
        assert np.array_equal(a, a.T)
        assert np.all((a >= 0) & (a <= 1))
        assert np.all(np.diag(a) == 0)


class TestNormalizedLaplacian:
    def test_row_blocks_match_outer_product(self, rng):
        # 600 rows span three blocks; each entry is a_ij * (s_i * s_j), as
        # with the whole outer product, bit for bit.
        x = rng.normal(0, 1, (600, 3))
        a = build_affinity(pairwise_distances(x), estimate_global_sigma(x))
        inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        expected = a * np.outer(inv_sqrt, inv_sqrt)
        assert np.array_equal(normalized_laplacian(a), expected)

    def test_two_point_hand_case(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        lap = normalized_laplacian(a.copy())
        assert np.allclose(lap, a)
        values = symmetric_eigen(lap).values
        assert values == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_two_block_eigenvalue_multiplicity(self):
        # Each block of size b is a complete graph with zero diagonal:
        # L restricted to it is (J - I)/(b - 1) with spectrum
        # {1} + {-1/(b-1)} * (b-1). Derived by hand from J's spectrum.
        sizes = (4, 6)
        lap = normalized_laplacian(ideal_block_affinity(sizes))
        values = np.sort(symmetric_eigen(lap).values)[::-1]
        expected = sorted(
            [1.0] * 2 + [-1.0 / 3] * 3 + [-1.0 / 5] * 5, reverse=True
        )
        assert values == pytest.approx(expected, abs=1e-12)

    def test_complete_graph_spectrum(self):
        n = 7
        a = 1.0 - np.eye(n)
        values = symmetric_eigen(normalized_laplacian(a)).values
        expected = [1.0] + [-1.0 / (n - 1)] * (n - 1)
        assert values == pytest.approx(expected, abs=1e-12)

    def test_isolated_point_reported(self):
        a = ideal_block_affinity((3, 3))
        a[2, :] = 0.0
        a[:, 2] = 0.0
        with pytest.raises(IsolatedPointsError) as excinfo:
            normalized_laplacian(a)
        assert excinfo.value.indices == (2,)

    @pytest.mark.parametrize("local", [False, True])
    def test_exactly_symmetric(self, rng, local):
        # symmetric_eigen decomposes exactly symmetric input without
        # averaging; (L + L.T) / 2 == L bit for bit, so nothing changes.
        x = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(6, 0.1, (30, 3))])
        x[5] = x[4]  # a duplicate point: zero local sigma products
        scaling = estimate_local_sigmas(x, pairwise_distances(x)) if local else estimate_global_sigma(x)
        lap = normalized_laplacian(build_affinity(pairwise_distances(x), scaling))
        assert np.array_equal(lap, lap.T)
        assert np.array_equal((lap + lap.T) / 2.0, lap)

    def test_subnormal_degrees_are_isolated(self):
        # exp(-47^2 / 3) underflows to a subnormal; scaling by 1/degree
        # would overflow to inf and NaN.
        a = affinity_global(pairwise_distances([[21.0], [-26.0]]), sigma_sq=1.5)
        assert 0.0 < a[0, 1] < np.finfo(float).tiny
        with pytest.raises(IsolatedPointsError) as excinfo:
            normalized_laplacian(a)
        assert excinfo.value.indices == (0, 1)

    @settings(max_examples=40, deadline=None)
    @given(data_matrices(max_n=12), st.floats(min_value=0.05, max_value=50))
    def test_spectrum_bounds_and_top_eigenvalue(self, data, sigma_sq):
        a = affinity_global(pairwise_distances(data), sigma_sq)
        try:
            lap = normalized_laplacian(a.copy())
        except IsolatedPointsError:
            return
        values = symmetric_eigen(lap).values
        assert values.max() <= 1 + 1e-9
        assert values.min() >= -1 - 1e-9
        off_diagonal = a[~np.eye(a.shape[0], dtype=bool)]
        if np.min(off_diagonal) >= 1e-3:
            # graph solidly connected (affinities bounded away from zero):
            # eigenvalue 1 is simple
            assert np.sum(np.abs(values - 1.0) <= 1e-9) == 1
