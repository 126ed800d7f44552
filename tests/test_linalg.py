import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iescluster.errors import (
    DegenerateDataError,
    DimensionError,
    InsufficientDataError,
    InvalidDataError,
)
from iescluster.linalg import covariance, pairwise_distances, pca, symmetric_eigen

INV_SQRT2 = 0.7071067811865476  # 1/sqrt(2), hand value


finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def symmetric_matrices(max_n=12):
    return (
        st.integers(min_value=2, max_value=max_n)
        .flatmap(lambda n: arrays(np.float64, (n, n), elements=finite_floats))
        .map(lambda a: (a + a.T) / 2)
    )


def data_matrices(min_n=2, max_n=20, max_m=6):
    return st.tuples(
        st.integers(min_value=min_n, max_value=max_n),
        st.integers(min_value=1, max_value=max_m),
    ).flatmap(lambda nm: arrays(np.float64, nm, elements=finite_floats))


class TestSymmetricEigen:
    def test_identity(self):
        eig = symmetric_eigen(np.eye(3))
        assert np.allclose(eig.values, [1, 1, 1])
        assert np.allclose(eig.vectors @ eig.vectors.T, np.eye(3), atol=1e-12)

    def test_two_by_two_hand_solution(self):
        # [[0,1],[1,0]]: characteristic polynomial l^2 - 1, so l = +-1 with
        # eigenvectors (1,1)/sqrt(2) and (1,-1)/sqrt(2).
        eig = symmetric_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert eig.values == pytest.approx([1.0, -1.0], abs=1e-12)
        assert eig.vectors[:, 0] == pytest.approx([INV_SQRT2, INV_SQRT2], abs=1e-12)
        assert eig.vectors[:, 1] == pytest.approx([INV_SQRT2, -INV_SQRT2], abs=1e-12)

    def test_reconstruction_roundtrip(self, rng):
        a = rng.normal(0, 1, (6, 6))
        a = (a + a.T) / 2
        eig = symmetric_eigen(a)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert np.max(np.abs(recon - a)) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            symmetric_eigen(np.zeros((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(InvalidDataError):
            symmetric_eigen([[np.nan, 0.0], [0.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidDataError):
            symmetric_eigen([[0.0, 1.0], [2.0, 0.0]])

    def test_deterministic_bitwise(self, rng):
        a = rng.normal(0, 1, (8, 8))
        a = (a + a.T) / 2
        e1, e2 = symmetric_eigen(a), symmetric_eigen(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    @settings(max_examples=50, deadline=None)
    @given(symmetric_matrices())
    def test_residual_orthonormality_and_order(self, a):
        eig = symmetric_eigen(a)
        n = a.shape[0]
        bound = 1e-8 * max(1.0, float(np.linalg.norm(a, "fro")))
        residual = a @ eig.vectors - eig.vectors * eig.values
        assert np.max(np.sqrt(np.sum(residual**2, axis=0))) <= bound
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(n))) <= 1e-8
        assert np.all(np.diff(eig.values) <= 1e-12)
        # sign convention: largest-magnitude entry of each column positive
        tops = eig.vectors[np.argmax(np.abs(eig.vectors), axis=0), np.arange(n)]
        assert np.all(tops >= 0)


class TestCovariance:
    def test_identical_rows_zero(self):
        assert np.array_equal(covariance(np.ones((4, 3))), np.zeros((3, 3)))

    def test_one_column_hand_value(self):
        # [0, 2]: mean 1, sample variance (1 + 1) / (2 - 1) = 2.
        cov = covariance([[0.0], [2.0]])
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(2.0)

    def test_independent_columns(self):
        # Columns orthogonal after centering by construction.
        data = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        cov = covariance(data)
        assert cov[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert np.diag(cov) == pytest.approx([4 / 3, 4 / 3])

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            covariance([[1.0, 2.0]])

    @settings(max_examples=50, deadline=None)
    @given(data_matrices())
    def test_psd_spectrum(self, data):
        cov = covariance(data)
        values = symmetric_eigen(cov).values
        scale = max(1.0, float(np.max(np.abs(cov))))
        assert values.min() >= -1e-10 * scale


class TestPca:
    def test_axis_aligned_variances(self):
        # Columns built with sample variances exactly (9, 1), orthogonal
        # after centering, so weights are (0.9, 0.1).
        s = np.sqrt(0.75)
        data = s * np.array([[-3.0, -1.0], [-3.0, 1.0], [3.0, -1.0], [3.0, 1.0]])
        res = pca(data)
        assert res.variances == pytest.approx([9.0, 1.0], rel=1e-12)
        assert res.weights == pytest.approx([0.9, 0.1], rel=1e-12)

    def test_repeated_point_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pca(np.tile([2.0, 5.0], (6, 1)))

    @settings(max_examples=50, deadline=None)
    @given(data_matrices())
    def test_variance_sum_is_trace(self, data):
        try:
            res = pca(data)
        except DegenerateDataError:
            return
        trace = float(np.trace(covariance(data)))
        assert np.sum(res.variances) == pytest.approx(trace, abs=1e-9 * max(1, trace))

    @settings(max_examples=30, deadline=None)
    @given(data_matrices(min_n=3))
    def test_projected_columns_uncorrelated(self, data):
        try:
            res = pca(data)
        except DegenerateDataError:
            return
        proj_cov = covariance(res.projected)
        scale = max(np.abs(np.diag(proj_cov)).max(), 1e-12)
        off = proj_cov - np.diag(np.diag(proj_cov))
        assert np.max(np.abs(off)) <= 1e-8 * scale


class TestPairwiseDistances:
    def test_matches_per_pair_oracle_exactly(self, rng):
        x = rng.normal(0, 10, (25, 4))
        d = pairwise_distances(x)
        for i in range(25):
            for j in range(25):
                assert d[i, j] == np.sqrt(np.sum((x[i] - x[j]) ** 2))

    def test_symmetric_zero_diagonal(self, rng):
        d = pairwise_distances(rng.normal(0, 1, (10, 3)))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    @pytest.mark.parametrize("n", [1, 2, 300])
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_wide_rows_match_per_pair_oracle_exactly(self, rng, n, offset):
        # m = 200 sums each row pairwise in blocks. For n = 300, rows 1 and
        # n-1 repeat row 0 so that exact zeros appear off the diagonal.
        x = rng.normal(0, 3, (n, 200)) + offset
        if n > 2:
            x[1] = x[n - 1] = x[0]
        d = pairwise_distances(x)
        oracle = np.array(
            [[np.sqrt(np.sum((x[i] - x[j]) ** 2)) for j in range(n)] for i in range(n)]
        )
        assert np.array_equal(d, oracle)
