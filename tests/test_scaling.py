import contextlib
from unittest import mock

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
    InvalidParameterError,
)
from iescluster import linalg
from iescluster.linalg import pairwise_distances
from iescluster.scaling import (
    estimate_global_sigma,
    estimate_local_sigmas,
    manual_global_sigma,
)

from conftest import pca


def two_column_data(var1, var2):
    """Four rows whose centered columns are orthogonal with the given sample
    variances: var(c * [-1,-1,1,1]) = 4c^2/3."""
    c1 = np.sqrt(3 * var1 / 4)
    c2 = np.sqrt(3 * var2 / 4)
    return np.array(
        [[-c1, -c2], [-c1, c2], [c1, -c2], [c1, c2]]
    )


def global_sigma_oracle(data, threshold):
    """Scalar re-derivation: covariance by explicit loops, variances taken
    from its eigenvalues, then the weighted-mean arithmetic step by step."""
    data = np.asarray(data, dtype=float)
    n, m = data.shape
    means = [sum(data[i][j] for i in range(n)) / n for j in range(m)]
    cov = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            cov[a, b] = sum(
                (data[i][a] - means[a]) * (data[i][b] - means[b]) for i in range(n)
            ) / (n - 1)
    eigvals = sorted(np.linalg.eigvalsh(cov), reverse=True)
    total = sum(eigvals)
    weights = [v / total for v in eigvals]
    cum = 0.0
    y = m
    for i, w in enumerate(weights):
        cum += w
        if cum >= threshold - 1e-12:
            y = i + 1
            break
    num = sum(weights[i] * eigvals[i] for i in range(y))
    den = sum(weights[i] for i in range(y))
    return num / den, y


class TestGlobalSigma:
    def test_variances_nine_one(self):
        # weights (0.9, 0.1): 0.9 < 0.95 so both axes used and
        # sigma^2 = (0.9*9 + 0.1*1) / 1.0 = 8.2
        est = estimate_global_sigma(two_column_data(9.0, 1.0))
        assert est.kind == "global"
        assert est.components_used == 2
        assert est.sigma_sq == pytest.approx(8.2, rel=1e-12)
        assert est.variance_captured == pytest.approx(1.0, rel=1e-12)

    def test_one_dimensional_variance_two(self):
        est = estimate_global_sigma(np.array([[0.0], [2.0]]))
        assert est.components_used == 1
        assert est.sigma_sq == pytest.approx(2.0, rel=1e-12)

    def test_variances_ninetynine_one(self):
        # weights (0.99, 0.01): first axis already covers 0.95, so y=1 and
        # sigma^2 = the first variance.
        est = estimate_global_sigma(two_column_data(99.0, 1.0))
        assert est.components_used == 1
        assert est.sigma_sq == pytest.approx(99.0, rel=1e-12)
        assert est.variance_captured == pytest.approx(0.99, rel=1e-12)

    def test_threshold_one_uses_all_axes(self, rng):
        data = rng.normal(0, 1, (30, 5))
        est = estimate_global_sigma(data, variance_threshold=1.0)
        assert est.components_used == 5
        sigma, y = global_sigma_oracle(data, 1.0)
        assert y == 5
        assert est.sigma_sq == pytest.approx(sigma, rel=1e-12)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 8))
            data = rng.normal(0, rng.uniform(0.1, 10), (n, m))
            est = estimate_global_sigma(data)
            sigma, y = global_sigma_oracle(data, 0.95)
            assert est.sigma_sq == pytest.approx(sigma, abs=1e-9 * max(1, sigma))
            assert est.components_used == y

    def test_degenerate_and_insufficient(self):
        with pytest.raises(DegenerateDataError):
            estimate_global_sigma(np.ones((5, 2)))
        with pytest.raises(InsufficientDataError):
            estimate_global_sigma(np.ones((1, 2)))

    @pytest.mark.parametrize("value", [0.1, 1.1, 6.6])
    def test_constant_rows_are_degenerate(self, value):
        # The column means of these constants round, which once left a
        # variance near 1e-30 that did not scale with the data.
        with pytest.raises(DegenerateDataError):
            estimate_global_sigma(np.full((8, 3), value))
        with pytest.raises(InvalidParameterError):
            estimate_global_sigma(np.eye(3), variance_threshold=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        # (8, 40) takes the Gram side of covariance_eigenvalues.
        st.sampled_from([(8, 3), (8, 40)]).flatmap(
            lambda shape: arrays(
                np.float64,
                shape,
                elements=st.floats(min_value=-20, max_value=20, allow_nan=False),
            )
        ),
        st.floats(min_value=0.5, max_value=100),
    )
    def test_scale_equivariance(self, data, factor):
        try:
            base = estimate_global_sigma(data)
        except DegenerateDataError:
            return
        scaled = estimate_global_sigma(data * factor)
        assert scaled.sigma_sq == pytest.approx(base.sigma_sq * factor**2, rel=1e-6)


def projection_sigma_oracle(data, threshold=0.95):
    """The estimator as it stood on PCA: the sample variances of the data
    projected on the covariance eigenvectors, then the same threshold rule
    and weighted mean."""
    res = pca(data)
    cumulative = np.cumsum(res.weights)
    reached = np.nonzero(cumulative >= threshold - 1e-12)[0]
    y = int(reached[0]) + 1 if reached.size else len(res.weights)
    w, v = res.weights[:y], res.variances[:y]
    return float(np.sum(w * v) / np.sum(w)), y


def no_full_eigensolve():
    """Make any full eigendecomposition fail the test."""
    stack = contextlib.ExitStack()
    for owner, name in ((linalg, "symmetric_eigen"), (np.linalg, "eigh")):
        stack.enter_context(
            mock.patch.object(owner, name, side_effect=AssertionError(f"{name} called"))
        )
    return stack


class TestGlobalSigmaAgainstProjection:
    """The eigenvalue-only estimator against the projected variances of
    ``pca``, on both sides of covariance_eigenvalues' n < m rule."""

    @pytest.mark.parametrize(
        "shape", [(2, 200), (3, 200), (40, 200), (60, 60), (150, 20), (30, 1)]
    )
    def test_matches_projection(self, rng, shape):
        self.check(rng.normal(0, rng.uniform(0.1, 10), shape))

    @pytest.mark.parametrize("distinct, copies, m", [(6, 5, 200), (10, 4, 5)])
    def test_duplicated_rows(self, rng, distinct, copies, m):
        self.check(np.repeat(rng.normal(0, 3, (distinct, m)), copies, axis=0))

    @staticmethod
    def check(data):
        for threshold in (0.5, 0.95, 1.0):
            sigma, y = projection_sigma_oracle(data, threshold)
            with no_full_eigensolve():
                est = estimate_global_sigma(data, variance_threshold=threshold)
            assert est.components_used == y
            assert est.sigma_sq == pytest.approx(sigma, rel=1e-10)


def local_sigma_oracle(dist, k):
    """k-th nearest other point per row: drop the self-distance, sort, index."""
    n = dist.shape[0]
    k_eff = min(k, n - 1)
    sigmas = np.empty(n)
    for i in range(n):
        others = np.delete(dist[i], i)
        others.sort()
        sigmas[i] = others[k_eff - 1]
    return sigmas


class TestLocalSigmas:
    def test_three_points_line(self):
        # 1-D points [0, 1, 10] with k=7 clipped to k_eff=2: second-nearest
        # distances are 10, 9, 10 (all pairwise distances enumerated by hand).
        est = estimate_local_sigmas(np.array([[0.0], [1.0], [10.0]]), k=7)
        assert est.kind == "local"
        assert est.local_sigmas == pytest.approx([10.0, 9.0, 10.0])

    def test_two_points(self):
        est = estimate_local_sigmas(np.array([[0.0, 0.0], [3.0, 4.0]]), k=7)
        assert est.local_sigmas == pytest.approx([5.0, 5.0])

    def test_duplicates_zero_sigma(self):
        est = estimate_local_sigmas(np.array([[1.0], [1.0], [9.0]]), k=1)
        assert est.local_sigmas[0] == 0.0
        assert est.local_sigmas[1] == 0.0
        assert est.local_sigmas[2] == 8.0

    def test_monotone_in_k(self, rng):
        data = rng.normal(0, 5, (20, 4))
        previous = np.zeros(20)
        for k in range(1, 20):
            sig = estimate_local_sigmas(data, k).local_sigmas
            assert np.all(sig >= previous)
            previous = sig

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 10))
            k = int(rng.integers(1, 9))
            data = rng.normal(0, rng.uniform(0.5, 50), (n, m))
            est = estimate_local_sigmas(data, k)
            k_eff = min(k, n - 1)
            for i in range(n):
                dists = sorted(
                    np.sqrt(np.sum((data[i] - data[j]) ** 2)) for j in range(n) if j != i
                )
                assert est.local_sigmas[i] == dists[k_eff - 1]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.5, max_value=100))
    def test_scale_equivariance(self, factor):
        data = np.array([[0.0, 1.0], [2.0, 3.0], [1.0, -4.0], [5.0, 5.0]])
        base = estimate_local_sigmas(data, 2).local_sigmas
        scaled = estimate_local_sigmas(data * factor, 2).local_sigmas
        assert scaled == pytest.approx(base * factor, rel=1e-9)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientDataError):
            estimate_local_sigmas(np.ones((1, 3)), k=1)

    @pytest.mark.parametrize(
        "n, k",
        [(2, 1), (2, 7), (9, 8), (9, 30), (40, 3), (600, 7)],
    )
    def test_matches_delete_sort_oracle(self, rng, n, k):
        # Every third point repeats its predecessor, so rows hold several
        # zeros; n = 600 spans more than one partition block.
        data = rng.normal(0, 4, (n, 5))
        data[2::3] = data[1::3][: data[2::3].shape[0]]
        dist = pairwise_distances(data)
        expected = local_sigma_oracle(dist, k)
        assert np.array_equal(estimate_local_sigmas(data, k).local_sigmas, expected)
        given_dist = dist.copy()
        est = estimate_local_sigmas(data, k, distances=given_dist)
        assert np.array_equal(est.local_sigmas, expected)
        assert np.array_equal(given_dist, dist)  # read, not modified

    def test_distances_shape_checked(self):
        with pytest.raises(DimensionError):
            estimate_local_sigmas(np.eye(3), 1, distances=np.zeros((2, 2)))

    def test_overflowing_distances_are_data_error(self):
        # 1e160 apart: the squared difference, hence the distance, is inf.
        data = np.array([[0.0], [1e160], [3e160]])
        with pytest.raises(InvalidDataError):
            estimate_local_sigmas(data, 1)


def test_manual_sigma_rejects_nonpositive():
    assert manual_global_sigma(2.5).sigma_sq == 2.5
    with pytest.raises(InvalidParameterError):
        manual_global_sigma(0.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_manual_sigma_rejects_non_finite(value):
    with pytest.raises(InvalidParameterError):
        manual_global_sigma(value)
