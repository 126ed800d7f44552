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
from iescluster import scaling as scaling_module
from iescluster.linalg import gram_distances
from iescluster.scaling import (
    estimate_global_sigma,
    estimate_local_sigmas,
    manual_global_sigma,
)

from conftest import pairwise_distances, pca, tau_edge_ring


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
    for owner, name in ((linalg, "_eigh"), (np.linalg, "eigh")):
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


def local_sigmas(data, k):
    return estimate_local_sigmas(data, gram_distances(data), k).local_sigmas


class TestLocalSigmas:
    def test_three_points_line(self):
        # 1-D points [0, 1, 10] with k=7 clipped to k_eff=2: second-nearest
        # distances are 10, 9, 10 (all pairwise distances enumerated by hand).
        data = [[0.0], [1.0], [10.0]]
        est = estimate_local_sigmas(data, gram_distances(data), k=7)
        assert est.kind == "local"
        assert est.local_sigmas == pytest.approx([10.0, 9.0, 10.0])

    def test_two_points(self):
        assert local_sigmas([[0.0, 0.0], [3.0, 4.0]], 7) == pytest.approx([5.0, 5.0])

    def test_duplicates_zero_sigma(self):
        assert local_sigmas([[1.0], [1.0], [9.0]], 1).tolist() == [0.0, 0.0, 8.0]

    def test_monotone_in_k(self, rng):
        data = rng.normal(0, 5, (20, 4))
        previous = np.zeros(20)
        for k in range(1, 20):
            sig = local_sigmas(data, k)
            assert np.all(sig >= previous)
            previous = sig

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 10))
            k = int(rng.integers(1, 9))
            data = rng.normal(0, rng.uniform(0.5, 50), (n, m))
            sig = local_sigmas(data, k)
            k_eff = min(k, n - 1)
            for i in range(n):
                dists = sorted(
                    np.sqrt(np.sum((data[i] - data[j]) ** 2)) for j in range(n) if j != i
                )
                assert sig[i] == dists[k_eff - 1]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.5, max_value=100))
    def test_scale_equivariance(self, factor):
        data = np.array([[0.0, 1.0], [2.0, 3.0], [1.0, -4.0], [5.0, 5.0]])
        base = local_sigmas(data, 2)
        scaled = local_sigmas(data * factor, 2)
        assert scaled == pytest.approx(base * factor, rel=1e-9)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientDataError):
            local_sigmas(np.ones((1, 3)), 1)

    @pytest.mark.parametrize(
        "n, k",
        [(2, 1), (2, 7), (9, 8), (9, 30), (40, 3), (600, 7)],
    )
    def test_matches_delete_sort_oracle(self, rng, n, k):
        # Every third point repeats its predecessor, so rows hold several
        # zeros; n = 600 is the size of the benchmark's larger local nodes.
        data = rng.normal(0, 4, (n, 5))
        data[2::3] = data[1::3][: data[2::3].shape[0]]
        dist = pairwise_distances(data)
        given_dist = gram_distances(data)
        before = given_dist.copy()
        sig = estimate_local_sigmas(data, given_dist, k).local_sigmas
        assert np.array_equal(sig, local_sigma_oracle(dist, k))
        assert np.array_equal(given_dist, before)  # read, not modified
        # A copy, not a view that would keep an n x n array alive.
        assert sig.base is None

    def test_distances_shape_checked(self, rng):
        # Point data is refused as distances, square or not, and so is a
        # matrix of another size than the data's row count.
        data = rng.normal(0, 1, (3, 2))
        for bad in (
            rng.normal(0, 1, (3, 3)), np.eye(3), np.zeros((3, 2)), np.zeros(3), np.zeros((4, 4))
        ):
            with pytest.raises(DimensionError):
                estimate_local_sigmas(data, bad, 1)

    def test_overflowing_distances_are_data_error(self):
        # 1e160 apart: the squared difference, hence the distance, is inf.
        with pytest.raises(InvalidDataError):
            local_sigmas([[0.0], [1e160], [3e160]], 1)


def exact_order_statistic(data, k):
    """Each row's order statistic min(k, n-1) of ``pairwise_distances``."""
    dist = pairwise_distances(data)
    k_eff = min(k, dist.shape[0] - 1)
    return np.partition(dist, k_eff, axis=1)[:, k_eff]


class TestCertifiedLocalSigmas:
    """The local sigmas read from ``gram_distances`` against the exact
    matrix's order statistics, bit for bit, wherever the Gram form errs."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 30),
        st.integers(1, 12),
        st.sampled_from(["normal", "grid", "near"]),
        st.sampled_from([0.0, 1e8, -3.5e7]),
        st.integers(-500, 500) | st.sampled_from([-500, 500, 505, 512]),
        st.sampled_from(["one", "seven", "n-1"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_exact_order_statistic(self, n, m, layout, offset, s, which, seed):
        rng = np.random.default_rng(seed)
        k = {"one": 1, "seven": 7, "n-1": n - 1}[which]
        # Small integers give exact duplicates and ties at the k-th distance.
        if layout == "grid":
            x = rng.integers(-2, 3, (n, m)).astype(float)
        else:
            x = rng.normal(0, 1, (n, m))
        for i in range(1, n):
            if rng.random() < 0.2:
                x[i] = x[rng.integers(0, i)]
                if layout == "near":
                    x[i] += 1e-9 * rng.normal(0, 1, m)
        x = np.ldexp(x + offset * rng.random(m), s)
        with np.errstate(over="ignore"):
            want = exact_order_statistic(x, k)
            dist = gram_distances(x)
        if not np.all(np.isfinite(want)):
            # Distances that overflow to the k-th neighbour: a data error.
            with pytest.raises(InvalidDataError):
                estimate_local_sigmas(x, dist, k)
            return
        assert np.array_equal(estimate_local_sigmas(x, dist, k).local_sigmas, want)

    def test_near_ties_widen_the_candidates(self):
        # Point 0 sits far from the centroid with twenty neighbours at
        # distance 1 within about 1e-13, in 50 dimensions: the Gram form
        # errs by about 1e-10 there, so it cannot order them, and the third
        # neighbour needs more than k + 1 exact candidates (the self entry
        # counts). Every row still comes out as the exact matrix's bits.
        rng = np.random.default_rng(0)
        m, k = 50, 3
        u = rng.normal(0, 1, (20, m))
        u /= np.linalg.norm(u, axis=1)[:, None]
        far = np.zeros(m)
        far[0] = 1000.0
        x = np.vstack([far, far + u, rng.normal(0, 1, (30, m))])
        pairs = []

        def spy(data, rows, cols):
            pairs.append(rows.copy())
            return linalg.pair_squared_distances(data, rows, cols)

        with mock.patch.object(scaling_module, "pair_squared_distances", spy):
            got = estimate_local_sigmas(x, gram_distances(x), k).local_sigmas
        assert np.array_equal(got, exact_order_statistic(x, k))
        assert np.count_nonzero(np.concatenate(pairs) == 0) > k + 1

    def test_rows_over_the_scale_ceiling_are_exact(self):
        # Scales above max/4: the whole row is recomputed, and its finite
        # k-th distance is still the exact one.
        x = np.ldexp(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5], [1.0, 1.0]]), 510)
        with np.errstate(over="ignore"):
            dist = gram_distances(x)
        got = estimate_local_sigmas(x, dist, 1).local_sigmas
        assert np.array_equal(got, exact_order_statistic(x, 1))

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 20])
    def test_ring_at_the_tau_edge(self, m):
        # Trusted entries with their largest relative error, around radii
        # that differ by about that much: the candidates must reach the
        # exact k-th neighbour wherever the Gram form misorders the ring.
        for seed in range(12):
            x = tau_edge_ring(np.random.default_rng(seed), m)
            dist = gram_distances(x)
            for k in (1, 3, 7, 12):
                got = estimate_local_sigmas(x, dist, k).local_sigmas
                assert np.array_equal(got, exact_order_statistic(x, k))

    def test_overflowing_column_mean_is_data_error(self):
        # numpy sums the column pairwise, (max + max) + (-max - max), so its
        # mean is NaN and gram_distances recomputes every entry. The 7th
        # neighbour of each +-max row is at an inf distance.
        big = np.finfo(float).max
        x = np.array([big, big, -big, -big, 0.0, 0.0, 0.0, 0.0])[:, None]
        with pytest.raises(InvalidDataError):
            estimate_local_sigmas(x, gram_distances(x))

    def test_blocks_and_duplicates(self, rng):
        # Several certificate blocks, duplicated rows and a 200-column
        # offset layout like the benchmark's wide workload.
        n, m = 300, 200
        x = rng.normal(0, 3, (n, m)) + 1e8
        x[1::7] = x[0::7][: x[1::7].shape[0]]
        for k in (1, 7, n - 1):
            got = estimate_local_sigmas(x, gram_distances(x), k).local_sigmas
            assert np.array_equal(got, exact_order_statistic(x, k))


def test_manual_sigma_rejects_nonpositive():
    assert manual_global_sigma(2.5).sigma_sq == 2.5
    with pytest.raises(InvalidParameterError):
        manual_global_sigma(0.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_manual_sigma_rejects_non_finite(value):
    with pytest.raises(InvalidParameterError):
        manual_global_sigma(value)
