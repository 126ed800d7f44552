from importlib import import_module
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iescluster.errors import InvalidParameterError
from iescluster.kmeans import (
    _farthest_points,
    _lloyd,
    _nearest,
    _nearest_exact,
    cluster_means,
    kmeans,
)
from iescluster.njw import node_spectrum, row_normalize
from iescluster.scaling import estimate_global_sigma
from iescluster.synth import augment_with_noise, nested_scale_dataset

from conftest import pairwise_distances, sse

# The package re-exports the function ``kmeans``, which shadows the module.
kmeans_module = import_module("iescluster.kmeans")


def row_sq(x):
    """|x|^2 of every row, the third argument of ``_lloyd`` and ``_nearest``."""
    return np.einsum("ij,ij->i", x, x)


def nearest(x, c):
    """``_nearest`` with the row norms it is given inside ``kmeans``."""
    return _nearest(x, c, row_sq(x))


def exhaustive_optimum(data, k):
    """Minimum SSE over every assignment into at most k clusters, centroids
    at cluster means. Exponential; for tiny n only."""
    n = data.shape[0]
    best = np.inf
    for assign in product(range(k), repeat=n):
        a = np.array(assign)
        total = 0.0
        for c in range(k):
            members = data[a == c]
            if len(members):
                total += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, total)
    return best


class TestSse:
    def test_singletons_zero(self):
        data = np.array([[0.0], [5.0], [9.0]])
        assert sse(data, [0, 1, 2], data) == 0.0

    def test_single_cluster_hand_value(self):
        # centroid 1, errors 1 + 1 = 2
        assert sse([[0.0], [2.0]], [0, 0], [[1.0]]) == pytest.approx(2.0)


class TestKMeans:
    def test_k_equals_n(self, rng):
        data = rng.normal(0, 1, (6, 2))
        result = kmeans(data, 6, seed=0)
        assert result.sse == 0.0
        assert sorted(result.assignments.tolist()) == list(range(6))

    def test_k_one_is_mean(self, rng):
        data = rng.normal(3, 2, (10, 3))
        result = kmeans(data, 1, seed=0)
        assert np.allclose(result.centroids[0], data.mean(axis=0))
        scatter = float(np.sum((data - data.mean(axis=0)) ** 2))
        assert result.sse == pytest.approx(scatter)

    def test_two_pairs_brute_force(self):
        data = np.array([[0.0], [1.0], [10.0], [11.0]])
        optimum = exhaustive_optimum(data, 2)
        assert optimum == pytest.approx(1.0)  # centroids 0.5 and 10.5
        result = kmeans(data, 2, seed=0)
        assert result.sse == pytest.approx(optimum)
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[2] == result.assignments[3]
        assert result.assignments[0] != result.assignments[2]

    def test_invalid_k(self):
        data = np.zeros((3, 1))
        with pytest.raises(InvalidParameterError):
            kmeans(data, 0, seed=0)
        with pytest.raises(InvalidParameterError):
            kmeans(data, 4, seed=0)

    def test_negative_seed(self):
        with pytest.raises(InvalidParameterError, match="seed must be nonnegative"):
            kmeans(np.zeros((3, 1)), 2, seed=-1)

    def test_internal_sse_consistency(self, rng):
        data = rng.normal(0, 1, (30, 2))
        result = kmeans(data, 4, seed=7)
        assert result.sse == pytest.approx(
            sse(data, result.assignments, result.centroids), rel=1e-9
        )

    def test_history_non_increasing(self, rng):
        for trial in range(20):
            data = rng.normal(0, 1, (25, 3))
            result = kmeans(data, 5, seed=trial)
            hist = np.array(result.sse_history)
            assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1, hist[:-1]))

    def test_points_assigned_to_nearest_centroid(self, rng):
        data = rng.normal(0, 1, (40, 2))
        result = kmeans(data, 6, seed=3)
        d2 = np.sum((data[:, None, :] - result.centroids[None, :, :]) ** 2, axis=2)
        assert np.array_equal(result.assignments, np.argmin(d2, axis=1))

    def test_duplicate_points_shrink_k(self):
        data = np.array([[0.0], [0.0], [0.0], [7.0]])
        result = kmeans(data, 4, seed=0)
        assert result.n_clusters == 2
        assert sorted(np.unique(result.assignments).tolist()) == [0, 1]
        assert result.sse == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=5))
    def test_deterministic_for_fixed_seed(self, seed, k):
        rng = np.random.default_rng(99)
        data = rng.normal(0, 1, (15, 2))
        r1 = kmeans(data, k, seed=seed)
        r2 = kmeans(data, k, seed=seed)
        assert np.array_equal(r1.assignments, r2.assignments)
        assert np.array_equal(r1.centroids, r2.centroids)

    def test_permutation_equivariance_with_shared_init(self, rng):
        # Index-independent initialization: both runs get the same geometric
        # starting centroids, so permuting rows must permute assignments.
        data = rng.normal(0, 1, (20, 3))
        init = data[_farthest_points(data, 3, 0, {})].copy()
        perm = rng.permutation(20)
        r1 = _lloyd(data, init, row_sq(data))
        r2 = _lloyd(data[perm], init, row_sq(data[perm]))
        assert np.array_equal(r1.assignments[perm], r2.assignments)

    def test_matches_exhaustive_often(self, rng):
        hits = 0
        for trial in range(40):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(3, n) + 1))
            data = rng.normal(0, 1, (n, 2))
            result = kmeans(data, k, seed=trial)
            optimum = exhaustive_optimum(data, k)
            assert result.sse >= optimum - 1e-9
            if result.sse <= optimum + 1e-9 * max(1, optimum):
                hits += 1
        assert hits >= 0.8 * 40


def count_exact_rows(monkeypatch):
    """Wrap ``_nearest_exact`` so each call records the rows it received."""
    calls = []

    def counted(x, centroids):
        calls.append(x.copy())
        return _nearest_exact(x, centroids)

    monkeypatch.setattr(kmeans_module, "_nearest_exact", counted)
    return calls


class TestCertifiedNearest:
    """``_nearest`` (GEMM form, certified per row) against its oracle, the
    difference form ``_nearest_exact``: assignments must agree bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 40),
        st.integers(1, 200),
        # The ends of the range come up often, so squared scales below
        # tiny/eps (2^-500) and overflowing ones (2^500 * 2^24) both occur.
        st.integers(-500, 500) | st.sampled_from([-500, 500]),
        st.sampled_from([-24, 0, 24]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_difference_form(self, n, k, d, s, spread, grid, seed):
        rng = np.random.default_rng(seed)
        # Small integers give many exact and near ties between centroids.
        x = rng.integers(-3, 4, (n, d)) if grid else rng.normal(0.0, 1.0, (n, d))
        x = x * 2.0**spread
        # Rows copied as centroids (zero-distance ties), random centroids,
        # then a duplicate of each earlier centroid with probability 1/3.
        copied = x[rng.integers(0, n, k)]
        fresh = rng.normal(0.0, 1.0, (k, d)) * np.max(np.abs(x))
        c = np.where(rng.random((k, 1)) < 0.5, copied, fresh)
        for j in range(1, k):
            if rng.random() < 1 / 3:
                c[j] = c[rng.integers(0, j)]
        x, c = np.ldexp(x, s), np.ldexp(c, s)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got = nearest(x, c)
            want = _nearest_exact(x, c)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # Exact ties go to the lowest id: no point picks a later duplicate.
        first = [int(np.flatnonzero((c == c[j]).all(axis=1))[0]) for j in range(k)]
        assert all(first[j] == j for j in np.unique(got))

    def test_near_tie_takes_exact_path(self, monkeypatch):
        # Row 0 lies 2^-50 past the midpoint of the centroids: its squared
        # distances differ by 2^-49, below the slack (40 eps, about 2^-47),
        # so only that row is recomputed.
        x = np.array([[0.5 + 2.0**-50], [0.1]])
        c = np.array([[0.0], [1.0]])
        calls = count_exact_rows(monkeypatch)
        assert nearest(x, c).tolist() == [1, 0]
        assert len(calls) == 1
        assert np.array_equal(calls[0], x[:1])

    def test_clear_rows_skip_exact_path(self, monkeypatch, rng):
        x = rng.normal(0.0, 1.0, (50, 3))
        c = np.array([[10.0, 0, 0], [-10.0, 0, 0]])
        calls = count_exact_rows(monkeypatch)
        assert np.array_equal(nearest(x, c), _nearest_exact(x, c))
        assert calls == []

    @pytest.mark.parametrize(
        "x, c",
        [
            # 8 apart from both centroids at 2^-540: the squares are
            # subnormal, and the inner-product form's rounding breaks the tie
            # towards centroid 1.
            (np.ldexp([[21.0]], -540), np.ldexp([[13.0], [29.0]], -540)),
            # S above max/4: both difference-form distances overflow to inf (a
            # tie, so centroid 0), while the inner-product form ranks c_1 first.
            (np.ldexp([[0.3]], 512), np.ldexp([[-0.75], [-0.72]], 512)),
        ],
    )
    def test_scales_outside_window_take_exact_path(self, monkeypatch, x, c):
        calls = count_exact_rows(monkeypatch)
        with np.errstate(over="ignore"):
            assert nearest(x, c).tolist() == [0]
        assert len(calls) == 1

    def test_nan_gap_takes_exact_path(self):
        # |c_0|^2 and 2 x.c_0 overflow, so h_0 is inf - inf = NaN and wins
        # argmin; only the difference form sees that c_1 is nearer.
        x = np.ldexp(np.array([[1.0]]), 511)
        c = np.ldexp(np.array([[3.0], [1.5]]), 511)
        with np.errstate(over="ignore"):
            want = _nearest_exact(x, c)
            assert want.tolist() == [1]
            assert nearest(x, c).tolist() == [1]

    @pytest.mark.parametrize(
        "make, k",
        [
            (lambda r: r.normal(0.0, 1.0, (300, 5)), 12),
            (lambda r: r.integers(0, 3, (200, 4)).astype(float), 20),
            # Unit rows in 60-d, like an NJW embedding with a large k.
            (lambda r: (lambda v: v / np.linalg.norm(v, axis=1)[:, None])(
                np.repeat(r.normal(0.0, 1.0, (80, 60)), 5, axis=0)
                + r.normal(0.0, 1e-3, (400, 60))), 60),
        ],
    )
    def test_kmeans_matches_exact_assignment_step(self, monkeypatch, make, k):
        data = make(np.random.default_rng(k))
        fast = kmeans(data, k, seed=3)
        monkeypatch.setattr(kmeans_module, "_nearest", lambda x, c, _: _nearest_exact(x, c))
        exact = kmeans(data, k, seed=3)
        assert np.array_equal(fast.assignments, exact.assignments)
        assert np.array_equal(fast.centroids, exact.centroids)
        assert fast.sse == exact.sse
        assert fast.iterations == exact.iterations
        assert fast.converged == exact.converged
        assert fast.sse_history == exact.sse_history


def bits(values):
    """The float64 bit patterns, so -0.0 and +0.0 compare unequal."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def means_by_loop(x, assign, k):
    """One ``mean`` call per cluster, the reference for ``cluster_means``;
    rows of empty clusters are 0."""
    means = np.zeros((k, x.shape[1]))
    for cid in range(k):
        if np.any(assign == cid):
            means[cid] = x[assign == cid].mean(axis=0)
    return means


class TestClusterMeans:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 400),
        st.integers(1, 120),
        st.integers(1, 40),
        st.sampled_from(["normal", "grid", "zeros"]),
        st.sampled_from([0, -500, 500]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_cluster_mean(self, n, d, k, kind, scale, fortran, seed):
        rng = np.random.default_rng(seed)
        if kind == "grid":
            x = rng.integers(-3, 4, (n, d)).astype(float)
        else:
            x = rng.normal(0.0, 1.0, (n, d))
        if kind == "zeros":
            # Columns of signed zeros: an all -0.0 column sums to +0.0.
            x[:, rng.random(d) < 0.5] = -0.0
            x[rng.random((n, d)) < 0.2] = 0.0
        x = np.ldexp(x, scale)
        if fortran:
            x = np.asfortranarray(x)
        # Only some ids in use, so clusters are often empty.
        assign = rng.integers(0, k, n) // int(rng.integers(1, 4))
        counts = np.bincount(assign, minlength=k)
        assert np.array_equal(bits(cluster_means(x, assign, counts)), bits(means_by_loop(x, assign, k)))

    def test_single_column_keeps_pairwise_mean(self):
        # numpy sums one column pairwise: a sequential sum of these values
        # differs in the last bits, so a one-pass bincount would too.
        x = np.random.default_rng(5).normal(0.0, 1.0, (1000, 1))
        assign = np.zeros(1000, dtype=int)
        sequential = np.bincount(assign, weights=x[:, 0])[0] / 1000
        assert sequential != x.mean()
        got = cluster_means(x, assign, np.bincount(assign))
        assert np.array_equal(bits(got), bits(means_by_loop(x, assign, 1)))


def farthest_by_loop(x, k, first_index):
    """Greedy farthest-point initialization, each distance row computed as it
    is needed."""
    chosen = [int(first_index)]
    min_sq = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(min_sq))
        chosen.append(nxt)
        min_sq = np.minimum(min_sq, np.sum((x - x[nxt]) ** 2, axis=1))
    return x[chosen].copy()


def lloyd_by_loop(x, centroids):
    """Lloyd iteration with the difference-form assignment and a per-cluster
    ``mean`` update."""
    history = []
    iterations = 0
    converged = False
    while iterations < 300:
        iterations += 1
        assign = _nearest_exact(x, centroids)
        history.append(sse(x, assign, centroids))
        counts = np.bincount(assign, minlength=centroids.shape[0])
        keep = counts > 0
        means = np.empty_like(centroids)
        for cid in np.nonzero(keep)[0]:
            means[cid] = x[assign == cid].mean(axis=0)
        if not keep.all():
            centroids = means[keep]
            continue
        movement = float(np.max(np.sqrt(np.sum((means - centroids) ** 2, axis=1))))
        centroids = means
        if movement < 1e-8:
            converged = True
            break
    assign = _nearest_exact(x, centroids)
    history.append(sse(x, assign, centroids))
    counts = np.bincount(assign, minlength=centroids.shape[0])
    keep = np.nonzero(counts > 0)[0]
    remap = np.full(centroids.shape[0], -1, dtype=int)
    remap[keep] = np.arange(keep.size)
    assignments = remap[assign]
    centroids = centroids[keep]
    return (assignments, centroids, sse(x, assignments, centroids), iterations,
            converged, tuple(history))


def kmeans_by_loop(x, k, seed):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(4):
        result = lloyd_by_loop(x, farthest_by_loop(x, k, int(rng.integers(x.shape[0]))))
        if best is None or result[2] < best[2]:
            best = result
    return best


def assert_same_result(result, reference):
    assignments, centroids, total, iterations, converged, history = reference
    assert result.assignments.dtype == assignments.dtype
    assert np.array_equal(result.assignments, assignments)
    assert np.array_equal(bits(result.centroids), bits(centroids))
    assert bits(result.sse) == bits(total)
    assert result.iterations == iterations
    assert result.converged == converged
    assert np.array_equal(bits(result.sse_history), bits(history))


@pytest.fixture(scope="module")
def nested_vectors():
    x = nested_scale_dataset(n_per_group=100, seed=0).features
    return node_spectrum(pairwise_distances(x), estimate_global_sigma(x)).top(12)


class TestKMeansMatchesLoop:
    """``kmeans`` against ``kmeans_by_loop``, every field bit for bit, on the
    embeddings the spectral callers hand it."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_elbow_embeddings(self, nested_vectors, k):
        # The elbow sweep's calls: one seed, k = 1..12 on the top-k rows.
        embedding = row_normalize(nested_vectors[:, :k])
        assert_same_result(kmeans(embedding, k, seed=0), kmeans_by_loop(embedding, k, 0))

    def test_large_k(self):
        # A deep-tree-like root: near-duplicate points and k = 95, so the
        # assignment step uses the (n, k) layout.
        data = augment_with_noise(nested_scale_dataset(n_per_group=40, seed=1), 400,
                                  noise_sd=0.05, seed=1).features
        spectrum = node_spectrum(pairwise_distances(data), estimate_global_sigma(data))
        embedding = row_normalize(spectrum.top(95))
        assert_same_result(kmeans(embedding, 95, seed=2), kmeans_by_loop(embedding, 95, 2))

    @pytest.mark.parametrize("k", [3, 8])
    def test_fortran_ordered_data(self, rng, k):
        data = np.asfortranarray(rng.normal(0.0, 1.0, (120, 5)))
        assert_same_result(kmeans(data, k, seed=4), kmeans_by_loop(data, k, 4))


class TestFarthestPoints:
    def test_shared_rows_match_fresh_rows(self):
        # Near-duplicate points: restarts from different first points soon
        # pick the same points, so they read rows others computed.
        data = augment_with_noise(nested_scale_dataset(n_per_group=10, seed=3), 90,
                                  noise_sd=0.05, seed=3).features
        rows = {}
        for first in [0, 45, 89, 12, 45]:
            shared = _farthest_points(data, 20, first, rows)
            assert shared == _farthest_points(data, 20, first, {})
            assert np.array_equal(data[shared], farthest_by_loop(data, 20, first))
        for i, row in rows.items():
            assert np.array_equal(bits(row), bits(np.sum((data - data[i]) ** 2, axis=1)))


class TestNearestLayouts:
    """Both layouts of the inner-product matrix give ``_nearest_exact``'s
    assignments, whichever side of ``_BY_CENTROID_K`` k falls on."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 80),
        st.integers(1, 60),
        st.integers(-500, 500) | st.sampled_from([-500, 500]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_difference_form(self, n, k, d, s, by_centroid, grid, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-3, 4, (n, d)).astype(float) if grid else rng.normal(0.0, 1.0, (n, d))
        # Rows copied as centroids, half of them nudged: exact and near ties.
        c = x[rng.integers(0, n, k)]
        c[::2] += rng.normal(0.0, 1e-9, c[::2].shape)
        x, c = np.ldexp(x, s), np.ldexp(c, s)
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", under="ignore"):
            mp.setattr(kmeans_module, "_BY_CENTROID_K", k if by_centroid else k - 1)
            got = nearest(x, c)
            want = _nearest_exact(x, c)
        assert np.array_equal(got, want)
