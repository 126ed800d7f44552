import tracemalloc

import numpy as np
import pytest

from conftest import (
    best_permutation_accuracy,
    block_labels,
    ideal_block_affinity,
    needs_library,
    partition_of,
    separated_blobs,
)
from iescluster.affinity import normalized_laplacian
from iescluster.errors import DegenerateEmbeddingError, InvalidParameterError
from iescluster.linalg import pairwise_distances
from iescluster.njw import node_spectrum, njw_cluster, row_normalize, spectral_embed
from iescluster.scaling import (
    ScalingEstimate,
    estimate_global_sigma,
    estimate_local_sigmas,
    manual_global_sigma,
)
from iescluster.synth import nested_scale_dataset


class TestSpectralEmbed:
    def test_ideal_two_block_rows(self):
        lap = normalized_laplacian(ideal_block_affinity((4, 5)))
        y = spectral_embed(lap, 2)
        # one unit vector per block, orthogonal across blocks
        assert np.allclose(np.sum(y**2, axis=1), 1.0, atol=1e-12)
        assert np.allclose(y[:4], y[0], atol=1e-9)
        assert np.allclose(y[4:], y[4], atol=1e-9)
        assert abs(float(y[0] @ y[4])) < 1e-9

    def test_k_one_rows_are_sign(self):
        lap = normalized_laplacian(ideal_block_affinity((6,)))
        y = spectral_embed(lap, 1)
        assert np.all(np.abs(np.abs(y[:, 0]) - 1.0) < 1e-12)

    def test_unit_row_norms(self, rng):
        data = rng.normal(0, 1, (12, 3))
        scaling = estimate_global_sigma(data)
        from iescluster.njw import build_affinity

        lap = normalized_laplacian(build_affinity(pairwise_distances(data), scaling))
        for k in (1, 2, 5, 12):
            y = spectral_embed(lap, k)
            assert np.allclose(np.sum(y**2, axis=1), 1.0, atol=1e-12)

    def test_k_out_of_range(self):
        lap = normalized_laplacian(ideal_block_affinity((4,)))
        with pytest.raises(InvalidParameterError):
            spectral_embed(lap, 0)
        with pytest.raises(InvalidParameterError):
            spectral_embed(lap, 5)


class TestNjwCluster:
    def test_two_far_groups_1d(self):
        data = np.array([[0.0], [0.1], [100.0], [100.1]])
        scaling = estimate_global_sigma(data)
        assignments = njw_cluster(data, 2, scaling, seed=0)
        assert partition_of(assignments) == {frozenset({0, 1}), frozenset({2, 3})}

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, k):
        data = np.array([[0.0], [0.1], [100.0], [100.1]])
        with pytest.raises(InvalidParameterError):
            njw_cluster(data, k, estimate_global_sigma(data), seed=0)

    def test_k_one_single_cluster(self, rng):
        data = rng.normal(0, 1, (10, 2))
        assignments = njw_cluster(data, 1, estimate_global_sigma(data), seed=0)
        assert np.all(assignments == assignments[0])

    def test_three_gaussians_high_agreement(self):
        data, labels = separated_blobs((40, 40, 40), separation=50.0, spread=0.5, seed=2)
        scaling = estimate_global_sigma(data)
        assignments = njw_cluster(data, 3, scaling, seed=1)
        assert best_permutation_accuracy(assignments, labels) >= 0.95

    @pytest.mark.parametrize("sizes", [(5, 7), (4, 4, 6), (3, 5, 4, 3, 5)])
    def test_block_data_recovered_exactly(self, sizes):
        # identical points inside each block, blocks far apart, small manual
        # sigma: the affinity is block-diagonal up to ~1e-11 tails
        dims = 2
        centers = np.zeros((len(sizes), dims))
        centers[:, 0] = np.arange(len(sizes)) * 10.0
        data = np.vstack([np.tile(centers[i], (b, 1)) for i, b in enumerate(sizes)])
        assignments = njw_cluster(data, len(sizes), manual_global_sigma(2.0), seed=0)
        expected = block_labels(sizes)
        assert partition_of(assignments) == partition_of(expected)

    def test_local_scaling_kind_dispatch(self):
        data = np.array([[0.0], [0.2], [50.0], [50.2]])
        scaling = ScalingEstimate(kind="local", local_sigmas=np.array([1.0, 1.0, 1.0, 1.0]))
        assignments = njw_cluster(data, 2, scaling, seed=0)
        assert partition_of(assignments) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_deterministic(self, rng):
        data = rng.normal(0, 1, (20, 3))
        scaling = estimate_global_sigma(data)
        a1 = njw_cluster(data, 4, scaling, seed=5)
        a2 = njw_cluster(data, 4, scaling, seed=5)
        assert np.array_equal(a1, a2)

    def test_partition_invariant_under_relabeling(self, rng):
        data = rng.normal(0, 1, (15, 2))
        scaling = estimate_global_sigma(data)
        assignments = njw_cluster(data, 3, scaling, seed=2)
        relabeled = (assignments + 1) % (assignments.max() + 1)
        assert partition_of(assignments) == partition_of(relabeled)


class TestRowNormalize:
    def test_zero_rows_reported_by_count_and_first_five(self):
        vectors = np.ones((1000, 2))
        zero = [2, 5, 7, 11, 13, 17] + list(range(300, 1000))
        vectors[zero] = 0.0
        with pytest.raises(DegenerateEmbeddingError) as err:
            row_normalize(vectors)
        assert str(err.value) == (
            "706 embedding rows are numerically zero (first: [2, 5, 7, 11, 13])"
        )


class TestNodeSpectrum:
    """The chain runs in its input's buffer: on the tridiagonal path the
    spectrum's matrix is the distance matrix that went in, dsytrd's
    reflectors lie in that buffer too, and the call allocates well under
    one more n x n."""

    @needs_library
    @pytest.mark.parametrize("local", [False, True])
    def test_one_buffer(self, local):
        x = nested_scale_dataset(n_per_group=400, seed=0).features
        n = x.shape[0]
        assert n == 1200
        d = pairwise_distances(x)
        scaling = estimate_local_sigmas(x, d) if local else estimate_global_sigma(x)
        tracemalloc.start()
        try:
            spectrum = node_spectrum(d, scaling)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum.matrix is d
        assert np.shares_memory(spectrum.tridiagonal[0], d)
        assert peak <= 0.75 * 8 * n * n
