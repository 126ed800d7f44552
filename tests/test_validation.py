from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import separated_blobs, sse
from iescluster.affinity import normalized_laplacian
from iescluster.errors import DimensionError, InvalidDataError, InvalidParameterError
from iescluster.kmeans import kmeans
from iescluster.linalg import gram_distances
from iescluster.njw import build_affinity, spectral_embed
from iescluster.scaling import estimate_global_sigma, manual_global_sigma
from iescluster.validation import (
    AssociationMatrix,
    ConfusionMatrix,
    association_matrix,
    confusion_from_association,
    elbow_sweep,
    evaluate,
    metrics,
)


def majority_label_oracle(assignments, labels):
    """Scalar re-derivation of the accuracy: each point counts as correct when
    its cluster's majority label (ties: larger class support, then smaller
    label) equals its own label."""
    assignments = list(assignments)
    labels = list(labels)
    label_ids = sorted(set(labels))
    support = {l: labels.count(l) for l in label_ids}
    cluster_to_label = {}
    for c in sorted(set(assignments)):
        votes = {}
        for a, l in zip(assignments, labels):
            if a == c:
                votes[l] = votes.get(l, 0) + 1
        top = max(votes.values())
        candidates = [l for l, v in votes.items() if v == top]
        top_support = max(support[l] for l in candidates)
        candidates = [l for l in candidates if support[l] == top_support]
        cluster_to_label[c] = min(candidates)
    correct = sum(1 for a, l in zip(assignments, labels) if cluster_to_label[a] == l)
    return correct / len(labels)


class TestAssociationMatrix:
    def test_perfect_clustering_permutation_diagonal(self):
        labels = [0, 0, 1, 1, 2, 2]
        clusters = [5, 5, 3, 3, 9, 9]
        am = association_matrix(clusters, labels)
        assert am.total == 6
        assert sorted(am.counts[am.counts > 0].tolist()) == [2, 2, 2]
        assert np.all((am.counts > 0).sum(axis=0) == 1)
        assert np.all((am.counts > 0).sum(axis=1) == 1)

    def test_majority_vote_column(self):
        # a cluster of 20 points: 19 of one class, 1 of another
        labels = [14501] * 19 + [18001]
        clusters = [23] * 20
        am = association_matrix(clusters, labels)
        assert am.cluster_ids == (23,)
        assert am.counts[:, 0].tolist() == [19, 1]

    def test_everything_in_one_cluster(self):
        labels = [0] * 3 + [1] * 5 + [2] * 2
        am = association_matrix([7] * 10, labels)
        assert am.counts[:, 0].tolist() == [3, 5, 2]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            association_matrix([0, 1], [0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=1, max_size=60
        )
    )
    def test_marginals(self, pairs):
        clusters = [c for c, _ in pairs]
        labels = [l for _, l in pairs]
        am = association_matrix(clusters, labels)
        assert am.total == len(pairs)
        for j, cid in enumerate(am.cluster_ids):
            assert am.counts[:, j].sum() == clusters.count(cid)
        for i, lid in enumerate(am.label_ids):
            assert am.counts[i].sum() == labels.count(lid)


class TestConfusionFromAssociation:
    def test_majority_vote_assigns_dominant_class(self):
        labels = [14501] * 19 + [18001]
        cm = confusion_from_association(association_matrix([23] * 20, labels))
        assert cm.cluster_label_map[23] == 14501
        assert cm.total == 20

    def test_same_label_clusters_merged(self):
        # five clusters all dominated by the same class collapse into one column
        labels = np.repeat([0], 25).tolist() + [1] * 10
        clusters = np.repeat([20, 21, 22, 23, 24], 5).tolist() + [30] * 10
        cm = confusion_from_association(association_matrix(clusters, labels))
        assert all(cm.cluster_label_map[c] == 0 for c in (20, 21, 22, 23, 24))
        assert cm.counts[0, 0] == 25
        assert cm.counts[1, 1] == 10

    def test_perfect_clustering_identity(self):
        labels = [0, 0, 1, 1, 2, 2]
        clusters = [5, 5, 3, 3, 9, 9]
        cm = confusion_from_association(association_matrix(clusters, labels))
        assert np.array_equal(cm.counts, np.diag([2, 2, 2]))
        assert metrics(cm, 3).accuracy == 1.0

    def test_tie_broken_by_class_support_then_label(self):
        # cluster 0 splits 2-2 between classes 0 and 1; class 1 has larger
        # overall support and wins
        labels = [0, 0, 1, 1, 1, 1, 1]
        clusters = [0, 0, 0, 0, 1, 1, 1]
        cm = confusion_from_association(association_matrix(clusters, labels))
        assert cm.cluster_label_map[0] == 1
        # with equal supports the smaller label wins
        labels = [0, 0, 1, 1]
        clusters = [0, 0, 0, 0]
        cm = confusion_from_association(association_matrix(clusters, labels))
        assert cm.cluster_label_map[0] == 0

    def test_total_preserved(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 50))
            clusters = rng.integers(0, 6, n)
            labels = rng.integers(0, 4, n)
            am = association_matrix(clusters, labels)
            cm = confusion_from_association(am)
            assert cm.total == am.total == n


class TestMetrics:
    def test_hand_confusion_two_classes(self):
        # confusion [[3,1],[0,2]]: n=6, trace 5.
        # label 0: support 4, P=3/3, R=3/4, F=6/7
        # label 1: support 2, P=2/3, R=1,   F=4/5
        # weighted: P=8/9, R=5/6, F=88/105 -- scalar arithmetic below
        cm = ConfusionMatrix(
            counts=np.array([[3, 1], [0, 2]]),
            label_ids=(0, 1),
            cluster_label_map={0: 0, 1: 1},
        )
        rep = metrics(cm, 2)
        p0, r0 = Fraction(3, 3), Fraction(3, 4)
        p1, r1 = Fraction(2, 3), Fraction(2, 2)
        f0 = 2 * p0 * r0 / (p0 + r0)
        f1 = 2 * p1 * r1 / (p1 + r1)

        def weighted(a, b):
            return float((4 * a + 2 * b) / 6)

        assert rep.accuracy == pytest.approx(5 / 6)
        assert rep.precision == pytest.approx(weighted(p0, p1))
        assert rep.precision == pytest.approx(float(Fraction(8, 9)))
        assert rep.recall == pytest.approx(weighted(r0, r1))
        assert rep.recall == pytest.approx(float(Fraction(5, 6)))
        assert rep.f_measure == pytest.approx(weighted(f0, f1))
        assert rep.f_measure == pytest.approx(float(Fraction(88, 105)))
        assert rep.per_label[0].f_measure == pytest.approx(float(f0))
        assert rep.per_label[1].f_measure == pytest.approx(float(f1))

    def test_perfect_clustering_indicators(self):
        labels = [0, 0, 1, 1]
        rep = evaluate([4, 4, 2, 2], labels)
        assert rep.accuracy == rep.precision == rep.recall == rep.f_measure == 1.0
        assert rep.indicator_cluster_ratio == pytest.approx(2 / 2)
        assert rep.indicator_label_recovery == 1.0

    def test_cluster_ratio_indicator(self):
        # 44 generated clusters over 16 classes
        labels = list(range(16))
        cm = confusion_from_association(association_matrix(labels, labels))
        rep = metrics(cm, 44)
        assert rep.indicator_cluster_ratio == pytest.approx(44 / 16)
        assert rep.indicator_cluster_ratio == pytest.approx(2.75)

    def test_label_recovery_partial(self):
        # both clusters vote for label 0; label 1 is never recovered
        labels = [0, 0, 0, 1, 0, 0, 0, 1]
        clusters = [0, 0, 0, 0, 1, 1, 1, 1]
        rep = evaluate(clusters, labels)
        assert rep.indicator_label_recovery == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.int64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.integers(min_value=0, max_value=30),
        )
    )
    def test_accuracy_is_trace_over_n(self, counts):
        assume(counts.sum() > 0)
        am = AssociationMatrix(
            counts=counts,
            label_ids=tuple(range(counts.shape[0])),
            cluster_ids=tuple(range(counts.shape[1])),
        )
        cm = confusion_from_association(am)
        rep = metrics(cm, counts.shape[1])
        assert rep.accuracy == pytest.approx(np.trace(cm.counts) / counts.sum())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=2, max_size=80
        )
    )
    def test_accuracy_matches_majority_oracle(self, pairs):
        clusters = [c for c, _ in pairs]
        labels = [l for _, l in pairs]
        rep = evaluate(clusters, labels)
        assert rep.accuracy == pytest.approx(majority_label_oracle(clusters, labels))

    def test_invariant_under_id_permutations(self, rng):
        for _ in range(10):
            n = 60
            clusters = rng.integers(0, 5, n)
            labels = rng.integers(0, 4, n)
            base = evaluate(clusters, labels)
            # permute cluster ids
            cperm = rng.permutation(5)
            shuffled = evaluate(cperm[clusters], labels)
            assert shuffled.accuracy == pytest.approx(base.accuracy)
            assert shuffled.f_measure == pytest.approx(base.f_measure)
            assert shuffled.precision == pytest.approx(base.precision)
            assert shuffled.recall == pytest.approx(base.recall)


class TestElbowSweep:
    def test_final_point_zero_at_k_equals_n(self, rng):
        data = rng.normal(0, 1, (8, 2))
        curve = elbow_sweep(data, (1, 8), estimate_global_sigma(data), seed=0)
        assert [k for k, _ in curve] == list(range(1, 9))
        assert curve[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_flattens_at_true_block_count(self):
        data, _ = separated_blobs((10, 10, 10), separation=60.0, spread=0.1, seed=0)
        curve = dict(elbow_sweep(data, (2, 4), estimate_global_sigma(data), seed=0))
        assert curve[3] / curve[2] < 0.2

    def test_raw_space_elbow(self):
        data, _ = separated_blobs((10, 10, 10), separation=60.0, spread=0.1, seed=0)
        curve = dict(
            elbow_sweep(data, (2, 4), estimate_global_sigma(data), seed=0, space="raw")
        )
        assert curve[3] / curve[2] < 0.2

    def test_raw_space_equals_sse_oracle(self):
        # Each k's value is the oracle's SSE of the data about the per-cluster
        # means of the embedding's k-means partition, bit for bit.
        data, _ = separated_blobs((10, 12, 9), separation=20.0, spread=2.0, seed=4)
        scaling = estimate_global_sigma(data)
        lap = normalized_laplacian(build_affinity(gram_distances(data), scaling))
        expected = []
        for k in range(1, 5):
            assign = kmeans(spectral_embed(lap, k), k, 7).assignments
            means = np.array([data[assign == c].mean(axis=0) for c in range(assign.max() + 1)])
            expected.append((k, sse(data, assign, means)))
        assert elbow_sweep(data, (1, 4), scaling, 7, space="raw") == expected

    def test_raw_space_rejects_overflowing_cluster_mean(self):
        # Twenty copies of 1.7e308 sum to inf: the curve holds no inf SSE.
        noise = np.random.default_rng(0).normal(0, 1, (20, 2))
        data = np.vstack([np.full((20, 2), 1.7e308), noise])
        with pytest.raises(InvalidDataError):
            elbow_sweep(data, (2, 3), manual_global_sigma(1.0), seed=0, space="raw")

    def test_deterministic(self, rng):
        data = rng.normal(0, 1, (15, 3))
        scaling = estimate_global_sigma(data)
        c1 = elbow_sweep(data, (1, 6), scaling, seed=3)
        c2 = elbow_sweep(data, (1, 6), scaling, seed=3)
        assert c1 == c2

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_single_k_equals_njw_chain(self, k):
        data, _ = separated_blobs((10, 12, 9), separation=20.0, spread=2.0, seed=4)
        scaling = estimate_global_sigma(data)
        lap = normalized_laplacian(build_affinity(gram_distances(data), scaling))
        embedding = spectral_embed(lap, k)
        expected = kmeans(embedding, k, 7).sse
        assert elbow_sweep(data, (k, k), scaling, 7) == [(k, expected)]

    def test_invalid_range(self, rng):
        data = rng.normal(0, 1, (5, 2))
        scaling = estimate_global_sigma(data)
        with pytest.raises(InvalidParameterError):
            elbow_sweep(data, (0, 3), scaling, seed=0)
        with pytest.raises(InvalidParameterError):
            elbow_sweep(data, (2, 9), scaling, seed=0)
        with pytest.raises(InvalidParameterError):
            elbow_sweep(data, (4, 2), scaling, seed=0)

    def test_negative_seed(self, rng):
        data = rng.normal(0, 1, (8, 2))
        with pytest.raises(InvalidParameterError, match="seed must be nonnegative"):
            elbow_sweep(data, (1, 3), estimate_global_sigma(data), seed=-1)
