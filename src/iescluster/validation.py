"""Internal and external cluster validation.

External: ground-truth-label x cluster association counts, majority-vote
mapping to a confusion matrix over labels, and support-weighted precision,
recall and F-measure plus two quality indicators. Internal: an SSE sweep
over a range of cluster counts for elbow inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidParameterError
from .kmeans import _sse, cluster_means, kmeans
from .linalg import as_matrix, gram_distances
from .njw import node_spectrum, row_normalize
from .scaling import ScalingEstimate


@dataclass(frozen=True)
class AssociationMatrix:
    """Counts of (ground-truth label, generated cluster) co-occurrences."""

    counts: np.ndarray
    label_ids: tuple
    cluster_ids: tuple

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ConfusionMatrix:
    """Label x label counts after majority-vote cluster labeling and merging
    of clusters that voted for the same label."""

    counts: np.ndarray
    label_ids: tuple
    cluster_label_map: dict

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class LabelMetrics:
    label: object
    precision: float
    recall: float
    f_measure: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    """Support-weighted external metrics plus cluster-quality indicators.

    ``indicator_cluster_ratio`` compares the generated cluster count to the
    label count (1 is ideal); ``indicator_label_recovery`` is the fraction
    of labels that own at least one cluster after the majority vote.
    """

    accuracy: float
    precision: float
    recall: float
    f_measure: float
    per_label: tuple
    indicator_cluster_ratio: float
    indicator_label_recovery: float


def association_matrix(assignments, labels) -> AssociationMatrix:
    """Count how the points of each ground-truth label spread over clusters."""
    assign = np.asarray(assignments).ravel()
    lab = np.asarray(labels).ravel()
    if assign.shape[0] != lab.shape[0]:
        raise DimensionError(
            f"assignments length {assign.shape[0]} != labels length {lab.shape[0]}"
        )
    label_ids, label_pos = np.unique(lab, return_inverse=True)
    cluster_ids, cluster_pos = np.unique(assign, return_inverse=True)
    counts = np.zeros((label_ids.shape[0], cluster_ids.shape[0]), dtype=int)
    np.add.at(counts, (label_pos, cluster_pos), 1)
    return AssociationMatrix(
        counts=counts,
        label_ids=tuple(label_ids.tolist()),
        cluster_ids=tuple(cluster_ids.tolist()),
    )


def confusion_from_association(am: AssociationMatrix) -> ConfusionMatrix:
    """Label each cluster by majority vote, then merge same-label clusters.

    Vote ties go to the class with the larger total support, then to the
    smaller label id, so the mapping is deterministic.
    """
    n_labels = len(am.label_ids)
    supports = am.counts.sum(axis=1)
    merged = np.zeros((n_labels, n_labels), dtype=int)
    cluster_label_map = {}
    for j, cluster in enumerate(am.cluster_ids):
        column = am.counts[:, j]
        best = column.max()
        candidates = np.nonzero(column == best)[0]
        if candidates.shape[0] > 1:
            by_support = supports[candidates]
            candidates = candidates[by_support == by_support.max()]
        winner = int(candidates[0])  # label_ids are sorted: smallest id wins
        cluster_label_map[cluster] = am.label_ids[winner]
        merged[:, winner] += column
    return ConfusionMatrix(
        counts=merged, label_ids=am.label_ids, cluster_label_map=cluster_label_map
    )


def metrics(cm: ConfusionMatrix, n_clusters_generated: int) -> MetricsReport:
    """Per-label precision/recall/F from the confusion matrix, averaged with
    label-support weights. Labels with no predicted points get precision 0."""
    counts = cm.counts
    n = counts.sum()
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    diag = np.diag(counts)
    per_label = []
    for i, label in enumerate(cm.label_ids):
        p = diag[i] / col_sums[i] if col_sums[i] > 0 else 0.0
        r = diag[i] / row_sums[i] if row_sums[i] > 0 else 0.0
        f = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        per_label.append(
            LabelMetrics(
                label=label,
                precision=float(p),
                recall=float(r),
                f_measure=float(f),
                support=int(row_sums[i]),
            )
        )
    weights = row_sums / n if n > 0 else row_sums
    accuracy = float(diag.sum() / n) if n > 0 else 0.0
    precision = float(sum(w * m.precision for w, m in zip(weights, per_label)))
    recall = float(sum(w * m.recall for w, m in zip(weights, per_label)))
    f_measure = float(sum(w * m.f_measure for w, m in zip(weights, per_label)))
    n_labels = len(cm.label_ids)
    recovered = len(set(cm.cluster_label_map.values()))
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        per_label=tuple(per_label),
        indicator_cluster_ratio=n_clusters_generated / n_labels,
        indicator_label_recovery=recovered / n_labels,
    )


def evaluate(assignments, labels, n_clusters_generated: int | None = None) -> MetricsReport:
    """Association -> confusion -> metrics in one call."""
    am = association_matrix(assignments, labels)
    cm = confusion_from_association(am)
    if n_clusters_generated is None:
        n_clusters_generated = len(am.cluster_ids)
    return metrics(cm, n_clusters_generated)


def elbow_sweep(
    data,
    k_range: tuple[int, int],
    scaling: ScalingEstimate,
    seed: int,
    distance_exponent: int = 2,
    space: str = "embedding",
) -> list[tuple[int, float]]:
    """SSE of the spectral-clustering result for every k in the inclusive
    range, sharing one seed so k-means starts from the same points each time.

    ``space`` selects where the SSE is measured: "embedding" (where the final
    k-means runs) or "raw" (original feature space with per-cluster means).
    The curve is returned raw; no monotonicity is implied.
    """
    x = as_matrix(data)
    n = x.shape[0]
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if not (1 <= k_min <= k_max <= n):
        raise InvalidParameterError(
            f"k range [{k_min}, {k_max}] must lie within [1, {n}]"
        )
    if space not in ("embedding", "raw"):
        raise InvalidParameterError(f"space must be 'embedding' or 'raw', got {space!r}")
    vectors = node_spectrum(gram_distances(x), scaling, distance_exponent).top(k_max, k_min)
    curve = []
    for k in range(k_min, k_max + 1):
        embedding = row_normalize(vectors[:, :k])
        km = kmeans(embedding, k, seed)
        if space == "embedding":
            value = km.sse
        else:
            centroids = cluster_means(x, km.assignments, np.bincount(km.assignments))
            # A cluster whose column sum overflows is rejected, not scored inf.
            value = _sse(x, km.assignments, as_matrix(centroids))
        curve.append((k, float(value)))
    return curve
