"""Shared builders for the test suite, and the reference implementations
the library's fast paths are compared against."""

from dataclasses import dataclass
from itertools import permutations

import numpy as np
import pytest

from iescluster import lapack, linalg
from iescluster.errors import DegenerateDataError, InsufficientDataError
from iescluster.linalg import as_matrix

needs_library = pytest.mark.skipif(
    lapack.library() is None, reason="numpy bundles no ILP64 OpenBLAS"
)


def ideal_block_affinity(sizes):
    """Ones within blocks, zeros across, zero diagonal."""
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for b in sizes:
        a[start : start + b, start : start + b] = 1.0
        start += b
    np.fill_diagonal(a, 0.0)
    return a


def block_labels(sizes):
    return np.concatenate([np.full(b, i) for i, b in enumerate(sizes)])


def separated_blobs(sizes, separation=100.0, spread=0.05, dims=3, seed=0):
    """Well-separated Gaussian groups, one per coordinate axis so that all
    pairwise center distances are equal, plus labels."""
    dims = max(dims, len(sizes))
    rng = np.random.default_rng(seed)
    blocks = []
    for i, b in enumerate(sizes):
        center = np.zeros(dims)
        center[i] = separation
        blocks.append(center + rng.normal(0, spread, (b, dims)))
    return np.vstack(blocks), block_labels(sizes)


def best_permutation_accuracy(assignments, labels):
    """Agreement between two labelings, maximized over cluster-to-label
    permutations. Only for small numbers of distinct values."""
    assign_ids = np.unique(assignments)
    label_ids = np.unique(labels)
    n = len(assignments)
    best = 0.0
    for perm in permutations(label_ids, len(assign_ids)):
        mapping = dict(zip(assign_ids, perm))
        mapped = np.array([mapping[a] for a in assignments])
        best = max(best, float(np.mean(mapped == np.asarray(labels))))
    return best


def partition_of(assignments):
    """A labeling as a canonical set of frozen index sets."""
    a = np.asarray(assignments)
    return {frozenset(np.nonzero(a == v)[0].tolist()) for v in np.unique(a)}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def tau_edge_ring(rng, m, count=12):
    """A point at e_1, a ring of ``count`` neighbours around it and
    ``count + 1`` points near -e_1 that hold the centroid near 0, in m >= 2
    dimensions. Each pair of the point and a neighbour has scale M ~ 2 and
    d^2 in (1.05, 4] tau M with tau = 2^-20: just above gram_distances'
    cut, where the entries it trusts carry their largest relative error.
    The radii differ by a relative 1e-12 to 1e-8, about that error, so
    the Gram form may misorder the neighbours."""
    far = np.zeros(m)
    far[0] = 1.0
    base = np.sqrt(rng.uniform(1.05, 4.0) * 2.0**-20 * 2.0)
    jitter = 10.0 ** rng.uniform(-12, -8, count) * rng.choice([-1.0, 1.0], count)
    u = rng.normal(0, 1, (count, m))
    u /= np.linalg.norm(u, axis=1)[:, None]
    ring = far + (base * (1 + jitter))[:, None] * u
    return np.vstack([far, ring, -far + 0.01 * rng.normal(0, 1, (count + 1, m))])


def covariance(data) -> np.ndarray:
    """Sample covariance (divisor n-1) of mean-centered columns."""
    x = as_matrix(data)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"covariance needs at least 2 rows, got {n}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return (cov + cov.T) / 2.0


@dataclass(frozen=True)
class PcaResult:
    """Principal axes and projections of a mean-centered data matrix.

    axes:       columns are covariance eigenvectors, descending eigenvalue.
    projected:  centered data times axes.
    variances:  sample variance of each projected column.
    weights:    variances normalized to sum to one.
    """

    axes: np.ndarray
    projected: np.ndarray
    variances: np.ndarray
    weights: np.ndarray


def pca(data) -> PcaResult:
    """Project data onto covariance eigenvectors sorted by descending
    eigenvalue: the reference for ``linalg.covariance_eigenvalues``.

    Columns are mean-centered before the covariance and the projection, so the
    projected columns are uncorrelated and their sample variances sum to the
    covariance trace. Raises DegenerateDataError when total variance is zero.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"pca needs at least 2 rows, got {n}")
    if np.all(x == x[0]):
        # Rounding in the column means would leave constant data a tiny,
        # scale-dependent variance instead of zero.
        raise DegenerateDataError("data has zero total variance")
    axes = symmetric_eigen(covariance(x)).vectors
    projected = (x - x.mean(axis=0)) @ axes
    # Projected columns already have zero mean; variance straight from squares.
    variances = np.sum(projected**2, axis=0) / (n - 1)
    total = float(np.sum(variances))
    if total <= 0.0:
        raise DegenerateDataError("data has zero total variance")
    return PcaResult(axes=axes, projected=projected, variances=variances, weights=variances / total)


def symmetric_eigen(m):
    """Full eigendecomposition of a symmetric matrix, sorted descending.

    Exactly symmetric input is decomposed as is, without a copy: averaging
    it with its transpose would give back the same bits. Other input is
    averaged first, and a symmetry defect above ``linalg.SYMMETRY_RTOL``
    times the largest entry magnitude is rejected. Each eigenvector is unit
    norm with its largest-magnitude entry made positive, so identical input
    yields identical output.
    """
    return linalg._eigh(linalg._symmetric(m))


def pairwise_distances(data) -> np.ndarray:
    """Exact Euclidean distance matrix, computed row-by-row from differences.

    Only the upper triangle is computed: row i takes the differences
    ``x[j] - x[i]`` for j > i, and each row is mirrored into its column, with
    zeros on the diagonal. The matrix is therefore exactly symmetric, and
    every entry equals the per-pair ``sqrt(sum((x[i] - x[j]) ** 2))`` bit for
    bit, because negating a difference does not change its square.
    Differences (rather than the expanded inner-product form) keep the result
    translation-stable and bit-reproducible against that per-pair reference.
    """
    x = as_matrix(data)
    n = x.shape[0]
    out = np.empty((n, n))
    diff = np.empty((max(n - 1, 0), x.shape[1]))
    with np.errstate(over="ignore"):  # inf: affinity 0, or a rejected local sigma
        for i in range(n):
            rest = np.subtract(x[i + 1 :], x[i], out=diff[: n - 1 - i])
            np.multiply(rest, rest, out=rest)
            row = np.sqrt(np.sum(rest, axis=1), out=out[i, i + 1 :])
            out[i + 1 :, i] = row
    np.fill_diagonal(out, 0.0)
    return out


def sse(data, assignments, centroids) -> float:
    """Sum of squared Euclidean errors of points to their assigned centroids:
    the reference for the SSE of ``kmeans`` and of the raw-space elbow."""
    x = as_matrix(data)
    assign = np.asarray(assignments, dtype=int).ravel()
    c = as_matrix(centroids)
    return float(np.sum((x - c[assign]) ** 2))
