"""Dense symmetric linear algebra: sorted eigendecomposition, covariance, PCA.

Everything here operates on plain float64 ndarrays. Matrices are observations
in rows, features in columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    DimensionError,
    InsufficientDataError,
    InvalidDataError,
)

# Relative symmetry defect tolerated before refusing to decompose.
SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class EigenPairs:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending.

    ``vectors[:, i]`` is the unit eigenvector paired with ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


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


def as_matrix(data) -> np.ndarray:
    """Validate and coerce input to a finite 2-D float64 array."""
    m = np.asarray(data, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"matrix must be at least 1x1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidDataError("matrix contains NaN or Inf entries")
    return m


def symmetric_eigen(m) -> EigenPairs:
    """Full eigendecomposition of a symmetric matrix, sorted descending.

    Exactly symmetric input is decomposed as is, without a copy: averaging
    it with its transpose would give back the same bits. Other input is
    averaged first, and a symmetry defect above ``SYMMETRY_RTOL`` times the
    largest entry magnitude is rejected. Each eigenvector is unit norm with
    its largest-magnitude entry made positive, so identical input yields
    identical output.
    """
    a = as_matrix(m)
    n, cols = a.shape
    if n != cols:
        raise DimensionError(f"eigendecomposition needs a square matrix, got {a.shape}")
    if not np.array_equal(a, a.T):
        scale = np.max(np.abs(a))
        defect = np.max(np.abs(a - a.T))
        if defect > SYMMETRY_RTOL * max(scale, 1e-300):
            raise InvalidDataError(
                f"matrix is not symmetric: defect {defect:.3e} exceeds tolerance"
            )
        a = (a + a.T) / 2.0
    values, vectors = np.linalg.eigh(a)
    # eigh returns ascending order; flip to descending. For equal values the
    # solver's ordering is kept, which is deterministic for identical input.
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    # Sign convention: largest-magnitude entry of each eigenvector positive.
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)] < 0
    vectors[:, flip] *= -1.0
    return EigenPairs(values=values, vectors=vectors)


def covariance(data) -> np.ndarray:
    """Sample covariance (divisor n-1) of mean-centered columns."""
    x = as_matrix(data)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"covariance needs at least 2 rows, got {n}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return (cov + cov.T) / 2.0


def pca(data) -> PcaResult:
    """Project data onto covariance eigenvectors sorted by descending eigenvalue.

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
    cov = covariance(x)
    eig = symmetric_eigen(cov)
    axes = eig.vectors
    centered = x - x.mean(axis=0)
    projected = centered @ axes
    # Projected columns already have zero mean; variance straight from squares.
    variances = np.sum(projected**2, axis=0) / (n - 1)
    total = float(np.sum(variances))
    if total <= 0.0:
        raise DegenerateDataError("data has zero total variance")
    weights = variances / total
    return PcaResult(axes=axes, projected=projected, variances=variances, weights=weights)


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
    for i in range(n):
        rest = np.subtract(x[i + 1 :], x[i], out=diff[: n - 1 - i])
        np.multiply(rest, rest, out=rest)
        row = np.sqrt(np.sum(rest, axis=1), out=out[i, i + 1 :])
        out[i + 1 :, i] = row
    np.fill_diagonal(out, 0.0)
    return out
