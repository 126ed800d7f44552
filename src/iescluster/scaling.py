"""Data-driven estimation of the affinity scaling parameter.

Two schemes: a PCA-based global sigma^2 (weighted mean of major principal-axis
variances, axes chosen to cover a cumulative explained-variance threshold) and
a per-point local sigma (distance to the k-th nearest neighbor), read from the
node's ``pairwise_distances`` matrix before the affinity overwrites it.

The variance along principal axis i is the i-th covariance eigenvalue, and no
axis or projection enters sigma^2, so the global scheme takes the eigenvalues
alone from ``linalg.covariance_eigenvalues``, on the smaller of the m x m
covariance and the n x n Gram matrix. The tests check it against the
projected variances of a full PCA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    DimensionError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
)
from .linalg import as_matrix, covariance_eigenvalues


@dataclass(frozen=True)
class ScalingEstimate:
    """Either one global sigma^2 or a vector of per-point local sigmas.

    For the global kind, ``components_used`` is the number of principal axes
    that reached the explained-variance threshold and ``variance_captured``
    is the cumulative weight they cover.
    """

    kind: str  # "global" | "local"
    sigma_sq: float | None = None
    local_sigmas: np.ndarray | None = None
    components_used: int | None = None
    variance_captured: float | None = None


def manual_global_sigma(sigma_sq: float) -> ScalingEstimate:
    """Wrap a user-supplied sigma^2 as a global estimate; it must be finite
    and positive."""
    if not 0 < sigma_sq < math.inf:
        raise InvalidParameterError(
            f"sigma_sq must be finite and positive, got {sigma_sq}"
        )
    return ScalingEstimate(kind="global", sigma_sq=float(sigma_sq))


def estimate_global_sigma(data, variance_threshold: float = 0.95) -> ScalingEstimate:
    """PCA-based global sigma^2.

    Uses the y largest principal axes, where y is the smallest count whose
    cumulative explained-variance ratio reaches ``variance_threshold``, and
    returns the weighted mean of their variances:

        sigma_sq = sum_i(w_i * v_i) / sum_i(w_i)   for i = 1..y

    with v the per-axis sample variances, the covariance eigenvalues in
    descending order, and w = v / sum(v).
    """
    if not 0.0 < variance_threshold <= 1.0:
        raise InvalidParameterError(
            f"variance_threshold must be in (0, 1], got {variance_threshold}"
        )
    x = as_matrix(data)
    if x.shape[0] < 2:
        raise InsufficientDataError(
            f"global sigma estimation needs at least 2 rows, got {x.shape[0]}"
        )
    if np.all(x == x[0]):
        # Rounding in the column means would leave constant data a tiny,
        # scale-dependent variance instead of zero.
        raise DegenerateDataError("data has zero total variance")
    variances = covariance_eigenvalues(x)
    total = float(np.sum(variances))
    if total <= 0.0:
        raise DegenerateDataError("data has zero total variance")
    weights = variances / total
    cumulative = np.cumsum(weights)
    reached = np.nonzero(cumulative >= variance_threshold - 1e-12)[0]
    y = int(reached[0]) + 1 if reached.size else len(weights)
    w = weights[:y]
    v = variances[:y]
    sigma_sq = float(np.sum(w * v) / np.sum(w))
    return ScalingEstimate(
        kind="global",
        sigma_sq=sigma_sq,
        components_used=y,
        variance_captured=float(cumulative[y - 1]),
    )


def estimate_local_sigmas(distances, k: int = 7) -> ScalingEstimate:
    """Per-point local sigma: Euclidean distance to the k-th nearest neighbor,
    read from ``distances = pairwise_distances(x)``, which is not modified.

    k is clipped to n-1 so small subsets still get a defined scale. Duplicated
    points can yield sigma 0; the affinity construction handles that case.

    Raises DimensionError for point data (not square, or a nonzero diagonal)
    and InvalidDataError when the data's pairwise distances overflow.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be at least 1, got {k}")
    dist = np.asarray(distances, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or np.any(np.diagonal(dist) != 0.0):
        raise DimensionError(f"distances must be square with a zero diagonal, got {dist.shape}")
    n = dist.shape[0]
    if n < 2:
        raise InsufficientDataError(
            f"local sigma estimation needs at least 2 rows, got {n}"
        )
    k_eff = min(k, n - 1)
    # The self-distance 0 is the smallest entry of its row, so order
    # statistic k_eff of the full row is the k_eff-th nearest other point.
    # Row by row, the partition's copy is one row. A whole-matrix partition
    # is a second n x n array beside ``distances``; its freed hole makes the
    # process's peak RSS depend on heap layout.
    sigmas = np.array([np.partition(row, k_eff)[k_eff] for row in dist])
    if not np.all(np.isfinite(sigmas)):
        raise InvalidDataError("local sigmas are not finite: pairwise distances overflow")
    return ScalingEstimate(kind="local", local_sigmas=sigmas)
