"""Data-driven estimation of the affinity scaling parameter.

Two schemes: a PCA-based global sigma^2 (weighted mean of major principal-axis
variances, axes chosen to cover a cumulative explained-variance threshold) and
a per-point local sigma (distance to the k-th nearest neighbor), read from the
node's ``gram_distances`` matrix before the affinity overwrites it and
certified against the points, so it keeps the exact ``pairwise_distances``
matrix's bits. The certificate rests on ``gram_distances``' relative bound,
``linalg.gram_relative_error(m)``, and needs nothing else from the data.

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
from .linalg import _EPS, as_matrix, covariance_eigenvalues, gram_relative_error, pair_squared_distances

# Rows per block of estimate_local_sigmas' certificate. At n = 1200, m = 20
# its tracemalloc peak is 1.2 MiB with 64 rows and 4.8 MiB with 256, which
# were no faster.
_LOCAL_ROWS = 64


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


def estimate_local_sigmas(data, distances, k: int = 7) -> ScalingEstimate:
    """Per-point local sigma: Euclidean distance to the k-th nearest neighbor,
    bit for bit the row's order statistic in ``pairwise_distances(data)``,
    read from ``distances = gram_distances(data)`` (or the exact matrix
    itself), which is not modified.

    k is clipped to n-1 so small subsets still get a defined scale. Duplicated
    points can yield sigma 0; the affinity construction handles that case.

    Certificate. Let q be an entry's difference-form sum of squares
    (``pair_squared_distances``), so that fl(sqrt(q)) is the exact matrix's
    entry, and D the given entry. Both ``gram_distances`` and the exact
    matrix keep ``gram_distances``' contract: D = 0 exactly where q = 0,
    D = inf exactly where q = inf, and otherwise |q - D^2| <= rho D^2, with
    rho = ``gram_relative_error(m)``.

    Selection. Let D_k be the row's order statistic k (the self entry 0
    counts, as in the exact row's partition). At least k + 1 entries have
    D <= D_k and so q <= (1 + rho) D_k^2, and so does the exact order
    statistic q_k. An entry with D > D_k sqrt((1 + rho) / (1 - rho)) has
    q >= (1 - rho) D^2 > (1 + rho) D_k^2 >= q_k, or q = inf: strictly
    above it. So the entries below that threshold (the candidates; the
    computed threshold is rounded up by 1 + 4 eps) hold the k + 1 smallest
    q, and order statistic k of their q, recomputed by
    ``pair_squared_distances``, is q_k; sqrt is monotone, so its fl(sqrt)
    is the exact matrix's entry. An overflowed D_k gives an infinite
    threshold, so its row is recomputed whole, as are rows whose k-th
    neighbour ties with many others within the threshold (duplicates).
    Rows are certified ``_LOCAL_ROWS`` at a time: one partition per block
    and one gather of its candidates, k + 1 per row when nothing ties.

    Raises DimensionError when ``distances`` is not n x n with a zero
    diagonal for n x m data, and InvalidDataError when the data's pairwise
    distances overflow.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be at least 1, got {k}")
    x = as_matrix(data)
    n = x.shape[0]
    dist = np.asarray(distances, dtype=float)
    if dist.shape != (n, n) or np.any(np.diagonal(dist) != 0.0):
        raise DimensionError(
            f"distances must be {n} x {n} with a zero diagonal, got {dist.shape}"
        )
    if n < 2:
        raise InsufficientDataError(
            f"local sigma estimation needs at least 2 rows, got {n}"
        )
    k_eff = min(k, n - 1)
    sigmas = np.empty(n)
    rho = gram_relative_error(x.shape[1])
    widen = math.sqrt((1 + rho) / (1 - rho)) * (1 + 4 * _EPS)
    for r0 in range(0, n, _LOCAL_ROWS):
        block = dist[r0 : r0 + _LOCAL_ROWS]
        # The self entry 0 is the smallest of its row, so order statistic
        # k_eff of the full row is the k_eff-th nearest other point.
        kth = np.partition(block, k_eff, axis=1)[:, k_eff]
        bound = kth * widen
        # flatnonzero lists the candidates row by row; sort each row's.
        rows, cols = np.divmod(np.flatnonzero(block <= bound[:, None]), n)
        exact = pair_squared_distances(x, rows + r0, cols)
        order = np.lexsort((exact, rows))
        counts = np.bincount(rows, minlength=block.shape[0])
        sigmas[r0 : r0 + block.shape[0]] = exact[order[np.cumsum(counts) - counts + k_eff]]
    np.sqrt(sigmas, out=sigmas)
    if not np.all(np.isfinite(sigmas)):
        raise InvalidDataError("local sigmas are not finite: pairwise distances overflow")
    return ScalingEstimate(kind="local", local_sigmas=sigmas)
