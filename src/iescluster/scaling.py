"""Data-driven estimation of the affinity scaling parameter.

Two schemes: a PCA-based global sigma^2 (weighted mean of major principal-axis
variances, axes chosen to cover a cumulative explained-variance threshold) and
a per-point local sigma (distance to the k-th nearest neighbor), read from the
node's ``gram_distances`` matrix before the affinity overwrites it and
certified against the points, so it keeps the exact ``pairwise_distances``
matrix's bits.

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
from .linalg import as_matrix, covariance_eigenvalues, pair_squared_distances

_EPS = np.finfo(float).eps
# A row's certificate scale counts as the floor below it; above the ceiling
# its slack is infinite, as gram_distances recomputes such entries exactly.
_SCALE_MIN = np.finfo(float).tiny / _EPS
_SCALE_MAX = np.finfo(float).max / 4
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


def _local_slack(x: np.ndarray) -> np.ndarray:
    """Each row's delta_i of ``estimate_local_sigmas``: 2 (2m + 9) eps M_i,
    or inf where M_i is above max/4 (or overflowed to inf or NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = x - x.mean(axis=0)
        sq = np.einsum("ij,ij->i", c, c)
        scale = np.maximum(sq + sq.max(), _SCALE_MIN)
    return np.where(scale <= _SCALE_MAX, 2 * (2 * x.shape[1] + 9) * _EPS * scale, np.inf)


def estimate_local_sigmas(data, distances, k: int = 7) -> ScalingEstimate:
    """Per-point local sigma: Euclidean distance to the k-th nearest neighbor,
    bit for bit the row's order statistic in ``pairwise_distances(data)``,
    read from ``distances = gram_distances(data)`` (or the exact matrix
    itself), which is not modified.

    k is clipped to n-1 so small subsets still get a defined scale. Duplicated
    points can yield sigma 0; the affinity construction handles that case.

    Certificate. Let u = eps/2, q_ij the difference form's sum of squares
    (``pair_squared_distances``), p_ij = fl(sqrt(q_ij)) the exact matrix's
    entry, d_ij the exact distance of the rows and D_ij the given entry.
    With c = fl(x - mean) and s_i = |c_i|^2 as in ``gram_distances``, let
    M_i = max(s_i + max_j s_j, tiny/eps) and S the pair's s_i + s_j <= M_i.
    Then d^2 <= 2 S (1 + O(m eps)): the rows' difference is that of the
    centered rows, each within a relative u of c_i. The difference form
    rounds each term within g_3 and sums m nonnegative terms within
    g_(m-1), so |q - d^2| <= (m + 2) u d^2 <= (m + 2) eps M_i. An entry
    ``gram_distances`` took from the product is fl(sqrt(r)) with
    |r - d^2| <= (m + 4) eps M_i (its docstring); one it recomputed is p,
    whose r is q. Either way the sqrt rounds by u, so |r - D^2| <= eps D^2,
    and D^2 <= 2 M_i (1 + O(m eps)). In all |q - D^2| <= (2m + 8) eps M_i
    (1 + O(m eps)). Products that underflow add about 2^-1075 each, which
    eps M_i >= tiny dwarfs, and for M_i <= max/4 nothing overflows. The
    slack delta_i = 2 (2m + 9) eps M_i is thus above 2 |q_ij - D_ij^2|
    for every j.

    Selection. Let D_k be the row's order statistic k (the self entry 0
    counts, as in the exact row's partition). At least k + 1 entries have
    D <= D_k, so q <= D_k^2 + delta_i / 2, and so does the exact order
    statistic q_k. An entry with D^2 > D_k^2 + delta_i has
    q > D_k^2 + delta_i / 2 >= q_k: strictly above it. So the entries with
    D <= t_i = sqrt(D_k^2 + delta_i) (the candidates; the computed t_i is
    rounded up by 1 + 4 eps) hold the k + 1 smallest q, and order
    statistic k of their q, recomputed by ``pair_squared_distances``, is
    q_k; sqrt is monotone, so its fl(sqrt) is the exact matrix's entry.
    Rows whose M_i is above max/4 get an infinite slack, so they are
    recomputed whole, as are rows whose k-th neighbour ties with many
    others within delta_i (duplicates). Rows are certified ``_LOCAL_ROWS``
    at a time: one partition per block and one gather of its candidates,
    k + 1 per row when nothing ties.

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
    slack = _local_slack(x)
    for r0 in range(0, n, _LOCAL_ROWS):
        block = dist[r0 : r0 + _LOCAL_ROWS]
        # The self entry 0 is the smallest of its row, so order statistic
        # k_eff of the full row is the k_eff-th nearest other point.
        kth = np.partition(block, k_eff, axis=1)[:, k_eff]
        with np.errstate(over="ignore"):
            bound = np.sqrt(kth * kth + slack[r0 : r0 + _LOCAL_ROWS]) * (1 + 4 * _EPS)
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
