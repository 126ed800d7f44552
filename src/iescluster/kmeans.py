"""Deterministic Lloyd-iteration k-means.

Initialization is greedy farthest-point: a seeded pseudo-random first
centroid, then each further centroid is the point farthest from the chosen
set (ties to the lowest index). Four such restarts (their first picks drawn
in sequence from the same seeded generator) are run and the lowest-SSE
result kept, so the outcome is a pure function of (data, k, seed). For a
fixed seed the candidate starting points are identical for every k, which
keeps elbow sweeps comparable. The restarts share each point's row of
squared distances (at most 4k rows of n values), computed once by the
same expression.

The assignment step ranks centroids in inner-product form, |c|^2 - 2 x.c,
from one matrix product. A point keeps that nearest centroid only when its
margin over the runner-up exceeds a rounding bound; the other points are
recomputed in the difference form sum((x - c)^2), which stays the oracle.
Assignments are therefore bit-identical to the difference form's, lowest
centroid id on ties, on any BLAS and in either layout of the product (see
``_nearest``).

The update step sums every cluster in one ``np.bincount`` pass. For two or
more columns numpy's ``mean(axis=0)`` of a cluster's rows adds them one row
at a time from +0.0, in row order, which is the order ``bincount`` adds
them, so the centroids are bit-identical to per-cluster ``mean`` calls. A
single column numpy sums pairwise, so there the update keeps ``mean``. Each
pass thus makes the same few numpy calls whatever k is (for d >= 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidParameterError
from .linalg import _EPS, _SCALE_MAX, _SCALE_MIN, as_matrix

_MAX_ITER = 300
_TOL = 1e-8  # on the largest centroid movement of one pass
_RESTARTS = 4


@dataclass(frozen=True)
class KMeansResult:
    """Final assignments and centroids plus convergence bookkeeping.

    ``sse_history`` records the objective after every assignment step of the
    winning run; it is non-increasing.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    sse: float
    iterations: int
    converged: bool
    sse_history: tuple = field(default=(), repr=False)

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def sse(data, assignments, centroids) -> float:
    """Sum of squared Euclidean errors of points to their assigned centroids."""
    x = as_matrix(data)
    assign = np.asarray(assignments, dtype=int).ravel()
    c = as_matrix(centroids)
    if assign.shape[0] != x.shape[0]:
        raise DimensionError(
            f"assignments length {assign.shape[0]} != number of points {x.shape[0]}"
        )
    if c.shape[1] != x.shape[1]:
        raise DimensionError(
            f"centroid dimension {c.shape[1]} != data dimension {x.shape[1]}"
        )
    if assign.size and (assign.min() < 0 or assign.max() >= c.shape[0]):
        raise DimensionError("assignment id outside centroid range")
    return _sse(x, assign, c)


def _sse(x: np.ndarray, assign: np.ndarray, centroids: np.ndarray) -> float:
    """``sse`` without its checks, for data already validated."""
    return float(np.sum((x - centroids[assign]) ** 2))


def cluster_means(x: np.ndarray, assignments: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row c is the mean of the rows of ``x`` assigned to cluster c, bit for
    bit ``x[assignments == c].mean(axis=0)``; rows of empty clusters are 0.

    ``counts`` is ``np.bincount(assignments)``, padded to the cluster count.
    One ``bincount`` over the flattened (cluster, column) index gives every
    sum (see the module docstring for why the bits match).
    """
    d = x.shape[1]
    k = counts.shape[0]
    if d == 1:
        # numpy sums a single column pairwise, so only mean() gives its bits.
        means = np.zeros((k, 1))
        for cid in np.flatnonzero(counts):
            means[cid] = x[assignments == cid].mean(axis=0)
        return means
    index = (assignments[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(index, weights=x.ravel(), minlength=k * d).reshape(k, d)
    return sums / np.maximum(counts, 1)[:, None]


def _farthest_points(x: np.ndarray, k: int, first: int, rows: dict) -> list:
    """Indices of k starting centroids: ``first``, then greedy farthest.
    ``rows`` maps a point index to its squared distances to every point;
    restarts on the same ``x`` share it, and each row is computed once by
    the same expression."""

    def row(i: int) -> np.ndarray:
        if i not in rows:
            rows[i] = np.sum((x - x[i]) ** 2, axis=1)
        return rows[i]

    chosen = [first]
    min_sq = row(first)
    while len(chosen) < k:
        nxt = int(np.argmax(min_sq))
        chosen.append(nxt)
        min_sq = np.minimum(min_sq, row(nxt))
    return chosen


# The largest k for which ``_nearest`` stores h as (k, n). Measured at
# n = 200-1200 on embeddings of k columns: (k, n) took 0.4-0.9x the time of
# (n, k) up to k = 40, about the same at 48, and 1.1-2.4x at 64-95.
_BY_CENTROID_K = 40


def _nearest_exact(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin resolves ties to the lowest centroid id.
    d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def _nearest(x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """``_nearest_exact`` bit for bit, from one GEMM instead of n*k*d differences.
    ``x_sq`` holds the rows' |x|^2, which ``kmeans`` computes once per call.

    For each row, h_j = |c_j|^2 - 2 x.c_j is |x - c_j|^2 less the row's own
    |x|^2, so it has the same argmin. A row keeps that argmin only when its
    gap (runner-up h minus best h) exceeds the slack below; every other row is
    recomputed by ``_nearest_exact``.

    Slack. Let u = eps/2, g_m = m u / (1 - m u), d the dimension and
    S = |x|^2 + max_j |c_j|^2, so |x|^2 + |c_j|^2 <= S and, by Cauchy-Schwarz,
    2 |x| |c_j| <= S. In any summation order (BLAS or einsum, with or without
    FMA) a computed dot product errs by at most g_d sum_i |x_i c_ji|
    <= g_d |x| |c_j|, and |c_j|^2 by at most g_d |c_j|^2. Scaling by -2 is
    exact and the one addition adds u, so the computed h_j errs by at most
    g_(d+1) (|c_j|^2 + 2 |x| |c_j|) <= 2 g_(d+1) S. The difference form
    rounds each (x_i - c_ji)^2 within g_3 and sums d nonnegative terms within
    g_(d-1), so it errs by at most g_(d+2) |x - c_j|^2 <= 2 g_(d+2) S. The
    exact h_o - h_b equals |x - c_o|^2 - |x - c_b|^2, so a computed gap above
    2 (2 g_(d+1) S) + 2 (2 g_(d+2) S) <= 8 g_(d+2) S <= 4 (d+3) eps S
    (using m (m+1) u <= 1) leaves every other centroid strictly farther in
    the difference form too: its argmin is the same unique index. The slack
    doubles that bound, which also covers rounding in S, the gap and the
    slack themselves, and, for S >= _SCALE_MIN, the absolute error of
    subnormal intermediates (at most ~4d+8 of 2^-1075 against a spare
    4 (d+3) 2^-1022). For S <= _SCALE_MAX no intermediate of either form
    exceeds 2 S, so nothing overflows.

    Rows outside ``linalg``'s scale window get an infinite slack, and a NaN
    gap (from inf - inf) compares false, so both fail ``gap > slack`` and
    take the exact path. So does any exact tie (gap 0): ties keep
    ``argmin``'s lowest-id rule.

    Since the bound holds for any summation order, the product may be laid
    out either way. For up to ``_BY_CENTROID_K`` centroids h is stored
    (k, n), so the reductions over k run down contiguous rows; beyond that
    the per-point rows of an (n, k) layout are the faster ones.
    """
    n, d = x.shape
    # Overflow here only sends rows to the exact path, which warns as before.
    with np.errstate(over="ignore", invalid="ignore"):
        cc = np.einsum("ij,ij->i", centroids, centroids)
        if centroids.shape[0] <= _BY_CENTROID_K:
            h = (centroids @ x.T).T
        else:
            h = x @ centroids.T
        h *= -2.0
        h += cc
        rows = np.arange(n)
        best = np.argmin(h, axis=1)
        lead = h[rows, best]
        h[rows, best] = np.inf
        gap = h.min(axis=1) - lead
        scale = x_sq + cc.max()
        in_window = (scale >= _SCALE_MIN) & (scale <= _SCALE_MAX)
        slack = np.where(in_window, 8.0 * (d + 3) * _EPS * scale, np.inf)
    redo = np.flatnonzero(~(gap > slack))
    if redo.size:
        best[redo] = _nearest_exact(x[redo], centroids)
    return best


def _lloyd(x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray) -> KMeansResult:
    history: list[float] = []
    iterations = 0
    converged = False
    while True:
        assign = _nearest(x, centroids, x_sq)
        history.append(_sse(x, assign, centroids))
        if __debug__ and len(history) >= 2:
            assert history[-1] <= history[-2] * (1 + 1e-12) + 1e-12
        counts = np.bincount(assign, minlength=centroids.shape[0])
        if converged or iterations == _MAX_ITER:
            break

        iterations += 1
        means = cluster_means(x, assign, counts)
        if not counts.all():
            # Dropping empty clusters changes the centroid count; keep going.
            centroids = means[counts > 0]
            continue
        movement = float(np.max(np.sqrt(np.sum((means - centroids) ** 2, axis=1))))
        centroids = means
        converged = movement < _TOL

    keep = np.nonzero(counts > 0)[0]
    remap = np.full(centroids.shape[0], -1, dtype=int)
    remap[keep] = np.arange(keep.size)
    return KMeansResult(
        assignments=remap[assign],
        centroids=centroids[keep],
        # Dropping empty centroids and renumbering leave every point's
        # centroid row, and so this sum, unchanged.
        sse=history[-1],
        iterations=iterations,
        converged=converged,
        sse_history=tuple(history),
    )


def kmeans(data, k: int, seed: int) -> KMeansResult:
    """Lloyd iteration until no centroid moves by 1e-8 or more, or 300 passes.

    Clusters that lose all members are dropped, so the effective number of
    clusters can shrink; final assignments are renumbered densely. The result
    is deterministic for fixed (data, k, seed).
    """
    x = as_matrix(data)
    n = x.shape[0]
    if k < 1:
        raise InvalidParameterError(f"k must be at least 1, got {k}")
    if k > n:
        raise InvalidParameterError(f"k={k} exceeds number of points n={n}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be nonnegative, got {seed}")

    rng = np.random.default_rng(seed)
    rows: dict = {}
    with np.errstate(over="ignore"):  # only sends rows to the exact path
        x_sq = np.einsum("ij,ij->i", x, x)
    best: KMeansResult | None = None
    for _ in range(_RESTARTS):
        start = int(rng.integers(n))
        result = _lloyd(x, x[_farthest_points(x, k, start, rows)].copy(), x_sq)
        if best is None or result.sse < best.sse:
            best = result
    return best
