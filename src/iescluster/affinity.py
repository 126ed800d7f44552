"""Gaussian affinity matrices and the symmetric normalized Laplacian, each
built in its input's buffer: the affinities overwrite ``pairwise_distances(x)``
and ``normalized_laplacian`` scales a float64 affinity in place."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, InvalidParameterError, IsolatedPointsError
from .linalg import as_matrix

# Rows per block of normalized_laplacian's scaling.
_LAPLACIAN_ROWS = 256


def _distance_term(distances, distance_exponent: int) -> np.ndarray:
    """Checks, then dist^e in the caller's buffer (squared in place for e=2)."""
    if distance_exponent not in (1, 2):
        raise InvalidParameterError(
            f"distance_exponent must be 1 or 2, got {distance_exponent}"
        )
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionError(f"distances must be a square matrix, got {d.shape}")
    if distance_exponent == 2:
        np.multiply(d, d, out=d)
    return d


def affinity_global(distances, sigma_sq: float, distance_exponent: int = 2) -> np.ndarray:
    """Affinity A_ij = exp(-dist_ij^e / (2 sigma_sq)), zero diagonal, from
    ``distances = pairwise_distances(x)``, which it overwrites and returns.

    The exponent e defaults to squared Euclidean distance; e=1 keeps the
    plain norm for comparison runs. sigma_sq must be finite and positive.
    """
    if not 0 < sigma_sq < math.inf:
        raise InvalidParameterError(
            f"sigma_sq must be finite and positive, got {sigma_sq}"
        )
    a = _distance_term(distances, distance_exponent)
    # t / -c rounds exactly as -t / c, the textbook form.
    np.divide(a, -2.0 * sigma_sq, out=a)
    np.exp(a, out=a)
    np.fill_diagonal(a, 0.0)
    return a


def affinity_local(distances, local_sigmas, distance_exponent: int = 2) -> np.ndarray:
    """Affinity A_ij = exp(-dist_ij^e / (sigma_i sigma_j)), zero diagonal, from
    ``distances = pairwise_distances(x)``, which it overwrites and returns.

    Pairs with sigma_i * sigma_j == 0 (duplicate points) get affinity 1 when
    coincident and 0 otherwise, the limit of the expression as the scale
    shrinks. Local sigmas must be finite and nonnegative.
    """
    sig = np.asarray(local_sigmas, dtype=float).ravel()
    if sig.shape != np.shape(distances)[:1]:
        raise DimensionError(f"{sig.size} local sigmas for a {np.shape(distances)} matrix")
    if not np.all(np.isfinite(sig)):
        raise InvalidParameterError("local sigmas must be finite")
    if np.any(sig < 0):
        raise InvalidParameterError("local sigmas must be nonnegative")
    a = _distance_term(distances, distance_exponent)
    neg_denom = np.multiply.outer(-sig, sig)
    zero = neg_denom == 0.0
    limit = None
    if zero.any():
        # The limit depends on the distance, so read it before the overwrite.
        limit = np.where(a[zero] == 0.0, 1.0, 0.0)
        neg_denom[zero] = -1.0
    np.divide(a, neg_denom, out=a)
    np.exp(a, out=a)
    if limit is not None:
        a[zero] = limit
    np.fill_diagonal(a, 0.0)
    return a


def normalized_laplacian(a) -> np.ndarray:
    """Symmetric normalization L = D^{-1/2} A D^{-1/2}, D the degree diagonal,
    in place for a float64 ``a`` (other input is copied first).

    Raises IsolatedPointsError (carrying the offending indices) when a row of
    the affinity sums to zero, or to so little that 1/degree overflows (its
    affinities underflowed to subnormals), which would turn the scaled row
    into inf and NaN; the caller decides how to split those points off.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"affinity must be square, got {m.shape}")
    degrees = m.sum(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
        isolated = np.nonzero(~np.isfinite(inv_sqrt * inv_sqrt))[0]
    if isolated.size:
        raise IsolatedPointsError(isolated)
    # Row blocks of the outer product: the same products, without an n x n
    # temporary whose freed hole could sit beside the eigensolve's copy.
    for r0 in range(0, m.shape[0], _LAPLACIAN_ROWS):
        rows = slice(r0, r0 + _LAPLACIAN_ROWS)
        np.multiply(m[rows], np.outer(inv_sqrt[rows], inv_sqrt), out=m[rows])
    return m
