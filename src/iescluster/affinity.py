"""Gaussian affinity matrices and the symmetric normalized Laplacian."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, InvalidParameterError, IsolatedPointsError
from .linalg import as_matrix, pairwise_distances


def _distance_term(data, distance_exponent: int, distances) -> np.ndarray:
    """dist^e in a buffer the caller may overwrite: ``distances`` itself when
    given (squared in place for e=2), else a freshly computed matrix."""
    if distance_exponent not in (1, 2):
        raise InvalidParameterError(
            f"distance_exponent must be 1 or 2, got {distance_exponent}"
        )
    n = np.shape(data)[0]
    d = pairwise_distances(data) if distances is None else distances
    if d.shape != (n, n):
        raise DimensionError(f"distances must be {n}x{n}, got {d.shape}")
    if distance_exponent == 2:
        np.multiply(d, d, out=d)
    return d


def affinity_global(data, sigma_sq: float, distance_exponent: int = 2) -> np.ndarray:
    """Affinity A_ij = exp(-dist_ij^e / (2 sigma_sq)), zero diagonal.

    The exponent e defaults to squared Euclidean distance; e=1 keeps the
    plain norm for comparison runs. sigma_sq must be finite and positive.
    """
    if not 0 < sigma_sq < math.inf:
        raise InvalidParameterError(
            f"sigma_sq must be finite and positive, got {sigma_sq}"
        )
    a = _distance_term(data, distance_exponent, None)
    # t / -c rounds exactly as -t / c, the textbook form.
    np.divide(a, -2.0 * sigma_sq, out=a)
    np.exp(a, out=a)
    np.fill_diagonal(a, 0.0)
    return a


def affinity_local(
    data, local_sigmas, distance_exponent: int = 2, *, distances=None
) -> np.ndarray:
    """Affinity A_ij = exp(-dist_ij^e / (sigma_i sigma_j)), zero diagonal.

    Pairs with sigma_i * sigma_j == 0 (duplicate points) get affinity 1 when
    coincident and 0 otherwise, the limit of the expression as the scale
    shrinks. Local sigmas must be finite and nonnegative.

    ``distances``, when given, must be ``pairwise_distances(data)``. The
    affinity takes ownership of that buffer: it is overwritten in place and
    returned as the affinity, so the caller must not use it as distances
    afterwards.
    """
    x = as_matrix(data)
    sig = np.asarray(local_sigmas, dtype=float).ravel()
    if sig.shape[0] != x.shape[0]:
        raise DimensionError(
            f"local_sigmas length {sig.shape[0]} != number of points {x.shape[0]}"
        )
    if not np.all(np.isfinite(sig)):
        raise InvalidParameterError("local sigmas must be finite")
    if np.any(sig < 0):
        raise InvalidParameterError("local sigmas must be nonnegative")
    a = _distance_term(x, distance_exponent, distances)
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
    """Symmetric normalization L = D^{-1/2} A D^{-1/2}, D the degree diagonal.

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
    return m * np.outer(inv_sqrt, inv_sqrt)
