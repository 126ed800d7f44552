"""Spectral clustering pipeline: affinity -> normalized Laplacian -> top-k
eigenvector embedding with row normalization -> k-means on the embedding."""

from __future__ import annotations

import numpy as np

from .affinity import affinity_global, affinity_local, normalized_laplacian
from .errors import DegenerateEmbeddingError, InvalidParameterError
from .kmeans import kmeans
from .linalg import EigenPairs, symmetric_eigen
from .scaling import ScalingEstimate

# Row norms this far below the largest row are treated as numerically zero.
_ZERO_ROW_RTOL = 1e-12


def build_affinity(
    data, scaling: ScalingEstimate, distance_exponent: int = 2, *, distances=None
) -> np.ndarray:
    """Affinity matrix for either scaling kind.

    ``distances`` applies to local scaling, whose estimate already needed
    them: when given, it is ``pairwise_distances(data)`` and is overwritten
    in place to become the affinity (see ``affinity_local``). A global
    affinity builds its own distance matrix.
    """
    if scaling.kind == "global":
        return affinity_global(data, scaling.sigma_sq, distance_exponent)
    if scaling.kind == "local":
        return affinity_local(
            data, scaling.local_sigmas, distance_exponent, distances=distances
        )
    raise InvalidParameterError(f"unknown scaling kind {scaling.kind!r}")


def row_normalize(vectors: np.ndarray) -> np.ndarray:
    """Scale each row to unit norm, rejecting numerically zero rows."""
    norms = np.sqrt(np.sum(vectors**2, axis=1))
    floor = _ZERO_ROW_RTOL * max(float(norms.max(initial=0.0)), 1e-300)
    bad = np.nonzero(norms <= floor)[0]
    if bad.size:
        raise DegenerateEmbeddingError(
            f"embedding rows {bad.tolist()} are numerically zero"
        )
    return vectors / norms[:, None]


def node_spectrum(
    data, scaling: ScalingEstimate, distance_exponent: int = 2, *, distances=None
) -> EigenPairs:
    """Affinity -> normalized Laplacian -> eigensolve for one set of points.

    The one spectral chain behind the IES node step, NJW and the elbow
    sweep. Isolated-point errors from the Laplacian propagate to the caller.
    ``distances`` is handed to ``build_affinity``, which overwrites it.
    """
    a = build_affinity(data, scaling, distance_exponent, distances=distances)
    return symmetric_eigen(normalized_laplacian(a))


def _top_k_rows(eig: EigenPairs, k: int) -> np.ndarray:
    n = eig.values.shape[0]
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k={k} out of range [1, {n}]")
    return row_normalize(eig.vectors[:, :k])


def spectral_embed(laplacian, k: int) -> np.ndarray:
    """Top-k eigenvectors of the Laplacian with every row scaled to unit norm."""
    return _top_k_rows(symmetric_eigen(laplacian), k)


def njw_cluster(
    data,
    k: int,
    scaling: ScalingEstimate,
    seed: int,
    distance_exponent: int = 2,
    max_iter: int = 300,
    tol: float = 1e-8,
) -> np.ndarray:
    """Full pipeline on raw data; point i gets the cluster of embedding row i.

    Isolated-point and degenerate-embedding errors propagate to the caller.
    """
    embedding = _top_k_rows(node_spectrum(data, scaling, distance_exponent), k)
    return kmeans(embedding, k, seed, max_iter=max_iter, tol=tol).assignments
