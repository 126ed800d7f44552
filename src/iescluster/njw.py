"""Spectral clustering pipeline: affinity -> normalized Laplacian -> top-k
eigenvector embedding with row normalization -> k-means on the embedding."""

from __future__ import annotations

import numpy as np

from .affinity import affinity_global, affinity_local, normalized_laplacian
from .errors import DegenerateEmbeddingError, InvalidParameterError
from .kmeans import kmeans
from .linalg import Spectrum, top_spectrum
from .scaling import ScalingEstimate

# Row norms this far below the largest row are treated as numerically zero.
_ZERO_ROW_RTOL = 1e-12
# Zero rows named in the error message.
_ROWS_SHOWN = 5


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
        # The count and the first few rows: a list of every row made one
        # 3.6 KB error line on a 1050-point input.
        raise DegenerateEmbeddingError(
            f"{bad.size} embedding rows are numerically zero"
            f" (first: {bad[:_ROWS_SHOWN].tolist()})"
        )
    return vectors / norms[:, None]


def node_laplacian(
    data, scaling: ScalingEstimate, distance_exponent: int = 2, *, distances=None
) -> np.ndarray:
    """Affinity -> normalized Laplacian for one set of points.

    Isolated-point errors from the Laplacian propagate to the caller.
    ``distances`` is handed to ``build_affinity``, which overwrites it; the
    affinity itself is released on return.
    """
    return normalized_laplacian(
        build_affinity(data, scaling, distance_exponent, distances=distances)
    )


def node_spectrum(
    data, scaling: ScalingEstimate, distance_exponent: int = 2
) -> Spectrum:
    """Laplacian -> spectrum for one set of points: the one spectral chain
    behind the IES node step (which runs its two stages itself, to release a
    local affinity's distance buffer in between), NJW and the elbow sweep.

    It returns every eigenvalue; the top eigenvectors come from the result's
    ``top(k)`` (see ``top_spectrum``).
    """
    return top_spectrum(node_laplacian(data, scaling, distance_exponent))


def spectral_embed(laplacian, k: int) -> np.ndarray:
    """Top-k eigenvectors of the Laplacian with every row scaled to unit norm."""
    return row_normalize(top_spectrum(laplacian).top(k))


def njw_cluster(
    data,
    k: int,
    scaling: ScalingEstimate,
    seed: int,
    distance_exponent: int = 2,
) -> np.ndarray:
    """Full pipeline on raw data; point i gets the cluster of embedding row i.

    Isolated-point and degenerate-embedding errors propagate to the caller.
    """
    embedding = row_normalize(node_spectrum(data, scaling, distance_exponent).top(k))
    return kmeans(embedding, k, seed).assignments
