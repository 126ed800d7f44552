"""Spectral clustering pipeline: distances -> affinity -> normalized Laplacian,
in one buffer -> row-normalized top-k eigenvectors -> k-means on them.

The Laplacian's spectrum comes from that buffer too: whole when its nonzero
pattern is connected, else block by block, one block per component, packed
into the buffer (``laplacian_spectrum``).

Every caller starts the chain from ``gram_distances``, one BLAS product with
a proven bound and the exact form as its fallback, whatever the scaling
kind: a global scale reaches the distances only through
exp(-d^2 / 2 sigma^2), and a local scale is certified against the exact
form by ``estimate_local_sigmas`` before the affinity overwrites them."""

from __future__ import annotations

import numpy as np

from .affinity import affinity_global, affinity_local, normalized_laplacian
from .errors import DegenerateEmbeddingError, InvalidParameterError
from .kmeans import kmeans
from .linalg import (
    BlockSpectrum,
    Spectrum,
    _symmetric,
    components,
    gram_distances,
    pack_blocks,
    top_spectrum,
)
from .scaling import ScalingEstimate

# Row norms this far below the largest row are treated as numerically zero.
_ZERO_ROW_RTOL = 1e-12
# Zero rows named in the error message.
_ROWS_SHOWN = 5


def build_affinity(
    distances, scaling: ScalingEstimate, distance_exponent: int = 2
) -> np.ndarray:
    """Affinity matrix for either scaling kind, built in place in
    ``distances = gram_distances(x)`` (see ``affinity_global``
    and ``affinity_local``)."""
    if scaling.kind == "global":
        return affinity_global(distances, scaling.sigma_sq, distance_exponent)
    if scaling.kind == "local":
        return affinity_local(distances, scaling.local_sigmas, distance_exponent)
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


def node_spectrum(
    distances, scaling: ScalingEstimate, distance_exponent: int = 2
) -> Spectrum | BlockSpectrum:
    """The one spectral chain, behind the IES node step, NJW and the elbow
    sweep: ``distances = gram_distances(x)`` becomes the
    affinity and then the normalized Laplacian in place, the spectrum's
    ``matrix``, or the buffer its blocks are packed in.

    It returns every eigenvalue; the top eigenvectors come from the result's
    ``top(k)`` (see ``laplacian_spectrum``). Isolated-point errors propagate.
    """
    return laplacian_spectrum(
        normalized_laplacian(build_affinity(distances, scaling, distance_exponent))
    )


def laplacian_spectrum(laplacian: np.ndarray) -> Spectrum | BlockSpectrum:
    """``top_spectrum`` of the chain's Laplacian buffer, or, where its exact
    nonzero pattern falls into components, of each block, packed into that
    buffer (``pack_blocks``), with the values merged (``BlockSpectrum``).

    The spectrum of a block-diagonal matrix is the union of its blocks',
    and its eigenvalue 1 has one eigenvector D^½ 1_C per component C (von
    Luxburg 2007, §3, Propositions 2 and 4): so the blocks cost sum n_C³
    where the whole matrix costs n³, and λ = 1 takes the components' own
    basis. A connected Laplacian goes to ``top_spectrum`` as it is.
    """
    labels, count = components(laplacian)
    if count == 1:
        return top_spectrum(laplacian)
    members, blocks = pack_blocks(laplacian, labels, count)
    return BlockSpectrum.merge(members, [top_spectrum(block) for block in blocks])


def spectral_embed(laplacian, k: int) -> np.ndarray:
    """Top-k eigenvectors of a checked copy of the Laplacian (``top_spectrum``
    trusts and overwrites its input), every row scaled to unit norm."""
    return row_normalize(top_spectrum(_symmetric(laplacian).copy()).top(k))


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
    embedding = row_normalize(
        node_spectrum(gram_distances(data), scaling, distance_exponent).top(k)
    )
    return kmeans(embedding, k, seed).assignments
