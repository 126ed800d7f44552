"""Dense symmetric linear algebra: sorted eigendecompositions, covariance
eigenvalues and pairwise distances.

Everything here operates on plain float64 ndarrays. Matrices are observations
in rows, features in columns.

Symmetric eigensolves return a ``Spectrum``: every eigenvalue, descending,
and ``top(k)`` for the eigenvectors of the k largest, each with its
largest-magnitude entry positive. ``top_spectrum`` builds one for the
spectral chain, which needs every eigenvalue (for the eigengap) but only the
top k eigenvectors (for the split), and none when k = 1. Where numpy bundles
an ILP64 OpenBLAS (its PyPI wheels; see ``lapack``), it reduces the chain's
own buffer, unchecked, in place to tridiagonal form T = Qᵀ A Q (LAPACK
``dsytrd``), and takes every eigenvalue of T (``dsterf``). ``top(k)`` then
finds the k eigenvectors of T by inverse iteration (``dstein``) and maps
them back through Q (``dormtr``). The buffer's lower triangle still holds A,
and it is all ``np.linalg.eigh`` reads: without that library, and at the
fallbacks ``Spectrum.top`` lists, ``_eigh`` decomposes it in full and keeps
every vector.

A matrix whose exact nonzero pattern falls into connected components is
block-diagonal once its points are ordered by component, and its spectrum
is the union of its blocks'. ``components`` labels them, ``pack_blocks``
moves each block into the front of the matrix's own buffer, and
``BlockSpectrum`` merges the blocks' spectra behind ``Spectrum``'s
``values`` and ``top(k)``; ``njw.laplacian_spectrum`` drives the three.

The global scale σ² needs the covariance eigenvalues and nothing else:
``covariance_eigenvalues`` takes them with ``eigvalsh`` on the smaller of
the m x m covariance and the n x n Gram matrix of the centered rows.

Every spectral node takes its distance matrix from ``gram_distances``: the
centered rows' products from BLAS, within a proven bound, with the
difference form's bits wherever that bound cannot vouch for an entry. Its
contract is one relative bound, ``gram_relative_error(m)``, that depends on
nothing but the column count. The difference form is
``pair_squared_distances``, for listed pairs: the exact distance matrix of
the rows of x, exactly symmetric with a zero diagonal, has entry (i, j)
fl(sqrt(``pair_squared_distances(x, [i], [j])``)). It computes the entries
``gram_distances`` flags, and the candidates through which
``scaling.estimate_local_sigmas`` certifies the k-th neighbour's distance
against that bound, an order statistic that must keep the exact form's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lapack
from .errors import (
    DimensionError,
    InvalidDataError,
    InvalidParameterError,
)

# Relative symmetry defect tolerated before refusing to decompose.
SYMMETRY_RTOL = 1e-10

_EPS = np.finfo(float).eps
# The scale window of the rounding bounds here and in kmeans._nearest. Below
# the floor underflow makes rounding errors absolute rather than relative, so
# a scale counts as the floor; above the ceiling either form may overflow.
_SCALE_MIN = np.finfo(float).tiny / _EPS
_SCALE_MAX = np.finfo(float).max / 4
# gram_distances recomputes, in the difference form, every entry whose Gram
# form r is at most this share of its pair's scale, or whose scale lies
# above the window.
_GRAM_TAU = 2.0**-20
# Rows per block of gram_distances, which bounds its temporaries. At n = 1200
# these 2.5 MB add about 1 MB to peak RSS; 64 or 128 rows added nothing at
# most checkout paths but one more n x n at some (glibc heap placement).
_GRAM_ROWS = 256
# Differences per gather of pair_squared_distances (1 MB of float64).
_PAIR_ELEMENTS = 2**17
# Rows per read of components' frontier search and per move of pack_blocks.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class Spectrum:
    """Every eigenvalue of a symmetric matrix, descending, and what ``top(k)``
    needs for the top eigenvectors: ``eigh``'s ``vectors`` (``vectors[:, i]``
    pairs with ``values[i]``); or the ``matrix`` with its ``tridiagonal``
    form from ``lapack.Lapack.dsytrd`` with lower storage, unpacked: Q's
    n - 1 Householder reflectors in ``matrix.T``, T's diagonal and
    off-diagonal, and tau; ``matrix``'s lower triangle is the input's."""

    values: np.ndarray
    vectors: np.ndarray | None = None
    matrix: np.ndarray | None = None
    tridiagonal: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def top(self, k: int, k_min: int | None = None) -> np.ndarray:
        """Columns are the eigenvectors of the k largest eigenvalues.

        The caller uses the first j columns for every j in ``[k_min, k]``
        (default k alone). Stored vectors answer every cut as they are. The
        tridiagonal form returns ``_eigh``'s vectors instead where one of
        those cuts falls between two eigenvalues within ``_tie_tolerance``
        of each other, and where inverse iteration fails to converge.
        """
        n = self.values.shape[0]
        if not 1 <= k <= n:
            raise InvalidParameterError(f"k={k} out of range [1, {n}]")
        if self.vectors is not None:
            return self.vectors[:, :k]
        # A tie at a cut in [k_min, k] leaves the subspace undetermined. A
        # tie inside [1, k) alone is kept on this path: the subspace is
        # determined but its basis is not, so k-means may split the node, or
        # number its children and so seed them, otherwise than on eigh's
        # basis. A wider rule would send to eigh every block whose λ = 1 is
        # nearly double; the exact double of two components never reaches
        # here, as each is a block of its own (njw.laplacian_spectrum).
        if not _tied_cut(self.values, k, k_min):
            vectors = _tridiagonal_top(self.tridiagonal, self.values, k)
            if vectors is not None:
                return vectors
        return _eigh(self.matrix).top(k)


def _tie_tolerance(values: np.ndarray) -> float:
    """``n * eps * max|λ|`` for the n eigenvalues ``values``: two closer than
    this are numerically equal, to ``_tied_cut`` and ``BlockSpectrum.merge``
    alike."""
    return values.size * _EPS * np.max(np.abs(values))


def _tied_cut(values: np.ndarray, k: int, k_min: int | None) -> bool:
    """Whether a cut j in ``[k_min, k]`` (default k alone) falls between two
    eigenvalues within ``_tie_tolerance`` of each other."""
    n = values.shape[0]
    cuts = np.arange(k if k_min is None else k_min, min(k, n - 1) + 1)
    gaps = values[cuts - 1] - values[cuts]
    return bool(np.any(gaps <= _tie_tolerance(values)))


def _tridiagonal_top(tridiagonal: tuple, values: np.ndarray, k: int) -> np.ndarray | None:
    """The top k eigenvectors from ``Spectrum.tridiagonal``: those of T by
    inverse iteration, mapped back through Q; None if ``dstein`` fails."""
    reflectors, diagonal, offdiagonal, tau = tridiagonal
    lib = lapack.library()
    # dstein takes the eigenvalues in ascending order; they are already
    # accurate to O(eps * ||A||), so no bisection.
    z = lib.dstein(diagonal, offdiagonal, values[k - 1 :: -1])
    if z is None:
        return None
    vectors = lib.dormtr(reflectors, tau, np.asfortranarray(z[:, ::-1]))
    # Row-major, as _eigh returns them and as the embedding code
    # reduces along rows.
    return _positive_peaks(np.ascontiguousarray(vectors))


def _positive_peaks(vectors: np.ndarray) -> np.ndarray:
    """Flip, in place, each column whose largest-magnitude entry is negative."""
    cols = np.arange(vectors.shape[1])
    flip = vectors[np.argmax(np.abs(vectors), axis=0), cols] < 0
    vectors[:, flip] *= -1.0
    return vectors


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


def _symmetric(m) -> np.ndarray:
    """The validated square matrix, averaged with its transpose unless it is
    exactly symmetric; a defect above ``SYMMETRY_RTOL`` times the largest
    entry magnitude is rejected."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"eigendecomposition needs a square matrix, got {a.shape}")
    if not np.array_equal(a, a.T):
        scale = np.max(np.abs(a))
        defect = np.max(np.abs(a - a.T))
        if defect > SYMMETRY_RTOL * max(scale, 1e-300):
            raise InvalidDataError(
                f"matrix is not symmetric: defect {defect:.3e} exceeds tolerance"
            )
        a = (a + a.T) / 2.0
    return a


def _eigh(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix from its lower triangle,
    sorted descending. Each eigenvector is unit norm with its
    largest-magnitude entry made positive, so identical input yields
    identical output."""
    values, vectors = np.linalg.eigh(a)
    # eigh returns ascending order; flip to descending. For equal values the
    # solver's ordering is kept, which is deterministic for identical input.
    values = values[::-1].copy()
    vectors = _positive_peaks(vectors[:, ::-1].copy())
    return Spectrum(values=values, vectors=vectors)


def top_spectrum(a: np.ndarray) -> Spectrum:
    """Every eigenvalue of a symmetric matrix, descending, and ``top(k)``
    for the eigenvectors of the k largest.

    ``a`` is the chain's C-ordered float64 buffer, finite and exactly
    symmetric; only its shape is checked. It is tridiagonalized in place,
    or decomposed by ``_eigh``: see the module docstring.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"eigendecomposition needs a square matrix, got {a.shape}")
    lib = lapack.library()
    if lib is not None:
        tridiagonal = lib.dsytrd(a)
        values = lib.dsterf(*tridiagonal[1:3])
        if values is not None:
            return Spectrum(values=values[::-1].copy(), matrix=a, tridiagonal=tridiagonal)
    return _eigh(a)


def components(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of the exact nonzero pattern of a symmetric
    ``a``: each point's label and the count. Labels follow the components'
    first members, so point 0 is in component 0.

    A frontier search from each component's first member reads the rows of
    the points it reaches, ``_CHUNK_ROWS`` at a time, and stops once every
    point is labelled: a connected node whose first row has no zero off
    the diagonal costs one row.
    """
    n = a.shape[0]
    labels = np.full(n, -1, dtype=np.intp)
    count = labelled = 0
    while labelled < n:
        first = int(np.argmax(labels < 0))
        labels[first] = count
        labelled += 1
        frontier = np.array([first])
        while frontier.size and labelled < n:
            reached = []
            for r0 in range(0, frontier.size, _CHUNK_ROWS):
                hit = np.any(a[frontier[r0 : r0 + _CHUNK_ROWS]], axis=0)
                new = np.flatnonzero(hit & (labels < 0))
                labels[new] = count
                labelled += new.size
                reached.append(new)
                if labelled == n:
                    break
            frontier = np.concatenate(reached)
        count += 1
    return labels, count


def pack_blocks(
    a: np.ndarray, labels: np.ndarray, count: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each component's members, ascending, and its block
    ``a[np.ix_(members, members)]`` as a C-contiguous view of ``a``'s own
    buffer, for the C-ordered ``a`` that ``components`` labelled. ``a`` is
    overwritten: block C fills the next n_C² entries of the buffer.

    The rows are first permuted in place into component order, cycle by
    cycle with one row of scratch. Then each block's columns are gathered,
    ``_CHUNK_ROWS`` rows at a time, into the front of the buffer. Blocks
    before C take sum n_B² <= sum n_B n entries, so block C's first i rows
    end before its source row i starts: no row is overwritten before it is
    read.
    """
    n = a.shape[0]
    order = np.argsort(labels, kind="stable")
    row = np.empty(n)
    moved = order != np.arange(n)
    for r in np.flatnonzero(moved):
        if not moved[r]:
            continue
        row[:] = a[r]
        j = r
        while order[j] != r:
            a[j] = a[order[j]]
            moved[j] = False
            j = order[j]
        a[j] = row
        moved[j] = False
    flat = a.reshape(-1)
    members = np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    blocks = []
    start = offset = 0
    for m in members:
        size = m.size
        block = flat[offset : offset + size * size].reshape(size, size)
        for r0 in range(0, size, _CHUNK_ROWS):
            r1 = min(r0 + _CHUNK_ROWS, size)
            block[r0:r1] = a[start + r0 : start + r1][:, m]
        blocks.append(block)
        start, offset = start + size, offset + size * size
    return members, blocks


@dataclass(frozen=True)
class BlockSpectrum:
    """The spectrum of a permuted block-diagonal matrix from its blocks':
    ``values`` is the union of theirs, descending, and ``owner[i]`` is the
    block that the i-th eigenvector comes from; block b spans the rows
    ``members[b]``. Numerically equal values (within ``_tie_tolerance`` of
    the one before, as ``_tied_cut`` reads them) go in block order,
    so the order of the blocks' λ = 1 does not hang on their last bits."""

    values: np.ndarray
    owner: np.ndarray
    members: list[np.ndarray]
    blocks: list[Spectrum]

    @classmethod
    def merge(cls, members: list[np.ndarray], blocks: list[Spectrum]) -> "BlockSpectrum":
        values = np.concatenate([b.values for b in blocks])
        owner = np.repeat(np.arange(len(blocks)), [b.values.size for b in blocks])
        order = np.argsort(-values, kind="stable")
        values, owner = values[order], owner[order]
        tol = _tie_tolerance(values)
        runs = np.concatenate(([0], np.cumsum(values[:-1] - values[1:] > tol)))
        # Stable sorts keep each block's own order within a run.
        return cls(values, owner[np.lexsort((owner, runs))], members, blocks)

    def top(self, k: int, k_min: int | None = None) -> np.ndarray:
        """``Spectrum.top`` of the whole matrix, with the same arguments.
        Each block fills the columns it owns among the first k with its own
        top vectors, on its rows, by its own ``Spectrum.top`` over the cuts
        that fall in it; every other entry is zero."""
        n = self.values.shape[0]
        if not 1 <= k <= n:
            raise InvalidParameterError(f"k={k} out of range [1, {n}]")
        vectors = np.zeros((n, k))
        for b, (members, block) in enumerate(zip(self.members, self.blocks)):
            cols = np.flatnonzero(self.owner[:k] == b)
            if cols.size:
                low = None if k_min is None else max(1, int(np.sum(self.owner[:k_min] == b)))
                vectors[np.ix_(members, cols)] = block.top(cols.size, low)
        return vectors


def covariance_eigenvalues(x: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the sample covariance (divisor n-1), descending,
    clipped at 0: m values for n x m data.

    The nonzero eigenvalues of XcᵀXc / (n-1), the m x m covariance of the
    centered rows Xc, are those of the n x n Gram matrix XcXcᵀ / (n-1) (the
    method of snapshots: Sirovich 1987; Turk & Pentland 1991). So the
    smaller of the two is formed and ``eigvalsh`` takes its values alone;
    for n < m the other m - n eigenvalues are zero. ``x`` is validated by
    ``scaling.estimate_global_sigma``; a side or a column mean that
    overflows is rejected as ``InvalidDataError``: the data itself is finite.
    """
    n, m = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        side = centered @ centered.T if n < m else centered.T @ centered
    if not np.all(np.isfinite(side)):
        raise InvalidDataError("covariance is not finite: column means or centered products overflow")
    values = np.zeros(m)
    # eigvalsh reads one triangle, so the product needs no symmetrizing.
    values[: side.shape[0]] = np.linalg.eigvalsh(side / (n - 1))[::-1]
    return np.maximum(values, 0.0, out=values)


def pair_squared_distances(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The exact squared distance of each listed pair (i, j) =
    (rows[p], cols[p]) of the rows of ``x``, in the difference form.

    Each pair takes ``x[j] - x[i]``, squared and summed along the row. The
    negation ``x[i] - x[j]`` squares to the same bits, so the pairs (i, j)
    and (j, i) give the same value: the exact distance matrix, entry (i, j)
    fl(sqrt(q)), is exactly symmetric, with zeros on its diagonal. The
    pairs are gathered ``_PAIR_ELEMENTS`` differences at a time, so no
    temporary grows with their count. Overflow gives inf quietly.
    """
    out = np.empty(rows.shape[0])
    step = max(1, _PAIR_ELEMENTS // x.shape[1])
    with np.errstate(over="ignore"):
        for p0 in range(0, out.shape[0], step):
            diff = x[cols[p0 : p0 + step]]
            diff -= x[rows[p0 : p0 + step]]
            np.multiply(diff, diff, out=diff)
            out[p0 : p0 + step] = np.sum(diff, axis=1)
    return out


def gram_relative_error(m: int) -> float:
    """``gram_distances``' rho(m) = (m + 8) eps / tau = (m + 8) 2^-32, for
    m < 2^20 columns. Its (m + 4) eps / tau is the Gram bound relative to a
    trusted r. The spare 2^-30 covers the difference form's (m + 2) u, the
    sqrt's 2u + u^2 and their cross terms, under 2^-32 in all, and the
    m 2^-1075 that underflow can add to q against a d^2 above 2^-991."""
    return (m + 8) * _EPS / _GRAM_TAU


def gram_distances(data) -> np.ndarray:
    """Euclidean distance matrix from one matrix product of the centered rows,
    with the difference form's bits, fl(sqrt(``pair_squared_distances``)),
    wherever that product cannot be trusted.

    With c = fl(x - mean) and s_i = |c_i|^2, each entry is first formed as
    r = (s_i + s_j) - 2 c_i.c_j, the dot products from one GEMM per block of
    ``_GRAM_ROWS`` rows over the upper triangle, so no temporary exceeds that
    many rows of n. Let S = s_i + s_j and M = max(S, tiny/eps).

    Bound. Let u = eps/2, g_m = m u / (1 - m u) and d the exact distance of
    the input rows. Centering rounds each c_ik to within a relative u of
    x_ik - mean_k, whatever the mean's own error, so |c_i - c_j|^2 is within
    (2u + u^2) (|c_i| + |c_j|)^2 <= 2 eps S (1 + O(eps)) of d^2. In any
    summation order (BLAS or einsum, with or without FMA) s_i errs by at most
    g_m s_i and c_i.c_j by at most g_m |c_i| |c_j| <= g_m S / 2; scaling by
    -2 is exact and the two additions add u S (1 + g_m) and u |r|, with
    |r| <= 2 S (1 + 2 g_m). So r is within (2 g_m + 3u) S (1 + O(eps)) of
    |c_i - c_j|^2, and in all |r - d^2| <= (m + 4) eps M for m < 2^20.
    Products that underflow add at most 2^-1075 each, about 4m in all,
    which the spare eps M / 2 >= tiny / 2 covers. For S <= max/4 no
    intermediate exceeds 2 S, so nothing overflows.

    Fallback. An entry whose S is above max/4 (the only way r can overflow)
    or whose r is not above ``_GRAM_TAU`` * M (a NaN is not) is recomputed
    in the difference form by ``pair_squared_distances``, and so equals the
    exact matrix's entry bit for bit.
    That covers every pair of duplicate rows (r <= (m + 4) eps M < tau M,
    so they read exactly 0) and every entry that overflows there (which
    needs S > max/4).

    Contract. With q the pair's difference-form sum of squares
    (``pair_squared_distances``) and D the returned entry, D = 0 exactly
    where q = 0, D = inf exactly where q = inf, and otherwise
    |q - D^2| <= rho D^2 with rho = ``gram_relative_error(m)``. A recomputed
    D is fl(sqrt(q)); a trusted one has r > tau M, so the bound above reads
    |r - d^2| <= (m + 4) (eps / tau) r. ``scaling.estimate_local_sigmas``
    relies on this contract alone.

    Only the upper triangle is formed; the zero diagonal and the lower
    triangle are mirrored from it, so the matrix is exactly symmetric
    whatever the GEMM's layout. Centering keeps the bound in terms of the
    rows' spread about their mean, so an offset shared by every row (the
    1e8 of a coordinate system) costs no accuracy.
    """
    x = as_matrix(data)
    n = x.shape[0]
    out = np.empty((n, n))
    # inf and NaN in the Gram form only flag entries; the difference form
    # overflows quietly, as in pair_squared_distances.
    with np.errstate(over="ignore", invalid="ignore"):
        c = x - x.mean(axis=0)
        sq = np.einsum("ij,ij->i", c, c)
        for r0 in range(0, n, _GRAM_ROWS):
            r1 = min(r0 + _GRAM_ROWS, n)
            b = r1 - r0
            r = out[r0:r1, r0:]
            np.matmul(c[r0:r1], c[r0:].T, out=r)
            scale = np.add.outer(sq[r0:r1], sq[r0:])
            r *= -2.0
            r += scale
            redo = ~(scale <= _SCALE_MAX)
            np.maximum(scale, _SCALE_MIN, out=scale)
            scale *= _GRAM_TAU
            redo |= ~(r > scale)
            # Only the strict upper triangle is kept.
            redo[:, :b] &= ~np.tri(b, dtype=bool)
            rows, cols = np.divmod(np.flatnonzero(redo), n - r0)
            r[rows, cols] = pair_squared_distances(x, rows + r0, cols + r0)
            upper = np.triu(r[:, :b], 1)
            np.add(upper, upper.T, out=r[:, :b])
            np.sqrt(r, out=r)
            out[r1:, r0:r1] = r[:, b:].T
    return out
