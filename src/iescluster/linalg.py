"""Dense symmetric linear algebra: sorted eigendecompositions, covariance
eigenvalues and pairwise distances.

Everything here operates on plain float64 ndarrays. Matrices are observations
in rows, features in columns.

Symmetric eigensolves return a ``Spectrum``: every eigenvalue, descending,
and ``top(k)`` for the eigenvectors of the k largest, each with its
largest-magnitude entry positive. Two functions build one:

- ``symmetric_eigen`` computes the full decomposition with ``np.linalg.eigh``
  and keeps every vector. It is the reference and the fallback.
- ``top_spectrum`` serves the spectral chain, which needs every eigenvalue
  (for the eigengap) but only the top k eigenvectors (for the split), and
  none when k = 1. Where numpy bundles an ILP64 OpenBLAS (its PyPI wheels;
  see ``lapack``), it reduces the chain's own buffer, unchecked, in place
  to tridiagonal form T = Qᵀ A Q (LAPACK ``dsytrd``), and takes every
  eigenvalue of T (``dsterf``). ``top(k)`` then finds the k eigenvectors
  of T by inverse iteration (``dstein``) and maps them back through Q
  (``dormtr``). The buffer's lower triangle still holds A, and it is all
  ``np.linalg.eigh`` reads: without that library, and at the fallbacks
  ``Spectrum.top`` lists, it is ``symmetric_eigen`` without the checks.

The global scale σ² needs the covariance eigenvalues and nothing else:
``covariance_eigenvalues`` takes them with ``eigvalsh`` on the smaller of
the m x m covariance and the n x n Gram matrix of the centered rows.

Every spectral node takes its distance matrix from ``gram_distances``: the
centered rows' products from BLAS, within a proven bound, with the
difference form's bits wherever that bound cannot vouch for an entry. Its
contract is one relative bound, ``gram_relative_error(m)``, that depends on
nothing but the column count.
``pairwise_distances`` is the exact form, a row-by-row difference loop
whose every entry equals the per-pair formula bit for bit; it is the oracle
in the tests. ``pair_squared_distances`` is its kernel for listed pairs:
the entries ``gram_distances`` flags, and the candidates through which
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
        tridiagonal form returns ``symmetric_eigen``'s vectors instead where
        one of those cuts falls between two eigenvalues within
        ``n * eps * max|λ|`` of each other, and where inverse iteration
        fails to converge.
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
        # basis. The 1200-point local-scale roots of the benchmark tie there
        # (λ₁ = λ₂ = 1) but not at k, and a wider rule would send them to eigh.
        if not _tied_cut(self.values, k, k_min):
            vectors = _tridiagonal_top(self.tridiagonal, self.values, k)
            if vectors is not None:
                return vectors
        return _eigh(self.matrix).top(k)


def _tied_cut(values: np.ndarray, k: int, k_min: int | None) -> bool:
    """Whether a cut j in ``[k_min, k]`` (default k alone) falls between two
    eigenvalues within ``n * eps * max|λ|`` of each other."""
    n = values.shape[0]
    cuts = np.arange(k if k_min is None else k_min, min(k, n - 1) + 1)
    gaps = values[cuts - 1] - values[cuts]
    return bool(np.any(gaps <= n * np.finfo(float).eps * np.max(np.abs(values))))


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
    # Row-major, as symmetric_eigen returns them and as the embedding code
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


def symmetric_eigen(m) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, sorted descending.

    Exactly symmetric input is decomposed as is, without a copy: averaging
    it with its transpose would give back the same bits. Other input is
    averaged first, and a symmetry defect above ``SYMMETRY_RTOL`` times the
    largest entry magnitude is rejected. Each eigenvector is unit norm with
    its largest-magnitude entry made positive, so identical input yields
    identical output.
    """
    return _eigh(_symmetric(m))


def _eigh(a: np.ndarray) -> Spectrum:
    """``symmetric_eigen`` without the checks, from ``a``'s lower triangle."""
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


def pairwise_distances(data) -> np.ndarray:
    """Exact Euclidean distance matrix, computed row-by-row from differences.

    Only the upper triangle is computed: row i takes the differences
    ``x[j] - x[i]`` for j > i, and each row is mirrored into its column, with
    zeros on the diagonal. The matrix is therefore exactly symmetric, and
    every entry equals the per-pair ``sqrt(sum((x[i] - x[j]) ** 2))`` bit for
    bit, because negating a difference does not change its square.
    Differences (rather than the expanded inner-product form) keep the result
    translation-stable and bit-reproducible against that per-pair reference.
    """
    x = as_matrix(data)
    n = x.shape[0]
    out = np.empty((n, n))
    diff = np.empty((max(n - 1, 0), x.shape[1]))
    with np.errstate(over="ignore"):  # inf: affinity 0, or a rejected local sigma
        for i in range(n):
            rest = np.subtract(x[i + 1 :], x[i], out=diff[: n - 1 - i])
            np.multiply(rest, rest, out=rest)
            row = np.sqrt(np.sum(rest, axis=1), out=out[i, i + 1 :])
            out[i + 1 :, i] = row
    np.fill_diagonal(out, 0.0)
    return out


def pair_squared_distances(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``pairwise_distances``'s entry (i, j) before its sqrt, bit for bit, for
    each listed pair (i, j) = (rows[p], cols[p]) of the rows of ``x``.

    Each pair takes the difference form ``x[j] - x[i]``, squared and summed
    along the row, as that function does; for j < i it formed
    ``x[i] - x[j]``, whose negation squares to the same bits. The pairs are
    gathered ``_PAIR_ELEMENTS`` differences at a time, so no temporary
    grows with their count. Overflow gives inf quietly.
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
    with ``pairwise_distances``'s bits wherever that product cannot be trusted.

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
    in the difference form by ``pair_squared_distances``, and so equals
    ``pairwise_distances``' entry bit for bit.
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
    # overflows quietly, as in pairwise_distances.
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
