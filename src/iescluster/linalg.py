"""Dense symmetric linear algebra: sorted eigendecomposition, covariance, PCA.

Everything here operates on plain float64 ndarrays. Matrices are observations
in rows, features in columns.

Symmetric eigensolves return a ``Spectrum``: every eigenvalue, descending,
and ``top(k)`` for the eigenvectors of the k largest, each with its
largest-magnitude entry positive. Two functions build one:

- ``symmetric_eigen`` computes the full decomposition with ``np.linalg.eigh``
  and keeps every vector. It is the reference, the solver of ``pca``, and
  every fast path's fallback.
- ``top_spectrum`` serves the spectral chain, which needs every eigenvalue
  (for the eigengap) but only the top k eigenvectors (for the split), and
  none when k = 1. It computes the values and leaves the vectors to
  ``top(k)``, by one of three paths:

  - From n = ``N_MIN`` on, where numpy bundles an ILP64 OpenBLAS (its PyPI
    wheels; see ``lapack``), it reduces the matrix once to tridiagonal form
    T = Qᵀ A Q (LAPACK ``dsytrd``) and takes every eigenvalue of T
    (``dsterf``). ``top(k)`` then finds the k eigenvectors of T by inverse
    iteration (``dstein``) and maps them back through Q (``dormtr``). Every
    caller of that size takes it.
  - Otherwise, for a caller that picks k at the eigengap
    (``eigengap=True``: the IES tree, ELS and the legacy eigengap baseline),
    every eigenvalue comes from ``np.linalg.eigvalsh``, and ``top(k)``
    filters a fixed, seeded n x k block with a Chebyshev polynomial that is
    small on [λₙ, λₖ₊₁] and 1 at λₖ, then takes a Rayleigh–Ritz step (Zhou,
    Saad, Tiago & Chelikowsky 2006). The eigengap makes λₖ - λₖ₊₁ wide, so
    a low degree separates the top k eigenvectors (Parlett 1998, ch. 11).
    It is numpy only and holds no n x n matrix beyond the input.
  - Otherwise (a caller with a fixed k, such as NJW and the elbow sweep,
    below ``N_MIN`` or without that library), ``symmetric_eigen``.

  ``Spectrum.top`` lists where a fast path gives way to ``symmetric_eigen``.

The global scale σ² needs the covariance eigenvalues and nothing else:
``covariance_eigenvalues`` takes them with ``eigvalsh`` on the smaller of
the m x m covariance and the n x n Gram matrix of the centered rows. ``pca``
(axes, projections and their variances, through ``symmetric_eigen``) stays
public as the reference for those values; no library code calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lapack
from .errors import (
    DegenerateDataError,
    DimensionError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
)

# Relative symmetry defect tolerated before refusing to decompose.
SYMMETRY_RTOL = 1e-10

# Smallest order that ``top_spectrum`` tridiagonalizes; every caller of that
# size takes the tridiagonal path, and smaller ones take the Chebyshev filter
# (eigengap callers) or eigh (callers with a fixed k). The routines run on
# numpy's own OpenBLAS pool, so nothing slows the numpy work that follows,
# and on a 2-core host the path is level with eigvalsh plus the filter and
# 2.0-2.3x faster than eigh at every n from 200 to 1000, that work included.
# The threshold stays here so that smaller nodes keep the bits of their
# current paths; ROADMAP item 1 records the timings and the bits a lower
# threshold would change.
N_MIN = 1000

# The Chebyshev filter's degree m is the smallest with T_m(t) >= 1 / eps at
# the normalized λₖ, so one pass shrinks the share of [λₙ, λₖ₊₁] in a start
# vector below rounding. The eigengap nodes of the benchmark workloads need
# degrees 5-20; their 100-point nodes with weak gaps need 52-82, where
# eigvalsh plus eigh (1.6-2.1 ms) beats eigvalsh plus the filter
# (2.3-3.2 ms, mostly per-step overhead), so a node over the cap takes eigh.
FILTER_DEGREE_MAX = 50
_FILTER_DECAY = math.acosh(1.0 / np.finfo(float).eps)
# Flops of a full eigh in units of n^3 (tridiagonal reduction plus
# eigenvectors, Golub & Van Loan 8.3), the filter's cost cap against its
# 2 n^2 k flops per degree: deep-tree's 400-point nodes with k = 95-99 need
# degree 39-58 and take eigh.
_EIGH_FLOPS = 9


@dataclass(frozen=True)
class Spectrum:
    """Every eigenvalue of a symmetric matrix, descending, and what ``top(k)``
    needs for the top eigenvectors: ``eigh``'s ``vectors`` (``vectors[:, i]``
    pairs with ``values[i]``); or the ``matrix``, alone for the Chebyshev
    filter, or with the ``tridiagonal`` form from ``lapack.Lapack.dsytrd``
    with lower storage, unpacked: Q's n - 1 Householder reflectors in the
    Fortran-ordered n x n array dsytrd overwrote, T's diagonal and
    off-diagonal, and tau."""

    values: np.ndarray
    vectors: np.ndarray | None = None
    matrix: np.ndarray | None = None
    tridiagonal: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def top(self, k: int, k_min: int | None = None) -> np.ndarray:
        """Columns are the eigenvectors of the k largest eigenvalues.

        The caller uses the first j columns for every j in ``[k_min, k]``
        (default k alone). Stored vectors answer every cut as they are. A
        fast path returns ``symmetric_eigen``'s vectors instead where a cut
        it checks falls between two eigenvalues within ``n * eps * max|λ|``
        of each other, where inverse iteration fails to converge, and where
        the filter refuses: for k = n, a degree over ``FILTER_DEGREE_MAX``,
        products dearer than ``eigh``, or Ritz pairs that miss the
        eigenvalues or leave a residual above that tolerance twice.
        """
        n = self.values.shape[0]
        _check_top_k(k, n)
        if self.vectors is not None:
            return self.vectors[:, :k]
        vectors = None
        if self.tridiagonal is not None:
            # Cuts in [k_min, k]: a tie there leaves the subspace undetermined.
            # A tie inside [1, k) alone is kept on this path: the 1200-point
            # local-scale roots of the benchmark tie there (λ₁ = λ₂ = 1) but
            # not at k, and a wider rule would send them to eigh.
            if not _tied_cut(self.values, k, k_min):
                vectors = _tridiagonal_top(self.tridiagonal, self.values, k)
        elif k < n and not _tied_cut(self.values, k, 1):
            # Cuts in [1, k], whatever k_min: at a tie inside the top k the
            # subspace is determined but its basis is not, and the filter's
            # basis is another rotation than eigh's, which renumbers the
            # leaves of the report corpus's disconnected layouts.
            vectors = _filtered_top(self.matrix, self.values, k)
        if vectors is None:
            return symmetric_eigen(self.matrix, check=False).top(k)
        return vectors


def _tied_cut(values: np.ndarray, k: int, k_min: int | None) -> bool:
    """Whether a cut j in ``[k_min, k]`` (default k alone) falls between two
    eigenvalues within ``n * eps * max|λ|`` of each other."""
    n = values.shape[0]
    cuts = np.arange(k if k_min is None else k_min, min(k, n - 1) + 1)
    gaps = values[cuts - 1] - values[cuts]
    return bool(np.any(gaps <= _tolerance(values)))


def _tolerance(values: np.ndarray) -> float:
    return values.shape[0] * np.finfo(float).eps * float(np.max(np.abs(values)))


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
    # Row-major, as the other paths return them and as the embedding code
    # reduces along rows.
    return _positive_peaks(np.ascontiguousarray(vectors))


def _filtered_top(a: np.ndarray, values: np.ndarray, k: int) -> np.ndarray | None:
    """The top k eigenvectors of ``a`` from a Chebyshev filter and a
    Rayleigh–Ritz step, or None where ``eigh`` should answer instead.

    ``values`` are ``a``'s eigenvalues, descending, with λₖ > λₖ₊₁. The
    polynomial is T_m on [λₙ, λₖ₊₁] scaled to 1 at λₖ: at most 1 / T_m(t)
    on the rest of the spectrum and at least 1 on the top k.
    """
    n = a.shape[0]
    lo, hi, at = values[-1], values[k], values[k - 1]
    center, half_width = (hi + lo) / 2.0, (hi - lo) / 2.0
    # T_m(t) grows as cosh(m * acosh(t)), t the image of λₖ.
    sigma = half_width / (at - center)
    rate = math.acosh(1.0 / sigma) if sigma > 0.0 else math.inf
    if rate * FILTER_DEGREE_MAX < _FILTER_DECAY:
        return None
    degree = max(1, math.ceil(_FILTER_DECAY / rate))
    if 2 * degree * k * n * n > _EIGH_FLOPS * n**3:
        return None
    tol = _tolerance(values)
    x = np.random.default_rng(0).standard_normal((n, k))
    for _ in range(2):
        x, converged = _rayleigh_ritz(
            a, _chebyshev(a, x, degree, center, half_width, at), values[:k], tol
        )
        if converged:
            return _positive_peaks(x)
    return None


def _chebyshev(
    a: np.ndarray, x: np.ndarray, degree: int, center: float, half_width: float, at: float
) -> np.ndarray:
    """p(a) @ x for p(λ) = T_m((λ - center) / half_width) / T_m(t), with t
    the image of ``at``, by the scaled three-term recurrence, whose terms
    stay of order one (Zhou, Saad, Tiago & Chelikowsky 2006, algorithm 3.2).
    Degree 1 does not divide by ``half_width``, which may then be 0."""
    sigma_1 = half_width / (at - center)
    y_prev, y = x, (a @ x - center * x) / (at - center)
    sigma = sigma_1
    for _ in range(degree - 1):
        s = 1.0 / (2.0 / sigma_1 - sigma)
        y_prev, y = y, (a @ y - center * y) * (2.0 * s / half_width) - (sigma * s) * y_prev
        sigma = s
    return y


def _rayleigh_ritz(
    a: np.ndarray, y: np.ndarray, values: np.ndarray, tol: float
) -> tuple[np.ndarray, bool]:
    """Ritz vectors of ``a`` on the span of ``y``, by descending Ritz value,
    and whether every Ritz value is within ``tol`` of its entry of
    ``values`` with a residual norm of at most ``tol``."""
    q = np.linalg.qr(y)[0]
    aq = a @ q
    h = q.T @ aq
    theta, w = np.linalg.eigh((h + h.T) / 2.0)
    theta, w = theta[::-1], w[:, ::-1]
    vectors = q @ w
    residual = aq @ w - vectors * theta
    worst = math.sqrt(np.max(np.sum(residual * residual, axis=0)))
    return vectors, worst <= tol and float(np.max(np.abs(theta - values))) <= tol


def _check_top_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k={k} out of range [1, {n}]")


def _positive_peaks(vectors: np.ndarray) -> np.ndarray:
    """Flip, in place, each column whose largest-magnitude entry is negative."""
    cols = np.arange(vectors.shape[1])
    flip = vectors[np.argmax(np.abs(vectors), axis=0), cols] < 0
    vectors[:, flip] *= -1.0
    return vectors


@dataclass(frozen=True)
class PcaResult:
    """Principal axes and projections of a mean-centered data matrix.

    axes:       columns are covariance eigenvectors, descending eigenvalue.
    projected:  centered data times axes.
    variances:  sample variance of each projected column.
    weights:    variances normalized to sum to one.
    """

    axes: np.ndarray
    projected: np.ndarray
    variances: np.ndarray
    weights: np.ndarray


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


def symmetric_eigen(m, *, check: bool = True) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, sorted descending.

    Exactly symmetric input is decomposed as is, without a copy: averaging
    it with its transpose would give back the same bits. Other input is
    averaged first, and a symmetry defect above ``SYMMETRY_RTOL`` times the
    largest entry magnitude is rejected. ``check=False`` skips that for a
    matrix that ``top_spectrum`` has already checked. Each eigenvector is
    unit norm with its largest-magnitude entry made positive, so identical
    input yields identical output.
    """
    values, vectors = np.linalg.eigh(_symmetric(m) if check else m)
    # eigh returns ascending order; flip to descending. For equal values the
    # solver's ordering is kept, which is deterministic for identical input.
    values = values[::-1].copy()
    vectors = _positive_peaks(vectors[:, ::-1].copy())
    return Spectrum(values=values, vectors=vectors)


def top_spectrum(m, *, eigengap: bool = False) -> Spectrum:
    """Every eigenvalue of a symmetric matrix, descending, and ``top(k)``
    for the eigenvectors of the k largest.

    Input is checked and symmetrized once, as by ``symmetric_eigen``. From
    ``N_MIN`` rows on, where ``lapack.library()`` finds numpy's OpenBLAS,
    the matrix is tridiagonalized once and only the eigenvalues are
    computed here. Otherwise a caller that picks k at the eigengap
    (``eigengap=True``) gets the eigenvalues from ``eigvalsh`` and the
    vectors from a Chebyshev filter, and any other caller (or a failed
    ``dsterf``) gets ``symmetric_eigen``. See the module docstring.
    """
    a = _symmetric(m)
    n = a.shape[0]
    lib = lapack.library() if n >= N_MIN else None
    if lib is not None:
        tridiagonal = lib.dsytrd(a)
        _, diagonal, offdiagonal, _ = tridiagonal
        values = lib.dsterf(diagonal, offdiagonal)
        if values is not None:
            return Spectrum(values=values[::-1].copy(), matrix=a, tridiagonal=tridiagonal)
    elif eigengap:
        return Spectrum(values=np.linalg.eigvalsh(a)[::-1].copy(), matrix=a)
    return symmetric_eigen(a, check=False)


def covariance(data) -> np.ndarray:
    """Sample covariance (divisor n-1) of mean-centered columns."""
    x = as_matrix(data)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"covariance needs at least 2 rows, got {n}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return (cov + cov.T) / 2.0


def covariance_eigenvalues(data) -> np.ndarray:
    """Every eigenvalue of the sample covariance (divisor n-1), descending,
    clipped at 0: m values for n x m data.

    The nonzero eigenvalues of XcᵀXc / (n-1), the m x m covariance of the
    centered rows Xc, are those of the n x n Gram matrix XcXcᵀ / (n-1) (the
    method of snapshots: Sirovich 1987; Turk & Pentland 1991). So the
    smaller of the two is formed and ``eigvalsh`` takes its values alone;
    for n < m the other m - n eigenvalues are zero. ``pca`` computes the
    same values as projected variances, with the axes, and is the reference.
    """
    x = as_matrix(data)
    n, m = x.shape
    if n < 2:
        raise InsufficientDataError(f"covariance needs at least 2 rows, got {n}")
    centered = x - x.mean(axis=0)
    side = centered @ centered.T if n < m else centered.T @ centered
    values = np.zeros(m)
    # eigvalsh reads one triangle, so the product needs no symmetrizing.
    values[: side.shape[0]] = np.linalg.eigvalsh(side / (n - 1))[::-1]
    return np.maximum(values, 0.0, out=values)


def pca(data) -> PcaResult:
    """Project data onto covariance eigenvectors sorted by descending eigenvalue.

    Columns are mean-centered before the covariance and the projection, so the
    projected columns are uncorrelated and their sample variances sum to the
    covariance trace. Raises DegenerateDataError when total variance is zero.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"pca needs at least 2 rows, got {n}")
    if np.all(x == x[0]):
        # Rounding in the column means would leave constant data a tiny,
        # scale-dependent variance instead of zero.
        raise DegenerateDataError("data has zero total variance")
    cov = covariance(x)
    eig = symmetric_eigen(cov)
    axes = eig.vectors
    centered = x - x.mean(axis=0)
    projected = centered @ axes
    # Projected columns already have zero mean; variance straight from squares.
    variances = np.sum(projected**2, axis=0) / (n - 1)
    total = float(np.sum(variances))
    if total <= 0.0:
        raise DegenerateDataError("data has zero total variance")
    weights = variances / total
    return PcaResult(axes=axes, projected=projected, variances=variances, weights=weights)


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
    for i in range(n):
        rest = np.subtract(x[i + 1 :], x[i], out=diff[: n - 1 - i])
        np.multiply(rest, rest, out=rest)
        row = np.sqrt(np.sum(rest, axis=1), out=out[i, i + 1 :])
        out[i + 1 :, i] = row
    np.fill_diagonal(out, 0.0)
    return out
