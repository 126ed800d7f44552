"""LAPACK's tridiagonal eigensolver routines, from numpy's own OpenBLAS.

``linalg.top_spectrum`` reduces a symmetric matrix once to tridiagonal
form, takes every eigenvalue from it, and computes only the eigenvectors a
node uses. numpy's API has no such solver, but its PyPI wheels bundle an
OpenBLAS built with 64-bit integers (ILP64) whose LAPACK does: ``dsytrd``
(the reduction T = Qᵀ A Q), ``dsterf`` (every eigenvalue of T), ``dstein``
(chosen eigenvectors of T by inverse iteration) and ``dormtr`` (applying Q).
This module calls those four through ctypes in the library numpy has
loaded, so they run on numpy's BLAS thread pool and load no other copy.

``library()`` looks the library up once. It accepts only an OpenBLAS64 file
inside numpy's own package directories whose four routines carry the ILP64
``_64_`` suffix (``scipy_dsytrd_64_`` in numpy 2 wheels, ``dsytrd_64_`` in
older ones), and only after a small solve agrees with
``np.linalg.eigvalsh``. Otherwise (numpy built on MKL, Accelerate or a
distribution's BLAS, or a 32-bit-integer build) it returns None, and
``top_spectrum`` takes ``np.linalg.eigh``.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

_ARRAY = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
_INTS = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS")
_INT = ctypes.POINTER(ctypes.c_int64)
_CHAR = ctypes.c_char_p
# Fortran passes each character argument's length after the others.
_LEN = ctypes.c_size_t

# Each routine's arguments, INFO last, as in the LAPACK reference.
_SIGNATURES = {
    # UPLO, N, A, LDA, D, E, TAU, WORK, LWORK, INFO
    "dsytrd": (_CHAR, _INT, _ARRAY, _INT, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _INT, _INT, _LEN),
    # N, D, E, INFO
    "dsterf": (_INT, _ARRAY, _ARRAY, _INT),
    # N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO
    "dstein": (
        _INT, _ARRAY, _ARRAY, _INT, _ARRAY, _INTS, _INTS, _ARRAY, _INT, _ARRAY, _INTS,
        _INTS, _INT,
    ),
    # SIDE, UPLO, TRANS, M, N, A, LDA, TAU, C, LDC, WORK, LWORK, INFO
    "dormtr": (
        _CHAR, _CHAR, _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _ARRAY, _INT, _ARRAY, _INT,
        _INT, _LEN, _LEN, _LEN,
    ),
}


class Lapack:
    """The four routines of one library, on float64 ndarrays. Each takes the
    lower triangle (``UPLO = 'L'``), as ``dsytrd`` stores its reflectors."""

    def __init__(self, cdll: ctypes.CDLL, prefix: str):
        self._routines = {}
        for name, argtypes in _SIGNATURES.items():
            routine = getattr(cdll, f"{prefix}{name}_64_")
            routine.argtypes, routine.restype = argtypes, None
            self._routines[name] = routine

    def _call(self, name: str, *args) -> int:
        """Call a routine with each int by reference; returns INFO > 0 (a
        failure the routine reports) or 0. INFO < 0 names a bad argument,
        which only a broken binding can pass."""
        info = ctypes.c_int64(0)
        refs = [ctypes.byref(ctypes.c_int64(a)) if isinstance(a, int) else a for a in args]
        lengths = [1] * sum(isinstance(a, bytes) for a in args)
        self._routines[name](*refs, ctypes.byref(info), *lengths)
        if info.value < 0:
            raise RuntimeError(f"LAPACK {name}: argument {-info.value} rejected")
        return info.value

    def dsytrd(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Reduce the symmetric, C-ordered ``a`` in place to tridiagonal
        T = Qᵀ a Q, blocked with dsytrd's optimal workspace. Returns
        (reflectors, diagonal, off-diagonal, tau), ``reflectors`` being the
        Fortran view ``a.T`` with Q's n - 1 Householder vectors below its
        subdiagonal. dsytrd writes only that view's lower triangle, and the
        diagonal is put back: ``a``'s lower triangle, all eigh reads, stays."""
        n = a.shape[0]
        reflectors, saved = a.T, a.diagonal().copy()
        diagonal, offdiagonal, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
        args = [b"L", n, reflectors, n, diagonal, offdiagonal, tau]
        query = np.empty(1)
        self._call("dsytrd", *args, query, -1)
        work = np.empty(max(int(query[0]), 1))
        self._call("dsytrd", *args, work, work.size)
        np.fill_diagonal(a, saved)
        return reflectors, diagonal, offdiagonal, tau

    def dsterf(self, diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray | None:
        """Every eigenvalue of the tridiagonal, ascending; None where the
        QL/QR iteration fails."""
        values = diagonal.copy()
        return None if self._call("dsterf", values.size, values, offdiagonal.copy()) else values

    def dstein(
        self, diagonal: np.ndarray, offdiagonal: np.ndarray, values: np.ndarray
    ) -> np.ndarray | None:
        """Unit eigenvectors of the tridiagonal for ``values`` (ascending,
        accurate eigenvalues) by inverse iteration, as the Fortran-ordered
        columns of an n x len(values) array; None where one fails to
        converge."""
        n, m = diagonal.size, values.size
        # One block, the whole matrix: dstein splits off no submatrix.
        iblock = np.ones(n, dtype=np.int64)
        isplit = np.zeros(n, dtype=np.int64)
        isplit[0] = n
        vectors = np.empty((n, m), order="F")
        info = self._call(
            "dstein", n, diagonal, offdiagonal, m,
            np.ascontiguousarray(values), iblock, isplit, vectors, n, np.empty(5 * n),
            np.empty(n, dtype=np.int64), np.empty(m, dtype=np.int64),
        )
        return None if info else vectors

    def dormtr(self, reflectors: np.ndarray, tau: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Q @ c in place, for dsytrd's ``reflectors`` and ``tau`` and a
        Fortran-ordered c; returns c."""
        n, k = c.shape
        # dormtr passes rows 1..n-1 of c to dormqr. This is dormqr's optimal
        # workspace for blocks of up to 64 reflectors (64 per column of c
        # plus the 65 x 64 block factor). dormtr's own query leaves out the
        # block factor, and with that workspace dormqr runs its unblocked
        # code, 5x slower at k = 95.
        work = np.empty(64 * k + 65 * 64)
        self._call(
            "dormtr", b"L", b"L", b"N", n, k, reflectors, n, tau, c, n, work,
            work.size,
        )
        return c


def _candidates():
    """OpenBLAS64 files in numpy's own package directories: ``numpy.libs``
    beside the package (Linux and Windows wheels) and ``numpy/.dylibs``
    (macOS wheels)."""
    package = Path(np.__file__).resolve().parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        if folder.is_dir():
            yield from sorted(folder.glob("*openblas64*"))


def _open(path: Path) -> Lapack | None:
    try:
        cdll = ctypes.CDLL(str(path))
    except OSError:
        return None
    for prefix in ("scipy_", ""):
        if all(hasattr(cdll, f"{prefix}{name}_64_") for name in _SIGNATURES):
            return Lapack(cdll, prefix)
    return None


def _self_check(lib: Lapack) -> bool:
    """Whether a 12 x 12 solve gives eigvalsh's eigenvalues and two
    eigenvectors with small residuals."""
    x = np.random.default_rng(0).standard_normal((12, 12))
    a = x + x.T
    expected = np.linalg.eigvalsh(a)
    tol = 1e3 * np.finfo(float).eps * float(np.max(np.abs(expected)))
    reflectors, diagonal, offdiagonal, tau = lib.dsytrd(a.copy())
    values = lib.dsterf(diagonal, offdiagonal)
    if values is None or np.max(np.abs(values - expected)) > tol:
        return False
    z = lib.dstein(diagonal, offdiagonal, values[-2:])
    if z is None:
        return False
    vectors = lib.dormtr(reflectors, tau, z)
    residual = a @ vectors - vectors * values[-2:]
    return bool(np.max(np.abs(residual)) <= tol)


@functools.cache
def library() -> Lapack | None:
    """numpy's ILP64 OpenBLAS as a ``Lapack``, looked up once per process;
    None where numpy bundles none or it fails the self-check."""
    for path in _candidates():
        lib = _open(path)
        try:
            if lib is not None and _self_check(lib):
                return lib
        except RuntimeError:
            pass
    return None
