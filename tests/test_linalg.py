import contextlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iescluster.errors import (
    DegenerateDataError,
    DimensionError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
)
from iescluster import lapack, linalg, njw
from iescluster.affinity import normalized_laplacian
from iescluster.eigengap import eigengap_k
from iescluster.linalg import (
    BlockSpectrum,
    components,
    covariance_eigenvalues,
    pack_blocks,
    top_spectrum,
)
from iescluster.njw import build_affinity, laplacian_spectrum, spectral_embed
from iescluster.scaling import (
    estimate_global_sigma,
    estimate_local_sigmas,
    manual_global_sigma,
)
from iescluster.synth import nested_scale_dataset

from conftest import (
    covariance,
    ideal_block_affinity,
    needs_library,
    pairwise_distances,
    pca,
    separated_blobs,
    symmetric_eigen,
    tau_edge_ring,
)

INV_SQRT2 = 0.7071067811865476  # 1/sqrt(2), hand value


finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def symmetric_matrices(max_n=12):
    return (
        st.integers(min_value=2, max_value=max_n)
        .flatmap(lambda n: arrays(np.float64, (n, n), elements=finite_floats))
        .map(lambda a: (a + a.T) / 2)
    )


def data_matrices(min_n=2, max_n=20, max_m=6):
    return st.tuples(
        st.integers(min_value=min_n, max_value=max_n),
        st.integers(min_value=1, max_value=max_m),
    ).flatmap(lambda nm: arrays(np.float64, nm, elements=finite_floats))


class TestSymmetricEigen:
    def test_identity(self):
        eig = symmetric_eigen(np.eye(3))
        assert np.allclose(eig.values, [1, 1, 1])
        assert np.allclose(eig.vectors @ eig.vectors.T, np.eye(3), atol=1e-12)

    def test_two_by_two_hand_solution(self):
        # [[0,1],[1,0]]: characteristic polynomial l^2 - 1, so l = +-1 with
        # eigenvectors (1,1)/sqrt(2) and (1,-1)/sqrt(2).
        eig = symmetric_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert eig.values == pytest.approx([1.0, -1.0], abs=1e-12)
        assert eig.vectors[:, 0] == pytest.approx([INV_SQRT2, INV_SQRT2], abs=1e-12)
        assert eig.vectors[:, 1] == pytest.approx([INV_SQRT2, -INV_SQRT2], abs=1e-12)

    def test_reconstruction_roundtrip(self, rng):
        a = rng.normal(0, 1, (6, 6))
        a = (a + a.T) / 2
        eig = symmetric_eigen(a)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert np.max(np.abs(recon - a)) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            symmetric_eigen(np.zeros((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(InvalidDataError):
            symmetric_eigen([[np.nan, 0.0], [0.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidDataError):
            symmetric_eigen([[0.0, 1.0], [2.0, 0.0]])

    def test_deterministic_bitwise(self, rng):
        a = rng.normal(0, 1, (8, 8))
        a = (a + a.T) / 2
        e1, e2 = symmetric_eigen(a), symmetric_eigen(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_symmetric_input_decomposed_without_copy(self, rng, monkeypatch):
        a = rng.normal(0, 1, (8, 8))
        a = (a + a.T) / 2
        seen = []
        eigh = np.linalg.eigh

        def spy(m):
            seen.append(m)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        symmetric_eigen(a)
        assert len(seen) == 1 and seen[0] is a

    def test_nearly_symmetric_input_is_averaged(self, rng):
        a = rng.normal(0, 1, (8, 8))
        a = (a + a.T) / 2
        a[5, 2] += 1e-12  # defect below the tolerance, lower triangle only
        eig = symmetric_eigen(a)
        avg = symmetric_eigen((a + a.T) / 2)
        assert np.array_equal(eig.values, avg.values)
        assert np.array_equal(eig.vectors, avg.vectors)
        # eigh reads one triangle: skipping the average would change the bits.
        lower = symmetric_eigen(np.tril(a) + np.tril(a, -1).T)
        assert not np.array_equal(eig.values, lower.values)

    @settings(max_examples=50, deadline=None)
    @given(symmetric_matrices())
    def test_residual_orthonormality_and_order(self, a):
        eig = symmetric_eigen(a)
        n = a.shape[0]
        bound = 1e-8 * max(1.0, float(np.linalg.norm(a, "fro")))
        residual = a @ eig.vectors - eig.vectors * eig.values
        assert np.max(np.sqrt(np.sum(residual**2, axis=0))) <= bound
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(n))) <= 1e-8
        assert np.all(np.diff(eig.values) <= 1e-12)
        # sign convention: largest-magnitude entry of each column positive
        tops = eig.vectors[np.argmax(np.abs(eig.vectors), axis=0), np.arange(n)]
        assert np.all(tops >= 0)


def nested_laplacian(kind):
    """Normalized Laplacian of a three-group nested layout of 1059 points,
    large enough that dsytrd runs blocked and dormtr applies Q in blocks."""
    x = nested_scale_dataset(n_per_group=353, seed=3).features
    if kind == "global":
        scaling = estimate_global_sigma(x)
    else:
        scaling = estimate_local_sigmas(x, pairwise_distances(x), 7)
    return normalized_laplacian(build_affinity(pairwise_distances(x), scaling))


def block_library(monkeypatch):
    monkeypatch.setattr(lapack, "library", lambda: None)


def fail_routine(monkeypatch, name):
    """Make the library's ``name`` run and then report INFO = 1."""
    lib = lapack.library()
    real = lib._call

    def call(routine, *args):
        return real(routine, *args) or int(routine == name)

    monkeypatch.setattr(lib, "_call", call)


@st.composite
def blob_laplacians(draw):
    """Global-scale normalized Laplacian of 2-6 separated Gaussian groups of
    15-100 points each."""
    groups = draw(st.integers(min_value=2, max_value=6))
    sizes = draw(st.lists(st.integers(15, 100), min_size=groups, max_size=groups))
    spread = draw(st.sampled_from([0.05, 1.0, 5.0, 15.0]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    x, _ = separated_blobs(sizes, spread=spread, dims=groups, seed=seed)
    return normalized_laplacian(build_affinity(pairwise_distances(x), estimate_global_sigma(x)))


def with_spectrum(values, seed=0):
    """A symmetric matrix with the given eigenvalues in a random basis."""
    values = np.asarray(values, dtype=float)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((values.size,) * 2))
    a = (q * values) @ q.T
    return (a + a.T) / 2


def ritz_residuals(a, x):
    """Each column's Rayleigh quotient and residual norm |A x - theta x|."""
    ax = a @ x
    theta = np.sum(x * ax, axis=0)
    return theta, np.linalg.norm(ax - x * theta, axis=0)


def no_eigh():
    """Make any eigh decomposition, the fallbacks' included, fail the test."""
    return mock.patch.object(linalg, "_eigh", side_effect=AssertionError("eigh fallback taken"))


def with_diagonal(lap):
    """``lap`` with a nonzero diagonal, which dsytrd overwrites."""
    return lap + np.diag(np.linspace(0.5, 1.5, lap.shape[0]))


class TestTopSpectrum:
    # The cuts the eigengap picks (2 under global, 3 under local scaling) and
    # their neighbours. Local scaling has lambda_1 = lambda_2 = 1: its k = 1
    # is the degenerate-cut fallback, and k = 2, 3 cut below an exact tie.
    @needs_library
    @pytest.mark.parametrize("kind", ["global", "local"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_full_oracle(self, kind, k):
        self.check_against_oracle(nested_laplacian(kind), k)

    @needs_library
    def test_twelve_disconnected_groups(self):
        # lambda_2..lambda_12 agree to 1e-6 and lie within 1e-4 of 1, while
        # the cut at 12 is wide: the near-tie inside the cut takes the
        # tridiagonal path, and only the subspace is compared.
        x, _ = separated_blobs([88] * 12, dims=12)
        lap = normalized_laplacian(build_affinity(pairwise_distances(x), estimate_global_sigma(x)))
        self.check_against_oracle(lap, 12)

    @needs_library
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_small_inputs_match_full_oracle(self, n):
        # Every size takes the tridiagonal path, up to k = n, where no
        # lambda_k+1 bounds the cut.
        a = with_spectrum(np.linspace(1.0, -1.0, n) ** 3, seed=n)
        for k in range(1, n + 1):
            self.check_against_oracle(a, k, eigh=False)

    @staticmethod
    def check_against_oracle(lap, k, eigh=True):
        oracle = symmetric_eigen(lap)
        spec = top_spectrum(lap.copy())
        assert spec.tridiagonal is not None
        assert np.max(np.abs(spec.values - oracle.values)) <= 1e-12
        with contextlib.nullcontext() if eigh else no_eigh():
            x = spec.top(k)
        # The reflectors took the strict upper triangle; the eigh fallback
        # reads the lower one, which is the input's.
        assert np.shares_memory(spec.tridiagonal[0], spec.matrix)
        assert np.array_equal(np.tril(spec.matrix), np.tril(lap))
        assert x.shape == (lap.shape[0], k)
        p = oracle.vectors[:, :k]
        assert np.linalg.norm(x - p @ (p.T @ x)) <= 1e-10
        assert np.max(np.abs(x.T @ x - np.eye(k))) <= 1e-12
        # Column i belongs to the i-th largest eigenvalue.
        theta, residuals = ritz_residuals(lap, x)
        assert np.max(np.abs(theta - oracle.values[:k])) <= 1e-12
        assert np.max(residuals) <= 1e-10
        tops = x[np.argmax(np.abs(x), axis=0), np.arange(k)]
        assert np.all(tops > 0)

    @needs_library
    @pytest.mark.parametrize("k", [5, 40, 97])
    def test_bulk_cuts_match_full_oracle(self, k):
        # Cuts inside the local-scale bulk (gaps 1e-4 to 4e-3), where dormtr
        # applies Q to many columns.
        self.check_against_oracle(nested_laplacian("local"), k, eigh=False)

    @needs_library
    @settings(max_examples=25, deadline=None)
    @given(blob_laplacians())
    def test_eigengap_cut_matches_oracle_within_residual_over_gap(self, lap):
        self.check_eigengap_cut(lap)

    @needs_library
    def test_rounding_floor_of_the_subspace_bound(self):
        # A drawn 37-point Laplacian whose subspace difference, 1.16e-15,
        # exceeded the Davis-Kahan bound without its rounding floor,
        # 1.12e-15. sigma^2 is pinned to the bits the draw had.
        x, _ = separated_blobs([22, 15], spread=0.05, dims=2, seed=89)
        sigma = manual_global_sigma(float.fromhex("0x1.35a5c35c9681ep+12"))
        self.check_eigengap_cut(normalized_laplacian(build_affinity(pairwise_distances(x), sigma)))

    @staticmethod
    def check_eigengap_cut(lap):
        """The top k vectors at the eigengap's k of a node-sized Laplacian,
        with no eigh fallback, against the oracle's subspace."""
        n = lap.shape[0]
        oracle = symmetric_eigen(lap)
        spec = top_spectrum(lap.copy())
        assert spec.tridiagonal is not None
        assert np.max(np.abs(spec.values - oracle.values)) <= 1e-12
        k = eigengap_k(spec.values).k
        assert k > 1
        with no_eigh():
            x = spec.top(k)
        assert x.shape == (n, k)
        assert np.max(np.abs(x.T @ x - np.eye(k))) <= 1e-12
        # Every column is an eigenvector of its eigenvalue, in order, to the
        # tie rule's tolerance.
        tol = n * np.finfo(float).eps * np.max(np.abs(spec.values))
        theta, residuals = ritz_residuals(lap, x)
        assert np.max(np.abs(theta - spec.values[:k])) <= tol
        assert np.max(residuals) <= tol
        # Davis-Kahan sin(theta): each basis is within its residual over its
        # distance to lambda_k+1 of the true subspace, so within the sum of
        # the two of each other. The computed difference also carries the
        # rounding of p.T @ x, k x k inner products of n terms, about
        # sqrt(n) * eps each, which p carries over unchanged: a floor of
        # sqrt(n) * k * eps, which two orthonormal bases of one subspace
        # stay below by 4x.
        p = oracle.vectors[:, :k]
        bound = math.sqrt(n) * k * np.finfo(float).eps
        for v in (x, p):
            theta, residuals = ritz_residuals(lap, v)
            bound += np.linalg.norm(residuals) / (theta.min() - oracle.values[k])
        assert np.linalg.norm(x - p @ (p.T @ x), 2) <= bound
        tops = x[np.argmax(np.abs(x), axis=0), np.arange(k)]
        assert np.all(tops > 0)

    @needs_library
    def test_degenerate_cut_returns_oracle_bits(self):
        # Two disconnected groups: lambda_1 = lambda_2 = 1, so the top-1
        # subspace is not determined by the matrix.
        lap = normalized_laplacian(ideal_block_affinity([510, 520]))
        oracle = symmetric_eigen(lap)
        spec = top_spectrum(lap)
        assert spec.tridiagonal is not None
        assert np.array_equal(spec.top(1), oracle.vectors[:, :1])
        # A sweep whose cuts include 1 falls back as a whole; cut 2 alone is
        # well separated and takes the tridiagonal path.
        assert np.array_equal(spec.top(2, k_min=1), oracle.vectors[:, :2])
        x, p = spec.top(2), oracle.vectors[:, :2]
        assert not np.array_equal(x, p)
        assert np.linalg.norm(x - p @ (p.T @ x)) <= 1e-10

    @needs_library
    def test_near_tie_cut_returns_oracle_bits(self):
        # lambda_2 - lambda_3 = 1e-15, far below n * eps.
        values = np.concatenate([[1.0, 0.5 + 1e-15, 0.5], np.linspace(0.2, -0.2, 197)])
        a = with_spectrum(values)
        spec = top_spectrum(a.copy())
        assert spec.tridiagonal is not None
        assert np.array_equal(spec.top(2), symmetric_eigen(a).top(2))

    @needs_library
    def test_tie_fallback_keeps_the_tridiagonal_form(self):
        # Two groups too far apart to share an affinity: lambda_1 = lambda_2
        # = 1 ties cut 1, and cut 3 is untied. The eigh fallback at cut 1
        # must leave the buffer's reflectors for the tridiagonal path at 3.
        x, _ = separated_blobs([70, 90], spread=1.0, dims=3)
        lap = normalized_laplacian(build_affinity(pairwise_distances(x), manual_global_sigma(2.0)))
        spec = top_spectrum(lap.copy())
        assert linalg._tied_cut(spec.values, 1, None)
        assert not linalg._tied_cut(spec.values, 3, None)
        assert np.array_equal(spec.top(1), symmetric_eigen(lap).top(1))
        assert np.array_equal(spec.top(3), top_spectrum(lap.copy()).top(3))

    @needs_library
    def test_repeatable(self):
        lap = nested_laplacian("global")
        a, b = top_spectrum(lap.copy()), top_spectrum(lap.copy())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.top(3), b.top(3))

    @needs_library
    def test_failed_inverse_iteration_returns_oracle_bits(self, monkeypatch):
        lap = with_diagonal(nested_laplacian("global"))
        spec = top_spectrum(lap.copy())
        fail_routine(monkeypatch, "dstein")
        assert np.array_equal(spec.top(2), symmetric_eigen(lap).vectors[:, :2])

    @needs_library
    def test_failed_eigenvalues_return_oracle_bits(self, monkeypatch):
        lap = with_diagonal(nested_laplacian("global"))
        fail_routine(monkeypatch, "dsterf")
        spec = top_spectrum(lap.copy())
        oracle = symmetric_eigen(lap)
        assert spec.tridiagonal is None and spec.matrix is None
        assert np.array_equal(spec.values, oracle.values)
        assert np.array_equal(spec.top(2), oracle.top(2))

    def test_without_library_is_the_oracle(self, monkeypatch):
        lap = nested_laplacian("global")
        block_library(monkeypatch)
        spec = top_spectrum(lap)
        oracle = symmetric_eigen(lap)
        assert spec.vectors is not None
        assert np.array_equal(spec.values, oracle.values)
        assert np.array_equal(spec.top(3), oracle.vectors[:, :3])

    def test_eigh_spectrum_keeps_no_matrix(self, monkeypatch):
        # Stored vectors answer every top(k); holding the input as well
        # would keep one more n x n array alive per spectrum.
        lap = normalized_laplacian(ideal_block_affinity([10, 12]))
        block_library(monkeypatch)
        for spec in (symmetric_eigen(lap), top_spectrum(lap)):
            assert spec.vectors is not None and spec.matrix is None

    def test_symmetry_checked_once(self, monkeypatch):
        # top_spectrum trusts the chain's matrix and runs no n x n check;
        # spectral_embed checks an outside matrix once. On every path: the
        # tridiagonal form, its eigh fallback at a tie, and eigh without
        # the library.
        tied = normalized_laplacian(ideal_block_affinity([70, 90]))
        calls = []
        check = linalg._symmetric

        def counted(m):
            calls.append(1)
            return check(m)

        monkeypatch.setattr(linalg, "_symmetric", counted)
        monkeypatch.setattr(njw, "_symmetric", counted)
        for blocked in (False, True):
            if blocked:
                block_library(monkeypatch)
            for k in (2, 1):
                top_spectrum(tied.copy()).top(k)
                assert calls == []
            spectral_embed(tied, 2)
            assert len(calls) == 1
            calls.clear()

    @pytest.mark.parametrize("n", [5, 1000])
    def test_k_out_of_range(self, n):
        spec = top_spectrum(np.eye(n) + 1.0)
        for k in (0, n + 1):
            with pytest.raises(InvalidParameterError):
                spec.top(k)

    def test_input_validation_matches_oracle(self):
        # spectral_embed checks an outside matrix as symmetric_eigen does.
        # top_spectrum checks only the shape, which keeps LAPACK inside the
        # buffer.
        a = np.ones((6, 6))
        a[0, 1] = 2.0
        with pytest.raises(InvalidDataError):
            spectral_embed(a, 2)
        with pytest.raises(InvalidDataError):
            spectral_embed([[np.nan, 0.0], [0.0, 1.0]], 1)
        for spectrum in (lambda m: spectral_embed(m, 2), top_spectrum):
            with pytest.raises(DimensionError):
                spectrum(np.zeros((6, 7)))

    @staticmethod
    def run_isolated(code):
        src = str(Path(__import__("iescluster").__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code], env=env).returncode

    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, iescluster; sys.exit('scipy' in sys.modules)"
        assert self.run_isolated(code) == 0

    @needs_library
    def test_tridiagonal_solve_leaves_scipy_unloaded(self):
        code = (
            "import sys, numpy as np\n"
            "from iescluster.linalg import top_spectrum\n"
            "x = np.random.default_rng(0).standard_normal((80, 80))\n"
            "spec = top_spectrum(x + x.T)\n"
            "assert spec.tridiagonal is not None and spec.top(3).shape == (80, 3)\n"
            "sys.exit('scipy' in sys.modules)\n"
        )
        assert self.run_isolated(code) == 0

    # Either size: a node's Laplacian and the benchmark roots' order.
    @pytest.mark.parametrize("small", [False, True])
    def test_failed_self_check_is_the_numpy_path(self, monkeypatch, request, small):
        if small:
            lap = normalized_laplacian(ideal_block_affinity([10, 12]))
        else:
            lap = nested_laplacian("global")
        with monkeypatch.context() as blocked:
            block_library(blocked)
            numpy_only = top_spectrum(lap)
            expected = numpy_only.values, numpy_only.top(3)
        request.addfinalizer(lapack.library.cache_clear)
        monkeypatch.setattr(lapack, "_self_check", lambda lib: False)
        lapack.library.cache_clear()
        assert lapack.library() is None
        spec = top_spectrum(lap)
        assert spec.tridiagonal is None
        assert np.array_equal(spec.values, expected[0])
        assert np.array_equal(spec.top(3), expected[1])

    def test_bundled_library_is_found(self):
        # Where numpy ships an OpenBLAS64, the lookup must accept it: a
        # binding that fails the self-check would silently skip every
        # tridiagonal test.
        if not list(lapack._candidates()):
            pytest.skip("numpy bundles no OpenBLAS64")
        assert lapack.library() is not None

    def test_library_without_the_routines_is_refused(self):
        ctypes_module = pytest.importorskip("_ctypes")
        if not hasattr(ctypes_module, "__file__"):
            pytest.skip("_ctypes is built into the interpreter")
        # A shared library that links no LAPACK, and a file that is none.
        assert lapack._open(Path(ctypes_module.__file__)) is None
        assert lapack._open(Path(__file__)) is None


def union_find_components(a):
    """Slow oracle of ``components``: union-find over every nonzero pair,
    labels numbered by each component's first member."""
    n = a.shape[0]
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if a[i, j] != 0:
                parent[root(i)] = root(j)
    first = {}
    labels = [first.setdefault(root(i), len(first)) for i in range(n)]
    return np.array(labels), len(first)


def block_pattern(labels, seed=0):
    """A symmetric matrix with zero diagonal whose entries are nonzero
    exactly between distinct points of one label."""
    x = np.random.default_rng(seed).uniform(0.5, 1.5, (labels.size,) * 2)
    a = (x + x.T) * (labels[:, None] == labels[None, :])
    np.fill_diagonal(a, 0.0)
    return a


def broom_graph(leaves, handle):
    """A star of ``leaves`` leaves on point 0, with a path of ``handle``
    points hanging off its last leaf: the second frontier is wider than one
    chunk, and only its last row leads on."""
    n = 1 + leaves + handle
    a = np.zeros((n, n))
    a[0, 1 : leaves + 1] = 1.0
    a[np.arange(leaves, n - 1), np.arange(leaves + 1, n)] = 1.0
    return a + a.T


def path_graph(n):
    """The path 0 - 1 - ... - n-1 with its points in a shuffled order:
    diameter n - 1, one new point per frontier."""
    p = np.random.default_rng(n).permutation(n)
    a = np.zeros((n, n))
    a[p[:-1], p[1:]] = a[p[1:], p[:-1]] = 1.0
    return a


class TestComponents:
    @pytest.mark.parametrize(
        "a",
        [
            path_graph(300),
            broom_graph(400, 30),
            # Size-2 components: each point and its mirror.
            block_pattern(np.minimum(np.arange(40), 39 - np.arange(40))),
            # Interleaved members, components wider than one frontier chunk.
            block_pattern(np.arange(900) % 3),
            block_pattern(np.zeros(50, dtype=int)),
            # Isolated points are components of their own.
            block_pattern(np.array([0, 1, 0, 2, 3, 3])),
        ],
        ids=["path", "broom", "pairs", "interleaved", "connected", "singletons"],
    )
    def test_matches_union_find(self, a):
        labels, count = components(a)
        expected, expected_count = union_find_components(a)
        assert count == expected_count
        assert np.array_equal(labels, expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.0, 0.0, 1e-300, 0.7]))
    ))
    def test_random_patterns_match_union_find(self, x):
        a = x + x.T
        labels, count = components(a)
        expected, expected_count = union_find_components(a)
        assert count == expected_count
        assert np.array_equal(labels, expected)

    def test_connected_dense_matrix_reads_one_row(self):
        # Every global-scale node: the first row reaches every point.
        reads = []

        class Rows(np.ndarray):
            def __getitem__(self, key):
                reads.append(np.size(key))
                return np.asarray(self)[key]

        a = (np.ones((500, 500)) - np.eye(500)).view(Rows)
        labels, count = components(a)
        assert count == 1 and not labels.any()
        assert reads == [1]


def permuted_blocks(sizes, seed=0):
    """A symmetric matrix whose exact nonzero pattern is the given
    components, each connected, with the points in a random order."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    a = block_pattern(labels, seed)
    p = np.random.default_rng(seed).permutation(labels.size)
    return np.ascontiguousarray(a[np.ix_(p, p)])


def permuted_laplacian(seed=0):
    """``nested_laplacian("local")``, two components, in a random order."""
    lap = nested_laplacian("local")
    p = np.random.default_rng(seed).permutation(lap.shape[0])
    return np.ascontiguousarray(lap[np.ix_(p, p)])


class TestPackBlocks:
    @pytest.mark.parametrize("sizes", [(1, 1), (3, 1, 4), (300, 7, 520), (2,) * 20])
    def test_blocks_are_packed_views_of_the_buffer(self, sizes):
        a = permuted_blocks(sizes, seed=len(sizes))
        original = a.copy()
        labels, count = components(a)
        members, blocks = pack_blocks(a, labels, count)
        assert np.array_equal(np.concatenate(members), np.argsort(labels, kind="stable"))
        offset = 0
        for m, block in zip(members, blocks):
            assert np.all(labels[m] == labels[m[0]]) and np.all(np.diff(m) > 0)
            assert block.flags.c_contiguous
            assert np.shares_memory(block, a)
            assert block.__array_interface__["data"][0] == a.ctypes.data + 8 * offset
            assert np.array_equal(block, original[np.ix_(m, m)])
            offset += m.size**2


class TestBlockSpectrum:
    """A disconnected Laplacian, block by block, against the whole matrix
    decomposed by eigh."""

    def test_merged_values_match_whole_oracle(self):
        lap = permuted_laplacian()
        n = lap.shape[0]
        oracle = symmetric_eigen(lap)
        spec = laplacian_spectrum(lap.copy())
        assert isinstance(spec, BlockSpectrum) and len(spec.blocks) == 2
        assert np.all(np.diff(spec.values) <= 0)
        tol = n * np.finfo(float).eps * np.max(np.abs(oracle.values))
        assert np.max(np.abs(spec.values - oracle.values)) <= tol
        assert eigengap_k(spec.values).k == eigengap_k(oracle.values).k
        # One λ = 1 per component, in the order of their first members.
        assert np.array_equal(spec.owner[:2], [0, 1])

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_top_spans_the_oracle_subspace(self, k):
        lap = permuted_laplacian(seed=k)
        n = lap.shape[0]
        oracle = symmetric_eigen(lap)
        tol = n * np.finfo(float).eps * np.max(np.abs(oracle.values))
        assert oracle.values[k - 1] - oracle.values[k] > tol
        spec = laplacian_spectrum(lap.copy())
        x = spec.top(k)
        p = oracle.vectors[:, :k]
        assert np.linalg.norm(x - p @ (p.T @ x)) <= 1e-10
        assert np.max(np.abs(x.T @ x - np.eye(k))) <= 1e-12
        theta, residuals = ritz_residuals(lap, x)
        assert np.max(np.abs(theta - oracle.values[:k])) <= 1e-12
        assert np.max(residuals) <= 1e-10
        # Each column lives on the rows of the block that owns it.
        for b, members in enumerate(spec.members):
            outside = np.setdiff1d(np.arange(n), members)
            assert not x[np.ix_(outside, spec.owner[:k] == b)].any()

    def test_columns_a_block_does_not_own_are_zero_on_its_rows(self):
        spec = laplacian_spectrum(permuted_laplacian())
        x = spec.top(1)
        assert not x[spec.members[1]].any()
        assert np.all(x[spec.members[0]] > 0)

    def test_each_block_answers_its_own_cuts(self):
        # Blocks of sizes 5 and 3 with spectra interleaved: the merged cuts
        # 2..5 fall at each block's cuts 1..3 and 1..2.
        a = with_spectrum([4.0, 2.0, 0.5, 0.0, -1.0])
        b = with_spectrum([3.0, 1.0, -2.0], seed=1)
        spec = BlockSpectrum.merge(
            [np.array([0, 2, 4, 6, 7]), np.array([1, 3, 5])],
            [symmetric_eigen(a), symmetric_eigen(b)],
        )
        assert np.allclose(spec.values, [4.0, 3.0, 2.0, 1.0, 0.5, 0.0, -1.0, -2.0], atol=1e-14)
        assert np.array_equal(spec.owner, [0, 1, 0, 1, 0, 0, 0, 1])
        blocks = [mock.Mock(wraps=block) for block in spec.blocks]
        spec = BlockSpectrum(spec.values, spec.owner, spec.members, blocks)
        x = spec.top(5, 2)
        assert [block.top.call_args.args for block in blocks] == [(3, 1), (2, 1)]
        assert np.array_equal(x[np.ix_([0, 2, 4, 6, 7], [0, 2, 4])], symmetric_eigen(a).top(3))
        assert np.array_equal(x[np.ix_([1, 3, 5], [1, 3])], symmetric_eigen(b).top(2))
        spec.top(5)
        assert blocks[0].top.call_args.args == (3, None)

    def test_numerically_equal_values_go_in_block_order(self):
        # λ = 1 of the second block rounds above the first's.
        one, above = 1.0, np.nextafter(1.0, 2.0)
        blocks = [
            symmetric_eigen(np.diag([one, 0.5])),
            symmetric_eigen(np.diag([above, 0.25])),
        ]
        spec = BlockSpectrum.merge([np.array([0, 1]), np.array([2, 3])], blocks)
        assert np.array_equal(spec.values, [above, one, 0.5, 0.25])
        assert np.array_equal(spec.owner, [0, 1, 0, 1])

    def test_k_out_of_range(self):
        spec = laplacian_spectrum(permuted_laplacian())
        for k in (0, spec.values.size + 1):
            with pytest.raises(InvalidParameterError):
                spec.top(k)

    def test_connected_laplacian_takes_top_spectrum_unchanged(self):
        lap = nested_laplacian("global")
        spec = laplacian_spectrum(lap)
        whole = top_spectrum(nested_laplacian("global"))
        assert isinstance(spec, linalg.Spectrum) and spec.matrix is lap
        assert np.array_equal(spec.values, whole.values)
        assert np.array_equal(spec.top(3), whole.top(3))


class TestCovariance:
    def test_identical_rows_zero(self):
        assert np.array_equal(covariance(np.ones((4, 3))), np.zeros((3, 3)))

    def test_one_column_hand_value(self):
        # [0, 2]: mean 1, sample variance (1 + 1) / (2 - 1) = 2.
        cov = covariance([[0.0], [2.0]])
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(2.0)

    def test_independent_columns(self):
        # Columns orthogonal after centering by construction.
        data = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        cov = covariance(data)
        assert cov[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert np.diag(cov) == pytest.approx([4 / 3, 4 / 3])

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            covariance([[1.0, 2.0]])

    @settings(max_examples=50, deadline=None)
    @given(data_matrices())
    def test_psd_spectrum(self, data):
        cov = covariance(data)
        values = symmetric_eigen(cov).values
        scale = max(1.0, float(np.max(np.abs(cov))))
        assert values.min() >= -1e-10 * scale


class TestCovarianceEigenvalues:
    @pytest.mark.parametrize("shape", [(2, 50), (12, 50), (50, 50), (80, 6), (5, 1)])
    def test_match_pca_variances_on_both_sides(self, rng, shape):
        data = rng.normal(0, 2.0, shape)
        values = covariance_eigenvalues(data)
        variances = pca(data).variances
        assert values.shape == (shape[1],)
        assert np.all(values >= 0.0) and np.all(np.diff(values) <= 0.0)
        assert values == pytest.approx(variances, rel=1e-12, abs=1e-12 * variances[0])
        # n points span at most n - 1 directions.
        assert np.all(values[shape[0] - 1 :] <= 1e-12 * values[0])


class TestPca:
    def test_axis_aligned_variances(self):
        # Columns built with sample variances exactly (9, 1), orthogonal
        # after centering, so weights are (0.9, 0.1).
        s = np.sqrt(0.75)
        data = s * np.array([[-3.0, -1.0], [-3.0, 1.0], [3.0, -1.0], [3.0, 1.0]])
        res = pca(data)
        assert res.variances == pytest.approx([9.0, 1.0], rel=1e-12)
        assert res.weights == pytest.approx([0.9, 0.1], rel=1e-12)

    def test_repeated_point_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pca(np.tile([2.0, 5.0], (6, 1)))

    @settings(max_examples=50, deadline=None)
    @given(data_matrices())
    def test_variance_sum_is_trace(self, data):
        try:
            res = pca(data)
        except DegenerateDataError:
            return
        trace = float(np.trace(covariance(data)))
        assert np.sum(res.variances) == pytest.approx(trace, abs=1e-9 * max(1, trace))

    @settings(max_examples=30, deadline=None)
    @given(data_matrices(min_n=3))
    def test_projected_columns_uncorrelated(self, data):
        try:
            res = pca(data)
        except DegenerateDataError:
            return
        proj_cov = covariance(res.projected)
        scale = max(np.abs(np.diag(proj_cov)).max(), 1e-12)
        off = proj_cov - np.diag(np.diag(proj_cov))
        assert np.max(np.abs(off)) <= 1e-8 * scale


class TestPairwiseDistances:
    def test_matches_per_pair_oracle_exactly(self, rng):
        x = rng.normal(0, 10, (25, 4))
        d = pairwise_distances(x)
        for i in range(25):
            for j in range(25):
                assert d[i, j] == np.sqrt(np.sum((x[i] - x[j]) ** 2))

    def test_symmetric_zero_diagonal(self, rng):
        d = pairwise_distances(rng.normal(0, 1, (10, 3)))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    @pytest.mark.parametrize("n", [1, 2, 300])
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_wide_rows_match_per_pair_oracle_exactly(self, rng, n, offset):
        # m = 200 sums each row pairwise in blocks. For n = 300, rows 1 and
        # n-1 repeat row 0 so that exact zeros appear off the diagonal.
        x = rng.normal(0, 3, (n, 200)) + offset
        if n > 2:
            x[1] = x[n - 1] = x[0]
        d = pairwise_distances(x)
        oracle = np.array(
            [[np.sqrt(np.sum((x[i] - x[j]) ** 2)) for j in range(n)] for i in range(n)]
        )
        assert np.array_equal(d, oracle)


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
BIG = np.finfo(float).max


def exact_sq_norm(v) -> Fraction:
    return sum(Fraction(p) ** 2 for p in v.tolist())


def exact_sq_distance(a, b) -> Fraction:
    return sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(a.tolist(), b.tolist()))


class TestGramDistances:
    """``gram_distances`` against its oracle ``pairwise_distances``: the
    documented bound on every entry, and the oracle's bits wherever the Gram
    form flags an entry (near or exact duplicates, overflow)."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 24),
        st.integers(1, 12),
        st.booleans(),
        st.sampled_from([0.0, 1e8, -3.5e7]),
        st.integers(-520, 520) | st.sampled_from([-500, 500, 512, 520]),
        st.sampled_from([1, 3, 256]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_difference_form_within_bound(self, n, m, grid, offset, s, rows, seed):
        rng = np.random.default_rng(seed)
        # Small integers give exact duplicates and near-cancelling pairs.
        x = rng.integers(-2, 3, (n, m)).astype(float) if grid else rng.normal(0.0, 1.0, (n, m))
        for i in range(1, n):
            if rng.random() < 0.2:
                x[i] = x[rng.integers(0, i)]
        x = np.ldexp(x + offset * rng.random(m), s)
        with mock.patch.object(linalg, "_GRAM_ROWS", rows), np.errstate(over="ignore"):
            got = linalg.gram_distances(x)
            want = pairwise_distances(x)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0) and not np.any(np.signbit(np.diag(got)))
        with np.errstate(over="ignore", invalid="ignore"):
            c = x - x.mean(axis=0)
        tau = Fraction(linalg._GRAM_TAU)
        for i in range(n):
            for j in range(i + 1, n):
                if np.isinf(want[i, j]):
                    assert got[i, j] == np.inf
                    continue
                d2 = exact_sq_distance(x[i], x[j])
                scale = exact_sq_norm(c[i]) + exact_sq_norm(c[j])
                floor = max(scale, Fraction(TINY / EPS))
                if d2 <= tau / 2 * floor or scale > Fraction(BIG) / 2:
                    # Flagged whatever the rounding: the oracle's bits.
                    assert got[i, j] == want[i, j]
                    continue
                g2 = Fraction(float(got[i, j])) ** 2
                assert abs(g2 - d2) <= (m + 4) * Fraction(EPS) * floor + Fraction(EPS) * g2

    def test_duplicates_zero_and_blocks_symmetric(self, rng):
        # Several row blocks; rows 1 and n-1 repeat row 0 and row 2 sits 1e-9
        # from it, so those pairs are flagged across and within blocks.
        n, m = 700, 200
        x = rng.normal(0, 3, (n, m)) + 1e8
        x[1] = x[n - 1] = x[0]
        x[2] = x[0] + 1e-9 * rng.normal(0, 1, m)
        got = linalg.gram_distances(x)
        want = pairwise_distances(x)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0)
        for i, j in [(0, 1), (0, n - 1), (1, n - 1), (0, 2), (2, n - 1)]:
            assert got[i, j] == want[i, j]
        assert got[0, 1] == got[0, n - 1] == 0.0
        c = x - x.mean(axis=0)
        sq = np.einsum("ij,ij->i", c, c)
        floor = np.maximum(np.add.outer(sq, sq), TINY / EPS)
        # The Gram bound, plus the oracle's own rounding, both with room.
        tol = 2 * (m + 4) * EPS * floor + 2 * (m + 4) * EPS * want**2
        assert np.all(np.abs(got**2 - want**2) <= tol)

    def test_overflow_matches_difference_form(self):
        # Differences of 2^520 overflow when squared: the oracle's inf.
        x = np.ldexp(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), 520)
        with np.errstate(over="ignore"):
            got = linalg.gram_distances(x)
        assert np.array_equal(got, pairwise_distances(x))
        assert np.isinf(got[0, 1])

    def test_scale_above_ceiling_takes_difference_form(self):
        # A distance just below sqrt(max): the difference form stays finite,
        # while the Gram form's last addition rounds up past max to inf. Only
        # the ceiling on the scale (here above max/4) sends it to the oracle.
        x = np.array([
            [-3.811481103628084e153, -4.511486134506015e153, 5.744199896243175e152],
            [4.716582968177838e153, 5.579806265239968e153, -1.707520933413254e153],
        ])
        with np.errstate(over="ignore"):
            got = linalg.gram_distances(x)
            want = pairwise_distances(x)
        assert np.isfinite(want[0, 1])
        assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 24),
        st.integers(1, 12) | st.just(200),
        st.sampled_from(["normal", "grid", "near", "ring"]),
        st.sampled_from([0.0, 1e8, -3.5e7]),
        st.integers(-540, 520) | st.sampled_from([-540, -500, 500, 512, 520]),
        st.integers(0, 2**32 - 1),
    )
    def test_relative_contract(self, n, m, layout, offset, s, seed):
        # gram_relative_error's contract on every entry, in exact arithmetic:
        # D = 0 exactly where q = 0, D = inf exactly where q = inf, and
        # otherwise |q - D^2| <= rho(m) D^2, with q the pair's difference
        # form. The ring puts trusted entries just above the tau cut.
        rng = np.random.default_rng(seed)
        if layout == "ring":
            x = tau_edge_ring(rng, max(m, 2))
        elif layout == "grid":
            x = rng.integers(-2, 3, (n, m)).astype(float)
        else:
            x = rng.normal(0.0, 1.0, (n, m))
            for i in range(1, n):
                if rng.random() < 0.2:
                    x[i] = x[rng.integers(0, i)]
                    if layout == "near":
                        x[i] += 1e-9 * rng.normal(0, 1, m)
        n, m = x.shape
        x = np.ldexp(x + offset * rng.random(m), s)
        with np.errstate(over="ignore"):
            got = linalg.gram_distances(x)
        rows, cols = np.triu_indices(n)
        q = linalg.pair_squared_distances(x, rows, cols)
        rho = Fraction(linalg.gram_relative_error(m))
        for qv, dv in zip(q.tolist(), got[rows, cols].tolist()):
            if qv in (0.0, math.inf) or dv in (0.0, math.inf):
                assert qv == dv
                continue
            d2 = Fraction(dv) ** 2
            assert abs(Fraction(qv) - d2) <= rho * d2
